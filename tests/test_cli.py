"""CLI: subcommands, formats, determinism, exit codes."""

import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from digests import GK_SHA256, SERIES_SHA256, gk_digest, series_digest
from oplab.algebra import MonomialAlgebraPresentation, format_algebra
from oplab.cli import CATALOG, _presentation_hash, preset_presentation, run, sweep_family
from oplab.constructions import operadize
from oplab.monomial import format_presentation

# stdout of the gapcheck runs in TestGapcheck.test_reports_are_pinned when the
# affine bound was still checked over Fractions
GAPCHECK_SHA256 = "d203acd8467431e866066d5a40bfaf8e3d4fcf55be26069f00c728f4fd1d8a01"

# the presentation digest of ex53-2 that `dims --emit json` printed when it
# was taken with hashlib
EX53_2_SHA256 = "21ec5441c4e9a8f93029a3cf71f42a509bf6bf56d68ec5fe06a8870bda2c6bcd"

# the parameter passed to each preset that takes one
PRESET_PARAMS = {"ex34": "1.5", "floorpow": "1.5", "ex35": "2.5", "warfield": "2.5",
                 "polyring": "2", "free": "2", "free-operad": "2"}

# SHA-256 over the exit code and stdout of `series --max 12 --emit json` on
# each catalog key (with PRESET_PARAMS), followed for a presentation preset by
# those of `dims --max-arity 8 --emit json` and `grammar`, when every preset
# and its alias were written out in full in the catalog
PRESET_OUTPUT_SHA256 = {
    "ex34": "aa54beba39bfb75b6570382ad03f768c0be3b0365e052fe8b8a3b18e982fba6a",
    "ex35": "7a9c9dc0fbf645b68147bc1b9c27c6dd23a896a8120240e0bbde2371dceeb672",
    "ex46-avoidance": "e7c215068ef7a6ea91b7ff16d81f119a609dfaaf70509b7fd2c9eeb16b3deab3",
    "ex53-1": "183638ac5475b742abac04a8868a6dbc2806a6855c67a0625829ec7a2800a155",
    "ex53-2": "1eb05a67dc36ca4c5ed527e39ba6501a080f4cc171984dbdb71baf7bc1563114",
    "ex53-3": "0e0a3ea50d6a46addfdadc99884d406358b018e7ea239cc31b2fe0c58a323b7c",
    "ex62": "f17f3c1fa7f14d3f70c001b4c4d39a7bf07e71966970ec8ac989d45eaa85ba62",
    "ex64-partition": "bf15de9f1b623a8609e4e38041400eae63af0975a576b922fc66f26560c0b827",
    "example62": "d755a6cb871239cc372aa8db4c320e349107a6f3ac24a277f5f08d1cab51c422",
    "fibonacci": "aa13e6420cd9fefecc453b9f82cd449ed1fe0b37dbeb43468ce7a8a052806666",
    "floorpow": "ec24eabdd692e75a0689e9d195df38cd35c33d6f12a59996ea9921e9033b6f7a",
    "free": "4a06d067f8045ef2f00383229c890200d9b579c45275d132d32ad2e0cfe4c07c",
    "free-operad": "f498baef4c1987693fc99fca02af0f3453995420838ecaa03407b929453800d8",
    "partition": "3ecba7f29aa0a1eed741172089cfbef1180f8422ddfec52d32c0cd779b7bb8f5",
    "polyring": "f90d8159f2e89aafb9c4ae3daf05b33abd43297541cb2fd22aab4de4cc17a199",
    "warfield": "db1861300601c007467d2c7662183f8ee371969d6f0bdbb3d3e482af8e2671e4",
}


def preset_spec(name: str) -> str:
    """The catalog key ``name`` with its PRESET_PARAMS parameter, if it takes one."""
    return f"{name}:{PRESET_PARAMS[name]}" if name in PRESET_PARAMS else name


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The environment of a fresh interpreter that can import oplab."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def invoke(*argv, stdin=None, monkeypatch=None):
    out = io.StringIO()
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestDims:
    def test_fibonacci_preset(self):
        code, text = invoke("dims", "--preset", "ex53-2", "--max-arity", "10")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "index,dim,partial_sum,log_n_partial_sum"
        dims = [int(line.split(",")[1]) for line in lines[1:]]
        assert dims == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_engine_choice(self):
        _, brute = invoke("dims", "--preset", "ex53-2", "--max-arity", "9",
                          "--engine", "brute")
        _, dp = invoke("dims", "--preset", "ex53-2", "--max-arity", "9",
                       "--engine", "dp")
        assert brute == dp

    def test_json_metadata(self):
        code, text = invoke("dims", "--preset", "ex53-1", "--max-arity", "6",
                            "--emit", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["values"] == ["0", "1", "1", "2", "4", "8", "16"]
        assert payload["engine"] == "dp"
        assert payload["exact"] is True
        assert len(payload["sha256"]) == 64

    def test_json_line_is_pinned(self):
        # the sha256 covers the presentation's name, which an alias keeps
        code, text = invoke("dims", "--preset", "fibonacci", "--max-arity", "8",
                            "--emit", "json")
        assert code == 0
        assert text == (
            '{"command": "dims", "engine": "dp", "exact": true, "index_kind": "arity", '
            '"sha256": "e6dba8baf65b7d1fc96038a0dfee385cb93e0c82f6dda9f46127cb06d5064648", '
            '"source": "fibonacci", "truncation": 8, '
            '"values": ["0", "1", "1", "2", "3", "5", "8", "13", "21"]}\n')

    def test_presentation_file(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("generator a 2\nrelation a(a(*,*),a(*,*))\n")
        code, text = invoke("dims", "--presentation", str(f), "--max-arity", "5")
        assert code == 0
        assert text.splitlines()[5].startswith("4,4,")

    @pytest.mark.parametrize("argv", [
        ("series", "--max", "5"), ("gk", "--N", "20"), ("fit", "--max", "20"),
        ("guess", "--max", "20", "--max-order", "1", "--max-degree", "1"),
    ], ids=lambda argv: argv[0])
    def test_engine_belongs_to_dims_only(self, capsys, argv):
        code, _ = invoke(*argv, "--preset", "ex53-2", "--engine", "brute")
        assert code == 1
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_order_flag_rejected(self, capsys):
        code, _ = invoke("dims", "--preset", "ex53-2", "--max-arity", "5",
                         "--order", "degrevlex")
        assert code == 1
        assert "unrecognized arguments: --order" in capsys.readouterr().err

    def test_a_wide_generator_counts_with_both_engines(self, tmp_path):
        # dp walks 1200 child slots without recursing once per slot, well
        # within 3 s (about 0.15 s on a 2-vCPU Linux VM)
        f = tmp_path / "wide.txt"
        f.write_text("generator a 1200\n")
        start = time.perf_counter()
        code, dp = invoke("dims", "--presentation", str(f), "--max-arity", "3")
        assert time.perf_counter() - start < 3
        assert code == 0
        assert [line.split(",")[1] for line in dp.splitlines()[1:]] == ["0", "1", "0", "0"]
        assert dp == invoke("dims", "--presentation", str(f), "--max-arity", "3",
                            "--engine", "brute")[1]

    def test_free_operad_16_at_arity_200(self):
        # 65536 rules but 17 distinct terms, counted within 10 s (about 1.1 s
        # on a 2-vCPU Linux VM): C(16m, m)/(15m+1) trees of arity 15m+1
        start = time.perf_counter()
        code, text = invoke("dims", "--preset", "free-operad:16", "--max-arity", "200")
        assert time.perf_counter() - start < 10
        assert code == 0
        dims = [int(line.split(",")[1]) for line in text.splitlines()[1:]]
        assert dims == [comb(16 * (n // 15), n // 15) // n if n % 15 == 1 else 0
                        for n in range(201)]

    def test_a_cap_at_the_weight_bound_is_exact(self, tmp_path):
        # arity 9 over one ternary generator reads weights up to (9 - 1) // 2 = 4
        f = tmp_path / "ternary.txt"
        f.write_text("generator a 3\nrelation a(a(*,*,*),*,*)\n")
        argv = ("dims", "--presentation", str(f), "--max-arity", "9", "--emit", "json")
        uncapped = json.loads(invoke(*argv)[1])
        for engine in ("dp", "brute"):
            capped = json.loads(invoke(*argv, "--engine", engine, "--weight-cap", "4")[1])
            assert capped == {**uncapped, "engine": engine} and capped["exact"] is True
            below = json.loads(invoke(*argv, "--engine", engine, "--weight-cap", "3")[1])
            assert below["exact"] is False and below["values"] != uncapped["values"]

    def test_every_operad_preset_agrees_with_brute_recount(self):
        for spec in ("ex53-1", "ex53-2", "ex53-3", "free-operad:2", "free-operad:3"):
            _, dp = invoke("dims", "--preset", spec, "--max-arity", "9")
            _, brute = invoke("dims", "--preset", spec, "--max-arity", "9",
                              "--engine", "brute")
            assert dp == brute, spec


class TestGrammar:
    def test_fibonacci_rules(self):
        code, text = invoke("grammar", "--preset", "ex53-2")
        assert code == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert text.splitlines()[0] == "# crowns=2 rules=4"
        # K1 = z (1 + K1 + K2), K2 = z K1: K1 + K2 = (z + z^2) / (1 - z - z^2), Fibonacci
        assert lines == [
            "K1 [a(*,*)] = a(*,*) + a(*,K1) + a(*,K2)",
            "K2 [a(*,*), a(a(*,*),*)] = a(K1,*)",
        ]

    def test_presentation_file(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("generator a 2\nrelation a(a(*,*),a(*,*))\n")
        code, text = invoke("grammar", "--presentation", str(f))
        assert code == 0
        assert text.startswith("# crowns=1 rules=3\n")
        # K1 = z (1 + 2 K1): 2^(n-2) trees of arity n
        assert text.endswith("\nK1 [a(*,*)] = a(*,*) + a(*,K1) + a(K1,*)\n")
        assert invoke("grammar", "--presentation", str(f)) == (code, text)

    def test_mixed_arity_rules_are_pinned(self, tmp_path):
        # a ternary generator beside a binary one shows the slot order of the rules
        f = tmp_path / "p.txt"
        f.write_text("generator a 2\ngenerator b 3\n"
                     "relation b(*,a(*,*),*)\nrelation a(*,b(*,*,*))\n")
        code, text = invoke("grammar", "--presentation", str(f))
        assert code == 0
        assert text.startswith("# crowns=2 rules=24\n")
        assert "\nK1 [a(*,*)] = a(*,*) + a(*,K1) + a(K1,*) + a(K2,*) + a(K1,K1) + a(K2,K1)\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "d396cd21700edcca6e1b2e88d4819bf1d2c231fb00e5ce78708a329fc0d5353b"

    def test_free_operad_has_one_crown(self):
        code, text = invoke("grammar", "--preset", "free-operad:2")
        assert code == 0
        assert text.splitlines()[-1] == "K1 [] = a(*,*) + a(*,K1) + a(K1,*) + a(K1,K1)"


class TestSeriesPipes:
    def test_closed_stdout_exits_141_without_traceback(self):
        # as `oplab series ... | head -1` does: the reader takes one line and goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "oplab.cli", "series", "--preset", "floorpow:3/2",
             "--max", "200000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env())
        assert proc.stdout.readline() == b"n,coeff,partial_sum,log_n_partial_sum\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert b"Traceback" not in err

    def test_partition_guess_pipe(self, monkeypatch):
        _, series_csv = invoke("series", "--preset", "ex64-partition", "--max", "50")
        code, text = invoke("guess", "--max-order", "4", "--max-degree", "4",
                            stdin=series_csv, monkeypatch=monkeypatch)
        assert code == 0
        assert "no recurrence found at bounds (R=4, D=4, N=50)" in text

    def test_fibonacci_fit_pipe(self, monkeypatch):
        _, series_csv = invoke("series", "--preset", "fibonacci", "--max", "60")
        code, text = invoke("fit", stdin=series_csv, monkeypatch=monkeypatch)
        assert code == 0
        assert "denominator=[1, -1, -1]" in text

    def test_fit_prints_a_fractional_denominator(self, monkeypatch):
        # 1/(1 - z/2): the fitted b_1 is not a multiple of the scale
        series_csv = "".join(f"{n},{Fraction(1, 2 ** n)}\n" for n in range(40))
        code, text = invoke("fit", stdin=series_csv, monkeypatch=monkeypatch)
        assert (code, text) == (0, "rational fit for stdin: numerator=[1] "
                                   "denominator=[1, -1/2] (holdout verified)\n")

    @pytest.mark.parametrize("argv, bounds", [
        (("--preset", "ex64-partition", "--max", "60"), "(den<=8, num<=11, N=60)"),
        (("--preset", "fibonacci", "--max", "60", "--max-den", "0"), "(den<=0, num<=3, N=60)"),
        # N=30 leaves rows 1..10 before the holdout, so numerator degrees 0..9
        (("--preset", "partition", "--max", "30", "--max-num", "50"), "(den<=3, num<=9, N=30)"),
    ])
    def test_fit_not_found_prints_searched_bounds(self, argv, bounds):
        code, text = invoke("fit", *argv)
        assert code == 0
        assert text.startswith(f"no rational fit at bounds {bounds} for ")

    def test_partition_no_fit_line_is_pinned(self, monkeypatch):
        _, series_csv = invoke("series", "--preset", "ex64-partition", "--max", "300")
        code, text = invoke("fit", stdin=series_csv, monkeypatch=monkeypatch)
        assert (code, text) == (
            0, "no rational fit at bounds (den<=8, num<=11, N=300) for stdin\n")

    @pytest.mark.parametrize("n_max", ["10", "20"])
    def test_fit_on_a_window_within_the_holdout_is_an_error(self, monkeypatch, capsys, n_max):
        _, series_csv = invoke("series", "--preset", "fibonacci", "--max", n_max)
        code, text = invoke("fit", stdin=series_csv, monkeypatch=monkeypatch)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            f"oplab: computation error: need N > 20 to keep a holdout of 20; got N = {n_max}\n")

    def test_binomial_guess(self, monkeypatch):
        _, series_csv = invoke("series", "--preset", "polyring:3", "--max", "60")
        code, text = invoke("guess", "--max-order", "3", "--max-degree", "3",
                            stdin=series_csv, monkeypatch=monkeypatch)
        assert code == 0
        assert "order=1" in text

    @pytest.mark.parametrize("argv", sorted(SERIES_SHA256))
    def test_series_bytes_are_pinned(self, argv):
        assert series_digest(argv) == SERIES_SHA256[argv]

    def test_series_from_algebra_file(self, tmp_path):
        f = tmp_path / "alg.txt"
        f.write_text("var x1\nvar x2\nforbid x1 x1\n")
        code, text = invoke("series", "--source", str(f), "--max", "8")
        assert code == 0
        assert text.splitlines()[9].startswith("8,55,")

    @pytest.mark.parametrize("body", [
        "# the fibonacci operad\nname fib,alt\ngenerator a 2\n"
        "relation a(a(*,*),a(*,*))\nrelation a(a(a(*,*),*),*)\n",
        "name\ngenerator a 2\nrelation a(a(a(*,*),*),*)\nrelation a(a(*,*),a(*,*))\n",
    ], ids=["comma-in-name", "bare-name"])
    def test_named_presentation_file(self, tmp_path, body):
        f = tmp_path / "fib.txt"
        f.write_text(body)
        code, text = invoke("series", "--source", str(f), "--max", "12")
        assert code == 0
        assert text == invoke("series", "--preset", "fibonacci", "--max", "12")[1]

    @pytest.mark.parametrize("body", [
        format_algebra(MonomialAlgebraPresentation(["x1", "x2"], [("x1", "x1")], name="gold")),
        "forbid x1 x1  # variables may follow\nvar x1\nvar x2\n",
    ], ids=["written-by-format_algebra", "forbid-first"])
    def test_named_algebra_file(self, tmp_path, body):
        f = tmp_path / "alg.txt"
        f.write_text(body)
        code, text = invoke("series", "--source", str(f), "--max", "8")
        assert code == 0
        assert text.splitlines()[9].startswith("8,55,")

    @pytest.mark.parametrize("body, keys", [
        ("var x1\nvar x2\nforbid x1 x1\n", {"index_kind"}),
        ("generator a 2\nrelation a(a(*,*),a(*,*))\n", {"index_kind", "exact", "sha256"}),
    ], ids=["algebra", "presentation"])
    def test_json_keys_of_file_sources(self, tmp_path, body, keys):
        f = tmp_path / "source.txt"
        f.write_text(body)
        code, text = invoke("series", "--source", str(f), "--max", "3", "--emit", "json")
        assert code == 0
        payload = json.loads(text)
        assert set(payload) == {"command", "source", "truncation", "values"} | keys
        assert payload["truncation"] == 3 and len(payload["values"]) == 4

    @pytest.mark.parametrize("spec", ["ex62", "example62"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_series_honours_max(self, spec, n):
        code, text = invoke("series", "--preset", spec, "--max", str(n))
        assert code == 0
        assert [l.split(",")[0] for l in text.splitlines()[1:]] == [str(i) for i in range(n + 1)]

    def test_gk_preset(self):
        code, text = invoke("gk", "--preset", "floorpow:1.5", "--N", "3000")
        assert code == 0
        slope = float(next(l for l in text.splitlines()
                           if l.startswith("slope,")).split(",")[1])
        assert abs(slope - 1.5) < 0.05

    def test_gk_json(self):
        code, text = invoke("gk", "--preset", "free:2", "--N", "120", "--emit", "json")
        payload = json.loads(text)
        assert payload["exp_flag"] is True

    def test_gk_on_a_free_algebra_at_1e5(self):
        # within 4 s (about 0.6 s on a 2-vCPU Linux VM; one pow call per
        # d**n takes about 11 s, so the budget catches that)
        start = time.perf_counter()
        code, text = invoke("gk", "--preset", "free:2", "--N", "100000")
        assert time.perf_counter() - start < 4
        assert code == 0 and "exp_flag,true" in text.splitlines()

    def test_gk_bytes_are_pinned(self):
        assert gk_digest() == GK_SHA256


class TestGapcheck:
    def test_csv_report(self):
        code, text = invoke("gapcheck", "--preset", "ex53-3", "--max-weight", "30")
        assert code == 0
        assert "# criterion_d=5" in text
        assert "# growth_class=linear" in text
        assert "# first_violation=none" in text

    def test_json_report(self):
        code, text = invoke("gapcheck", "--preset", "free-operad:2",
                            "--max-weight", "12", "--emit", "json")
        payload = json.loads(text)
        assert payload["criterion_d"] is None
        assert payload["growth_class"] == "superlinear_witness"

    def test_horizon_too_small_is_computation_error(self, capsys):
        code, _ = invoke("gapcheck", "--preset", "ex53-3", "--max-weight", "3")
        assert code == 2

    def test_reports_are_pinned(self, tmp_path, monkeypatch):
        # text and JSON, affine_fit and first_violation included, on the ex53
        # presets and every sweep presentation, as the Fraction bound printed them
        monkeypatch.chdir(tmp_path)
        sources = [("--preset", spec) for spec in ("ex53-1", "ex53-2", "ex53-3")]
        for i, (_key, p) in enumerate(sweep_family(3)):
            Path(f"p{i}.txt").write_text(format_presentation(p))
            sources.append(("--presentation", f"p{i}.txt"))
        digest = hashlib.sha256()
        for flag, source in sources:
            for emit in ("csv", "json"):
                code, text = invoke("gapcheck", flag, source, "--max-weight", "30", "--emit", emit)
                assert code == 0
                digest.update(text.encode())
        assert digest.hexdigest() == GAPCHECK_SHA256


class TestSweep:
    def test_weight2_family_has_four_rows(self):
        code, text = invoke("sweep", "--relation-weight", "2", "--horizon", "12")
        assert code == 0
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 1 + 4
        assert "dichotomy holds" in text

    def test_weight2_output_is_the_same_on_every_python(self):
        # SWEEP_SHA256[2] of perfbench/workloads.py; its flat-tailed rows print
        # the slope of left-to-right float sums, -0.000000, which CPython
        # 3.12's compensated ``sum`` turned into 0.000000
        code, text = invoke("sweep", "--relation-weight", "2", "--horizon", "40")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "085463afc86b549766ad02ca89b438f8395d604eec9c82c8eb472157ddcfe20e")

    def test_weight3_family_is_128(self):
        assert len(sweep_family(3)) == 128
        assert len(sweep_family(2)) == 4

    def test_repeat_runs_identical(self):
        _, a = invoke("sweep", "--relation-weight", "2", "--horizon", "10")
        _, b = invoke("sweep", "--relation-weight", "2", "--horizon", "10")
        assert a == b

    def test_horizon_cap(self):
        code, _ = invoke("sweep", "--horizon", "50")
        assert code == 1

    def test_computes_once_per_distinct_presentation(self, monkeypatch):
        import oplab.monomial

        checked = []
        check = oplab.monomial.gap_dichotomy_check
        monkeypatch.setattr(oplab.monomial, "gap_dichotomy_check",
                            lambda p, horizon: checked.append(p) or check(p, horizon))
        code, text = invoke("sweep", "--relation-weight", "3", "--horizon", "10")
        assert code == 0
        assert len(text.splitlines()) == 1 + 128 + 1
        assert len(checked) == len(set(checked)) == len({p for _, p in sweep_family(3)}) == 37


class TestOperadizeCommand:
    def test_emit_and_reload(self, tmp_path):
        alg = tmp_path / "alg.txt"
        alg.write_text("var x1\nvar x2\nforbid x1 x1\n")
        out_file = tmp_path / "op.txt"
        code, text = invoke("operadize", "--algebra", str(alg), "--emit", str(out_file))
        assert code == 0 and "wrote" in text
        code, dims_text = invoke("dims", "--presentation", str(out_file), "--max-arity", "8")
        dims = [int(l.split(",")[1]) for l in dims_text.strip().splitlines()[1:]]
        assert dims == [0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_emit_stdout(self, tmp_path):
        alg = tmp_path / "alg.txt"
        alg.write_text("var x1\nvar x2\n")
        code, text = invoke("operadize", "--algebra", str(alg), "--emit", "-")
        assert code == 0
        assert "generator a 2" in text
        assert "relation a(a(*,*),a(*,*))" in text

    def test_malformed_algebra_is_usage_error(self, tmp_path):
        alg = tmp_path / "bad.txt"
        alg.write_text("var x\nforbid x zz\n")
        code, _ = invoke("operadize", "--algebra", str(alg), "--emit", "-")
        assert code == 1

    @pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["no-dir", "dir"])
    def test_unwritable_emit_is_usage_error(self, tmp_path, capsys, target):
        alg = tmp_path / "alg.txt"
        alg.write_text("var x1\nvar x2\n")
        emit = tmp_path / target
        code, text = invoke("operadize", "--algebra", str(alg), "--emit", str(emit))
        assert (code, text) == (1, "")
        assert f"oplab: usage error: cannot write {emit}: " in capsys.readouterr().err


OPERADIZED = [  # (variables, forbidden words)
    (("x1", "x2"), []), (("x1", "x2"), [("x1", "x1")]),
    (("x1", "x2"), [("x2", "x1"), ("x2", "x2")]),
    (("x0", "x1", "x2"), [("x0", "x1", "x2"), ("x2", "x2")]), ("wxyz", [tuple("wxyz")]),
]


class TestPresentationDigest:
    @pytest.mark.parametrize("p", [
        *(preset_presentation(name) for name, preset in sorted(CATALOG.items())
          if preset.kind == "presentation" and preset.param is None),
        *(preset_presentation(f"free-operad:{k}") for k in (1, 2, 3)),
        *(p for _, p in sweep_family(3)[::6][:20]),
        *(operadize(MonomialAlgebraPresentation(v, w)) for v, w in OPERADIZED),
    ])
    def test_equals_hashlib(self, p):
        text = format_presentation(p)
        assert _presentation_hash(p) == hashlib.sha256(text.encode()).hexdigest()

    def test_dims_digest_is_pinned(self):
        code, text = invoke("dims", "--preset", "ex53-2", "--max-arity", "5", "--emit", "json")
        assert code == 0
        assert json.loads(text)["sha256"] == EX53_2_SHA256

    def test_hashlib_fallback(self):
        # without the built-in modules the digest comes from hashlib
        out = child_stdout(
            'import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
            'from oplab.cli import _presentation_hash, preset_presentation\n'
            'print(_presentation_hash(preset_presentation("ex53-2")), "hashlib" in sys.modules)')
        assert out == f"{EX53_2_SHA256} True\n"

    def test_operadize_digests_the_text_it_wrote(self, tmp_path):
        alg = tmp_path / "alg.txt"
        alg.write_text("var x1\nvar x2\nvar x3\nforbid x1 x2\nforbid x3 x3 x1\n")
        out_file = tmp_path / "op.txt"
        code, text = invoke("operadize", "--algebra", str(alg), "--emit", str(out_file))
        assert code == 0
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert text == f"wrote {out_file} (5 relations, sha256={digest})\n"


class TestEnvelope:
    @pytest.mark.parametrize("kind, preset", [("min", "ex53-1"), ("sym", "ex34:3/2")])
    def test_preset_that_is_not_an_algebra_is_usage_error(self, capsys, kind, preset):
        code, text = invoke("envelope", "--kind", kind, "--preset", preset, "--max-index", "5")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            f"oplab: usage error: preset {preset!r} is not a connected algebra "
            f"(its dims do not start with 1)\n")

    def test_operad_preset_refused_before_it_is_counted(self, capsys):
        # an operad's dims start with 0 at any max index, so arity 3000 is
        # never counted: within 2 s (about 0.02 s on a 2-vCPU Linux VM)
        start = time.perf_counter()
        code, text = invoke("envelope", "--kind", "sym", "--preset", "free-operad:2",
                            "--max-index", "3000")
        assert time.perf_counter() - start < 2
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "oplab: usage error: preset 'free-operad:2' is not a connected algebra "
            "(its dims do not start with 1)\n")

    def test_min_partition(self):
        code, text = invoke("envelope", "--kind", "min", "--preset", "ex64-partition",
                            "--max-index", "8")
        dims = [int(l.split(",")[1]) for l in text.strip().splitlines()[1:]]
        assert dims == [0, 1, 1, 2, 3, 5, 7, 11, 15]

    def test_sym_partition(self):
        code, text = invoke("envelope", "--kind", "sym", "--preset", "ex64-partition",
                            "--max-index", "6")
        dims = [int(l.split(",")[1]) for l in text.strip().splitlines()[1:]]
        assert dims == [0, 1, 2, 6, 12, 25, 42]

    def test_gnuplot_header(self):
        code, text = invoke("envelope", "--kind", "sym", "--preset", "ex64-partition",
                            "--max-index", "3", "--emit", "gnuplot")
        assert code == 0
        assert text == "# envelope sym ex64-partition\n$data << EOD\n0 0 0\n1 1 1\n2 2 3\n3 6 9\nEOD\n"

    @pytest.mark.parametrize("kind, line", [
        ("min", '{"command": "envelope", "exact": true, "index_kind": "arity", '
                '"kind": "min_envelope", "source": "ex64-partition", "truncation": 8, '
                '"values": ["0", "1", "1", "2", "3", "5", "7", "11", "15"]}\n'),
        ("sym", '{"command": "envelope", "exact": true, "index_kind": "arity", '
                '"kind": "symmetric_envelope", "source": "ex64-partition", "truncation": 8, '
                '"values": ["0", "1", "2", "6", "12", "25", "42", "77", "120"]}\n'),
    ])
    def test_json_line(self, kind, line):
        code, text = invoke("envelope", "--kind", kind, "--preset", "ex64-partition",
                            "--max-index", "8", "--emit", "json")
        assert (code, text) == (0, line)


class TestUsageErrors:
    def test_unknown_preset(self):
        code, _ = invoke("dims", "--preset", "nonsense", "--max-arity", "5")
        assert code == 1

    def test_missing_source_target(self):
        code, _ = invoke("dims", "--max-arity", "5")
        assert code == 1

    def test_both_source_and_preset(self):
        code, _ = invoke("series", "--source", "fibonacci", "--preset", "fibonacci",
                         "--max", "10")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("dims", "--max-arity", "5"),
        ("grammar",),
        ("gapcheck", "--max-weight", "12"),
    ], ids=["dims", "grammar", "gapcheck"])
    def test_both_presentation_and_preset(self, tmp_path, capsys, argv):
        f = tmp_path / "p.txt"
        f.write_text("generator a 2\nrelation a(a(*,*),a(*,*))\n")
        code, text = invoke(*argv, "--presentation", str(f), "--preset", "ex53-2")
        assert (code, text) == (1, "")
        assert "pass either --presentation or --preset, not both" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "polyring:0", "free:0", "free:-2", "floorpow:-1", "ex34:0", "ex35:5", "warfield:2",
        "free-operad:0", "polyring:x", "floorpow:1/0", "ex53-1:", "ex53-1:3", "partition:",
    ])
    def test_bad_preset_parameter_is_usage_error(self, capsys, spec):
        code, text = invoke("series", "--preset", spec, "--max", "5")
        assert (code, text) == (1, "")
        assert "usage error" in capsys.readouterr().err

    # the messages of the parser and the library function that read the
    # parameter, as they were when the CLI read a rational one as a Fraction
    @pytest.mark.parametrize("spec, message", [
        ("floorpow:x", "preset 'floorpow': bad parameter 'x': Invalid literal for Fraction: 'x'"),
        ("floorpow:1/0", "preset 'floorpow': bad parameter '1/0': Fraction(1, 0)"),
        ("ex35:3", "preset 'ex35': bad parameter '3': "
                   "growth exponent must lie strictly between 2 and 3, got 3"),
        ("ex35:6/4", "preset 'ex35': bad parameter '6/4': "
                     "growth exponent must lie strictly between 2 and 3, got 3/2"),
        ("ex34:0", "preset 'ex34': bad parameter '0': alpha must be positive"),
    ])
    def test_bad_rational_parameter_message(self, capsys, spec, message):
        code, text = invoke("gk", "--preset", spec, "--N", "50")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"oplab: usage error: {message}\n"

    # parameters whose runs never finished before their terms were bounded
    @pytest.mark.parametrize("spec, n", [
        ("ex34:1e999999", 50), ("ex34:1e-999999", 50), ("ex35:25000000001/10000000000", 50),
        ("ex34:1001/1000", 10000), ("ex35:2501/1000", 10000),
    ])
    def test_parameter_terms_above_1000_exit_promptly(self, spec, n):
        base, _, text = spec.partition(":")
        proc = subprocess.run([sys.executable, "-m", "oplab.cli", "gk", "--preset", spec,
                               "--N", str(n)], capture_output=True, text=True,
                              env=child_env(), timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"oplab: usage error: preset {base!r}: bad parameter {text!r}: "
                               f"numerator and denominator in lowest terms must be at most "
                               f"1000\n")

    def test_a_parameter_at_the_bound_runs_promptly(self):
        proc = subprocess.run([sys.executable, "-m", "oplab.cli", "gk", "--preset",
                               "ex34:999/1000", "--N", "2000"], capture_output=True,
                              text=True, env=child_env(), timeout=5)
        assert proc.returncode == 0 and "window,1334..2000\n" in proc.stdout

    @pytest.mark.parametrize("argv", [("--max", "3"), ()], ids=["max", "no-max"])
    def test_missing_source_file_is_neither_file_nor_preset(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.csv"
        code, text = invoke("series", "--source", str(missing), *argv)
        assert (code, text) == (1, "")
        assert (capsys.readouterr().err == f"oplab: usage error: {str(missing)!r} is neither "
                "a file nor a preset; run 'oplab preset-list'\n")
        # --preset keeps its own message
        code, _ = invoke("series", "--preset", "missing.csv", "--max", "3")
        assert code == 1
        assert "unknown preset 'missing.csv'" in capsys.readouterr().err

    def test_parametrized_preset_requires_param(self):
        code, _ = invoke("series", "--preset", "warfield", "--max", "10")
        assert code == 1

    def test_malformed_presentation_reports_line(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("generator a 2\nrelation b(*,*)\n")
        code, _ = invoke("dims", "--presentation", str(f), "--max-arity", "4")
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, body, lineno", [
        (("dims", "--max-arity", "4", "--presentation"),
         "generator a 2\ngenerator a 3\n", 2),
        (("dims", "--max-arity", "4", "--presentation"),
         "generator a 2\nrelation a(a(*,*),*)\nrelation 1\n", 3),
        (("operadize", "--emit", "-", "--algebra"), "var x\nvar x\n", 2),
        (("series", "--max", "4", "--source"), "var x\nvar x\n", 2),
    ], ids=["repeated-generator", "trivial-relation", "repeated-var", "repeated-var-source"])
    def test_every_rejection_names_its_line(self, tmp_path, capsys, argv, body, lineno):
        f = tmp_path / "bad.txt"
        f.write_text(body)
        code, _ = invoke(*argv, str(f))
        assert code == 1
        assert f"{f}: line {lineno}: " in capsys.readouterr().err

    def test_one_tall_relation_counts_like_the_free_operad(self, tmp_path):
        f = tmp_path / "tall.txt"
        f.write_text("generator a 2\nrelation " + "a(" * 1500 + "*,*)" + ",*)" * 1499 + "\n")
        code, text = invoke("dims", "--presentation", str(f), "--max-arity", "10")
        assert code == 0
        assert text == invoke("dims", "--preset", "free-operad:2", "--max-arity", "10")[1]

    @pytest.mark.parametrize("command", ["dims", "grammar"])
    def test_two_tall_relations_give_no_traceback(self, tmp_path, capsys, command):
        f = tmp_path / "tall.txt"
        f.write_text("generator a 2\n" + "".join(
            "relation " + "a(" * h + "*,*)" + ",*)" * (h - 1) + "\n" for h in (1500, 1501)))
        code, _ = invoke(command, "--presentation", str(f),
                         *(["--max-arity", "10"] if command == "dims" else []))
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_two_tall_relations_print_dims(self, tmp_path):
        # the taller comb is divisible by the shorter, which is too heavy for
        # arity 10, so the counts are the free operad's
        f = tmp_path / "tall.txt"
        f.write_text("generator a 2\n" + "".join(
            "relation " + "a(" * h + "*,*)" + ",*)" * (h - 1) + "\n" for h in (1500, 1501)))
        code, text = invoke("dims", "--presentation", str(f), "--max-arity", "10")
        assert code == 0
        assert text == invoke("dims", "--preset", "free-operad:2", "--max-arity", "10")[1]

    def test_grammar_refuses_a_relation_over_its_height_limit(self, tmp_path, capsys):
        from oplab.cli import GRAMMAR_MAX_HEIGHT

        f = tmp_path / "tall.txt"
        h = GRAMMAR_MAX_HEIGHT + 1
        f.write_text("generator a 2\nrelation " + "a(" * h + "*,*)" + ",*)" * (h - 1) + "\n")
        code, text = invoke("grammar", "--presentation", str(f))
        assert (code, text) == (2, "")
        assert f"a relation {h} levels tall is over the grammar's limit" in capsys.readouterr().err

    def test_negative_max_arity_is_usage_error(self, capsys):
        code, _ = invoke("dims", "--preset", "ex53-2", "--max-arity", "-1")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    # --max-arity is covered by test_negative_max_arity_is_usage_error
    @pytest.mark.parametrize("argv", [
        ("dims", "--preset", "ex53-2", "--max-arity", "5", "--weight-cap", "-1"),
        ("series", "--preset", "fibonacci", "--max", "-3"),
        ("gk", "--preset", "floorpow:1.5", "--N", "-5"),
        ("fit", "--preset", "fibonacci", "--max", "60", "--max-den", "-2"),
        ("fit", "--preset", "fibonacci", "--max", "60", "--max-num", "-2"),
        ("guess", "--preset", "fibonacci", "--max", "60", "--max-order", "-1",
         "--max-degree", "2"),
        ("guess", "--preset", "fibonacci", "--max", "60", "--max-order", "2",
         "--max-degree", "-1"),
        ("gapcheck", "--preset", "ex53-3", "--max-weight", "-1"),
        ("envelope", "--kind", "min", "--preset", "ex64-partition", "--max-index", "-2"),
    ], ids=["weight-cap", "max", "N", "max-den", "max-num", "max-order", "max-degree",
            "max-weight", "max-index"])
    def test_negative_size_is_usage_error(self, argv, capsys):
        code, _ = invoke(*argv)
        assert code == 1
        assert "expected a nonnegative integer" in capsys.readouterr().err

    def test_failed_invariant_is_computation_error(self, monkeypatch, capsys):
        from oplab import monomial
        from oplab.dims import DimSeries
        monkeypatch.setattr(monomial, "dim_by_weight",
                            lambda *a, **k: DimSeries((1, 1, 0, 1, 0, 0, 0), "weight"))
        code, _ = invoke("gapcheck", "--preset", "ex53-3", "--max-weight", "6")
        assert code == 2
        assert "oplab: computation error: weight counts revived" in capsys.readouterr().err

    def test_unary_preset_needs_weight_cap(self, tmp_path):
        f = tmp_path / "unary.txt"
        f.write_text("generator u 1\ngenerator b 2\n")
        code, _ = invoke("dims", "--presentation", str(f), "--max-arity", "4")
        assert code == 2  # completeness error is a computation error
        code, _ = invoke("dims", "--presentation", str(f), "--max-arity", "4",
                         "--weight-cap", "3")
        assert code == 0


UNARY_HINT = "oplab: computation error: a unary generator can make an arity class infinite; "


class TestUnaryGenerators:
    @pytest.fixture
    def unary_argv(self, tmp_path):
        """The argv with UNARY replaced by a presentation file with a unary generator."""
        f = tmp_path / "unary.txt"
        f.write_text("generator u 1\ngenerator b 2\n")
        return lambda *argv: [str(f) if a == "UNARY" else a for a in argv]

    @pytest.mark.parametrize("argv", [
        ("series", "--preset", "free-operad:1", "--max", "5"),
        ("gk", "--preset", "free-operad:1", "--N", "50"),
        ("fit", "--preset", "free-operad:1", "--max", "60"),
        ("guess", "--preset", "free-operad:1", "--max", "60", "--max-order", "2",
         "--max-degree", "2"),
        ("envelope", "--kind", "min", "--preset", "free-operad:1", "--max-index", "5"),
        ("gk", "--source", "UNARY", "--N", "50"),
    ], ids=["series", "gk", "fit", "guess", "envelope", "gk-source"])
    def test_counting_by_arity_names_dims_weight_cap(self, unary_argv, capsys, argv):
        assert invoke(*unary_argv(*argv)) == (2, "")
        assert capsys.readouterr().err == UNARY_HINT + "count with 'oplab dims --weight-cap N'\n"

    @pytest.mark.parametrize("source", [("--preset", "free-operad:1"), ("--presentation", "UNARY")],
                             ids=["preset", "presentation"])
    def test_dims_names_its_own_flag(self, unary_argv, capsys, source):
        assert invoke(*unary_argv("dims", *source, "--max-arity", "4")) == (2, "")
        assert capsys.readouterr().err == UNARY_HINT + "pass --weight-cap N\n"

    @pytest.mark.parametrize("argv", [
        ("grammar", "--preset", "free-operad:1"),
        ("gapcheck", "--preset", "free-operad:1", "--max-weight", "6"),
    ], ids=["grammar", "gapcheck"])
    def test_commands_that_need_no_arity_count_still_run(self, argv):
        code, out = invoke(*argv)
        assert code == 0 and out


class TestPresetList:
    def test_contains_required_names(self):
        code, text = invoke("preset-list")
        assert code == 0
        for name in ("ex34:<alpha>", "ex35:<r>", "ex53-1", "ex53-2", "ex53-3",
                     "ex62", "ex64-partition", "ex46-avoidance", "free-operad:<arity>",
                     "warfield:<r>", "example62", "partition", "floorpow:<alpha>",
                     "polyring:<d>", "free:<d>"):
            assert name in text, name

    def test_exact_text(self):
        code, text = invoke("preset-list")
        assert code == 0
        assert text == (
            "ex34:<alpha>\tdims\toperad dims with partial sums floor(n^alpha) (arity-indexed)\n"
            "ex35:<r>\tdims\tstaircase algebra dims with growth exponent r in (2,3) "
            "(degree-indexed)\n"
            "ex46-avoidance\tdims\tsingle-branched words with at most one index-2 letter; "
            "exactly h words at height h\n"
            "ex53-1\tpresentation\tsingle binary generator, shuffle relation only; "
            "dims 2^(n-2)\n"
            "ex53-2\tpresentation\tfibonacci operad: shuffle relation plus the 1,1-chain\n"
            "ex53-3\tpresentation\tsingle binary generator; dims eventually constant 2\n"
            "ex62\tdims\tgapped slow-growth algebra dims 1,2,3+delta (degree-indexed)\n"
            "ex64-partition\tdims\tpartition numbers p(n) (degree-indexed)\n"
            "example62\tdims\talias of ex62\n"
            "fibonacci\tpresentation\talias of ex53-2\n"
            "floorpow:<alpha>\tdims\talias of ex34:<alpha>\n"
            "free:<d>\tdims\tfree algebra dims d^n (degree-indexed)\n"
            "free-operad:<arity>\tpresentation\tfree operad on one generator of the given arity\n"
            "partition\tdims\talias of ex64-partition\n"
            "polyring:<d>\tdims\tpolynomial ring dims C(n+d-1, d-1) (degree-indexed)\n"
            "warfield:<r>\tdims\talias of ex35:<r>\n")

    def test_catalog_keys_resolve(self):
        from oplab.cli import preset_dims
        for name in CATALOG:
            dims = preset_dims(preset_spec(name), 8)
            assert len(dims.values) >= 5

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_preset_output_is_pinned(self, name):
        spec = preset_spec(name)
        argvs = [("series", "--preset", spec, "--max", "12", "--emit", "json")]
        if CATALOG[name].kind == "presentation":
            argvs += [("dims", "--preset", spec, "--max-arity", "8", "--emit", "json"),
                      ("grammar", "--preset", spec)]
        digest = hashlib.sha256()
        for argv in argvs:
            code, text = invoke(*argv)
            digest.update(f"{code}\n{text}".encode())
        assert digest.hexdigest() == PRESET_OUTPUT_SHA256[name]


class TestCsvInput:
    def test_round_trip_through_csv(self, tmp_path):
        _, text = invoke("series", "--preset", "fibonacci", "--max", "40")
        f = tmp_path / "fib.csv"
        f.write_text(text)
        code, out = invoke("fit", "--source", str(f))
        assert code == 0 and "denominator=[1, -1, -1]" in out

    def test_header_and_blank_lines_accepted(self, tmp_path):
        f = tmp_path / "fib.csv"
        f.write_text("n,coeff\n0,0\n\n1,1\n2,1/1\n")
        code, out = invoke("series", "--source", str(f))
        assert code == 0
        assert [l.split(",")[1] for l in out.splitlines()[1:]] == ["0", "1", "1"]

    @pytest.mark.parametrize("name", ["fib.csv", "fib.txt"])
    def test_rows_read_to_find_the_head_are_read_again(self, tmp_path, name):
        # the head of fib.txt is its fourth line; every row counts from the first line
        f = tmp_path / name
        f.write_text("\n\n# the Fibonacci numbers\n0,0\n1,1\n2,1\n3,2\n")
        code, out = invoke("series", "--source", str(f))
        assert code == 0
        assert [l.split(",")[1] for l in out.splitlines()[1:]] == ["0", "1", "1", "2"]

    @pytest.mark.parametrize("body, message", [
        ("n,coeff\n0,1\n1,oops\n", "line 3: no coefficient"),
        ("0,1\n1,1\n3,2\n", "line 3: expected index 2, got 3"),
        ("0,1\n1,1\n1,1\n", "line 3: expected index 2, got 1"),
        ("n,coeff\n0,1\nn,coeff\n", "line 3: expected an index"),
        ("0\n", "line 1: no coefficient"),
    ], ids=["bad-value", "gap", "duplicate", "second-header", "missing-value"])
    def test_malformed_csv_reports_line(self, tmp_path, capsys, body, message):
        f = tmp_path / "bad.csv"
        f.write_text(body)
        code, _ = invoke("series", "--source", str(f))
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, head", [("bad.csv", b""), ("bad.txt", b"var x\n")])
    def test_a_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, name, head):
        # the offset counts from the start of the file, past the first block read
        f = tmp_path / name
        f.write_bytes(head + "".join(f"{n},{n * n}\n" for n in range(3000)).encode()[:27000]
                      + b"\xff\n")
        code, _ = invoke("series", "--source", str(f), "--max", "10")
        assert code == 1
        assert capsys.readouterr().err == (
            f"oplab: usage error: cannot read {f}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 27000}: invalid start byte\n")

    @pytest.mark.parametrize("cell, value", [
        ("5", 5), (" 7 ", 7), ("+5", 5), ("-3", -3), ("1_000", 1000), ("5.0", 5), ("1e3", 1000),
        ("3/1", 3), ("1/2", Fraction(1, 2)), ("", None), ("x", None),
    ])
    def test_cell_reads_as_its_exact_value(self, cell, value):
        # the value Fraction(cell) gives, or the usage error its ValueError gives
        from oplab.cli import UsageError, _load_csv_coeffs
        lines = ["0,1\n", f"1,{cell}\n"]
        if value is None:
            with pytest.raises(UsageError, match=f"^line 2: no coefficient in '1,{cell}'$"):
                _load_csv_coeffs(lines, None)
        else:
            assert _load_csv_coeffs(lines, None) == [1, value]
            assert _load_csv_coeffs(lines, 1) == [1]

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_max_truncates_csv(self, tmp_path, monkeypatch, via):
        _, long_csv = invoke("series", "--preset", "partition", "--max", "80")

        def from_csv(*argv):
            if via == "stdin":
                return invoke(*argv, stdin=long_csv, monkeypatch=monkeypatch)
            f = tmp_path / "p.csv"
            f.write_text(long_csv)
            return invoke(*argv, "--source", str(f))

        assert from_csv("series", "--max", "5") == invoke("series", "--preset", "partition",
                                                          "--max", "5")
        code, text = from_csv("gk", "--N", "30")
        assert code == 0
        assert text.splitlines()[1:] == invoke("gk", "--preset", "partition",
                                               "--N", "30")[1].splitlines()[1:]
        code, text = from_csv("guess", "--max-order", "1", "--max-degree", "1", "--max", "40")
        assert code == 0
        assert text.startswith("no recurrence found at bounds (R=1, D=1, N=40) for ")

    @pytest.mark.parametrize("value, shown", [("-1", "-1"), ("1/2", "1/2"), ("1.5", "3/2")])
    def test_gk_rejects_negative_and_fractional_dims(self, monkeypatch, capsys, value, shown):
        body = "0,5\n1,1\n2,VALUE\n" + "".join(f"{n},{n}\n" for n in range(3, 12))
        code, text = invoke("gk", stdin=body.replace("VALUE", value), monkeypatch=monkeypatch)
        assert (code, text) == (1, "")
        assert f"dimension 2 is {shown}, not a nonnegative integer" in capsys.readouterr().err

    def test_short_csv_is_kept_whole(self, tmp_path):
        f = tmp_path / "fib.csv"
        f.write_text("0,0\n1,1\n2,1\n")
        code, out = invoke("series", "--source", str(f), "--max", "10")
        assert code == 0
        assert [l.split(",")[0] for l in out.splitlines()[1:]] == ["0", "1", "2"]

    @pytest.mark.parametrize("emit", ["csv", "json", "gnuplot"])
    def test_int_and_fraction_values_write_the_same_bytes(self, emit):
        from oplab.cli import _write_values
        values = [0, 1, 2, 3, 7, 10 ** 30]
        outs = []
        for column in (values, [Fraction(v) for v in values]):
            out = io.StringIO()
            _write_values(out, emit, column, {"command": "series", "source": "s"})
            outs.append(out.getvalue())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("spec, argv", [
        ("floorpow:3/2", ("series", "--max", "40")),
        ("floorpow:3/2", ("series", "--max", "40", "--emit", "gnuplot")),
        ("floorpow:3/2", ("gk", "--N", "40")),
        ("ex64-partition", ("fit", "--max", "60")),
        ("ex64-partition", ("guess", "--max", "60", "--max-order", "2", "--max-degree", "2")),
        ("fibonacci", ("fit", "--max", "60")),
        ("fibonacci", ("guess", "--max", "60", "--max-order", "2", "--max-degree", "1")),
    ])
    def test_preset_and_its_csv_print_the_same(self, tmp_path, spec, argv):
        # a preset's integers and the same values read back as Fractions
        _, text = invoke("series", "--preset", spec, "--max", argv[2])
        f = tmp_path / "values.csv"
        f.write_text(text)
        code, from_preset = invoke(*argv, "--preset", spec)
        assert code == 0
        assert from_preset.replace(spec, str(f)) == invoke(*argv, "--source", str(f))[1]

    def test_preset_and_its_csv_give_the_same_json_values(self, tmp_path):
        _, text = invoke("series", "--preset", "floorpow:3/2", "--max", "40")
        f = tmp_path / "values.csv"
        f.write_text(text)
        payloads = [json.loads(invoke("series", *src, "--max", "40", "--emit", "json")[1])
                    for src in (("--preset", "floorpow:3/2"), ("--source", str(f)))]
        assert payloads[0]["values"] == payloads[1]["values"]
        assert payloads[0]["truncation"] == payloads[1]["truncation"] == 40

    def test_gnuplot_block(self):
        code, text = invoke("series", "--preset", "ex53-1", "--max", "6",
                            "--emit", "gnuplot")
        assert code == 0
        assert text.startswith("# series ex53-1\n$data << EOD\n")
        assert text.rstrip().endswith("EOD")


class TestReadme:
    def test_command_lines_run(self, monkeypatch):
        # every README command line that reads no file of the user's; pipes feed stdin
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        ran = 0
        for line in block.splitlines():
            stages = [shlex.split(stage, comments=True) for stage in line.split("|")]
            if any(tok.endswith((".txt", ".csv")) for argv in stages for tok in argv):
                continue
            piped = None
            for argv in stages:
                assert argv[0] == "oplab", line
                code, piped = invoke(*argv[1:], stdin=piped, monkeypatch=monkeypatch)
                assert code == 0 and piped, line
            ran += 1
        assert ran >= 9


# every name the package exports: those it exported when its __init__ imported
# each submodule eagerly, less the wrapper types in REMOVED_NAMES
PUBLIC_NAMES = """
    MonomialAlgebraPresentation adjoin_polynomial_variables example62_dims
    example62_monomial_model floor_power_dims free_algebra_dims hilbert_dims
    partition_dims polynomial_ring_dims warfield_dims warfield_monomial_model
    AvoidanceSystem BranchWord closed_set_counts extend from_branch_word
    is_local_period is_period minimal_period to_branch_word
    min_envelope_dims operadization_dims operadize
    symmetric_envelope_dims DimSeries MonomialOperadPresentation dim_by_arity
    dim_by_weight enumerate_irr gap_dichotomy_check is_normal_form TreeOrder
    exponential_transform fit_rational gk_estimate guess_holonomic
    zero_run_report LEAF Alphabet Generator TreeMonomial compose
    divides format_monomial from_path_sequence parse_monomial submonomials
    to_path_sequence __version__
""".split()
REMOVED_NAMES = ("SeriesWindow", "PathSequence", "OperadDimProfile")


def child_stdout(code: str) -> str:
    """Stdout of a fresh interpreter that runs ``code`` with oplab importable."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), check=True)
    return proc.stdout


def modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter loads while it runs ``code``."""
    return set(child_stdout("import sys\n_before = set(sys.modules)\n" + code +
                            "\nprint(*sorted(set(sys.modules) - _before))").split())


FIBONACCI = [0, 1]
while len(FIBONACCI) < 60:
    FIBONACCI.append(FIBONACCI[-2] + FIBONACCI[-1])


class TestImportGraph:
    def test_import_oplab_loads_no_submodule(self):
        loaded = modules_loaded_by("import oplab")
        assert "oplab" in loaded
        assert not {m for m in loaded if m.startswith("oplab.")}

    @pytest.mark.parametrize("argv, needed, unused", [
        ("dims --preset ex53-1 --max-arity 10", {"oplab.monomial"},
         {"oplab.series", "oplab.linalg", "oplab.algebra", "oplab.branch",
          "oplab.constructions", "oplab.brute", "hashlib", "json"}),
        ("gk --preset floorpow:3/2 --N 50", {"oplab.series", "oplab.algebra"},
         {"oplab.monomial", "oplab.trees", "oplab.order", "oplab.constructions"}),
        # the envelopes work on dims alone; only operadize builds a presentation
        ("envelope --kind sym --preset ex64-partition --max-index 20",
         {"oplab.constructions", "oplab.algebra"},
         {"oplab.monomial", "oplab.trees", "oplab.order"}),
        # only the brute engine loads the oracle's module
        ("dims --engine brute --preset ex53-2 --max-arity 9", {"oplab.monomial", "oplab.brute"},
         set()),
        ("sweep --relation-weight 2 --horizon 10", {"oplab.monomial"}, {"oplab.brute"}),
        ("gapcheck --preset ex53-3 --max-weight 8", {"oplab.monomial"}, {"oplab.brute"}),
        # avoidance counts on the algebra module's word automaton
        ("series --preset ex46-avoidance --max 20", {"oplab.branch", "oplab.algebra"},
         {"oplab.monomial", "oplab.series", "oplab.linalg"}),
    ])
    def test_subcommand_imports_only_its_modules(self, argv, needed, unused):
        loaded = modules_loaded_by(
            "import io, oplab.cli\n"
            f"assert oplab.cli.run({argv.split()!r}, out=io.StringIO()) == 0")
        assert needed <= loaded
        assert not loaded & unused

    # hashlib loads OpenSSL, about 3 MB, for the digest CPython has built in
    # (a build can leave it out, and then the digest falls back to hashlib)
    @pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                        reason="this CPython has no built-in SHA-256 module")
    @pytest.mark.parametrize("argv", [
        "operadize --algebra {alg} --emit {op}",
        "dims --preset ex53-2 --max-arity 10 --emit json",
        "gapcheck --preset ex53-3 --max-weight 8 --emit json",
        "series --source {op} --max 10 --emit json",
    ])
    def test_digests_load_no_hashlib(self, tmp_path, argv):
        alg, op = tmp_path / "alg.txt", tmp_path / "op.txt"
        alg.write_text("var x1\nvar x2\nforbid x1 x1\n")
        op.write_text("generator a 2\nrelation a(a(*,*),a(*,*))\n")
        argv = argv.format(alg=alg, op=op).split()
        loaded = modules_loaded_by(
            "import io, oplab.cli\nout = io.StringIO()\n"
            f"assert oplab.cli.run({argv!r}, out=out) == 0 and 'sha256' in out.getvalue()")
        assert "oplab.monomial" in loaded
        assert not loaded & {"hashlib", "_hashlib"}

    # dataclasses imports inspect, ast, dis and tokenize; fractions imports
    # decimal and numbers: start-up pays for them only where they are used
    @pytest.mark.parametrize("argv, fractions_allowed", [
        (None, False),
        ("dims --preset ex53-1 --max-arity 10", False),
        ("dims --preset ex53-1 --max-arity 10 --engine brute", False),
        ("sweep --relation-weight 2 --horizon 10", False),
        ("gapcheck --preset ex53-3 --max-weight 8", False),
        ("gapcheck --preset ex53-3 --max-weight 8 --emit json", False),
        ("operadize --algebra {alg} --emit -", False),
        ("envelope --kind sym --preset ex64-partition --max-index 20", False),
        ("series --source {alg} --max 10", False),
        ("series --preset ex46-avoidance --max 20", False),
        # rational preset parameters and integer data stay in ints
        ("gk --preset floorpow:3/2 --N 50", False),
        ("gk --preset ex35:5/2 --N 50", False),
        ("guess --preset fibonacci --max 60 --max-order 2 --max-degree 1", False),
        ("fit < {ints}", False),
        ("guess --max-order 2 --max-degree 1 < {ints}", False),
    ])
    def test_no_dataclasses_and_fractions_only_for_rationals(self, tmp_path, argv,
                                                            fractions_allowed):
        code = "import io, oplab.cli\n"
        if argv:
            alg, ints = tmp_path / "alg.txt", tmp_path / "ints.csv"
            alg.write_text("var x1\nvar x2\nforbid x1 x2 x1\nforbid x2 x2\n")
            ints.write_text("".join(f"{n},{c}\n" for n, c in enumerate(FIBONACCI)))
            argv, _, stdin = argv.format(alg=alg, ints=ints).partition(" < ")
            if stdin:
                code += f"import sys\nsys.stdin = open({stdin!r})\n"
            code += f"assert oplab.cli.run({argv.split()!r}, out=io.StringIO()) == 0"
        loaded = modules_loaded_by(code)
        assert "oplab.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}
        if not fractions_allowed:
            assert not loaded & {"fractions", "decimal", "numbers"}

    # c_n = 2^(40-n) (or a quarter of it, two cells then fractional) is
    # 2^40/(1 - z/2): a non-integral cell or coefficient still loads fractions
    @pytest.mark.parametrize("quarter", [False, True], ids=["integer-cells", "fractional-cells"])
    def test_fractions_load_for_a_non_integral_value(self, tmp_path, quarter):
        halving = tmp_path / "halving.csv"
        halving.write_text("".join(f"{n},{Fraction(2 ** (40 - n), 4 if quarter else 1)}\n"
                                   for n in range(41)))
        loaded = modules_loaded_by(
            f"import io, sys, oplab.cli\nsys.stdin = open({str(halving)!r})\nout = io.StringIO()\n"
            "assert oplab.cli.run(['fit'], out=out) == 0\n"
            "assert 'denominator=[1, -1/2] ' in out.getvalue(), out.getvalue()")
        assert "fractions" in loaded

    def test_every_public_name_resolves(self):
        import oplab
        from oplab.dims import DimSeries

        for name in PUBLIC_NAMES:
            assert hasattr(oplab, name), name
            assert name in dir(oplab), name
        assert oplab.DimSeries is DimSeries
        assert set(PUBLIC_NAMES) - {"__version__"} == set(oplab.__all__)

    def test_unknown_name_raises_attribute_error(self):
        import oplab

        with pytest.raises(AttributeError, match="no_such_name"):
            oplab.no_such_name
        assert not hasattr(oplab, "cli_helpers")
        for name in REMOVED_NAMES:
            with pytest.raises(AttributeError, match=name):
                getattr(oplab, name)
