"""The workloads: seeded inputs, oplab command lines and output checks.

A workload is a list of tasks.  Each task is one ``oplab`` command line,
run as its own child process, with an optional stdin file and a check that
compares its stdout with a reference from :mod:`reference`, never with
another run of the code being timed.  A check returns None when the output
is right, else a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref


@dataclass(frozen=True)
class Task:
    name: str
    args: tuple[str, ...]
    check: Callable[[str], Optional[str]]
    stdin: Optional[Path] = None


# stdout of the sweeps at the commit that defined the benchmark; the output
# must stay byte-identical
SWEEP_SHA256 = {
    3: "58d3cbe31483d621ada0037e4753392e1a8c5d69f31c3daa04a57b002981cade",
    2: "085463afc86b549766ad02ca89b438f8395d604eec9c82c8eb472157ddcfe20e",
}

COUNT_CHAINS = ((("aab", "bba"), 24), (("bbaa", "bbb"), 18))
ORACLE_CHAIN = (("abab", "bba"), 17)
OPERADIZE = ((2, 80), (3, 27))
HOLONOMIC_N, RATIONAL_N, GUESS_BOUND = 120, 80, 4


# ---------------------------------------------------------------------------
# output parsing and checks
# ---------------------------------------------------------------------------


def _table(text: str) -> list[list[str]]:
    """CSV rows of a dims/series table, comment lines and header dropped."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    return rows[1:]


def dims_equal(expected: list[int]) -> Callable[[str], Optional[str]]:
    """The dim column must equal ``expected`` and the partial sums must add up."""
    def check(text: str) -> Optional[str]:
        rows = _table(text)
        got = [int(r[1]) for r in rows]
        if got != expected:
            bad = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                       min(len(got), len(expected)))
            return f"dims differ from the reference at index {bad} ({len(got)} rows)"
        acc = 0
        for r, v in zip(rows, expected):
            acc += v
            if int(r[2]) != acc:
                return f"partial sum wrong at index {r[0]}"
        return None
    return check


def exact_text(expected: str) -> Callable[[str], Optional[str]]:
    def check(text: str) -> Optional[str]:
        return None if text == expected else f"expected {expected.strip()!r}, got {text[:120]!r}"
    return check


def sweep_check(weight: int, rows: int) -> Callable[[str], Optional[str]]:
    """Header, one row per presentation, the dichotomy line, and the recorded bytes."""
    def check(text: str) -> Optional[str]:
        lines = text.splitlines()
        if len(lines) != rows + 2 or not lines[-1].startswith("# dichotomy holds"):
            return f"expected {rows} rows and the 'dichotomy holds' line, got {len(lines)} lines"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != SWEEP_SHA256[weight]:
            return f"stdout digest {digest[:12]} differs from the recorded one"
        return None
    return check


def gapcheck_ex53_3(max_weight: int) -> Callable[[str], Optional[str]]:
    """criterion_d = 5, linear growth, and weight counts = arity dims shifted by one."""
    dims = dims_equal(ref.ex53_3_dims(max_weight + 1)[1:])

    def check(text: str) -> Optional[str]:
        if "# criterion_d=5\n" not in text or "# growth_class=linear\n" not in text:
            return "gapcheck verdict is not criterion_d=5, linear"
        return dims(text)
    return check


def gk_check(values: list[int], exponent: float, tol: float) -> Callable[[str], Optional[str]]:
    """Pointwise value recomputed from the exact dims; slope near the known exponent."""
    want = ref.log_pointwise(values)

    def check(text: str) -> Optional[str]:
        fields = dict(line.split(",", 1) for line in text.splitlines() if not line.startswith("#"))
        try:
            pointwise, slope = float(fields["pointwise"]), float(fields["slope"])
        except (KeyError, ValueError):
            return "growth report lacks pointwise/slope"
        if abs(pointwise - want) > 2e-6:
            return f"pointwise {pointwise} but log_N S(N) = {want:.6f}"
        if abs(slope - exponent) > tol:
            return f"slope {slope} not within {tol} of {exponent}"
        if fields.get("exp_flag") != "false":
            return "polynomial growth flagged as exponential"
        return None
    return check


_REC = re.compile(r"^recurrence for \S+: order=(\d+) degree=(\d+) (.*) window=\d+\.\.\d+ "
                  r"\(holdout verified\)$")


def recurrence_check(coeffs: list[int], max_order: int) -> Callable[[str], Optional[str]]:
    """The returned recurrence must annihilate the whole generated sequence."""
    def check(text: str) -> Optional[str]:
        m = _REC.match(text.strip())
        if not m:
            return f"no recurrence reported: {text[:120]!r}"
        order = int(m.group(1))
        polys = [[int(c) for c in re.findall(r"-?\d+", body)]
                 for body in re.findall(r"p\d+=\[([^\]]*)\]", m.group(3))]
        if order > max_order or len(polys) != order + 1 or not any(any(p) for p in polys):
            return f"order {order} recurrence is not minimal or is empty"
        if not ref.annihilates(polys, coeffs, order):
            return "recurrence does not annihilate the generated sequence"
        return None
    return check


def rational_check(num: list[int], den: list[int]) -> Callable[[str], Optional[str]]:
    expected = (f"rational fit for stdin: numerator=[{', '.join(map(str, num))}] "
                f"denominator=[{', '.join(map(str, den))}] (holdout verified)\n")
    return exact_text(expected)


def emitted(path: Path) -> Callable[[str], Optional[str]]:
    def check(text: str) -> Optional[str]:
        return None if text.startswith(f"wrote {path} (") else f"unexpected output {text[:80]!r}"
    return check


# ---------------------------------------------------------------------------
# task lists
# ---------------------------------------------------------------------------


def _write_csv(path: Path, values: list[int]) -> Path:
    path.write_text("n,coeff\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values)))
    return path


def _count(rng: random.Random, work: Path) -> list[Task]:
    tasks = [
        Task("dims-ex53-1", ("dims", "--preset", "ex53-1", "--max-arity", "200"),
             dims_equal(ref.ex53_1_dims(200))),
        Task("dims-ex53-2", ("dims", "--preset", "ex53-2", "--max-arity", "200"),
             dims_equal(ref.fibonacci_dims(200))),
        Task("dims-ex53-3", ("dims", "--preset", "ex53-3", "--max-arity", "200"),
             dims_equal(ref.ex53_3_dims(200))),
        Task("dims-free3", ("dims", "--preset", "free-operad:3", "--max-arity", "200"),
             dims_equal(ref.fuss_catalan_dims(3, 200))),
        Task("gapcheck-ex53-3", ("gapcheck", "--preset", "ex53-3", "--max-weight", "200"),
             gapcheck_ex53_3(200)),
    ]
    for factors, arity in COUNT_CHAINS:
        height = max(map(len, factors))
        path = work / f"chain-h{height}.txt"
        path.write_text(ref.chain_presentation(rng, list(factors)))
        tasks.append(Task(f"dims-chain-h{height}",
                          ("dims", "--presentation", str(path), "--max-arity", str(arity)),
                          dims_equal(ref.chain_dims(list(factors), arity))))
    return tasks


def _sweep(rng: random.Random, work: Path) -> list[Task]:
    return [
        Task("sweep-w3", ("sweep", "--relation-weight", "3", "--horizon", "40"),
             sweep_check(3, 128)),
        Task("sweep-w2", ("sweep", "--relation-weight", "2", "--horizon", "40"),
             sweep_check(2, 4)),
    ]


def _analyse(rng: random.Random, work: Path) -> list[Task]:
    partitions = ref.partition_numbers(300)
    tasks = [
        Task("guess-partitions",
             ("guess", "--preset", "ex64-partition", "--max", "300",
              "--max-order", "6", "--max-degree", "6"),
             exact_text("no recurrence found at bounds (R=6, D=6, N=300) for ex64-partition\n")),
        Task("gk-floorpow", ("gk", "--preset", "floorpow:3/2", "--N", "100000"),
             gk_check(ref.floorpow_dims(3, 2, 100000), 1.5, 0.01)),
        Task("gk-staircase", ("gk", "--preset", "ex35:5/2", "--N", "5000"),
             gk_check(ref.staircase_dims(5, 2, 5000), 2.5, 0.05)),
        Task("series-ex46", ("series", "--preset", "ex46-avoidance", "--max", "300"),
             dims_equal([1] + list(range(1, 301)))),
        Task("envelope-sym", ("envelope", "--kind", "sym", "--preset", "ex64-partition",
                              "--max-index", "300"),
             dims_equal([0] + [n * partitions[n - 1] for n in range(1, 301)])),
    ]
    names, forbidden = ref.polynomial_algebra(rng, 3)
    alg_path = work / "algebra.txt"
    alg_path.write_text(ref.algebra_text(names, forbidden))
    tasks.append(Task("series-algebra", ("series", "--source", str(alg_path), "--max", "200"),
                      dims_equal(ref.algebra_dims(names, forbidden, 200))))
    for i in range(2):
        coeffs = ref.random_holonomic(rng, HOLONOMIC_N)
        tasks.append(Task(f"guess-holonomic-{i}",
                          ("guess", "--max-order", str(GUESS_BOUND),
                           "--max-degree", str(GUESS_BOUND)),
                          recurrence_check(coeffs, 2),
                          _write_csv(work / f"holonomic-{i}.csv", coeffs)))
        num, den, coeffs = ref.random_rational(rng, RATIONAL_N)
        tasks.append(Task(f"fit-rational-{i}", ("fit",), rational_check(num, den),
                          _write_csv(work / f"rational-{i}.csv", coeffs)))
    return tasks


def _oracle(rng: random.Random, work: Path) -> list[Task]:
    tasks = [
        Task("brute-ex53-2", ("dims", "--engine", "brute", "--preset", "ex53-2",
                              "--max-arity", "22"),
             dims_equal(ref.fibonacci_dims(22))),
        Task("brute-free2", ("dims", "--engine", "brute", "--preset", "free-operad:2",
                             "--max-arity", "13"),
             dims_equal(ref.fuss_catalan_dims(2, 13))),
    ]
    factors, arity = ORACLE_CHAIN
    path = work / "chain-mixed.txt"
    path.write_text(ref.chain_presentation(rng, list(factors)))
    expected = ref.chain_dims(list(factors), arity)
    for engine in ("brute", "dp"):
        tasks.append(Task(f"{engine}-chain-mixed",
                          ("dims", "--engine", engine, "--presentation", str(path),
                           "--max-arity", str(arity)),
                          dims_equal(expected)))
    for nvars, arity in OPERADIZE:
        names, forbidden = ref.polynomial_algebra(rng, nvars)
        alg_path = work / f"algebra-{nvars}.txt"
        alg_path.write_text(ref.algebra_text(names, forbidden))
        out = work / f"operadized-{nvars}.txt"
        tasks.append(Task(f"operadize-{nvars}",
                          ("operadize", "--algebra", str(alg_path), "--emit", str(out)),
                          emitted(out)))
        tasks.append(Task(f"brute-operadized-{nvars}",
                          ("dims", "--engine", "brute", "--presentation", str(out),
                           "--max-arity", str(arity)),
                          dims_equal(ref.operadized_dims(names, forbidden, arity))))
    return tasks


def _count_and_oracle(rng: random.Random, work: Path) -> list[Task]:
    """The dp engine at high arity, then the brute oracle on the same pass."""
    return _count(rng, work) + _oracle(rng, work)


WORKLOADS = {"count": _count_and_oracle, "sweep": _sweep, "analyse": _analyse}


def build(workload: str, seed: int, work: Path) -> list[Task]:
    """Write the workload's seeded inputs under ``work`` and return its tasks."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
