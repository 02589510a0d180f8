"""Command-line interface: one binary for all pipelines.

Subcommands: dims, grammar, series, gk, guess, fit, gapcheck, sweep,
operadize, envelope, preset-list.  Output is CSV by default (JSON carries
full metadata, gnuplot emits a plottable block); every numeric value is an
exact integer or rational unless explicitly labelled as a floating
estimate.  Exit codes: 0 success, 1 usage error, 2 computation error
(including a failed internal invariant, and a relation too tall for
``grammar`` to print), 141 when the reader closes stdout early.
Usage errors include a preset parameter that is missing, malformed or out
of range, and a missing or doubled source (a file flag together with
--preset).

Sweep rows are ordered by presentation key before emission, so results are
byte-identical across runs.
"""

# Each subcommand imports the oplab modules it uses inside its own function
# and reads their functions when it runs, so a run pays start-up only for its
# own modules.

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import accumulate, combinations, islice, tee
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .dims import ENGINES, DimSeries, FileSyntaxError, directives

if TYPE_CHECKING:
    from fractions import Fraction

    from .monomial import MonomialOperadPresentation


class UsageError(Exception):
    """Bad arguments, unknown presets, malformed files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _size(text: str) -> int:
    """argparse type for sizes and bounds: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

class Preset(NamedTuple):
    """``build(name, *params)`` of a presentation preset gives the presentation
    named ``name``; ``build(n, *params)`` of a dims preset gives its dims from
    index 0 to at least n as one pair: the values, to be read once, and their
    index kind.  ``param`` reads the text after ``name:`` as an "int", or
    passes it on as a "rational" that the build's library function reads
    (None: no parameter); that function checks it."""

    name: str
    kind: str  # "presentation" | "dims"
    description: str
    build: Callable
    param: Optional[str] = None


def _operad(name: str, arity: int = 2, *relations: str) -> MonomialOperadPresentation:
    """The operad on one generator ``a`` of the given arity with these relations."""
    from .monomial import MonomialOperadPresentation
    from .trees import Alphabet, parse_monomial

    alphabet = Alphabet.of(a=arity)
    rels = [parse_monomial(lit, alphabet) for lit in relations]
    return MonomialOperadPresentation(alphabet, rels, name=name)


_SHUFFLE = "a(a(*,*),a(*,*))"       # (a o_2 a) o_1 a
_CHAIN11 = "a(a(a(*,*),*),*)"       # a o_1 a o_1 a
_CHAIN21 = "a(*,a(a(*,*),*))"       # a o_2 a o_1 a
_CHAIN22 = "a(*,a(*,a(*,*)))"       # a o_2 a o_2 a


def _closed_form(family: str, index_kind: str) -> Callable:
    """A dims preset build ``(n, *params)``: the values of ``oplab.algebra.<family>
    (*params, n, stream=True)``, generated as they are read, and their index kind."""
    def build(n, *params):
        from . import algebra

        return getattr(algebra, family)(*params, n, stream=True), index_kind
    return build


def _partition(n: int) -> tuple[Iterable[int], str]:
    from .algebra import partition_dims

    return partition_dims(n).values, "degree"


def _avoidance(n: int) -> tuple[Iterable[int], str]:
    from .branch import closed_set_counts, example_at_most_one_index2

    return closed_set_counts(example_at_most_one_index2(), n).values, "weight"


CATALOG = {p.name.partition(":")[0]: p for p in (
    Preset("ex53-1", "presentation",
           "single binary generator, shuffle relation only; dims 2^(n-2)",
           lambda name: _operad(name, 2, _SHUFFLE)),
    Preset("ex53-2", "presentation",
           "fibonacci operad: shuffle relation plus the 1,1-chain",
           lambda name: _operad(name, 2, _SHUFFLE, _CHAIN11)),
    Preset("ex53-3", "presentation",
           "single binary generator; dims eventually constant 2",
           lambda name: _operad(name, 2, _SHUFFLE, _CHAIN21, _CHAIN22)),
    Preset("ex62", "dims",
           "gapped slow-growth algebra dims 1,2,3+delta (degree-indexed)",
           _closed_form("example62_dims", "degree")),
    Preset("ex64-partition", "dims",
           "partition numbers p(n) (degree-indexed)",
           _partition),
    Preset("ex46-avoidance", "dims",
           "single-branched words with at most one index-2 letter; exactly h words at height h",
           _avoidance),
    Preset("ex34:<alpha>", "dims",
           "operad dims with partial sums floor(n^alpha) (arity-indexed)",
           _closed_form("floor_power_dims", "arity"), "rational"),
    Preset("ex35:<r>", "dims",
           "staircase algebra dims with growth exponent r in (2,3) (degree-indexed)",
           _closed_form("warfield_dims", "degree"), "rational"),
    Preset("polyring:<d>", "dims",
           "polynomial ring dims C(n+d-1, d-1) (degree-indexed)",
           _closed_form("polynomial_ring_dims", "degree"), "int"),
    Preset("free:<d>", "dims",
           "free algebra dims d^n (degree-indexed)",
           _closed_form("free_algebra_dims", "degree"), "int"),
    Preset("free-operad:<arity>", "presentation",
           "free operad on one generator of the given arity",
           lambda name, arity: _operad(f"{name}:{arity}", arity), "int"),
)}
# alias -> the preset it names; the alias takes that preset's parameter
CATALOG.update((alias, CATALOG[base]._replace(name=alias + CATALOG[base].name[len(base):],
                                              description=f"alias of {CATALOG[base].name}"))
               for alias, base in {"fibonacci": "ex53-2", "example62": "ex62",
                                   "partition": "ex64-partition", "floorpow": "ex34",
                                   "warfield": "ex35"}.items())


def _preset(spec: str, n: Optional[int] = None):
    """With n None, the presentation that ``spec`` (``name`` or
    ``name:param``) names, built under the spec's name; a dims preset is then
    a usage error.  Otherwise the preset's dims from index 0 to at least n:
    the values, to be read once, and their index kind.  A parameter that does
    not parse, or that the build rejects, is a usage error that carries the
    parser's or the library function's own message."""
    base, colon, text = spec.partition(":")
    preset = CATALOG.get(base)
    if preset is None:
        raise UsageError(f"unknown preset {spec!r}; run 'oplab preset-list'")
    if preset.param is None and colon:
        raise UsageError(f"preset {base!r} takes no parameter")
    if preset.param is not None and not text:
        raise UsageError(f"preset {base!r} needs a parameter, e.g. {preset.name!r}")
    params: tuple = ()
    try:
        if preset.param == "int":
            params = (int(text),)
        elif preset.param == "rational":
            params = (text,)
        if preset.kind == "presentation":
            p = preset.build(base, *params)
        elif n is None:
            raise UsageError(f"preset {spec!r} is a dimension preset, not an operad presentation")
        else:
            return preset.build(n, *params)
    except (ValueError, ZeroDivisionError) as exc:
        if preset.param is None:
            raise
        raise UsageError(f"preset {base!r}: bad parameter {text!r}: {exc}") from None
    if n is None:
        return p
    dims = _dim_by_arity(p, n)
    return dims.values, dims.index_kind


def _dim_by_arity(p: MonomialOperadPresentation, n: int, **dims_options) -> DimSeries:
    """:func:`oplab.monomial.dim_by_arity`, whose error on a unary generator
    names the flag that counts it: ``--weight-cap`` when options are passed
    (as ``dims`` does), else ``oplab dims --weight-cap``."""
    from . import monomial

    try:
        return monomial.dim_by_arity(p, n, **dims_options)
    except monomial.CompletenessError:
        fix = "pass --weight-cap N" if dims_options else "count with 'oplab dims --weight-cap N'"
        raise monomial.CompletenessError(
            f"a unary generator can make an arity class infinite; {fix}") from None


def preset_dims(spec: str, n: int) -> DimSeries:
    """Dimension sequence of a preset from index 0 to at least n."""
    return DimSeries(*_preset(spec, n))


def preset_presentation(spec: str) -> MonomialOperadPresentation:
    return _preset(spec)


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    from pathlib import Path

    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_file(path: str, parse: Callable, text: Optional[str] = None):
    """``parse`` (``parse_presentation`` or ``parse_algebra``) of a file or its
    ``text``; a malformed file is a usage error naming the file and line."""
    from pathlib import Path

    try:
        return parse(_read_text(path) if text is None else text, name=Path(path).stem)
    except FileSyntaxError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_csv_coeffs(lines: Iterable[str], stop: Optional[int]) -> list[Fraction | int]:
    """Coefficients from the ``n,value`` rows of ``lines`` (stdin or an open
    file, read as it streams), with n = 0, 1, 2, ... in order:
    an int where ``int`` reads the value, else a Fraction.  Every row is
    checked, and those from index ``stop`` on are then dropped in place.

    Blank lines and one leading non-numeric header row are skipped, and
    columns after the value (``oplab series`` output) are ignored; any
    other row is a usage error that names its line.
    """
    coeffs: list[Fraction | int] = []
    header_seen = False
    reader = csv.reader(lines)
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        line = reader.line_num
        try:
            n = int(row[0])
        except ValueError:
            if header_seen or coeffs:
                raise UsageError(f"line {line}: expected an index, got {row[0]!r}") from None
            header_seen = True
            continue
        if n != len(coeffs):
            raise UsageError(f"line {line}: expected index {len(coeffs)}, got {n}")
        try:
            try:  # every cell int reads, Fraction reads with the same value
                coeffs.append(int(row[1]))
            except ValueError:
                from fractions import Fraction

                coeffs.append(Fraction(row[1]))
        except (IndexError, ValueError, ZeroDivisionError):
            raise UsageError(f"line {line}: no coefficient in {','.join(row)!r}") from None
    if not coeffs:
        raise UsageError("no numeric rows found in CSV input")
    if stop is not None:
        del coeffs[stop:]
    return coeffs


def _one_source(args, flag: str) -> Optional[str]:
    """The value of ``--<flag>`` or of ``--preset``; passing both is a usage error."""
    value = getattr(args, flag)
    if value and args.preset:
        raise UsageError(f"pass either --{flag} or --preset, not both")
    return value or args.preset


def _get_presentation(args) -> tuple[MonomialOperadPresentation, str]:
    """The presentation named by --presentation or --preset, and that name."""
    label = _one_source(args, "presentation")
    if args.presentation:
        from .monomial import parse_presentation

        return _load_file(label, parse_presentation), label
    if not label:
        raise UsageError("pass --presentation <file> or --preset <name>")
    return preset_presentation(label), label


def _series_source(args, n: Optional[int]) -> tuple[Iterable[Fraction | int], int, str, dict]:
    """Coefficients, their max index, label and JSON metadata of --source or
    --preset.  A preset, presentation or algebra file needs the max index n
    and gives the exact integer dimensions 0..n, to be read once (a closed
    form is generated as it is read).  CSV (a file, or stdin by default),
    read as it streams, gives a list of its rows 0..n as ints or Fractions,
    or of all of them when n is None.  The file's head (up to the first
    directive other than ``name``) tells CSV from the others.
    A --source that names neither a file nor a preset is a usage error."""
    from pathlib import Path

    source = _one_source(args, "source")
    stop = None if n is None else n + 1
    if source is None or source == "-":
        coeffs = _load_csv_coeffs(sys.stdin, stop)
        return coeffs, len(coeffs) - 1, "stdin", {}
    is_file = Path(source).exists()
    if not is_file and args.source and source.partition(":")[0] not in CATALOG:
        raise UsageError(f"{source!r} is neither a file nor a preset; run 'oplab preset-list'")
    if is_file:
        try:
            with open(source) as fh:  # the head is scanned on one copy of its lines, then reread
                head, lines = tee(fh)
                keyword, rest = next(((k, r) for line in head for _, _, k, r in directives(line)
                                      if k != "name"), ("", ""))
                del head  # or the copy would keep every line that is read after it
                if source.endswith(".csv") or keyword[:1].isdigit() or "," in keyword + rest:
                    coeffs = _load_csv_coeffs(lines, stop)
                    return coeffs, len(coeffs) - 1, source, {}
                text = "".join(lines)
        except (OSError, UnicodeDecodeError):
            _read_text(source)  # the usage error naming the file (and a bad byte's offset in it)
            raise
    if n is None:
        raise UsageError(f"a max index is required for {'file' if is_file else 'preset'} sources")
    if not is_file:  # no preset is weight-capped, so every one is exact
        values, kind = _preset(source, n)
        return islice(values, n + 1), n, source, {"exact": True, "index_kind": kind}
    if keyword in ("var", "forbid"):
        from . import algebra

        dims = algebra.hilbert_dims(_load_file(source, algebra.parse_algebra, text), n)
        meta = {}
    else:
        from . import monomial

        p = _load_file(source, monomial.parse_presentation, text)
        dims = _dim_by_arity(p, n)
        meta = {"exact": dims.exact, "sha256": _presentation_hash(p)}
    meta["index_kind"] = dims.index_kind
    return islice(dims.values, n + 1), n, source, meta


def _presentation_hash(p: MonomialOperadPresentation) -> str:
    from .monomial import format_presentation

    return _sha256_hex(format_presentation(p))


# SHA-256 from CPython's built-in module where there is one: importing
# hashlib loads OpenSSL, about 3 MB
def _sha256_hex(text: str) -> str:
    try:
        from _sha2 import sha256  # 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # up to 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _log_col(n: int, s: Fraction | int) -> str:
    if n < 2 or s <= 0:
        return ""
    return f"{(math.log(s.numerator) - math.log(s.denominator)) / math.log(n):.6f}"


def _write_json(out, payload: dict) -> None:
    import json

    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _write_values(out, emit: str, values: Iterable, report: dict,
                  title: Optional[str] = None, columns: Sequence[str] = ("index", "dim")) -> None:
    """Write exact values, read once, as CSV under ``columns`` with partial
    sums and their log_n, as a gnuplot block headed by ``title`` (default:
    the report's command and source), or as JSON: ``report`` plus
    truncation and values."""
    if emit == "json":
        strs = list(map(str, values))
        _write_json(out, dict(report, truncation=len(strs) - 1, values=strs))
        return
    values, addends = tee(values)
    rows = enumerate(zip(values, accumulate(addends)))
    if emit == "gnuplot":
        out.write(f"# {title or report['command'] + ' ' + report['source']}\n$data << EOD\n")
        out.writelines(f"{n} {v} {s}\n" for n, (v, s) in rows)
        out.write("EOD\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*columns, "partial_sum", "log_n_partial_sum"])
    writer.writerows([n, v, s, _log_col(n, s)] for n, (v, s) in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dims(args, out) -> int:
    p, label = _get_presentation(args)
    dims = _dim_by_arity(p, args.max_arity, engine=args.engine, weight_cap=args.weight_cap)
    report = {"command": "dims", "source": label, "engine": args.engine, "exact": dims.exact,
              "index_kind": dims.index_kind}
    if args.emit == "json":
        report["sha256"] = _presentation_hash(p)
    _write_values(out, args.emit, dims.values, report)
    return 0


# a left comb h levels tall compiles to h - 1 crowns listing about h**2 / 2
# relation subtrees, about 5 * h**3 / 6 characters: 7 MB at h = 200, 830 MB
# at this limit
GRAMMAR_MAX_HEIGHT = 1000


def cmd_grammar(args, out) -> int:
    from .monomial import LEAF_ID, compile_grammar
    from .trees import format_monomial

    p = _get_presentation(args)[0]
    if p.max_relation_height > GRAMMAR_MAX_HEIGHT:
        raise ValueError(f"a relation {p.max_relation_height} levels tall is over the grammar's "
                         f"limit of {GRAMMAR_MAX_HEIGHT}: its text grows as the cube of the height")
    crowns, rules = compile_grammar(p)
    terms: list[list[str]] = [[] for _ in crowns]
    for c, g, children in rules:
        kids = ("*" if k == LEAF_ID else f"K{k + 1}" for k in children)
        terms[c].append(f"{g.name}({','.join(kids)})")
    out.write(f"# crowns={len(crowns)} rules={len(rules)}\n"
              "# rule g(k1,..,km) = z^deg(g) * k1 * ... * km with * = 1 (a leaf); "
              "deg(g) = 1 counts weight, arity(g)-1 counts arity-1\n"
              "# [crown] = the relation subtrees that match at the root of the trees it derives\n")
    for i, k in enumerate(crowns):
        out.write(f"K{i + 1} [{', '.join(map(format_monomial, k))}] = {' + '.join(terms[i])}\n")
    return 0


def cmd_series(args, out) -> int:
    coeffs, _n_max, label, meta = _series_source(args, args.max)
    _write_values(out, args.emit, coeffs, {"command": "series", "source": label, **meta},
                  columns=("n", "coeff"))
    return 0


def cmd_gk(args, out) -> int:
    from . import series

    coeffs, n_max, label, _meta = _series_source(args, args.N)
    try:
        report = series.gk_estimate(coeffs, n_max)
    except series.SeriesError:
        raise
    except ValueError as exc:  # a value that is no dimension
        raise UsageError(f"growth estimation: {exc}") from None
    if args.emit == "json":
        _write_json(out, {
            "command": "gk", "source": label, "n_max": report.n_max,
            "pointwise": round(report.pointwise, 6),
            "slope": round(report.slope, 6),
            "pointwise_max": round(report.pointwise_max, 6),
            "exp_flag": report.exp_flag,
            "window": list(report.window),
            "note": "floating estimates of limsup log_n(partial sums)",
        })
    else:
        out.write(f"# growth estimate for {label} (floating estimates)\n")
        out.write(f"pointwise,{report.pointwise:.6f}\n")
        out.write(f"slope,{report.slope:.6f}\n")
        out.write(f"pointwise_max,{report.pointwise_max:.6f}\n")
        out.write(f"exp_flag,{str(report.exp_flag).lower()}\n")
        out.write(f"window,{report.window[0]}..{report.window[1]}\n")
    return 0


def cmd_fit(args, out) -> int:
    from . import series

    coeffs, n_max, label, _meta = _series_source(args, args.max)
    max_den, max_num = series.fit_bounds(n_max, args.max_den, args.max_num)
    fit = series.fit_rational(coeffs, max_den, max_num)
    if fit is None:
        out.write(f"no rational fit at bounds (den<={max_den}, num<={max_num}, "
                  f"N={n_max}) for {label}\n")
        return 0
    num = "[" + ", ".join(map(str, fit.numerator)) + "]"
    den = "[" + ", ".join(map(str, fit.denominator)) + "]"
    out.write(f"rational fit for {label}: numerator={num} denominator={den} "
              f"(holdout verified)\n")
    return 0


def cmd_guess(args, out) -> int:
    from . import series

    coeffs, n_max, label, _meta = _series_source(args, args.max)
    cand = series.guess_holonomic(coeffs, args.max_order, args.max_degree)
    if cand is None:
        out.write(f"no recurrence found at bounds (R={args.max_order}, D={args.max_degree}, "
                  f"N={n_max}) for {label}\n")
        return 0
    polys = " ".join(f"p{i}={list(poly)}" for i, poly in enumerate(cand.polynomials))
    out.write(f"recurrence for {label}: order={cand.order} degree={cand.degree} {polys} "
              f"window={cand.fit_window[0]}..{cand.fit_window[1]} (holdout verified)\n")
    return 0


def cmd_gapcheck(args, out) -> int:
    from . import monomial
    from .dims import format_ratio

    p, label = _get_presentation(args)
    report = monomial.gap_dichotomy_check(p, args.max_weight)
    # the line (A*n + B)/D, its a = A/D and b = B/D written as Fractions write them
    fit = report.affine_fit and [format_ratio(num, report.affine_fit[2])
                                 for num in report.affine_fit[:2]]
    if args.emit == "json":
        _write_json(out, {
            "command": "gapcheck", "source": label, "horizon": args.max_weight,
            "criterion_d": report.criterion_d, "growth_class": report.growth_class,
            "weight_counts": list(report.weight_counts.values),
            "partial_sums": list(report.partial_sums.values),
            "affine_fit": fit,
            "first_violation": report.first_violation,
            "sha256": _presentation_hash(p),
        })
        return 0
    out.write(f"# criterion_d={report.criterion_d if report.criterion_d is not None else 'none'}\n")
    out.write(f"# growth_class={report.growth_class}\n")
    if fit is not None:
        a, b = fit
        out.write(f"# affine_fit=a:{a},b:{b}\n")
        out.write(f"# first_violation="
                  f"{report.first_violation if report.first_violation is not None else 'none'}\n")
    _write_values(out, "csv", report.weight_counts.values,
                  {"command": "gapcheck", "source": label})
    return 0


def cmd_operadize(args, out) -> int:
    from pathlib import Path

    from .algebra import parse_algebra
    from .constructions import operadize
    from .monomial import format_presentation

    p = operadize(_load_file(args.algebra, parse_algebra))
    text = format_presentation(p)
    if args.emit == "-":
        out.write(text)
    else:
        try:
            Path(args.emit).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.emit}: {exc}") from None
        out.write(f"wrote {args.emit} ({len(p.relations)} relations, "
                  f"sha256={_sha256_hex(text)})\n")
    return 0


def cmd_envelope(args, out) -> int:
    from .constructions import NonConnectedError, min_envelope_dims, symmetric_envelope_dims

    if args.kind == "min":
        kind, envelope = "min_envelope", min_envelope_dims
    else:
        kind, envelope = "symmetric_envelope", symmetric_envelope_dims
    try:
        dims = envelope(preset_dims(args.preset, args.max_index))
    except NonConnectedError:
        raise UsageError(f"preset {args.preset!r} is not a connected algebra "
                         f"(its dims do not start with 1)") from None
    _write_values(out, args.emit, dims.values[:args.max_index + 1], {
        "command": "envelope", "source": args.preset, "kind": kind,
        "index_kind": "arity", "exact": dims.exact},
        title=f"envelope {args.kind} {args.preset}")
    return 0


def sweep_family(relation_weight: int) -> list[tuple[str, MonomialOperadPresentation]]:
    """Every presentation on one binary generator with a subset of the
    weight-<=relation_weight monomials as relations (the pool is enumerated,
    not hard-coded), as (key, presentation) pairs sorted by key, the
    ';'-joined relations.  The sweep prints its rows in this order."""
    from .monomial import MonomialOperadPresentation, enumerate_irr
    from .trees import format_monomial

    if relation_weight not in (2, 3):
        raise UsageError("sweep supports relation weights 2 and 3")
    free = _operad("free-operad:2")
    pool = [t for t in enumerate_irr(free, relation_weight)
            if 2 <= t.weight <= relation_weight]
    out = []
    for size in range(len(pool) + 1):
        for subset in combinations(range(len(pool)), size):
            rels = [pool[i] for i in subset]
            key = ";".join(format_monomial(r) for r in rels) or "(none)"
            out.append((key, MonomialOperadPresentation(free.alphabet, rels, name=key)))
    out.sort(key=lambda kp: kp[0])
    return out


def cmd_sweep(args, out) -> int:
    if args.horizon > 40:
        raise UsageError("sweep horizon is capped at 40 weights")
    if args.horizon < 8:
        raise UsageError("sweep horizon must be at least 8")
    from . import monomial, series

    verdicts: dict = {}  # presentation -> its row after the key; equal ones share it
    rows = []
    for key, p in sweep_family(args.relation_weight):
        if p not in verdicts:
            report = monomial.gap_dichotomy_check(p, args.horizon)
            # one binary generator: arity n holds the weight n-1 normal forms
            est = series.gk_estimate((0, *report.weight_counts))
            verdicts[p] = (report.criterion_d, report.growth_class, est.slope)
        rows.append((key, *verdicts[p]))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["relations", "criterion_d", "growth_class", "tail_exponent"])
    for key, criterion_d, growth_class, exponent in rows:
        writer.writerow([key, criterion_d if criterion_d is not None else "none",
                         growth_class, f"{exponent:.6f}"])
    gap_violations = sum(1.1 < exponent < 1.9 for *_, exponent in rows)
    if gap_violations:
        out.write(f"# dichotomy VIOLATED: tail exponent in (1.1, 1.9) for "
                  f"{gap_violations} presentations\n")
    else:
        out.write(f"# dichotomy holds: no tail exponent in (1.1, 1.9) across "
                  f"{len(rows)} presentations\n")
    return 0


def cmd_preset_list(args, out) -> int:
    for _, preset in sorted(CATALOG.items()):
        out.write(f"{preset.name}\t{preset.kind}\t{preset.description}\n")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="oplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_emit(p, choices=("csv", "json", "gnuplot")):
        p.add_argument("--emit", choices=choices, default="csv")

    p = sub.add_parser("dims", help="normal-form counts by arity")
    p.add_argument("--presentation")
    p.add_argument("--preset")
    p.add_argument("--max-arity", type=_size, required=True)
    p.add_argument("--engine", choices=ENGINES, default="dp")
    p.add_argument("--weight-cap", type=_size, default=None,
                   help="required when the alphabet has unary generators")
    add_emit(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("grammar", help="the compiled crown grammar as a system of equations")
    p.add_argument("--presentation")
    p.add_argument("--preset")
    p.set_defaults(fn=cmd_grammar)

    def add_source(p):
        p.add_argument("--source", default=None,
                       help="preset, presentation/algebra file, or CSV (default stdin)")
        p.add_argument("--preset", default=None, help="alias for --source <preset>")

    p = sub.add_parser("series", help="coefficient series from a preset, file, or CSV")
    add_source(p)
    p.add_argument("--max", type=_size, default=None)
    add_emit(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("gk", help="growth-exponent estimate (floating, labelled)")
    add_source(p)
    p.add_argument("--N", type=_size, default=None)
    add_emit(p, ("csv", "json"))
    p.set_defaults(fn=cmd_gk)

    p = sub.add_parser("fit", help="exact rational-function fit with holdout")
    add_source(p)
    p.add_argument("--max", type=_size, default=None)
    p.add_argument("--max-den", type=_size, default=None)
    p.add_argument("--max-num", type=_size, default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("guess", help="polynomial-coefficient recurrence guess with holdout")
    add_source(p)
    p.add_argument("--max", type=_size, default=None)
    p.add_argument("--max-order", type=_size, required=True)
    p.add_argument("--max-degree", type=_size, required=True)
    p.set_defaults(fn=cmd_guess)

    p = sub.add_parser("gapcheck", help="linear-growth dichotomy check on weight counts")
    p.add_argument("--presentation")
    p.add_argument("--preset")
    p.add_argument("--max-weight", type=_size, required=True)
    add_emit(p, ("csv", "json"))
    p.set_defaults(fn=cmd_gapcheck)

    p = sub.add_parser("sweep", help="exhaustive single-binary-generator relation sweep")
    p.add_argument("--relation-weight", type=int, choices=(2, 3), default=3)
    p.add_argument("--horizon", type=int, default=40)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("operadize", help="encode a monomial algebra as an operad presentation")
    p.add_argument("--algebra", required=True)
    p.add_argument("--emit", required=True, help="output presentation file ('-' for stdout)")
    p.set_defaults(fn=cmd_operadize)

    p = sub.add_parser("envelope", help="min or symmetric envelope dims of a preset")
    p.add_argument("--kind", choices=("min", "sym"), required=True)
    p.add_argument("--preset", required=True)
    p.add_argument("--max-index", type=_size, required=True)
    add_emit(p)
    p.set_defaults(fn=cmd_envelope)

    p = sub.add_parser("preset-list", help="list presets")
    p.set_defaults(fn=cmd_preset_list)

    return parser


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, out)
    except UsageError as exc:
        print(f"oplab: usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, AssertionError, RecursionError) as exc:
        print(f"oplab: computation error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:  # the reader closed stdout, as `oplab ... | head` does
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        code = 141  # what a shell reports for a process killed by SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
