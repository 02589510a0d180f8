"""gk_estimate against the full-window formula it replaced, and its memory.

The oracle forms every partial sum, a list of (n, S) pairs on the tail
window and a list of (log n, log S) pairs, and runs the geometric test on
the full list of sums.  gk_estimate reads its input once and sums only the
tail window; on a sequence and on a one-shot iterator with its truncation
alike, it must return a bit-identical GkReport, or raise the same error
with the same message.  From CPython 3.12 on, ``sum`` compensates its
rounding within each call, so gk_estimate's sums, taken a piece at a time,
can differ from the oracle's one sum over the window in the last bits (the
slope by up to 1.7e-10 relative, or by 2.5e-9 where a flat tail leaves it
rounding noise around 0): there a report's floats need only agree to 1e-9
relative or 1e-8 absolute.
"""

import io
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate, count
from operator import ne

import pytest

from oplab import (
    DimSeries,
    floor_power_dims,
    free_algebra_dims,
    gk_estimate,
    polynomial_ring_dims,
    warfield_dims,
)
from oplab import cli, series
from oplab.algebra import example62_dims, floor_power
from oplab.dims import as_dim_values, log_of_int
from oplab.series import TAIL_FRACTION, DegenerateSeriesError, GkReport, SeriesError


def full_window_gk(dims):
    """Growth report from the full list of partial sums and per-point tuples."""
    if isinstance(dims, DimSeries):
        values = dims.values
    else:
        values = tuple(map(int, dims))
        if any(map(ne, values, dims)) or min(values, default=0) < 0:
            bad = next(i for i, (v, d) in enumerate(zip(values, dims)) if v != d or v < 0)
            raise ValueError(f"dimension {bad} is {dims[bad]}, not a nonnegative integer")
    if len(values) < 8:
        raise SeriesError("need at least 8 dimension values to estimate growth")
    if all(v == 0 for v in values[2:]):
        raise DegenerateSeriesError("series is zero beyond index 1")
    sums = list(accumulate(values))
    n_max = len(values) - 1
    start = max(2, n_max - int(n_max * TAIL_FRACTION))
    window = [(n, sums[n]) for n in range(start, n_max + 1) if sums[n] > 0]
    if len(window) < 2:
        raise DegenerateSeriesError("partial sums vanish on the tail window")
    logs = [(math.log(n), log_of_int(s)) for n, s in window]
    k = len(logs)
    sx = sum(x for x, _ in logs)
    sy = sum(y for _, y in logs)
    sxx = sum(x * x for x, _ in logs)
    sxy = sum(x * y for x, y in logs)
    den = k * sxx - sx * sx
    slope = (k * sxy - sx * sy) / den if den else 0.0
    pointwise = log_of_int(sums[n_max]) / math.log(n_max)
    pointwise_max = max(y / x for x, y in logs)
    return GkReport(pointwise, slope, pointwise_max, full_sums_geometric(sums),
                    (start, n_max), n_max)


def full_sums_geometric(sums):
    n_max = len(sums) - 1
    anchors = []
    n = max(2, n_max // 16)
    while 2 * n <= n_max:
        anchors.append(n)
        n *= 2
    if len(anchors) < 2:
        return False
    exps = []
    for n in anchors:
        lo, hi = sums[n], sums[2 * n]
        if lo == 0:
            return False
        exps.append((log_of_int(hi) - log_of_int(lo)) / math.log(2))
    increasing = all(b > a for a, b in zip(exps, exps[1:]))
    return increasing and exps[-1] - exps[0] > 2.0


def outcome(estimate, dims):
    """The report, or the error raised."""
    try:
        return "report", estimate(dims)
    except ValueError as exc:
        return type(exc), str(exc)


SUM_COMPENSATES = sys.version_info >= (3, 12)
FLOATS = ("pointwise", "slope", "pointwise_max")


def assert_matches(got, expected):
    """The same error, or the same report: every float as its exact repr,
    or, where ``sum`` compensates, within 1e-9 relative or 1e-8 absolute."""
    if got[0] != "report" or expected[0] != "report":
        assert got == expected
    elif SUM_COMPENSATES:
        zeroed = dict.fromkeys(FLOATS, 0.0)
        assert got[1]._replace(**zeroed) == expected[1]._replace(**zeroed)
        for name in FLOATS:
            assert math.isclose(getattr(got[1], name), getattr(expected[1], name),
                                rel_tol=1e-9, abs_tol=1e-8), name
    else:
        assert repr(got[1]) == repr(expected[1])


def assert_same(dims):
    expected = outcome(full_window_gk, dims)
    assert_matches(outcome(gk_estimate, dims), expected)
    return expected


def streamed(values):
    """gk_estimate on a one-shot iterator over ``values`` and its truncation."""
    return gk_estimate(iter(values), len(values) - 1)


def assert_same_streamed(values):
    expected = outcome(full_window_gk, values)
    assert_matches(outcome(streamed, values), expected)
    return expected


def _window_start(n_max):
    return max(2, n_max - int(n_max * TAIL_FRACTION))


def _seeded_series(rng):
    """A nonnegative integer series with runs of zeros, now and then huge
    values, and often a leading zero run that ends near the tail window."""
    n_max = rng.randint(5, 400)
    zero_share = rng.choice((0.0, 0.3, 0.9))
    top = rng.choice((3, 1000, 2 ** 70, 2 ** 1000, None))  # None: 2**n at index n
    values = [0 if rng.random() < zero_share else 2 ** n if top is None else rng.randint(0, top)
              for n in range(n_max + 1)]
    start = _window_start(n_max)
    lead = rng.choice((0, rng.randint(0, n_max + 1), start, start + 1, n_max - 1, n_max, n_max + 1))
    values[:lead] = [0] * min(lead, n_max + 1)
    return values


SEEDED = [_seeded_series(random.Random(seed)) for seed in range(300)]


def _leading_zeros(n_max, first):
    """Ones from index ``first`` on, zeros before it."""
    return [0] * first + [1] * (n_max + 1 - first)


EDGES = [
    list(range(7)),                          # too short
    [3, 5, 0, 0, 0, 0, 0, 0, 0, 0],          # zero beyond index 1
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4],    # one positive sum in the window
    [0] * 2 + [1] * 8,                       # positive from index 2 on
    [2 ** 3000] * 40,                        # every log on the big path
    [0] * 4 + [1] + [2 ** (n * n // 8) for n in range(5, 65)],  # geometric; S(4) = values[4]
    [1, 1, 2, 1, 3, 1, 4, -1, 5],            # negative
    [1, 1, 2, 1, 3, Fraction(1, 2), 4, 1],   # fractional
] + [_leading_zeros(n_max, first)
     for n_max in (9, 30, 99, 100, 257)
     for first in (0, 1, _window_start(n_max) - 1, _window_start(n_max),
                   _window_start(n_max) + 1, n_max - 1, n_max, n_max + 1)]


class TestAgainstFullWindow:
    @pytest.mark.parametrize("alpha", ["3/2", "1/2", "5/3", "7/2"])
    def test_floor_power(self, alpha):
        kind, _ = assert_same(floor_power_dims(alpha, 10 ** 5 if alpha == "3/2" else 5000))
        assert kind == "report"

    @pytest.mark.parametrize("dims", [
        warfield_dims("5/2", 4000), warfield_dims("8/3", 257),
        polynomial_ring_dims(3, 3000), polynomial_ring_dims(1, 40),
        free_algebra_dims(2, 1500), free_algebra_dims(3, 64),
    ], ids=["warfield-5/2", "warfield-8/3", "polyring-3", "polyring-1", "free-2", "free-3"])
    def test_closed_forms(self, dims):
        kind, _ = assert_same(dims)
        assert kind == "report"

    def test_free_algebra_takes_the_big_log_path(self):
        # its sums pass 2**900, where log_of_int no longer calls math.log directly
        dims = free_algebra_dims(2, 1500)
        assert sum(dims.values).bit_length() > 900
        assert gk_estimate(dims).exp_flag

    @pytest.mark.parametrize("values", EDGES)
    def test_edges(self, values):
        assert_same(values)

    def test_seeded_series(self):
        outcomes = [assert_same(values) for values in SEEDED]
        assert {kind for kind, _ in outcomes} == {"report", SeriesError, DegenerateSeriesError}
        flags = {report.exp_flag for kind, report in outcomes if kind == "report"}
        assert flags == {True, False}

    @pytest.mark.parametrize("wrap", [
        lambda v: DimSeries(v, "degree"), tuple, list, lambda v: [Fraction(x) for x in v],
    ], ids=["DimSeries", "tuple", "list", "Fractions"])
    def test_every_input_form(self, wrap):
        for values in SEEDED[:60] + EDGES[:5] + [list(warfield_dims("5/2", 600))]:
            assert_same(wrap(values))


CLOSED_FORMS = {  # name: (the *_dims function, its parameters before the truncation)
    "floorpow-3/2": (floor_power_dims, "3/2"),
    "floorpow-1/2": (floor_power_dims, "1/2"),
    "floorpow-5/3": (floor_power_dims, "5/3"),
    "floorpow-7/2": (floor_power_dims, "7/2"),
    "warfield-5/2": (warfield_dims, "5/2"),
    "warfield-8/3": (warfield_dims, "8/3"),
    "polyring-3": (polynomial_ring_dims, 3),
    "polyring-1": (polynomial_ring_dims, 1),
    "free-2": (free_algebra_dims, 2),
    "ex62": (example62_dims,),
}


class TestStreamed:
    def test_seeded_series(self):
        outcomes = [assert_same_streamed(values) for values in SEEDED]
        assert {kind for kind, _ in outcomes} == {"report", SeriesError, DegenerateSeriesError}

    @pytest.mark.parametrize("values", EDGES)
    def test_edges(self, values):
        assert_same_streamed(values)

    def test_value_errors_come_first(self):
        # a bad value is reported before the window is found too short
        assert outcome(streamed, [1, -2, 3]) == (ValueError, (
            "dimension 1 is -2, not a nonnegative integer"))
        assert outcome(streamed, [1, Fraction(5, 2)] + [1] * 20000) == (ValueError, (
            "dimension 1 is 5/2, not a nonnegative integer"))
        assert outcome(streamed, [1] * 20000 + [-1]) == (ValueError, (
            "dimension 20000 is -1, not a nonnegative integer"))

    @pytest.mark.parametrize("name, n", [
        ("floorpow-3/2", 10 ** 5), ("floorpow-1/2", 5000), ("floorpow-5/3", 5000),
        ("floorpow-7/2", 5000), ("warfield-5/2", 4000), ("warfield-8/3", 257),
        ("polyring-3", 3000), ("polyring-1", 40), ("free-2", 1500), ("ex62", 3200),
        ("floorpow-3/2", 7), ("free-2", 5)])
    def test_closed_forms(self, name, n):
        dims, *params = CLOSED_FORMS[name]
        expected = outcome(full_window_gk, dims(*params, n))
        assert_matches(outcome(lambda _: gk_estimate(dims(*params, n, stream=True), n), None),
                       expected)
        assert expected[0] == ("report" if n > 6 else SeriesError)

    def test_reads_each_value_once_and_no_further(self):
        pulled = []
        values = (pulled.append(n) or n % 7 for n in count())
        report = gk_estimate(values, 1000)
        assert pulled == list(range(1001))
        assert report == gk_estimate([n % 7 for n in range(1001)])

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="expected 101 dimension values, got 100"):
            gk_estimate(iter(range(100)), 100)


class TestChunkBoundaries:
    # tiny pieces put a piece boundary at every kind of index: the window
    # start, the anchors, the first positive sum and the last value
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_seeded_series_and_edges(self, monkeypatch, chunk):
        monkeypatch.setattr(series, "_CHUNK", chunk)
        for values in SEEDED + EDGES:
            assert_same_streamed(values)


def _old_floor_power_values(alpha, n):
    """The floor-power dims as they were built one value at a time."""
    return [floor_power(i, Fraction(alpha)) - (floor_power(i - 1, Fraction(alpha)) if i else 0)
            for i in range(n + 1)]


def _old_warfield_values(r, n):
    q = (Fraction(r) - 1) / 2
    return [1 + i + (fl - 1) * fl // 2 for i, fl in ((i, floor_power(i, q)) for i in range(n + 1))]


class TestStreamedValues:
    @pytest.mark.parametrize("alpha", ["3/2", "1/2", "5/3", "7/2"])
    def test_floor_power(self, alpha):
        expected = _old_floor_power_values(alpha, 3000)
        assert list(floor_power_dims(alpha, 3000, stream=True)) == expected
        assert floor_power_dims(alpha, 3000).values == tuple(expected)

    @pytest.mark.parametrize("r", ["5/2", "8/3"])
    def test_warfield(self, r):
        expected = _old_warfield_values(r, 3000)
        assert list(warfield_dims(r, 3000, stream=True)) == expected
        assert warfield_dims(r, 3000).values == tuple(expected)

    def test_other_closed_forms(self):
        assert list(polynomial_ring_dims(3, 50, stream=True)) == [math.comb(n + 2, 2)
                                                                  for n in range(51)]
        assert list(free_algebra_dims(3, 50, stream=True)) == [3 ** n for n in range(51)]
        # degrees 2..5 and 28..257 lie on the gap intervals
        assert list(example62_dims(300, stream=True)) == [1, 2] + [
            3 + (not (2 <= n <= 5 or 28 <= n <= 257)) for n in range(2, 301)]

    def test_bad_parameters_raise_when_the_iterator_is_made(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            floor_power_dims("-1", 10, stream=True)
        with pytest.raises(ValueError, match="strictly between 2 and 3"):
            warfield_dims("3", 10, stream=True)


class TestCopies:
    def test_a_tuple_of_ints_is_not_copied(self):
        values = floor_power_dims("3/2", 100).values
        assert as_dim_values(values) is values
        assert as_dim_values(list(values)) == values

    @pytest.mark.parametrize("values", [(1, True, 2), (1, 2.0, 3), (1, Fraction(2), 3)])
    def test_a_tuple_of_other_numbers_is_coerced(self, values):
        coerced = as_dim_values(values)
        assert coerced == values and set(map(type, coerced)) == {int}

    def test_a_tuple_is_still_checked(self):
        with pytest.raises(ValueError, match="dimension 2 is -1"):
            as_dim_values((1, 2, -1, 3))

    def test_traced_peak_of_gk_estimate_at_1e5(self):
        # The full-window formula peaks at about 10.9 MB here and
        # gk_estimate at about 0.27 MB (CPython 3.11); 3 MB also fails a
        # full list of the 100001 partial sums.
        dims = floor_power_dims("3/2", 10 ** 5)
        tracemalloc.start()
        try:
            gk_estimate(dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 10 ** 6

    def test_traced_peak_of_gk_estimate_does_not_grow_with_n(self):
        # About 0.27 and 0.30 MB (CPython 3.11): one piece of _CHUNK values,
        # or its logs and those of their indices.  Keeping the logs of the
        # whole tail window put the two peaks about 440 KB apart.
        peaks = []
        for n in (25_000, 100_000):
            values = floor_power_dims("3/2", n, stream=True)
            tracemalloc.start()
            try:
                gk_estimate(values, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024


def traced_peak(argv):
    """Traced peak of one ``oplab`` run, after an untraced run for the imports."""
    assert cli.run(argv, out=io.StringIO()) == 0
    tracemalloc.start()
    try:
        assert cli.run(argv, out=io.StringIO()) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTracedPeaks:
    # measured with CPython 3.11; the figures of the previous builds are in
    # the comments, which the bounds must fail

    def test_gk_on_a_closed_form_preset(self):
        # about 0.36 MB (0.64 MB while the tail window's logs were kept);
        # the 100001-value series alone is about 3 MB (3.7 MB when the
        # preset built it as a DimSeries)
        assert traced_peak(["gk", "--preset", "floorpow:3/2", "--N", "100000"]) < 1.5 * 10 ** 6

    def test_top_bound_certificate_of_guess(self):
        # about 0.32 MB with the first 57 rows of the top bound; 0.82 MB when
        # all 275 rows of 49 big ints were built
        argv = ["guess", "--preset", "ex64-partition", "--max", "300",
                "--max-order", "6", "--max-degree", "6"]
        assert traced_peak(argv) < 0.55 * 10 ** 6

    def test_gk_on_a_csv_file(self, tmp_path):
        # about 0.37 MB for the list of 20001 values; 2.8 MB when the file's
        # text and an io.StringIO copy of it were held
        path = tmp_path / "fp.csv"
        with path.open("w") as fh:
            assert cli.run(["series", "--preset", "floorpow:3/2", "--max", "20000"], out=fh) == 0
        assert traced_peak(["gk", "--source", str(path)]) < 1.0 * 10 ** 6
