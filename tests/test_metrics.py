import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import metrics
from cavitydd.algebra import ModelParams, jaynes_cummings
from cavitydd.metrics import (CARDINAL_STATES, CSV_HEADER, bloch_grid,
                              write_csv)
from cavitydd.propagate import EvolutionTrace, run_trace
from cavitydd.sequences import build_schedule, parse_sequence


@pytest.fixture(scope="module")
def small_grid():
    return bloch_grid(8)


def make_trace(grid, omega_r=0.0, g=0.002, n_max=3, periods=30, seq="4p",
               shape=None, **kw):
    from cavitydd.shapes import gaussian
    cs = jaynes_cummings(ModelParams(omega_r=omega_r, omega_0=0, g=g,
                                     n_max=n_max))
    sched = build_schedule(parse_sequence(seq), shape or gaussian(0.10))
    return run_trace(cs, sched, periods, grid, **kw)


class TestGrid:
    def test_cardinals_always_included(self):
        arr = bloch_grid(17)
        assert arr.shape == (6 + 17, 2)
        for v in CARDINAL_STATES:
            assert any(np.allclose(arr[i], v, atol=1e-12) for i in range(6))

    def test_states_normalized(self):
        arr = bloch_grid(50)
        assert np.allclose(np.linalg.norm(arr, axis=1), 1, atol=1e-12)


class TestObservables:
    def test_initial_sample(self, small_grid):
        tr = make_trace(small_grid, periods=0)
        assert tr.fidelity_min[0] == pytest.approx(1.0, abs=1e-12)
        assert tr.n_mean_max[0] == pytest.approx(0.0, abs=1e-14)

    def test_decoupled_qubit_stays_perfect(self, small_grid):
        tr = make_trace(small_grid, g=0.0, periods=20)
        assert np.allclose(tr.fidelity_min, 1, atol=1e-10)
        assert np.allclose(tr.n_mean_max, 0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bounds(self, small_grid):
        tr = make_trace(small_grid, g=0.05, periods=40)
        f = tr.fidelity_min
        n = tr.n_mean_max
        assert np.all((0 <= f) & (f <= 1 + 1e-12))
        assert np.all((0 <= n) & (n <= 3 + 1e-10))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_two_level_oscillator_bound(self, small_grid):
        tr = make_trace(small_grid, g=0.05, n_max=1, periods=40)
        assert np.all(tr.n_mean_max <= 1 + 1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_grid_refinement_monotone(self):
        # a strict superset of states can only lower the minimum fidelity
        # and raise the maximum occupation
        small = bloch_grid(6)
        big = np.concatenate([small, bloch_grid(13)[6:]])
        tr_small = make_trace(small, g=0.04, periods=25)
        tr_big = make_trace(big, g=0.04, periods=25)
        assert np.all(tr_big.fidelity_min
                      <= tr_small.fidelity_min + 1e-14)
        assert np.all(tr_big.n_mean_max
                      >= tr_small.n_mean_max - 1e-14)

    def test_resonant_4p_heats_and_decays(self, small_grid):
        # first-order error of 4p with a Gaussian pulse pumps the resonant
        # oscillator and degrades the qubit, visibly by 60 periods
        tr = make_trace(small_grid, omega_r=0.0, g=0.002, n_max=6,
                        periods=60, seq="4p")
        n = tr.n_mean_max
        f = tr.fidelity_min
        assert n[-1] > 100 * max(n[1], 1e-12)
        assert n[-1] > 1e-4
        assert f[-1] < 1 - 1e-4


def one_shot_csv(trace):
    """The CSV text of trace formatted in one pass, as write_csv formatted
    it before it wrote its rows in chunks."""
    return CSV_HEADER + "\n" + "".join(map(
        "{},{:.12g},{:.12g},{:.12g},{:.12g}\n".format,
        range(len(trace.times)), trace.times.tolist(),
        trace.fidelity_min.tolist(), trace.n_mean_max.tolist(),
        trace.leakage_max.tolist()))


class TestCsv:
    @pytest.mark.parametrize("periods", [
        0, metrics._CSV_CHUNK - 1, metrics._CSV_CHUNK, metrics._CSV_CHUNK + 1,
        2 * metrics._CSV_CHUNK + 3])
    def test_chunked_rows_are_the_one_shot_formatting(self, tmp_path,
                                                      periods):
        # periods + 1 rows, with values that take every branch of %.12g
        rng = np.random.default_rng(periods)
        n = periods + 1
        trace = EvolutionTrace(
            times=np.arange(n) * 0.8, fidelity_min=1 - rng.random(n) * 1e-3,
            n_mean_max=rng.random(n) * 10.0 ** rng.integers(-20, 3, n),
            leakage_max=rng.choice([0.0, 1e-300, 0.5, 1e17], n),
            halving_diff=0.0, unitarity_drift=0.0)
        path = tmp_path / "trace.csv"
        write_csv(str(path), trace)
        assert path.read_text() == one_shot_csv(trace)
        assert len(path.read_text().splitlines()) == n + 1

    def test_schema_and_rows(self, small_grid, tmp_path):
        tr = make_trace(small_grid, periods=5, n_max=4)
        path = tmp_path / "trace.csv"
        write_csv(str(path), tr)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == 1.0

    def test_write_atomic_and_deterministic(self, small_grid, tmp_path):
        tr = make_trace(small_grid, periods=5, n_max=4)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(str(p1), tr)
        write_csv(str(p2), tr)
        assert p1.read_bytes() == p2.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_errors_name_the_path_and_leave_no_temp_file(self, small_grid,
                                                         tmp_path):
        # the temp file is an implementation detail: a missing directory and
        # a directory in the way are both reported at the path asked for
        tr = make_trace(small_grid, periods=1, n_max=4)
        taken = tmp_path / "taken"
        taken.mkdir()
        for path, error in ((tmp_path / "missing" / "x.csv",
                             FileNotFoundError),
                            (taken, IsADirectoryError)):
            with pytest.raises(error) as exc:
                write_csv(str(path), tr)
            assert exc.value.filename == str(path)
            assert exc.value.filename2 is None
        assert list(tmp_path.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    @pytest.mark.parametrize("umask", (0o022, 0o077))
    def test_file_mode_follows_umask(self, small_grid, tmp_path, umask):
        # the mode a plain open gives a new file, also when it replaces an
        # existing file, and not the temp file's 0o600
        tr = make_trace(small_grid, periods=1, n_max=4)
        old = os.umask(umask)
        try:
            fresh = tmp_path / "fresh.csv"
            write_csv(str(fresh), tr)
            existing = tmp_path / "existing.csv"
            existing.write_text("")
            existing.chmod(0o644)
            write_csv(str(existing), tr)
        finally:
            os.umask(old)
        for path in (fresh, existing):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_leakage_column(self, small_grid):
        tr = make_trace(small_grid, periods=3)
        lk = tr.leakage_max
        assert lk.shape == (4,)
        assert np.all(lk >= 0)


def values_trace(values):
    """A trace whose four columns hold values row by row, padded with 0."""
    flat = np.zeros(-(-len(values) // 4) * 4)
    flat[:len(values)] = values
    columns = flat.reshape(-1, 4).T
    return EvolutionTrace(times=columns[0], fidelity_min=columns[1],
                          n_mean_max=columns[2], leakage_max=columns[3],
                          halving_diff=0.0, unitarity_drift=0.0)


def assert_formatted_as_python(values):
    """The vectorised rows, which write_csv uses past one chunk, are the
    rows '{:.12g}' gives for each value."""
    trace = values_trace(values)
    columns = (trace.times, trace.fidelity_min, trace.n_mean_max,
               trace.leakage_max)
    got = "".join(metrics._csv_text(columns))
    assert got == one_shot_csv(trace)[len(CSV_HEADER) + 1:]


def not_fast(values):
    """Where the writer's fast path leaves a value to Python's format."""
    x = np.asarray(values, dtype=float)[None]
    out = np.empty((1, metrics._VALUE_WORDS, x.shape[1]), np.uint32)
    return metrics._fast_words(x, out)[0]


def decimal_midpoints(rng, per_exponent=4):
    """The doubles nearest (k + 1/2) 10^(e - 11), 12-digit k, for every e
    from -300 to 300: k = 10^11, 10^12 - 1 (9.999999999995e(e)) and
    per_exponent - 2 drawn from rng."""
    values = []
    for e in range(-300, 301):
        ks = [10**11, 10**12 - 1, *rng.integers(10**11, 10**12,
                                                per_exponent - 2).tolist()]
        values += [float(f"{10 * k + 5}e{e - 12}") for k in ks]
    return np.array(values)


# the %g layout switches: fixed below 1e-4 is scientific, 12 integer digits
# are fixed, and a carry past 9.99999999999... moves a value across
LAYOUT_EDGES = [
    1e-5, 9.99999999999e-5, 9.999999999994e-5, 9.999999999996e-5, 1e-4,
    0.000123456789012, 0.00100000000001, 0.5, 1.0, 10.0, 100.0, 1000.0,
    123456.789012, 99999999999.9, 999999999999.0, 999999999999.4,
    999999999999.6, 1e12, 1.00000000001e12, 1e16, 9.9999999999996e5,
    9.9999999999996e-7, 9.9999999999996e11, 3.0e-5, 7.25e11]
# three-digit exponents, in and beyond the fast path's range
WIDE_EXPONENTS = [
    1e100, 1.5e-100, 9.99999999999e-101, 1.23456789012e-280, 9.87e279,
    1e-280, 1e280, 4.2e-299, 6.02e299, 2.2250738585072014e-308,
    1.7976931348623157e308, 5e-324, 1e-320]


class TestCsvFormatting:
    """The vectorised writer's bytes are Python's '{:.12g}' of each double."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=48))
    def test_any_float(self, values):
        # hypothesis floats include NaN, +-inf, +-0, subnormals and the
        # edges of every exponent
        assert_formatted_as_python(values)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=48))
    def test_any_bit_pattern(self, bits):
        # every double, NaN payloads and negative NaN included
        assert_formatted_as_python(
            np.array(bits, dtype=np.uint64).view(np.float64))

    def test_random_doubles_across_exponents(self, tmp_path):
        # uniform 12-digit mantissas at every decimal exponent, and random
        # bit patterns: 1536 rows, which write_csv formats in two chunks
        rng = np.random.default_rng(28)
        n = 3 * metrics._CSV_CHUNK
        mantissas = rng.random(n) * 10.0 ** rng.integers(-310, 308, n)
        signs = rng.choice([-1.0, 1.0], n)
        bits = rng.integers(0, 2 ** 63, n).view(np.float64)
        trace = values_trace(np.concatenate([mantissas * signs, bits]))
        path = tmp_path / "values.csv"
        write_csv(str(path), trace)
        assert path.read_bytes() == one_shot_csv(trace).encode()

    def test_decimal_midpoints_and_neighbours(self):
        # ties at the 12th digit take the exact fallback: the nearest double
        # lies on either side of the decimal midpoint, and format rounds it
        # by its exact value
        mid = decimal_midpoints(np.random.default_rng(5))
        assert not_fast(mid).all()
        for values in (mid, np.nextafter(mid, np.inf),
                       np.nextafter(mid, -np.inf), -mid):
            assert_formatted_as_python(values)

    def test_powers_of_ten_take_the_fast_path(self):
        # log10 is one off for some of these, and their scaled values lie
        # within roundoff of a power of ten: the one correction and the
        # carry keep them all on the fast path
        e = np.arange(-279, 280)
        powers = np.array([float(f"1e{k}") for k in e.tolist()])
        below = np.nextafter(powers, 0)
        assert not not_fast(powers).any()
        assert not not_fast(below).any()
        assert_formatted_as_python(np.concatenate([powers, below]))

    def test_layout_edges(self):
        values = np.array(LAYOUT_EDGES)
        assert_formatted_as_python(np.concatenate(
            [values, -values, np.nextafter(values, 0),
             np.nextafter(values, np.inf)]))

    def test_three_digit_exponents(self):
        values = np.array(WIDE_EXPONENTS)
        fast = ~not_fast(values)
        # the fast path formats the range [1e-280, 1e280]
        assert fast[:7].all() and not fast[7:].any()
        assert_formatted_as_python(np.concatenate([values, -values]))

    def test_special_values_take_the_fallback(self):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
        assert not_fast(special).all()
