import os
import stat

import numpy as np
import pytest

from cavitydd.algebra import ModelParams, jaynes_cummings
from cavitydd.metrics import (CARDINAL_STATES, CSV_HEADER, bloch_grid,
                              write_csv)
from cavitydd.propagate import run_trace
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


class TestCsv:
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
