import hashlib

import numpy as np
import pytest

import raldpc as rl
from raldpc.charact import _run_cell, wilson_interval


@pytest.fixture(scope="module")
def small_matrix():
    # 64 x 320 keeps every cell fast while behaving like the real pipeline
    return rl.peg_construct(64, 320, rl.DegreeProfile.interleaved_4_5(320), seed=17)


class TestWilson:
    def test_brackets_point_estimate(self):
        for k, n in [(0, 100), (3, 100), (50, 100), (100, 100), (1, 7)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0
            assert type(lo) is float and type(hi) is float

    def test_zero_failures_has_zero_lower(self):
        lo, hi = wilson_interval(0, 500)
        assert lo == 0.0 and 0.0 < hi < 0.02

    def test_narrows_with_frames(self):
        w1 = np.subtract(*wilson_interval(10, 100)[::-1])
        w2 = np.subtract(*wilson_interval(100, 1000)[::-1])
        assert w2 < w1

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestEstimateFer:
    """``_run_cell`` with one seed and no early stop: one FER cell."""

    def test_vanishing_error_rate_gives_zero_fer(self, small_matrix):
        pre = rl.MatrixPrefix(small_matrix, 320)
        est = _run_cell(pre, 1e-9, 100, (1,), 60)
        assert est.point_estimate == 0.0
        assert est.failures == 0 and est.frames_run == 100
        assert est.undetected == 0

    def test_overwhelming_noise_gives_full_fer(self, small_matrix):
        pre = rl.MatrixPrefix(small_matrix, 320)
        est = _run_cell(pre, 0.3, 50, (2,), 60)
        assert est.point_estimate == 1.0

    def test_deterministic(self, small_matrix):
        pre = rl.MatrixPrefix(small_matrix, 320)
        a = _run_cell(pre, 0.02, 150, (3,), 60)
        b = _run_cell(pre, 0.02, 150, (3,), 60)
        assert a == b

    def test_ci_brackets_estimate(self, small_matrix):
        pre = rl.MatrixPrefix(small_matrix, 256)
        est = _run_cell(pre, 0.05, 200, (4,), 60)
        assert est.ci_low <= est.point_estimate <= est.ci_high

    def test_validation(self, small_matrix):
        pre = rl.MatrixPrefix(small_matrix, 320)
        with pytest.raises(ValueError):
            _run_cell(pre, 0.6, 10, (0,), 60)
        with pytest.raises(ValueError):
            _run_cell(pre, 0.02, 0, (0,), 60)


class TestBuildTable:
    WIDTHS = (320, 192, 128)
    GRID = (0.01, 0.03, 0.06, 0.10)

    def build(self, small_matrix, seed=5, threads=1):
        return rl.build_table(
            small_matrix,
            self.WIDTHS,
            self.GRID,
            frames_per_point=80,
            seed=seed,
            max_iterations=15,
            threads=threads,
        )

    def test_golden_digest(self, small_matrix):
        t = self.build(small_matrix)
        h = hashlib.sha256()
        for a in (t.fer, t.alpha, t.ci_low, t.ci_high):
            h.update(np.asarray(a, dtype=np.float64).tobytes())
        h.update(np.asarray(t.undetected, dtype=np.int64).tobytes())
        h.update(np.asarray([-1 if w is None else w for w in t.working]).tobytes())
        assert h.hexdigest() == (
            "e6b9bd93b1b0dc6af871572ae363676e2705915b242ba397182d990adf071997"
        )

    def test_reproducible(self, small_matrix):
        t1 = self.build(small_matrix)
        t2 = self.build(small_matrix)
        assert np.allclose(t1.fer, t2.fer, equal_nan=True)
        assert np.allclose(t1.alpha, t2.alpha, equal_nan=True)
        assert t1.working == t2.working

    def test_efficiency_identity_per_cell(self, small_matrix):
        t = self.build(small_matrix)
        for i in range(t.error_rates.size):
            for j, w in enumerate(t.widths):
                if np.isnan(t.alpha[i, j]):
                    continue
                rate = rl.effective_rate(64, int(w)).rate
                assert t.alpha[i, j] == pytest.approx(
                    (1 - t.fer[i, j]) * rate, abs=1e-12
                )

    def test_plateau_identity(self, small_matrix):
        t = self.build(small_matrix)
        zero = t.fer == 0.0
        for i, j in zip(*np.nonzero(zero)):
            rate = rl.effective_rate(64, int(t.widths[j])).rate
            assert t.alpha[i, j] == rate

    def test_fer_monotone_in_error_rate_up_to_ci(self, small_matrix):
        t = self.build(small_matrix)
        for j in range(t.widths.size):
            col = t.fer[:, j]
            hi = t.ci_high[:, j]
            lo = t.ci_low[:, j]
            for i in range(len(col) - 1):
                # flag-only invariant: a decrease must be CI-explainable
                assert col[i + 1] >= col[i] or lo[i] <= hi[i + 1]

    def test_working_region_is_argmax(self, small_matrix):
        t = self.build(small_matrix)
        from raldpc.adapt import DistillationTable

        assert t.working == DistillationTable.compute_working(t.alpha, t.widths)

    def test_threads_do_not_change_result(self, small_matrix):
        t1 = self.build(small_matrix, threads=1)
        t2 = self.build(small_matrix, threads=2)
        for a in ("fer", "alpha", "ci_low", "ci_high", "undetected"):
            assert np.array_equal(getattr(t1, a), getattr(t2, a), equal_nan=True)
        assert t1.working == t2.working

    def test_one_prefix_per_width(self, small_matrix, monkeypatch):
        built = []

        def counting(matrix, width):
            built.append(width)
            return edges(matrix, width)

        edges = rl.tanner.PrefixEdges
        monkeypatch.setattr("raldpc.tanner.PrefixEdges", counting)
        self.build(small_matrix, threads=1)
        assert sorted(built) == sorted(self.WIDTHS)

    def test_absent_cells_at_hopeless_noise(self, small_matrix):
        t = rl.build_table(
            small_matrix, (320,), (0.01, 0.25), frames_per_point=60,
            seed=6, max_iterations=10,
        )
        assert not np.isnan(t.alpha[0, 0])
        assert np.isnan(t.alpha[1, 0])  # rate-0.8 prefix cannot fix 25% noise
        assert t.working[1] is None

    def test_validation(self, small_matrix):
        with pytest.raises(ValueError):
            rl.build_table(small_matrix, (), (0.01,), 10, 0)
        with pytest.raises(ValueError):
            rl.build_table(small_matrix, (320,), (), 10, 0)
        with pytest.raises(ValueError):
            rl.build_table(small_matrix, (320,), (0.02, 0.01), 10, 0)
        with pytest.raises(ValueError):
            rl.build_table(small_matrix, (64,), (0.01,), 10, 0)

