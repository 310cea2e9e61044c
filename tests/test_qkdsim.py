import dataclasses
import hashlib

import numpy as np
import pytest

import raldpc as rl
from raldpc.adapt import DistillationTable
from raldpc.qkdsim import save_report_csv

# closed-form reference values for the default parameters, evaluated once
QBER_0KM = 0.010168
QBER_20KM = 0.010415


class TestLinkParams:
    def test_defaults(self):
        p = rl.LinkParams()
        assert p.attenuation_db_per_km == 0.2
        assert p.pulse_rate_hz == 2.0e8
        assert p.detector_efficiency == 0.1
        assert p.dark_count_prob == 1e-5
        assert p.visibility == 0.98
        assert p.mean_photon_number == 0.6
        assert p.sifting_factor == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            rl.LinkParams(detector_efficiency=1.5)
        with pytest.raises(ValueError):
            rl.LinkParams(sifting_factor=0.0)
        with pytest.raises(ValueError):
            rl.LinkParams(pulse_rate_hz=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(rl.LinkParams)]
    )
    def test_refuses_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rl.LinkParams(**{name: value})


class TestLinkObservables:
    def test_zero_distance_reference(self):
        obs = rl.link_observables(rl.LinkParams(), 0.0)
        assert obs.transmittance == pytest.approx(0.1, abs=1e-12)
        assert obs.qber == pytest.approx(QBER_0KM, abs=1e-6)

    def test_twenty_km_reference(self):
        obs = rl.link_observables(rl.LinkParams(), 20.0)
        assert obs.qber == pytest.approx(QBER_20KM, abs=1e-6)

    def test_perfect_optics_zero_qber(self):
        p = rl.LinkParams(visibility=1.0, dark_count_prob=0.0)
        for d in (0, 25, 60, 120):
            assert rl.link_observables(p, d).qber == 0.0

    def test_sifted_rate_identity(self):
        p = rl.LinkParams()
        for d in (0, 10, 50):
            obs = rl.link_observables(p, d)
            assert obs.sifted_rate_bps == pytest.approx(
                p.pulse_rate_hz * p.sifting_factor * obs.gain, rel=1e-15
            )

    def test_qber_monotone_gain_decreasing(self):
        p = rl.LinkParams()
        ds = np.arange(0, 151, 5)
        obs = [rl.link_observables(p, float(d)) for d in ds]
        qber = [o.qber for o in obs]
        gain = [o.gain for o in obs]
        assert all(a <= b for a, b in zip(qber, qber[1:]))
        assert all(a > b for a, b in zip(gain, gain[1:]))

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            rl.link_observables(rl.LinkParams(), -1.0)


def ladder_table():
    """Synthetic table shaped like the characterized mother matrix."""
    rates = np.round(np.arange(0.010, 0.0301, 0.001), 3)
    widths = np.array([5120, 4096, 3072])
    nr = rates.size
    fer = np.zeros((nr, 3))
    for i, e in enumerate(rates):
        fer[i, 0] = 0.0 if e < 0.0145 else (0.3 if e < 0.0165 else 1.0)
        fer[i, 1] = 0.0 if e < 0.0195 else (0.4 if e < 0.0215 else 1.0)
        fer[i, 2] = 0.0 if e < 0.0255 else 1.0
    alpha = (1 - fer) * np.array([0.80, 0.75, 2 / 3])
    alpha[fer >= 0.99] = np.nan
    return DistillationTable(
        error_rates=rates,
        widths=widths,
        alpha=alpha,
        fer=fer,
        ci_low=np.zeros_like(fer),
        ci_high=np.minimum(fer + 0.02, 1.0),
        working=DistillationTable.compute_working(alpha, widths),
    )


def absent_row_table():
    """Row 0.012 is fully absent; row 0.013 is served by width 3072 alone."""
    fer = np.array(
        [
            [0.00, 0.00, 0.00],
            [0.02, 0.00, 0.00],
            [1.00, 1.00, 0.995],
            [1.00, 1.00, 0.05],
        ]
    )
    alpha = (1 - fer) * np.array([0.80, 0.75, 2 / 3])
    alpha[2, :] = np.nan
    alpha[3, :2] = np.nan
    widths = np.array([5120, 4096, 3072])
    return DistillationTable(
        error_rates=np.array([0.010, 0.011, 0.012, 0.013]),
        widths=widths,
        alpha=alpha,
        fer=fer,
        ci_low=np.maximum(fer - 0.03, 0.0),
        ci_high=np.minimum(fer + 0.03, 1.0),
        working=DistillationTable.compute_working(alpha, widths),
    )


class TestAbsentRowFallThrough:
    """Model QBER at 39.5 km is 0.01101: row 0.012 is skipped for row 0.013."""

    def test_simulate_link_reads_the_cell_it_selected(self):
        table = absent_row_table()
        row = rl.simulate_link(rl.LinkParams(), table, [39.5]).rows[0]
        assert row.qber == pytest.approx(0.01101, abs=1e-5)
        assert row.width == 3072
        assert row.secure_ratio == table.alpha[3, 2]
        assert row.fer == table.fer[3, 2]

    def test_frame_level_check_compares_the_same_cell(self, mother_matrix):
        table = absent_row_table()
        (row,) = rl.frame_level_check(
            mother_matrix, table, rl.LinkParams(), [39.5], frames=8, seed=1,
            max_iterations=5,
        )
        assert row.width == 3072
        assert row.table_fer == table.fer[3, 2]
        assert row.table_ci == (table.ci_low[3, 2], table.ci_high[3, 2])


class TestSimulateLink:
    def test_ladder_structure(self):
        report = rl.simulate_link(rl.LinkParams(), ladder_table(), np.arange(0, 121, 5))
        ratios = [r.secure_ratio for r in report.rows]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        drops = sum(1 for a, b in zip(ratios, ratios[1:]) if a - b > 0.02)
        assert drops >= 2
        assert ratios[0] == pytest.approx(0.80, abs=1e-12)
        assert ratios[-1] == 0.0

    def test_row_identities(self):
        report = rl.simulate_link(rl.LinkParams(), ladder_table(), [0, 40, 80, 120])
        for row in report.rows:
            assert row.secure_bps == pytest.approx(
                row.sifted_bps * row.secure_ratio, rel=1e-15
            )
            if row.width == 0:
                assert row.secure_ratio == 0.0 and row.secure_bps == 0.0

    def test_infeasible_tail_is_zero(self):
        report = rl.simulate_link(rl.LinkParams(), ladder_table(), [105, 110, 120])
        # model QBER exceeds the 3% grid end beyond ~105 km
        assert report.rows[-1].width == 0
        assert report.rows[-1].secure_bps == 0.0

    def test_validation(self):
        t = ladder_table()
        with pytest.raises(ValueError):
            rl.simulate_link(rl.LinkParams(), t, [])
        with pytest.raises(ValueError):
            rl.simulate_link(rl.LinkParams(), t, [10, 5])
        with pytest.raises(ValueError):
            rl.simulate_link(rl.LinkParams(), t, [-5, 10])

    def test_report_csv(self, tmp_path):
        report = rl.simulate_link(rl.LinkParams(), ladder_table(), [0, 60, 120])
        path = tmp_path / "report.csv"
        save_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "distance_km,qber,width,fer,secure_ratio,sifted_bps,secure_bps"
        )
        last = lines[-1].split(",")
        assert last[2] == "0" and float(last[4]) == 0.0 and float(last[6]) == 0.0


class TestFrameLevelCheck:
    def test_agrees_with_table_in_plateau(self):
        matrix = rl.peg_construct(64, 320, rl.DegreeProfile.interleaved_4_5(320), seed=17)
        table = rl.build_table(
            matrix, (320, 256), (0.010, 0.011, 0.012, 0.015), 120, seed=3,
            max_iterations=20,
        )
        rows = rl.frame_level_check(
            matrix, table, rl.LinkParams(), [0.0, 10.0], frames=120, seed=4,
            max_iterations=20,
        )
        assert len(rows) == 2
        for r in rows:
            assert r.width in (320, 256)
            assert r.agrees

    @pytest.fixture(scope="class")
    def waterfall_row(self):
        matrix = rl.peg_construct(64, 320, rl.DegreeProfile.interleaved_4_5(320), seed=17)
        table = rl.build_table(
            matrix, (320, 192, 128), (0.01, 0.03, 0.06, 0.10), 80, seed=5,
            max_iterations=15,
        )
        # model QBER 0.0258 at 100 km: row 0.03, a waterfall cell
        (r,) = rl.frame_level_check(
            matrix, table, rl.LinkParams(), [100.0], frames=120, seed=4,
            max_iterations=15,
        )
        return r

    def test_row_field_types(self, waterfall_row):
        r = waterfall_row
        mc = r.mc_fer
        for value in (r.table_fer, *r.table_ci, mc.point_estimate, mc.ci_low, mc.ci_high):
            assert type(value) is float
        assert type(r.agrees) is bool

    def test_golden_row_digest(self, waterfall_row):
        r = waterfall_row
        mc = r.mc_fer
        values = [
            mc.point_estimate, mc.frames_run, mc.failures, mc.ci_low, mc.ci_high,
            mc.undetected, r.table_fer, *r.table_ci, r.agrees,
        ]
        digest = hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes())
        assert digest.hexdigest() == (
            "afffd067ba967c6a6731897281e44e7e513457640035906f5b1186cf87140ef8"
        )
