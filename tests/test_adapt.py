import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raldpc as rl
from raldpc.adapt import DistillationTable, NoFeasibleWidth

from _strategies import byte_edits

# reference values evaluated once at 40-digit precision from the closed forms
H_002 = 0.1414405425418206  # -0.02*log2(0.02) - 0.98*log2(0.98)
F_08_002 = 1.4140217253540632  # 0.2 / h(0.02)
F_075_002 = 1.7675271566925790  # 0.25 / h(0.02)
F_MEAN = 1.5907744410233211


class TestBinaryEntropy:
    def test_extremes(self):
        assert rl.binary_entropy(0.5) == 1.0
        assert rl.binary_entropy(0.0) == 0.0
        assert rl.binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert rl.binary_entropy(0.02) == pytest.approx(H_002, abs=1e-12)
        assert round(rl.binary_entropy(0.02), 6) == 0.141441

    def test_symmetry(self):
        for e in (0.01, 0.1, 0.3):
            assert rl.binary_entropy(e) == pytest.approx(rl.binary_entropy(1 - e))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rl.binary_entropy(-0.01)
        with pytest.raises(ValueError):
            rl.binary_entropy(1.01)


class TestRates:
    def test_mother_rate_values(self):
        # the mother's rate is the rate of its full-width prefix
        assert rl.effective_rate(1024, 5120).rate == pytest.approx(0.80, abs=1e-15)
        assert rl.effective_rate(1024, 2048).rate == pytest.approx(0.50, abs=1e-15)
        assert rl.effective_rate(1024, 3072).rate == pytest.approx(0.666667, abs=5e-7)

    def test_mother_rate_rejects(self):
        with pytest.raises(ValueError):
            rl.effective_rate(1024, 1024)

    def test_effective_rate_values(self):
        assert rl.effective_rate(1024, 4096).rate == pytest.approx(0.75, abs=1e-15)
        assert rl.effective_rate(1024, 5120).rate == pytest.approx(0.80, abs=1e-15)
        assert rl.effective_rate(1024, 1025).rate == pytest.approx(1 / 1025, abs=1e-12)

    def test_effective_rate_matches_mother_rate_at_full_width(self):
        assert rl.effective_rate(1024, 5120).rate == 1.0 - 1024 / 5120

    def test_effective_rate_monotone_in_width(self):
        rates = [rl.effective_rate(1024, w).rate for w in range(1025, 5121, 128)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_table_precision_plateaus(self):
        # percent rendering at two decimals: 80.00 / 75.00 / 66.67
        assert f"{100 * rl.effective_rate(1024, 5120).rate:.2f}" == "80.00"
        assert f"{100 * rl.effective_rate(1024, 4096).rate:.2f}" == "75.00"
        assert f"{100 * rl.effective_rate(1024, 3072).rate:.2f}" == "66.67"

    def test_effective_rate_rejects_narrow(self):
        with pytest.raises(ValueError):
            rl.effective_rate(1024, 1024)


class TestEfficiency:
    def test_reference_values(self):
        assert rl.reconciliation_efficiency(0.8, 0.02) == pytest.approx(
            F_08_002, abs=1e-9
        )
        assert rl.reconciliation_efficiency(0.75, 0.02) == pytest.approx(
            F_075_002, abs=1e-9
        )

    def test_perfect_efficiency(self):
        e = 0.02
        r = 1.0 - rl.binary_entropy(e)
        assert rl.reconciliation_efficiency(r, e) == pytest.approx(1.0, abs=1e-12)

    def test_decreases_with_rate(self):
        vals = [rl.reconciliation_efficiency(r, 0.02) for r in (0.5, 0.6, 0.7, 0.8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            rl.reconciliation_efficiency(0.8, 0.0)
        with pytest.raises(ValueError):
            rl.reconciliation_efficiency(1.0, 0.02)


class TestAveragedEfficiency:
    def test_single_entry_reduces_to_plain(self):
        s = rl.EfficiencySession(entries=[(0.8, 37)], error_rate=0.02)
        assert rl.averaged_efficiency(s) == pytest.approx(
            rl.reconciliation_efficiency(0.8, 0.02), abs=1e-15
        )

    def test_two_equal_count_entries(self):
        s = rl.EfficiencySession(entries=[(0.8, 10), (0.75, 10)], error_rate=0.02)
        assert rl.averaged_efficiency(s) == pytest.approx(F_MEAN, abs=1e-9)

    def test_permutation_invariance(self):
        a = rl.EfficiencySession(entries=[(0.8, 3), (0.6, 9), (0.7, 5)], error_rate=0.03)
        b = rl.EfficiencySession(entries=[(0.7, 5), (0.8, 3), (0.6, 9)], error_rate=0.03)
        assert rl.averaged_efficiency(a) == pytest.approx(
            rl.averaged_efficiency(b), abs=1e-15
        )

    def test_uniform_rates_reduce_to_plain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.uniform(0.3, 0.9)
            e = rng.uniform(0.005, 0.2)
            counts = rng.integers(1, 50, size=4)
            s = rl.EfficiencySession(
                entries=[(r, int(c)) for c in counts], error_rate=e
            )
            assert rl.averaged_efficiency(s) == pytest.approx(
                rl.reconciliation_efficiency(r, e), rel=1e-12
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rl.EfficiencySession(entries=[], error_rate=0.02)


class TestDistillationEfficiency:
    def test_values(self):
        assert rl.distillation_efficiency(0.0, 0.80) == pytest.approx(0.8000)
        assert rl.distillation_efficiency(1.0, 0.80) == 0.0
        assert rl.distillation_efficiency(0.194, 0.80) == pytest.approx(0.6448)

    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            fer = rng.uniform(0, 1)
            rate = rng.uniform(0.01, 0.99)
            a = rl.distillation_efficiency(fer, rate)
            assert a + fer * rate == pytest.approx(rate, abs=1e-15)


def synthetic_table():
    """Hand-built table mirroring the working-region structure."""
    rates = np.array([0.010, 0.011, 0.012, 0.013, 0.014])
    widths = np.array([5120, 4096, 3072])
    fer = np.array(
        [
            [0.00, 0.00, 0.00],
            [0.00, 0.00, 0.00],
            [0.10, 0.00, 0.00],
            [0.60, 0.02, 0.00],
            [1.00, 0.40, 0.01],
        ]
    )
    alpha = (1 - fer) * np.array([0.80, 0.75, 2 / 3])
    alpha[4, 0] = np.nan  # FER ~ 1: absent
    ci = np.zeros_like(fer)
    return DistillationTable(
        error_rates=rates,
        widths=widths,
        alpha=alpha,
        fer=fer,
        ci_low=ci,
        ci_high=np.minimum(fer + 0.02, 1.0),
        working=DistillationTable.compute_working(alpha, widths),
    )


class TestSelectWidth:
    def test_working_region_argmax(self):
        t = synthetic_table()
        assert t.working == [5120, 5120, 4096, 4096, 3072]

    def test_exact_grid_hits(self):
        t = synthetic_table()
        assert rl.select_width(t, 0.010) == 5120
        assert rl.select_width(t, 0.013) == 4096
        assert rl.select_width(t, 0.014) == 3072

    def test_conservative_rounding_up(self):
        t = synthetic_table()
        assert rl.select_width(t, 0.0125) == 4096
        assert rl.select_width(t, 0.0095) == 5120  # below the grid rounds up

    def test_infeasible_above_grid(self):
        t = synthetic_table()
        with pytest.raises(NoFeasibleWidth):
            rl.select_width(t, 0.0145)

    def test_lookup_falls_through_absent_row(self):
        t = synthetic_table()
        t.alpha[3] = np.nan
        t.working = DistillationTable.compute_working(t.alpha, t.widths)
        assert t.working[3] is None
        assert t.lookup(0.0125) == (4, 2)
        assert rl.select_width(t, 0.0125) == 3072

    def test_monotone_over_grid(self):
        t = synthetic_table()
        chosen = [rl.select_width(t, e) for e in t.error_rates]
        assert all(a >= b for a, b in zip(chosen, chosen[1:]))

    def test_tie_breaks_to_larger_width(self):
        rates = np.array([0.01])
        widths = np.array([512, 256])
        alpha = np.array([[0.5, 0.5]])
        t = DistillationTable(
            error_rates=rates,
            widths=widths,
            alpha=alpha,
            fer=np.zeros((1, 2)),
            ci_low=np.zeros((1, 2)),
            ci_high=np.zeros((1, 2)),
            working=DistillationTable.compute_working(alpha, widths),
        )
        assert rl.select_width(t, 0.01) == 512

    def test_working_width_must_be_a_table_width(self):
        with pytest.raises(ValueError, match="999"):
            DistillationTable(
                error_rates=np.array([0.01]),
                widths=np.array([512, 256]),
                alpha=np.array([[0.5, 0.4]]),
                fer=np.zeros((1, 2)),
                ci_low=np.zeros((1, 2)),
                ci_high=np.zeros((1, 2)),
                working=[999],
            )

    def test_working_width_must_have_an_alpha(self):
        t = synthetic_table()
        with pytest.raises(ValueError, match="no alpha"):
            DistillationTable(
                error_rates=t.error_rates,
                widths=t.widths,
                alpha=t.alpha,
                fer=t.fer,
                ci_low=t.ci_low,
                ci_high=t.ci_high,
                working=t.working[:4] + [5120],  # row 0.014 has 5120 absent
            )


@st.composite
def tables(draw) -> DistillationTable:
    """A table the CSV can hold: rates on the 0.001 grid, FERs inside
    their intervals, absent cells, and rows with no working width."""
    rates = sorted(draw(st.sets(st.integers(1, 499), min_size=1, max_size=5)))
    widths = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=4)))[::-1]
    shape = (len(rates), len(widths))
    cells = len(rates) * len(widths)
    # each cell's three sorted draws are its ci_low <= fer <= ci_high
    lo, fer, hi = np.sort(np.reshape(
        draw(st.lists(st.floats(0, 1), min_size=3 * cells, max_size=3 * cells)),
        (*shape, 3),
    ), axis=-1).transpose(2, 0, 1)
    alpha = np.reshape(draw(st.lists(
        st.floats(0, 1) | st.just(np.nan), min_size=cells, max_size=cells
    )), shape)
    working = [
        draw(st.sampled_from([None] + [w for w, a in zip(widths, row) if not np.isnan(a)]))
        for row in alpha
    ]
    return DistillationTable(np.array(rates) / 1000, widths, alpha, fer, lo, hi, working)


class TestTableCsv:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("table") / "table.csv"

    @settings(max_examples=100, deadline=None)
    @given(table=tables())
    def test_save_load_save_is_byte_identical(self, path, table):
        rl.save_table_csv(table, path)
        first = path.read_bytes()
        rl.save_table_csv(rl.load_table_csv(path), path)
        assert path.read_bytes() == first

    @settings(max_examples=100, deadline=None)
    @given(table=tables(), data=st.data())
    def test_one_byte_edit_loads_or_is_refused(self, path, table, data):
        rl.save_table_csv(table, path)
        path.write_bytes(data.draw(byte_edits(path.read_bytes())))
        try:
            rl.load_table_csv(path)
        except ValueError:  # UnicodeDecodeError included
            pass

    def test_round_trip(self, tmp_path):
        t = synthetic_table()
        path = tmp_path / "table.csv"
        rl.save_table_csv(t, path)
        back = rl.load_table_csv(path)
        assert np.array_equal(back.error_rates, t.error_rates)
        assert np.array_equal(back.widths, t.widths)
        assert np.allclose(back.fer, t.fer, atol=1e-6)
        assert np.allclose(back.alpha, t.alpha, atol=1e-4, equal_nan=True)
        assert back.working == t.working

    def test_format_details(self, tmp_path):
        t = synthetic_table()
        path = tmp_path / "table.csv"
        rl.save_table_csv(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "error_rate,width,alpha,fer,ci_low,ci_high,working"
        first = lines[1].split(",")
        assert first[0] == "0.010" and first[1] == "5120"
        assert first[2] == "0.8000" and first[6] == "1"
        # the absent cell keeps its fer but carries no alpha
        absent = [ln for ln in lines if ln.startswith("0.014,5120")]
        assert len(absent) == 1 and absent[0].split(",")[2] == ""

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError):
            rl.load_table_csv(path)

    def test_refuses_rates_off_the_three_decimal_grid(self, tmp_path):
        t = synthetic_table()
        t.error_rates = np.array([0.0100, 0.0104, 0.0108, 0.0112, 0.0116])
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="0.0104"):
            rl.save_table_csv(t, path)
        assert not path.exists()

    def test_accepts_float_accumulated_grid(self, tmp_path):
        t = synthetic_table()
        t.error_rates = np.array([0.010 + k * 0.001 for k in range(5)])
        assert t.error_rates[3] != 0.013  # 0.013000000000000001
        path = tmp_path / "table.csv"
        rl.save_table_csv(t, path)
        back = rl.load_table_csv(path)
        assert np.array_equal(back.error_rates, synthetic_table().error_rates)

    def test_rejects_duplicate_cell(self, tmp_path):
        path = tmp_path / "table.csv"
        rl.save_table_csv(synthetic_table(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[4]]) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            rl.load_table_csv(path)

    def test_rejects_missing_cell(self, tmp_path):
        path = tmp_path / "table.csv"
        rl.save_table_csv(synthetic_table(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
        with pytest.raises(ValueError, match="missing"):
            rl.load_table_csv(path)

    def test_line_prefix_is_refused_or_a_smaller_table(self, tmp_path):
        # a prefix that ends on a whole cell grid loads: the CSV cannot tell
        # it from a shorter grid, so only the manifest's out_sha256 shows it
        fer = np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 0.3]])
        alpha = (1 - fer) * np.array([0.875, 0.75])
        alpha[2, 0] = np.nan
        working = DistillationTable.compute_working(alpha, [512, 256])
        t = DistillationTable([0.010, 0.011, 0.012], [512, 256], alpha, fer,
                              fer, fer, working)
        path = tmp_path / "table.csv"
        rl.save_table_csv(t, path)
        whole = rl.load_table_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        for k in range(len(lines)):
            path.write_text("".join(lines[:k]))
            try:
                part = rl.load_table_csv(path)
            except ValueError:
                continue
            for e in part.error_rates:
                for w in part.widths:
                    i, j = part.cell(e, w)
                    wi, wj = whole.cell(e, w)
                    for name in ("alpha", "fer", "ci_low", "ci_high"):
                        assert np.array_equal(getattr(part, name)[i, j],
                                              getattr(whole, name)[wi, wj],
                                              equal_nan=True)

    def test_loaded_table_has_no_undetected_counts(self, tmp_path):
        t = synthetic_table()
        assert t.undetected is None
        t.undetected = np.zeros(t.fer.shape, dtype=np.int64)
        path = tmp_path / "table.csv"
        rl.save_table_csv(t, path)
        assert rl.load_table_csv(path).undetected is None

    def test_rejects_two_working_flags_in_one_row(self, tmp_path):
        # both widths flagged; the second flag is the worse width
        path = tmp_path / "table.csv"
        path.write_text(
            "error_rate,width,alpha,fer,ci_low,ci_high,working\n"
            "0.010,512,0.5000,0.000000,0.000000,0.010000,1\n"
            "0.010,256,0.4000,0.000000,0.000000,0.010000,1\n"
        )
        with pytest.raises(ValueError, match="more than one working width"):
            rl.load_table_csv(path)

    def test_rejects_working_flag_on_absent_cell(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "error_rate,width,alpha,fer,ci_low,ci_high,working\n"
            "0.011,5120,,0.995000,0.970000,1.000000,1\n"
            "0.011,4096,0.7500,0.000000,0.000000,0.010000,0\n"
        )
        with pytest.raises(ValueError, match="no alpha"):
            rl.load_table_csv(path)

    @pytest.mark.parametrize("flag", ["2", "", "yes", "01"])
    def test_rejects_working_flag_other_than_0_or_1(self, tmp_path, flag):
        path = tmp_path / "table.csv"
        path.write_text(
            "error_rate,width,alpha,fer,ci_low,ci_high,working\n"
            "0.010,512,0.5000,0.000000,0.000000,0.010000,1\n"
            f"0.010,256,0.4000,0.000000,0.000000,0.010000,{flag}\n"
        )
        with pytest.raises(ValueError, match="working flag"):
            rl.load_table_csv(path)


def one_cell_table_csv(path, row):
    path.write_text(f"error_rate,width,alpha,fer,ci_low,ci_high,working\n{row}\n")
    return path


class TestTablesThatLie:
    def test_good_rows_load(self, tmp_path):
        row = "0.010,512,0.5000,0.000000,0.000000,0.010000,1"
        table = rl.load_table_csv(one_cell_table_csv(tmp_path / "t.csv", row))
        assert table.working == [512]

    @pytest.mark.parametrize(
        "row, match",
        [
            ("nan,512,0.5000,0.000000,0.000000,0.010000,1", "error rates must lie"),
            ("0.700,512,0.5000,0.000000,0.000000,0.010000,1", "error rates must lie"),
            ("0.010,-5,0.5000,0.000000,0.000000,0.010000,1", "widths must be positive"),
            ("0.010,512,0.5000,1.500000,0.000000,1.000000,1", "fer must lie"),
            ("0.010,512,0.5000,0.500000,0.600000,0.700000,1", "contain its fer"),
            ("0.010,512,inf,0.000000,0.000000,0.010000,1", "must be empty or finite"),
            ("0.010,512,nan,0.995000,0.970000,1.000000,0", "must be empty or finite"),
            ("0.010,512,-3,0.000000,0.000000,0.010000,1", "alpha must lie"),
            ("0.010,512,1e3,0.000000,0.000000,0.010000,1", "alpha must lie"),
            ("0.0105,512,0.5000,0.000000,0.000000,0.010000,1", "0.001 grid"),
        ],
        ids=["rate-nan", "rate-0.7", "width-negative", "fer-1.5", "interval-misses-fer",
             "alpha-inf", "alpha-nan", "alpha-negative", "alpha-1e3", "rate-0.0105"],
    )
    def test_refused_on_load(self, tmp_path, row, match):
        with pytest.raises(ValueError, match=match):
            rl.load_table_csv(one_cell_table_csv(tmp_path / "t.csv", row))

    @pytest.mark.parametrize("name", ["fer", "ci_low", "ci_high"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1])
    def test_refuses_probability_out_of_range(self, name, value):
        t = synthetic_table()
        fields = {k: getattr(t, k) for k in
                  ("error_rates", "widths", "alpha", "fer", "ci_low", "ci_high")}
        fields[name] = fields[name].copy()
        fields[name][0, 0] = value
        with pytest.raises(ValueError, match=f"{name} must lie"):
            DistillationTable(working=t.working, **fields)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, -0.1, 1.001])
    def test_refuses_alpha_out_of_range(self, value):
        t = synthetic_table()
        alpha = t.alpha.copy()
        alpha[1, 1] = value  # not a working cell
        with pytest.raises(ValueError, match="alpha must lie"):
            DistillationTable(t.error_rates, t.widths, alpha, t.fer, t.ci_low,
                              t.ci_high, t.working)

    def test_alpha_of_one_loads(self, tmp_path):
        # a rate within 5e-5 of 1 is written as 1.0000
        row = "0.010,512,1.0000,0.000000,0.000000,0.010000,1"
        table = rl.load_table_csv(one_cell_table_csv(tmp_path / "t.csv", row))
        assert table.alpha[0, 0] == 1.0

    @pytest.mark.parametrize("i, rate", [(0, 0.0), (-1, 0.5), (-1, np.inf)])
    def test_refuses_rate_at_or_past_the_bounds(self, i, rate):
        t = synthetic_table()
        rates = t.error_rates.copy()
        rates[i] = rate
        with pytest.raises(ValueError, match="error rates must lie"):
            DistillationTable(rates, t.widths, t.alpha, t.fer, t.ci_low,
                              t.ci_high, t.working)
