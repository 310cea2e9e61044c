"""End-to-end acceptance suite.

Each test prints one line per criterion (run with ``pytest -s`` to see them
live).  The expensive inputs (mother matrix, 500-frame characterization
table) come from cached session fixtures in conftest.
"""

import numpy as np
import pytest

import raldpc as rl
from raldpc.adapt import NoFeasibleWidth
from raldpc.codec import DecoderConfig

from _oracles import CosetOracle, dense_parity, patterns_of_weight_at_most
from conftest import MOTHER_CHECKS, TABLE_GRID, TABLE_MAX_ITERATIONS

# secure-ratio comparisons on measured cells carry Monte-Carlo noise; at
# 500 frames the Wilson 95% half-width near FER=0 is ~0.009, so equality
# and monotonicity are asserted to 0.01 of ratio
RATIO_SLACK = 0.01

H_002 = 0.1414405425418206  # -0.02*log2(0.02) - 0.98*log2(0.98), 40-digit eval


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_eer_plateaus():
    vals = {w: rl.effective_rate(1024, w).rate for w in (5120, 4096, 3072, 2048)}
    ok = (
        vals[5120] == 0.8
        and vals[4096] == 0.75
        and abs(vals[3072] - 0.666667) < 5e-7
        and vals[2048] == 0.5
        and f"{100 * vals[5120]:.2f}" == "80.00"
        and f"{100 * vals[4096]:.2f}" == "75.00"
        and f"{100 * vals[3072]:.2f}" == "66.67"
    )
    _report(1, ok, f"rates {sorted(vals.items(), reverse=True)}")


def test_criterion_2_girth(mother_matrix):
    prof = rl.girth_profile(mother_matrix, [1280, 2048, 3072, 4096, 5120])
    girths = [g for _, g in prof]
    ok = girths[-1] >= 6 and all(a >= b for a, b in zip(girths, girths[1:]))
    _report(2, ok, f"girth profile {prof}")


def _transition(table, width, plateau):
    """First grid rate where the column drops below 90% of its plateau."""
    j = int(np.flatnonzero(table.widths == width)[0])
    for i, e in enumerate(table.error_rates):
        a = table.alpha[i, j]
        if np.isnan(a) or a < 0.9 * plateau:
            return float(e)
    return None


def test_criterion_3_working_region(accept_table):
    t = accept_table

    def cell(e, w):
        i, j = t.cell(e, w)
        return t.alpha[i, j]

    plateau_ok = (
        all(cell(e, 5120) >= 0.79 for e in (0.010, 0.011, 0.012))
        and all(cell(e, 4096) >= 0.74 for e in (0.015, 0.016, 0.017))
        and all(
            cell(e, 3072) >= 0.66
            for e in (0.020, 0.021, 0.022, 0.023, 0.024, 0.025)
        )
    )
    t5 = _transition(t, 5120, 0.80)
    t4 = _transition(t, 4096, 0.75)
    t3 = _transition(t, 3072, 2 / 3)
    trans_ok = (
        t5 is not None and 0.012 - 1e-9 <= t5 <= 0.018 + 1e-9
        and t4 is not None and 0.017 - 1e-9 <= t4 <= 0.023 + 1e-9
        and (t3 is None or t3 > 0.022 + 1e-9)
    )
    # the bold working-region anchors: best width per measured row
    bold_ok = (
        rl.select_width(t, 0.010) == 5120
        and rl.select_width(t, 0.017) == 4096
        and rl.select_width(t, 0.023) == 3072
    )
    _report(
        3,
        plateau_ok and trans_ok and bold_ok,
        f"plateaus ok={plateau_ok}; transitions 5120@{t5} 4096@{t4} 3072@{t3}; "
        f"working region at 1.0/1.7/2.3% = "
        f"{[rl.select_width(t, e) for e in (0.010, 0.017, 0.023)]}",
    )


def test_criterion_4_efficiency_identity(accept_table):
    t = accept_table
    worst = 0.0
    for j, w in enumerate(t.widths):
        rate = rl.effective_rate(MOTHER_CHECKS, int(w)).rate
        for i in range(t.error_rates.size):
            a = t.alpha[i, j]
            if np.isnan(a):
                continue
            worst = max(worst, abs(a - (1 - t.fer[i, j]) * rate))
    _report(4, worst <= 1e-12, f"max |alpha - (1-FER)*EER| = {worst:.2e}")


def test_criterion_5_decoder_oracle():
    codes = [(8, 12, 1), (8, 14, 2), (8, 16, 3)]
    cfg = DecoderConfig(crossover_prior=0.02)
    details = []
    all_ok = True
    for m, n, seed in codes:
        matrix = rl.peg_construct(m, n, rl.DegreeProfile.uniform(n, 3), seed=seed)
        prefix = rl.MatrixPrefix(matrix, n)
        oracle = CosetOracle(dense_parity(prefix))
        t0 = (oracle.min_distance - 1) // 2
        assert t0 >= 1, "code too weak to exercise the oracle"
        rng = np.random.default_rng(seed)
        key = rng.integers(0, 2, n, dtype=np.uint8)
        syndrome = rl.encode_syndrome(prefix, key)
        total = mismatches = 0
        for e in patterns_of_weight_at_most(n, t0):
            total += 1
            noisy = key ^ e
            r = rl.decode(prefix, noisy, syndrome, cfg)
            if not (r.success and np.array_equal(r.corrected_key, oracle.decode(noisy, syndrome))):
                mismatches += 1
        all_ok &= mismatches == 0
        details.append(f"({m},{n}) dmin={oracle.min_distance} {total - mismatches}/{total}")
    _report(5, all_ok, "; ".join(details))


def test_criterion_6_syndrome_algebra(mother_matrix):
    prefix = rl.MatrixPrefix(mother_matrix, 2048)
    rng = np.random.default_rng(6)
    a = rng.integers(0, 2, (1000, 2048), dtype=np.uint8)
    b = rng.integers(0, 2, (1000, 2048), dtype=np.uint8)
    lin = np.array_equal(
        rl.encode_syndrome_batch(prefix, a ^ b),
        rl.encode_syndrome_batch(prefix, a) ^ rl.encode_syndrome_batch(prefix, b),
    )
    zero = not rl.encode_syndrome(prefix, np.zeros(2048, np.uint8)).any()
    cols = rng.integers(0, 2048, size=1000)
    units_ok = True
    for j in cols:
        key = np.zeros(2048, np.uint8)
        key[j] = 1
        s = rl.encode_syndrome(prefix, key)
        units_ok &= np.array_equal(np.flatnonzero(s), mother_matrix.column(int(j)))
    _report(6, lin and zero and units_ok,
            f"linearity={lin} zero-key={zero} unit-image={units_ok} (1000 cases)")


def test_criterion_7_link_simulation(accept_table):
    params = rl.LinkParams()
    distances = np.arange(0.0, 131.0, 5.0)
    report = rl.simulate_link(params, accept_table, distances)
    rows = report.rows
    at20 = next(r for r in rows if r.distance_km == 20.0)
    sel_ok = at20.width == 5120 and abs(at20.secure_ratio - 0.80) <= RATIO_SLACK
    ratios = [r.secure_ratio for r in rows]
    mono_ok = all(a >= b - RATIO_SLACK for a, b in zip(ratios, ratios[1:]))
    upto110 = [r.secure_ratio for r in rows if r.distance_km <= 110.0]
    drops = sum(1 for a, b in zip(upto110, upto110[1:]) if a - b > 0.02)
    qbers = [r.qber for r in rows]
    qber_ok = all(a < b for a, b in zip(qbers, qbers[1:]))
    zero_d = next((r.distance_km for r in rows if r.secure_bps == 0.0), None)
    ok = sel_ok and mono_ok and drops >= 2 and qber_ok and zero_d is not None
    _report(
        7,
        ok,
        f"20km: width={at20.width} ratio={at20.secure_ratio:.4f}; "
        f"monotone={mono_ok}; drops={drops}; qber monotone={qber_ok}; "
        f"zero throughput from {zero_d} km",
    )


def test_criterion_8_full_chain_consistency(mother_matrix, accept_table):
    rows = rl.frame_level_check(
        mother_matrix,
        accept_table,
        rl.LinkParams(),
        distances=[15.0, 50.0, 90.0],
        frames=250,
        seed=7,
        max_iterations=TABLE_MAX_ITERATIONS,
    )
    detail = "; ".join(
        f"{r.distance_km:.0f}km w={r.width} mc={r.mc_fer.point_estimate:.4f} "
        f"table=[{r.table_ci[0]:.4f},{r.table_ci[1]:.4f}]"
        for r in rows
    )
    _report(8, all(r.agrees for r in rows), detail)


def test_criterion_9_efficiency_formulas():
    f = rl.reconciliation_efficiency(0.8, 0.02)
    oracle = 0.2 / H_002
    vs_oracle = abs(f - oracle)
    vs_rounded = abs(f - 1.41402)
    session = rl.EfficiencySession(entries=[(0.8, 7), (0.8, 13)], error_rate=0.02)
    uniform_ok = abs(rl.averaged_efficiency(session) - f) <= 1e-12
    ok = vs_oracle <= 1e-5 and vs_rounded <= 1e-5 and uniform_ok
    _report(
        9,
        ok,
        f"f(0.8,0.02)={f:.7f} (|f-oracle|={vs_oracle:.2e}); "
        f"uniform session reduces to plain={uniform_ok}",
    )
