"""Characterize a mother matrix into its distillation-efficiency table.

For every (error rate, prefix width) cell, Monte-Carlo frames measure the
frame error rate; the distillation efficiency (1 - FER) * rate then says
what fraction of sifted bits survives reconciliation.  The best width per
error rate (the working region, marked *) is what the adaptive protocol
looks up at run time.
"""

import numpy as np

import raldpc as rl

M_CHECKS, N_VARS = 256, 1280
WIDTHS = (1280, 1024, 768, 512)
GRID = [round(0.010 + 0.002 * k, 3) for k in range(11)]  # 1.0% .. 3.0%

matrix = rl.peg_construct(
    M_CHECKS, N_VARS, rl.DegreeProfile.interleaved_4_5(N_VARS), seed=7
)
table = rl.build_table(
    matrix,
    WIDTHS,
    GRID,
    frames_per_point=200,
    seed=1,
    max_iterations=25,
)

header = "e(%)  " + "".join(f"{w:>10d}" for w in table.widths)
print(header)
for i, e in enumerate(table.error_rates):
    cells = []
    for j, w in enumerate(table.widths):
        a = table.alpha[i, j]
        mark = "*" if table.working[i] == w else " "
        cells.append("        --" if np.isnan(a) else f"  {100 * a:6.2f}{mark} ")
    print(f"{100 * e:4.1f}  " + "".join(cells))

print("\nper-row best width =", table.working)
print("undetected wrong-block convergences:", int(table.undetected.sum()))

out = "/tmp/raldpc_demo_table.csv"
rl.save_table_csv(table, out)
print(f"table written to {out}; a few lookups:")
for e in (0.011, 0.019, 0.028):
    print(f"  select_width(e={e:.3f}) -> {rl.select_width(table, e)}")
