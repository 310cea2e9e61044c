"""Sweep a fiber QKD link and watch the secure-key ratio ladder.

The link model turns distance into a QBER and a sifted-key rate; the
reconciliation layer then picks the best prefix width for that QBER from a
characterized table.  Because widths are discrete, the secure ratio drops
in steps as the fiber gets longer, until no width can cope and the secure
throughput goes to zero.
"""

import numpy as np

import raldpc as rl

M_CHECKS, N_VARS = 256, 1280

matrix = rl.peg_construct(
    M_CHECKS, N_VARS, rl.DegreeProfile.interleaved_4_5(N_VARS), seed=7
)
grid = [round(0.010 + 0.002 * k, 3) for k in range(11)]
table = rl.build_table(
    matrix,
    (1280, 1024, 768, 512),
    grid,
    frames_per_point=150,
    seed=2,
    max_iterations=25,
)

params = rl.LinkParams()  # 0.2 dB/km fiber, 200 MHz source, 0.1 detectors
report = rl.simulate_link(params, table, np.arange(0.0, 131.0, 5.0))

print("dist(km)  qber(%)  width  secure_ratio  sifted(bit/s)  secure(bit/s)")
prev = None
for row in report.rows:
    marker = "  <- drop" if prev is not None and prev - row.secure_ratio > 0.02 else ""
    print(f"{row.distance_km:7.0f}  {100 * row.qber:6.3f}  {row.width:5d}"
          f"  {row.secure_ratio:11.4f}  {row.sifted_bps:12.3e}"
          f"  {row.secure_bps:12.3e}{marker}")
    prev = row.secure_ratio

zero = next((r.distance_km for r in report.rows if r.secure_bps == 0.0), None)
print(f"\nthe ladder: each drop is a width switch (or the final collapse); "
      f"secure throughput reaches zero at {zero:.0f} km")

rows = rl.frame_level_check(
    matrix, table, params, distances=[10.0, 40.0], frames=150, seed=3,
    max_iterations=25,
)
print("\nframe-level cross-check of the table prediction:")
for r in rows:
    print(f"  {r.distance_km:4.0f} km: width {r.width}, measured FER "
          f"{r.mc_fer.point_estimate:.4f} in {r.mc_fer.frames_run} frames, "
          f"table CI [{r.table_ci[0]:.4f}, {r.table_ci[1]:.4f}] "
          f"-> {'agree' if r.agrees else 'DISAGREE'}")
