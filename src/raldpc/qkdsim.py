"""Weak-coherent-pulse link model and the one-way reconciliation simulator.

The link budget is the standard one for a phase-coding system with two
gated detectors: channel transmittance decays exponentially with fiber
attenuation, the detection gain combines signal clicks with dark counts,
and the error rate mixes the visibility-limited interference error on
signal clicks with the 50/50 contribution of dark counts.

The simulator itself is deterministic: per distance it looks up the best
prefix width for the model QBER and applies that cell's distillation
efficiency to the sifted-key rate.  ``frame_level_check`` is the separate
Monte-Carlo mode that validates the table prediction by actually decoding
frames at the model QBER.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

from .adapt import DistillationTable, NoFeasibleWidth
from .charact import FerEstimate, _run_cell
from .tanner import MatrixPrefix, ParityMatrix


@dataclass(frozen=True)
class LinkParams:
    attenuation_db_per_km: float = 0.2
    pulse_rate_hz: float = 2.0e8
    detector_efficiency: float = 0.1
    dark_count_prob: float = 1e-5  # per pulse per detector
    visibility: float = 0.98
    mean_photon_number: float = 0.6
    sifting_factor: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("detector_efficiency", "dark_count_prob", "visibility"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.sifting_factor <= 1.0:
            raise ValueError("sifting_factor must lie in (0, 1]")
        for name in ("attenuation_db_per_km", "pulse_rate_hz", "mean_photon_number"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LinkObservables:
    distance_km: float
    transmittance: float
    gain: float  # detection probability per pulse
    qber: float
    sifted_rate_bps: float


def link_observables(params: LinkParams, distance_km: float) -> LinkObservables:
    """Detection gain, QBER and sifted-key rate at one fiber distance.

    Dark counts use the two-detector convention y0 = 2 * dark_count_prob;
    they arrive at QBER 1/2, while signal clicks err at (1 - visibility)/2.
    """
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    t = params.detector_efficiency * 10.0 ** (
        -params.attenuation_db_per_km * distance_km / 10.0
    )
    y0 = 2.0 * params.dark_count_prob
    p_signal = 1.0 - math.exp(-params.mean_photon_number * t)
    gain = 1.0 - (1.0 - y0) * (1.0 - p_signal)
    e_det = (1.0 - params.visibility) / 2.0
    qber = (0.5 * y0 + e_det * p_signal) / gain if gain > 0 else 0.5
    return LinkObservables(
        distance_km=float(distance_km),
        transmittance=t,
        gain=gain,
        qber=min(qber, 0.5),
        sifted_rate_bps=params.pulse_rate_hz * params.sifting_factor * gain,
    )


@dataclass(frozen=True)
class SimRow:
    distance_km: float
    qber: float
    width: int  # 0 when no feasible width exists
    fer: float
    secure_ratio: float
    sifted_bps: float
    secure_bps: float


@dataclass
class SimReport:
    params: LinkParams
    rows: list = field(default_factory=list)


def simulate_link(
    params: LinkParams, table: DistillationTable, distances
) -> SimReport:
    """One-way protocol over a sweep of distances.

    Failed frames are abandoned, which the table already folds into the
    distillation efficiency; the secure throughput is therefore the sifted
    rate scaled by the selected cell's efficiency, and zero where no width
    can cope with the model QBER.
    """
    dists = [float(d) for d in distances]
    if not dists:
        raise ValueError("distances must be nonempty")
    if any(d < 0 for d in dists):
        raise ValueError("distances must be non-negative")
    if any(b <= a for a, b in zip(dists, dists[1:])):
        raise ValueError("distances must be strictly increasing")
    report = SimReport(params=params)
    for d in dists:
        obs = link_observables(params, d)
        try:
            i, j = table.lookup(obs.qber)
            w = int(table.widths[j])
            ratio = float(table.alpha[i, j])
            fer = float(table.fer[i, j])
        except NoFeasibleWidth:
            w, ratio, fer = 0, 0.0, 1.0
        report.rows.append(
            SimRow(
                distance_km=d,
                qber=obs.qber,
                width=w,
                fer=fer,
                secure_ratio=ratio,
                sifted_bps=obs.sifted_rate_bps,
                secure_bps=obs.sifted_rate_bps * ratio,
            )
        )
    return report


_REPORT_HEADER = ["distance_km", "qber", "width", "fer", "secure_ratio", "sifted_bps", "secure_bps"]


def save_report_csv(report: SimReport, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        wr = csv.writer(fh)
        wr.writerow(_REPORT_HEADER)
        for r in report.rows:
            wr.writerow(
                [
                    f"{r.distance_km:.3f}",
                    f"{r.qber:.6f}",
                    r.width,
                    f"{r.fer:.6f}",
                    f"{r.secure_ratio:.4f}",
                    f"{r.sifted_bps:.3f}",
                    f"{r.secure_bps:.3f}",
                ]
            )


@dataclass
class ConsistencyRow:
    distance_km: float
    qber: float
    width: int
    table_fer: float  # FER of the table cell selected for this QBER
    table_ci: tuple[float, float]  # that cell's (ci_low, ci_high)
    mc_fer: FerEstimate
    agrees: bool


def frame_level_check(
    matrix: ParityMatrix,
    table: DistillationTable,
    params: LinkParams,
    distances,
    frames: int,
    seed: int,
    max_iterations: int = 60,
) -> list[ConsistencyRow]:
    """Monte-Carlo cross-check of the table-predicted secure ratio.

    At each distance, frames are drawn and decoded at the model QBER with
    the table-selected width; agreement holds when the simulated FER's 95%
    interval overlaps the table cell's interval.
    """
    out = []
    for d in distances:
        obs = link_observables(params, d)
        i, j = table.lookup(obs.qber)
        w = int(table.widths[j])
        lo, hi = float(table.ci_low[i, j]), float(table.ci_high[i, j])
        mc = _run_cell(
            MatrixPrefix(matrix, w),
            obs.qber,
            frames,
            (seed, int(round(d * 1000))),
            max_iterations,
        )
        agrees = mc.ci_low <= hi and lo <= mc.ci_high
        out.append(
            ConsistencyRow(
                distance_km=float(d),
                qber=obs.qber,
                width=w,
                table_fer=float(table.fer[i, j]),
                table_ci=(lo, hi),
                mc_fer=mc,
                agrees=agrees,
            )
        )
    return out
