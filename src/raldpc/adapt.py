"""Rates, entropies, efficiency metrics and the rate-adaptation lookup table.

The adaptation rule is a lookup: characterize the mother matrix once,
tabulate the distillation efficiency (1 - FER) * rate for every prefix
width and error rate, and at run time pick the width with the best entry
for the observed error rate.  Rounding between grid points is conservative:
an error rate is mapped to the nearest grid row at or above it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class NoFeasibleWidth(Exception):
    """No characterized width can reconcile at the requested error rate."""


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy in bits, h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("binary entropy argument must lie in [0, 1]")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


@dataclass(frozen=True)
class RatePoint:
    width: int
    rate: float  # 1 - m/width, the encoding-efficient rate of the prefix


def effective_rate(num_checks: int, width: int) -> RatePoint:
    """Rate of the width-n' prefix used as the effective matrix."""
    if width <= num_checks:
        raise ValueError("prefix width must exceed the syndrome length")
    return RatePoint(width=int(width), rate=1.0 - num_checks / width)


def reconciliation_efficiency(r: float, e: float) -> float:
    """Disclosure ratio (1 - r) / h(e) relative to the Shannon minimum."""
    if not 0.0 < r < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    if not 0.0 < e < 0.5:
        raise ValueError("error rate must lie in (0, 0.5)")
    return (1.0 - r) / binary_entropy(e)


@dataclass(frozen=True)
class EfficiencySession:
    """Rates used over a reconciliation session with their block counts."""

    entries: tuple  # of (rate, block_count)
    error_rate: float

    def __post_init__(self):
        ents = tuple((float(r), int(n)) for r, n in self.entries)
        if not ents:
            raise ValueError("session must contain at least one entry")
        if any(not 0.0 < r < 1.0 for r, _ in ents):
            raise ValueError("all rates must lie in (0, 1)")
        if any(n <= 0 for _, n in ents):
            raise ValueError("block counts must be positive")
        if not 0.0 < self.error_rate < 0.5:
            raise ValueError("error rate must lie in (0, 0.5)")
        object.__setattr__(self, "entries", ents)


def averaged_efficiency(session: EfficiencySession) -> float:
    """Block-count-weighted mean of the per-rate efficiencies."""
    num = sum(
        reconciliation_efficiency(r, session.error_rate) * n
        for r, n in session.entries
    )
    den = sum(n for _, n in session.entries)
    return num / den


def distillation_efficiency(fer: float, rate: float) -> float:
    """Average fraction of sifted bits surviving reconciliation."""
    if not 0.0 <= fer <= 1.0:
        raise ValueError("FER must lie in [0, 1]")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    return (1.0 - fer) * rate


_CSV_HEADER = ["error_rate", "width", "alpha", "fer", "ci_low", "ci_high", "working"]


@dataclass
class DistillationTable:
    """Distillation efficiency per (error rate, prefix width).

    ``alpha``/``fer``/``ci_low``/``ci_high`` are (rates, widths) arrays in
    [0, 1], with NaN in ``alpha`` marking cells where the FER was too close
    to 1 to be useful.  ``working`` holds, per error rate, the width with
    the best present efficiency (ties to the larger width), or None.
    ``undetected`` optionally counts each cell's undetected wrong-block
    convergences; the CSV does not carry it, so a loaded table has None.
    """

    error_rates: np.ndarray  # increasing
    widths: np.ndarray  # decreasing
    alpha: np.ndarray
    fer: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    working: list
    undetected: np.ndarray | None = None

    def __post_init__(self):
        self.error_rates = np.asarray(self.error_rates, dtype=float)
        self.widths = np.asarray(self.widths, dtype=np.int64)
        # comparisons are False on NaN, so each check refuses it
        if not np.all((self.error_rates > 0) & (self.error_rates < 0.5)):
            raise ValueError("error rates must lie in (0, 0.5)")
        if np.any(np.diff(self.error_rates) <= 0):
            raise ValueError("error rates must be strictly increasing")
        if np.any(self.widths <= 0):
            raise ValueError("widths must be positive")
        if np.any(np.diff(self.widths) >= 0):
            raise ValueError("widths must be strictly decreasing")
        shape = (self.error_rates.size, self.widths.size)
        for name in ("alpha", "fer", "ci_low", "ci_high"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            inside = (arr >= 0) & (arr <= 1)
            if name == "alpha":
                inside |= np.isnan(arr)  # an absent cell
            if not np.all(inside):
                raise ValueError(f"{name} must lie in [0, 1]")
            setattr(self, name, arr)
        if not np.all((self.ci_low <= self.fer) & (self.fer <= self.ci_high)):
            raise ValueError("every [ci_low, ci_high] interval must contain its fer")
        if len(self.working) != self.error_rates.size:
            raise ValueError("working must have one entry per error rate")
        stray = [w for w in self.working if w is not None and w not in self.widths]
        if stray:
            raise ValueError(f"working widths {stray} are not among the table widths")
        absent = [
            (float(e), w)
            for e, w, row in zip(self.error_rates, self.working, self.alpha)
            if w is not None and np.isnan(row[self.widths == w][0])
        ]
        if absent:
            raise ValueError(f"working (rate, width) cells {absent} have no alpha")

    def lookup(self, e: float) -> tuple[int, int]:
        """Cell (i, j) of the working width at the nearest grid row at or
        above e that has one; raises NoFeasibleWidth when no such row exists.
        """
        for i in np.flatnonzero(self.error_rates >= e - 1e-12):
            w = self.working[i]
            if w is not None:
                return int(i), int(np.flatnonzero(self.widths == w)[0])
        raise NoFeasibleWidth(f"no characterized width can handle error rate {e:.4f}")

    def cell(self, error_rate: float, width: int):
        i = int(np.argmin(np.abs(self.error_rates - error_rate)))
        if abs(self.error_rates[i] - error_rate) > 1e-9:
            raise KeyError(f"error rate {error_rate} not on the table grid")
        j = int(np.flatnonzero(self.widths == width)[0]) if width in self.widths else -1
        if j < 0:
            raise KeyError(f"width {width} not in the table")
        return i, j

    @staticmethod
    def compute_working(alpha: np.ndarray, widths: np.ndarray) -> list:
        """Argmax width per row over present cells; ties favor larger width."""
        working = []
        for row in alpha:
            best_j = -1
            best = -1.0
            for j in range(len(widths)):
                a = row[j]
                if not np.isnan(a) and a > best + 1e-15:
                    best, best_j = a, j
            working.append(int(widths[best_j]) if best_j >= 0 else None)
        return working


def select_width(table: DistillationTable, e: float) -> int:
    """Width of the working region for error rate e (see ``lookup``)."""
    _, j = table.lookup(e)
    return int(table.widths[j])


def _check_csv_rates(error_rates) -> None:
    """Refuse rates that the CSV's 3-decimal rate column would move."""
    for e in error_rates:
        if abs(float(f"{e:.3f}") - e) > 1e-9:
            raise ValueError(f"error rate {e!r} is not on the table CSV's 0.001 grid")


def save_table_csv(table: DistillationTable, path) -> None:
    """Write the table as CSV; absent cells keep their FER but no alpha.

    Rates are written to 3 decimals, so a rate off that grid is refused.
    """
    _check_csv_rates(table.error_rates)
    with open(path, "w", newline="", encoding="ascii") as fh:
        wr = csv.writer(fh)
        wr.writerow(_CSV_HEADER)
        for i, e in enumerate(table.error_rates):
            for j, w in enumerate(table.widths):
                a = table.alpha[i, j]
                wr.writerow(
                    [
                        f"{e:.3f}",
                        int(w),
                        "" if np.isnan(a) else f"{a:.4f}",
                        f"{table.fer[i, j]:.6f}",
                        f"{table.ci_low[i, j]:.6f}",
                        f"{table.ci_high[i, j]:.6f}",
                        1 if table.working[i] == w else 0,
                    ]
                )


def load_table_csv(path) -> DistillationTable:
    """Read a table CSV; duplicate or missing (rate, width) cells, a rate
    off the 0.001 grid, an alpha of nan or inf, a working
    flag other than 0/1, and a rate with more than one working width, are
    refused."""
    cells = {}
    with open(path, "r", newline="", encoding="ascii") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != _CSV_HEADER:
            raise ValueError(f"{path}: unexpected table header {header}")
        for rownum, row in enumerate(rd, 2):
            if len(row) != len(_CSV_HEADER):
                raise ValueError(f"{path}:{rownum}: expected {len(_CSV_HEADER)} fields")
            key = (float(row[0]), int(row[1]))
            if key in cells:
                raise ValueError(f"{path}:{rownum}: duplicate cell {row[0]},{row[1]}")
            cells[key] = row
    if not cells:
        raise ValueError(f"{path}: empty table")
    rates = sorted({e for e, _ in cells})
    _check_csv_rates(rates)
    widths = sorted({w for _, w in cells}, reverse=True)
    if len(cells) != len(rates) * len(widths):
        missing = len(rates) * len(widths) - len(cells)
        raise ValueError(f"{path}: {missing} (rate, width) cells are missing")
    ridx = {r: i for i, r in enumerate(rates)}
    widx = {w: j for j, w in enumerate(widths)}
    shape = (len(rates), len(widths))
    alpha = np.full(shape, np.nan)
    fer = np.full(shape, np.nan)
    lo = np.full(shape, np.nan)
    hi = np.full(shape, np.nan)
    working = [None] * len(rates)
    for (e, w), row in cells.items():
        i, j = ridx[e], widx[w]
        alpha[i, j] = float(row[2]) if row[2] != "" else np.nan
        if row[2] != "" and not math.isfinite(alpha[i, j]):
            raise ValueError(f"{path}: alpha {row[2]!r} must be empty or finite")
        fer[i, j] = float(row[3])
        lo[i, j] = float(row[4])
        hi[i, j] = float(row[5])
        if row[6] not in ("0", "1"):
            raise ValueError(f"{path}: working flag {row[6]!r} is not 0 or 1")
        if row[6] == "1":
            if working[i] is not None:
                raise ValueError(f"{path}: rate {e:.3f} has more than one working width")
            working[i] = w
    return DistillationTable(
        error_rates=np.asarray(rates),
        widths=np.asarray(widths),
        alpha=alpha,
        fer=fer,
        ci_low=lo,
        ci_high=hi,
        working=working,
    )
