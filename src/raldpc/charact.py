"""Monte-Carlo frame-error-rate estimation and distillation-table building.

Every cell of the table runs the same experiment: draw a random key of the
prefix width, send its syndrome, flip each bit of the key independently
with the cell's crossover probability, decode, and count a failure when
the decoder either gives up or silently converges to the wrong block.
Undetected wrong-block convergences are also tallied on their own since
the one-way protocol has no verification hash to catch them.

Cells are seeded independently from (master seed, width, rate index), so a
table is reproducible cell by cell and its cells can be computed in any
order or in parallel without changing the result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .adapt import DistillationTable, distillation_efficiency, effective_rate
from .codec import DecoderConfig, _decode_batch, encode_syndrome_batch
from .tanner import MatrixPrefix, ParityMatrix

_Z95 = 1.959963984540054
# frames are drawn per fixed-size chunk, each chunk with its own derived
# RNG stream, so scheduling cannot change what any chunk sees
_CHUNK = 128


def wilson_interval(failures: int, frames: int):
    """95% Wilson score interval for a binomial proportion."""
    if frames <= 0:
        raise ValueError("frames must be positive")
    phat = failures / frames
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / frames
    center = (phat + z2 / (2 * frames)) / denom
    half = _Z95 * np.sqrt(phat * (1 - phat) / frames + z2 / (4 * frames * frames)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # guarantee the interval brackets the point estimate despite rounding
    return float(min(lo, phat)), float(max(hi, phat))


@dataclass
class FerEstimate:
    point_estimate: float
    frames_run: int
    failures: int
    ci_low: float
    ci_high: float
    undetected: int  # converged frames whose corrected key was wrong


def _run_cell(
    prefix: MatrixPrefix,
    p: float,
    num_frames: int,
    seed_entropy,
    max_iterations: int,
    abort_ci_low: float | None = None,
) -> FerEstimate:
    """Run up to num_frames frames; optionally stop once FER is decisively ~1."""
    cfg = DecoderConfig(crossover_prior=p, max_iterations=max_iterations)
    width = prefix.width
    failures = 0
    undetected = 0
    done = 0
    chunk_idx = 0
    while done < num_frames:
        take = min(_CHUNK, num_frames - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(tuple(seed_entropy) + (chunk_idx,))
        )
        keys = rng.integers(0, 2, size=(take, width), dtype=np.uint8)
        syndromes = encode_syndrome_batch(prefix, keys)
        flips = (rng.random((take, width)) < p).astype(np.uint8)
        noisy = keys ^ flips
        hard, ok, _, _ = _decode_batch(prefix, noisy, syndromes, cfg)
        wrong = np.any(hard != keys, axis=1)
        failures += int(np.sum(~ok | wrong))
        undetected += int(np.sum(ok & wrong))
        done += take
        chunk_idx += 1
        if abort_ci_low is not None and done < num_frames:
            lo, _ = wilson_interval(failures, done)
            if lo >= abort_ci_low:
                break
    lo, hi = wilson_interval(failures, done)
    return FerEstimate(
        point_estimate=failures / done,
        frames_run=done,
        failures=failures,
        ci_low=lo,
        ci_high=hi,
        undetected=undetected,
    )


# cells with Wilson ci_low at or above this are hopeless for the argmax:
# their efficiency upper bound (0.05 * rate) cannot beat any usable width
_ABORT_CI_LOW = 0.95
_ABSENT_FER = 0.99


def _cell(prefixes: dict, task) -> FerEstimate:
    """One cell of ``build_table``, on the width's prefix in ``prefixes``."""
    width, rate_idx, p, frames, seed, max_iterations = task
    return _run_cell(
        prefixes[width], p, frames, (seed, width, rate_idx), max_iterations, _ABORT_CI_LOW
    )


# a --threads worker process's prefixes, set once per process
_prefixes: dict = {}


def _start_worker(prefixes: dict) -> None:
    _prefixes.update(prefixes)


def _worker_cell(task):
    return _cell(_prefixes, task)


def build_table(
    matrix: ParityMatrix,
    widths,
    error_grid,
    frames_per_point: int,
    seed: int,
    max_iterations: int = 60,
    threads: int = 1,
) -> DistillationTable:
    """Characterize the matrix into a DistillationTable.

    Every cell decodes with its own error rate as the channel prior.  Cells
    whose FER point estimate reaches ``0.99`` are marked absent.  A cell
    stops early once its FER is decisively too high to ever win the per-row
    argmax, which saves most of the time spent beyond each width's
    error-correction capability.  ``threads`` is the number of worker
    processes; 1 computes every cell in this process.
    """
    widths = sorted({int(w) for w in widths}, reverse=True)
    grid = [float(e) for e in error_grid]
    if not widths or not grid:
        raise ValueError("widths and error grid must be nonempty")
    # pickled to the --threads workers before any edge layout is built
    prefixes = {w: MatrixPrefix(matrix, w) for w in widths}
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("error grid must be strictly increasing")
    if any(not 0.0 < e < 0.5 for e in grid):
        raise ValueError("error rates must lie in (0, 0.5)")
    if threads < 1:
        raise ValueError("threads must be >= 1")

    tasks = [
        (w, i, p, frames_per_point, seed, max_iterations)
        for w in widths
        for i, p in enumerate(grid)
    ]
    if threads > 1:
        # imported on use: the modules add to every command's start-up time
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: this process already runs numpy's BLAS
        # threads, and a forked child of a threaded process can deadlock
        with ProcessPoolExecutor(
            max_workers=threads,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker,
            initargs=(prefixes,),
        ) as ex:
            results = list(ex.map(_worker_cell, tasks))
    else:
        results = [_cell(prefixes, t) for t in tasks]

    shape = (len(grid), len(widths))
    alpha = np.full(shape, np.nan)
    fer = np.full(shape, np.nan)
    lo = np.full(shape, np.nan)
    hi = np.full(shape, np.nan)
    undetected = np.zeros(shape, dtype=np.int64)
    # both maps return the results in task order
    for (width, i, *_), est in zip(tasks, results):
        j = widths.index(width)
        fer[i, j] = est.point_estimate
        lo[i, j] = est.ci_low
        hi[i, j] = est.ci_high
        undetected[i, j] = est.undetected
        if est.point_estimate < _ABSENT_FER:
            rate = effective_rate(matrix.num_checks, width).rate
            alpha[i, j] = distillation_efficiency(est.point_estimate, rate)

    return DistillationTable(
        error_rates=np.asarray(grid),
        widths=np.asarray(widths),
        alpha=alpha,
        fer=fer,
        ci_low=lo,
        ci_high=hi,
        working=DistillationTable.compute_working(alpha, np.asarray(widths)),
        undetected=undetected,
    )


def matrix_digest(matrix: ParityMatrix) -> str:
    """Stable content hash of a parity matrix."""
    h = hashlib.sha256()
    h.update(np.asarray([matrix.num_checks, matrix.num_vars], dtype=np.int64).tobytes())
    h.update(matrix.col_indptr.tobytes())
    h.update(matrix.col_indices.astype(np.int64).tobytes())
    return h.hexdigest()
