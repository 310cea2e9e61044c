"""Shared fixtures.

The mother matrix and the 500-frame characterization table are expensive,
so they are built once per session and cached under tests/.cache keyed by
their parameters plus a fingerprint of the source files that produce them;
editing tanner/codec/charact invalidates the cache automatically, and
writing a new entry deletes the entries of its kind left by other source
revisions.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

import raldpc as rl
from raldpc.adapt import DistillationTable

CACHE = pathlib.Path(__file__).parent / ".cache"
SRC = pathlib.Path(rl.__file__).parent

MOTHER_CHECKS = 1024
MOTHER_VARS = 5120
MOTHER_SEED = 20260810
TABLE_SEED = 1
TABLE_FRAMES = 500
TABLE_WIDTHS = (5120, 4096, 3072)
TABLE_GRID = tuple(round(0.010 + 0.001 * k, 3) for k in range(16))  # 1.0% .. 2.5%
# decoder strength used for characterization: calibrated once so the FER
# waterfalls of the three widths sit at the documented working-region
# boundaries; the library default (60) decodes harder than the table needs
TABLE_MAX_ITERATIONS = 10


def _fingerprint(*names: str) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((SRC / name).read_bytes())
    return h.hexdigest()[:12]


def _drop_stale(kind: str, current: str):
    """Delete the cache entries matching ``kind`` but not ``current``."""
    for old in set(CACHE.glob(kind)) - set(CACHE.glob(current)):
        old.unlink()


@pytest.fixture(scope="session")
def cache_dir() -> pathlib.Path:
    CACHE.mkdir(exist_ok=True)
    return CACHE


@pytest.fixture(scope="session")
def mother_matrix(cache_dir):
    tag = _fingerprint("tanner.py")
    path = cache_dir / (
        f"mother_{MOTHER_CHECKS}x{MOTHER_VARS}_i45_s{MOTHER_SEED}_{tag}.alist"
    )
    if path.exists():
        return rl.load_alist(path)
    profile = rl.DegreeProfile.interleaved_4_5(MOTHER_VARS)
    matrix = rl.peg_construct(MOTHER_CHECKS, MOTHER_VARS, profile, MOTHER_SEED)
    rl.save_alist(matrix, path)
    _drop_stale("mother_*.alist", f"mother_*_{tag}.alist")
    return matrix


@pytest.fixture(scope="session")
def mother_alist_path(cache_dir, mother_matrix) -> pathlib.Path:
    tag = _fingerprint("tanner.py")
    return cache_dir / (
        f"mother_{MOTHER_CHECKS}x{MOTHER_VARS}_i45_s{MOTHER_SEED}_{tag}.alist"
    )


def _save_table_npz(table: DistillationTable, path):
    working = np.asarray([w if w is not None else -1 for w in table.working])
    np.savez(
        path,
        error_rates=table.error_rates,
        widths=table.widths,
        alpha=table.alpha,
        fer=table.fer,
        ci_low=table.ci_low,
        ci_high=table.ci_high,
        working=working,
        undetected=table.undetected,
    )


def _load_table_npz(path) -> DistillationTable:
    z = np.load(path)
    return DistillationTable(
        error_rates=z["error_rates"],
        widths=z["widths"],
        alpha=z["alpha"],
        fer=z["fer"],
        ci_low=z["ci_low"],
        ci_high=z["ci_high"],
        working=[int(w) if w >= 0 else None for w in z["working"]],
        undetected=z["undetected"],
    )


@pytest.fixture(scope="session")
def accept_table(cache_dir, mother_matrix):
    """500-frame characterization of the mother matrix (criteria 3, 4, 7, 8)."""
    tag = _fingerprint("tanner.py", "codec.py", "charact.py")
    key = {
        "matrix": rl.matrix_digest(mother_matrix),
        "widths": list(TABLE_WIDTHS),
        "grid": list(TABLE_GRID),
        "frames": TABLE_FRAMES,
        "seed": TABLE_SEED,
        "max_iterations": TABLE_MAX_ITERATIONS,
    }
    stem = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:12]
    npz = cache_dir / f"accept_table_{tag}_{stem}.npz"
    if npz.exists():
        return _load_table_npz(npz)
    table = rl.build_table(
        mother_matrix,
        TABLE_WIDTHS,
        TABLE_GRID,
        frames_per_point=TABLE_FRAMES,
        seed=TABLE_SEED,
        max_iterations=TABLE_MAX_ITERATIONS,
        threads=os.cpu_count() or 1,  # tables do not depend on the thread count
    )
    _save_table_npz(table, npz)
    _drop_stale("accept_table_*.npz", f"accept_table_{tag}_*.npz")
    return table
