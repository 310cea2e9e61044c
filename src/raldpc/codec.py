"""Syndrome encoding and belief-propagation syndrome decoding over a BSC.

Only the m-bit syndrome of a key block ever crosses the classical channel:
Alice sends s = H'x (mod 2) computed over the effective-matrix prefix H',
and Bob runs sum-product decoding on his noisy copy y with the target
syndrome folded into the check-node updates.  The decoder is a flooding
schedule with the exact tanh-product check rule; a batch kernel decodes
many independent frames at once, which is what makes the Monte-Carlo
characterization affordable in pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tanner import MatrixPrefix

# |tanh| floor keeps the extrinsic division finite when a message is ~0
_TANH_FLOOR = 1e-12
_ATANH_CEIL = 1.0 - 1e-15


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs of the sum-product decoder.

    crossover_prior is the BSC crossover probability p used for the channel
    prior log((1-p)/p); in the reconciliation setting it is supplied by the
    caller (the true channel parameter in simulations).
    """

    crossover_prior: float
    max_iterations: int = 60
    llr_clamp: float = 25.0

    def __post_init__(self):
        if not (0.0 < self.crossover_prior < 0.5):
            raise ValueError("crossover_prior must be in (0, 0.5)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.llr_clamp > 0:
            raise ValueError("llr_clamp must be positive")


@dataclass
class DecodeResult:
    corrected_key: np.ndarray
    success: bool
    iterations_used: int
    unsatisfied_checks: int


def _as_bits(x, length: int, what: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size != length:
        raise ValueError(f"{what} must be a 1-D bit array of length {length}")
    if arr.dtype != np.uint8:
        arr = arr.astype(np.uint8)
    if np.any(arr > 1):
        raise ValueError(f"{what} must contain only 0/1 values")
    return arr


def encode_syndrome(prefix: MatrixPrefix, key) -> np.ndarray:
    """Syndrome bit i = mod-2 sum of key bits adjacent to check i."""
    key = _as_bits(key, prefix.width, "key")
    return encode_syndrome_batch(prefix, key[None, :])[0]


def encode_syndrome_batch(prefix: MatrixPrefix, keys: np.ndarray) -> np.ndarray:
    """Row-wise syndromes for a (B, width) batch of key blocks."""
    e = prefix.edges
    if keys.ndim != 2 or keys.shape[1] != prefix.width:
        raise ValueError(f"keys must have shape (B, {prefix.width})")
    bits = keys[:, e.edge_var_cm].astype(np.int32)
    out = np.zeros((keys.shape[0], e.num_checks), dtype=np.uint8)
    sums = np.add.reduceat(bits, e.check_first, axis=1)
    out[:, e.present_checks] = (sums & 1).astype(np.uint8)
    return out


def decode(
    prefix: MatrixPrefix,
    noisy_key,
    target_syndrome,
    config: DecoderConfig,
) -> DecodeResult:
    """Correct ``noisy_key`` toward the block whose syndrome is the target.

    Sum-product message passing (flooding schedule): variable nodes start
    from the prior LLR log((1-p)/p) signed by the received bit; check-node
    updates use the tanh-product rule with the sign flipped wherever the
    target syndrome bit is 1.  After every iteration the hard decision is
    re-encoded and the decoder stops as soon as the syndrome matches.
    Non-convergence within max_iterations is reported as success=False, not
    an error.
    """
    noisy = _as_bits(noisy_key, prefix.width, "noisy_key")
    syn = _as_bits(target_syndrome, prefix.num_checks, "target_syndrome")
    hard, ok, iters, unsat = _decode_batch(
        prefix, noisy[None, :], syn[None, :], config
    )
    return DecodeResult(
        corrected_key=hard[0],
        success=bool(ok[0]),
        iterations_used=int(iters[0]),
        unsatisfied_checks=int(unsat[0]),
    )


def _batch_syndrome_mismatch(
    prefix: MatrixPrefix, hard: np.ndarray, target: np.ndarray
) -> np.ndarray:
    return np.count_nonzero(encode_syndrome_batch(prefix, hard) != target, axis=1)


def _decode_batch(
    prefix: MatrixPrefix,
    noisy: np.ndarray,
    target: np.ndarray,
    config: DecoderConfig,
):
    """Decode a batch of independent frames with one flooding schedule.

    Returns (hard_keys (B,w) uint8, success (B,), iterations_used (B,),
    unsatisfied (B,)).  Identical in behaviour to decoding each frame alone.
    """
    e = prefix.edges
    B = noisy.shape[0]
    p = config.crossover_prior
    clamp = config.llr_clamp
    prior_mag = min(float(np.log((1.0 - p) / p)), clamp)

    hard = noisy.astype(np.uint8).copy()
    iters = np.zeros(B, dtype=np.int64)
    unsat = _batch_syndrome_mismatch(prefix, hard, target)
    active = np.flatnonzero(unsat > 0)
    if active.size == 0:
        return hard, unsat == 0, iters, unsat

    prior = prior_mag * (1.0 - 2.0 * noisy[active].astype(np.float64))
    v2c = prior[:, e.edge_var]
    sgn_syn = 1.0 - 2.0 * target[active].astype(np.float64)

    for it in range(1, config.max_iterations + 1):
        # check update: extrinsic tanh product, syndrome sign folded in
        t = np.tanh(0.5 * v2c)
        np.copysign(np.maximum(np.abs(t), _TANH_FLOOR), t, out=t)
        t_cm = t[:, e.perm]
        prod = np.multiply.reduceat(t_cm, e.check_first, axis=1)
        full = np.ones((t_cm.shape[0], e.num_checks))
        full[:, e.present_checks] = prod
        ext = (full * sgn_syn)[:, e.edge_check_cm] / t_cm
        np.clip(ext, -_ATANH_CEIL, _ATANH_CEIL, out=ext)
        c2v_cm = 2.0 * np.arctanh(ext)
        np.clip(c2v_cm, -clamp, clamp, out=c2v_cm)
        c2v = c2v_cm[:, e.inv_perm]

        # variable update and hard decision
        post = prior + np.add.reduceat(c2v, e.var_indptr[:-1], axis=1)
        v2c = post[:, e.edge_var] - c2v
        np.clip(v2c, -clamp, clamp, out=v2c)
        cand = (post < 0).astype(np.uint8)

        miss = _batch_syndrome_mismatch(prefix, cand, target[active])
        done = miss == 0
        if np.any(done):
            rows = active[done]
            hard[rows] = cand[done]
            iters[rows] = it
            unsat[rows] = 0
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            prior = prior[keep]
            v2c = v2c[keep]
            sgn_syn = sgn_syn[keep]
            cand = cand[keep]
            miss = miss[keep]

    if active.size:
        # non-converged frames keep their last hard decision
        hard[active] = cand
        iters[active] = config.max_iterations
        unsat[active] = miss
    return hard, unsat == 0, iters, unsat


def read_key_blocks(path, width: int | None = None) -> np.ndarray:
    """Read ASCII '0'/'1' key blocks, one block per line, equal lengths.

    When ``width`` is given every block is validated against it.
    """
    blocks = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s:
                continue
            if set(s) - {"0", "1"}:
                raise ValueError(f"{path}:{lineno}: key lines must be 0/1 strings")
            blocks.append(np.frombuffer(s.encode(), dtype=np.uint8) - ord("0"))
    if not blocks:
        raise ValueError(f"{path}: no key blocks found")
    lengths = {b.size for b in blocks}
    if len(lengths) != 1:
        raise ValueError(f"{path}: blocks have inconsistent lengths {sorted(lengths)}")
    if width is not None and blocks[0].size != width:
        raise ValueError(
            f"{path}: block length {blocks[0].size} does not match width {width}"
        )
    return np.vstack(blocks)


def write_key_blocks(path, blocks: np.ndarray) -> None:
    blocks = np.atleast_2d(blocks)
    with open(path, "w", encoding="ascii") as fh:
        for row in blocks:
            fh.write("".join("1" if b else "0" for b in row) + "\n")
