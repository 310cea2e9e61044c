"""Syndrome encoding and belief-propagation syndrome decoding over a BSC.

Only the m-bit syndrome of a key block ever crosses the classical channel:
Alice sends s = H'x (mod 2) computed over the effective-matrix prefix H',
and Bob runs sum-product decoding on his noisy copy y with the target
syndrome folded into the check-node updates.  The decoder is a flooding
schedule with the exact tanh-product check rule; a batch kernel decodes
many independent frames at once, which is what makes the Monte-Carlo
characterization affordable in pure numpy.

Message layout: the (frames, edges) float64 arrays of variable-to-check
and check-to-variable messages stay in check-major edge order
(``PrefixEdges``) for the whole decode, in buffers allocated once per
block.  The check update is then a ``multiply.reduceat`` straight over the
messages, one product per check with an edge in the prefix, signed by its
target bit and gathered back to the edges through ``edge_seg``; new
messages come back as posterior[edge_var_cm] minus the check message.
Every gather is ``np.take(..., axis=1)`` with an intp index, whose output
is C-contiguous; fancy indexing ``x[:, idx]`` would return an F-ordered
copy that is slow to write and slow for the ``reduceat`` after it.

Variable update: each column's check messages are summed slot by slot.
Slot k of a ``PrefixEdges.var_slots`` table is every column's k-th edge,
taken straight from the check messages, and short columns read one extra
message column that is always 0.  The sum of a column's d messages x0 ..
x(d-1) is x0 + S in a fixed order, where S sums x1 .. x(d-1) pairwise
(``_pairwise_sum``): left to right below 8 terms, eight running sums over
blocks of 8 up to 128 terms, and above that the two halves (split at a
multiple of 8) recursively.  The order is this kernel's own; it is also
the order in which numpy 2.4's ``add.reduceat`` sums a segment, so every
posterior equals that of the segment-sum kernel this one replaced, bit
for bit.  Zero padding is exact only in the left-to-right sum, where a
trailing +0 changes no nonzero sum and the prior (never 0), added last,
absorbs the sign of a zero one; in the pairwise sum it would move terms
between the running sums.  So the columns of degree 1 to 8 share one
padded table, and each degree above 8 has a table of its own.  A column
that no check touches is in no table and keeps its prior.

Frame blocks: a batch is decoded ``_FRAME_BLOCK`` frames at a time.  Each
pass of an iteration streams one or two of the four message buffers, and a
block's buffers (4 frames x 23040 edges x 8 B x 4 = 2.9 MB on the 1024x5120
mother) fit in one core's 4 MiB L2, where a 64-frame batch's (47 MB) spill
to memory on every pass.  Frames are independent, so blocking changes no
result.

Half-LLR units: the prior, the posterior and both messages are held at half
their LLR value, so the tanh rule's tanh(LLR / 2) is ``tanh(v2c)``, the
check message is ``arctanh`` of the extrinsic product with no doubling, and
both clamps are +-_LLR_CLAMP / 2.  This is exact: the only halving is
0.5 * prior magnitude, and every other value of the full-LLR kernel is the
half-unit value doubled.  Doubling is exact in binary floating point, also
through a sum (a subnormal sum is exact) and a clamp, so the old 0.5 * v2c
is the new v2c bit for bit and ``post < 0`` is the same hard decision.

Fused syndrome check: right after the posterior is gathered to the edges,
and before the check message is subtracted, v2c holds the posterior of each
edge's variable in check-major order.  The candidate syndrome is then the
``bitwise_xor.reduceat`` of ``v2c < 0`` over each present check, with no
hard-decision array and no second gather; target 1-bits on checks with no
edge in the prefix are counted once per frame, since no key meets them.
Iteration 0 runs the same check on the gathered prior, which is negative
exactly where the received bit is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tanner import MatrixPrefix

# |tanh| floor keeps the extrinsic division finite when a message is ~0
_TANH_FLOOR = 1e-12
_ATANH_CEIL = 1.0 - 1e-15
# every prior and message LLR is clamped to +-_LLR_CLAMP
_LLR_CLAMP = 25.0
# frames per decoder block: a block's four (frames, edges) float64 message
# buffers stay in a core's 4 MiB L2 (2.9 MB on a 1024x5120 mother).  On
# five 64-frame cells of that mother, 2 to 8 frames per block decoded
# within a few percent of each other, 1 and 16 about 10% slower and the
# whole batch at once about 35% slower.
_FRAME_BLOCK = 4


@dataclass(frozen=True)
class DecoderConfig:
    """Channel prior and iteration budget of one sum-product decode.

    crossover_prior is the BSC crossover probability p behind the channel
    prior log((1-p)/p): the caller's estimate in reconciliation, the cell's
    own p in characterization.  max_iterations bounds the flooding
    iterations before a frame is reported as not converged.
    """

    crossover_prior: float
    max_iterations: int = 60

    def __post_init__(self):
        if not (0.0 < self.crossover_prior < 0.5):
            raise ValueError("crossover_prior must be in (0, 0.5)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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
    bits = np.take(keys, e.edge_var_cm, axis=1)
    out = np.zeros((keys.shape[0], prefix.num_checks), dtype=np.uint8)
    out[:, e.present_checks] = np.bitwise_xor.reduceat(bits, e.check_first, axis=1) & 1
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
    target syndrome bit is 1.  Every iteration takes, per check, the parity
    of the posterior signs gathered to its edges (the module docstring's
    fused syndrome check; no hard decision is re-encoded), and the decoder
    stops as soon as those parities match the target syndrome.
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


def _gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """out[:, k] = src[:, idx[k]], written C-contiguous into ``out``.

    The indices come from ``PrefixEdges`` and are always in range; mode
    "clip" only lets ``np.take`` write into ``out`` without a buffered copy.
    """
    np.take(src, idx, axis=1, out=out, mode="clip")


def _slot_sum(src: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Row sums of ``src[:, slots[k]]`` over k, x0 + S with S pairwise.

    x0 is slot 0 and S is ``_pairwise_sum`` of the other slots: the order
    in which ``add.reduceat`` sums a segment (module docstring).
    """
    out = np.take(src, slots[0], axis=1)
    if len(slots) > 1:
        out += _pairwise_sum(src, slots[1:])
    return out


def _pairwise_sum(src: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Sum of the terms ``src[:, slots[k]]``, in numpy's pairwise order.

    Fewer than 8 terms: left to right.  8 to 128: eight running sums over
    whole blocks of 8 terms, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover terms one by one.  More: the two halves, split at a
    multiple of 8, summed recursively.
    """
    n = len(slots)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(src, slots[:half]) + _pairwise_sum(src, slots[half:])
    term = np.empty((src.shape[0], slots.shape[1]))
    if n < 8:
        acc, rest = np.take(src, slots[0], axis=1), slots[1:]
    else:
        r = [np.take(src, k, axis=1) for k in slots[:8]]
        whole = n - n % 8
        for i in range(8, whole):
            _gather(src, slots[i], term)
            r[i % 8] += term
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = slots[whole:]
    for k in rest:
        _gather(src, k, term)
        acc += term
    return acc


def _syndrome_mismatch(e, signed, neg, target, absent_miss) -> np.ndarray:
    """Per frame, the number of checks whose candidate syndrome bit misses.

    ``signed`` holds one value per check-major edge that is negative exactly
    when the edge's variable is a 1; the candidate syndrome is the parity of
    those signs per present check, compared with ``target`` (the target on
    the present checks).  ``absent_miss`` adds each frame's target 1-bits on
    checks with no edge in the prefix, which no key can satisfy.
    """
    np.less(signed, 0, out=neg)
    cand = np.bitwise_xor.reduceat(neg.view(np.uint8), e.check_first, axis=1)
    return np.count_nonzero(cand != target, axis=1) + absent_miss


def _decode_batch(
    prefix: MatrixPrefix,
    noisy: np.ndarray,
    target: np.ndarray,
    config: DecoderConfig,
):
    """Decode a batch of independent frames with one flooding schedule.

    Returns (hard_keys (B,w) uint8, success (B,), iterations_used (B,),
    unsatisfied (B,)).  Identical in behaviour to decoding each frame alone;
    the frames go through ``_decode_block`` ``_FRAME_BLOCK`` at a time.
    """
    e = prefix.edges
    p = config.crossover_prior
    # half-LLR units (module docstring): the kernel's only halving
    half_prior = 0.5 * min(float(np.log((1.0 - p) / p)), _LLR_CLAMP)
    blocks = [
        _decode_block(
            e,
            noisy[s : s + _FRAME_BLOCK],
            target[s : s + _FRAME_BLOCK],
            half_prior,
            config.max_iterations,
        )
        # an empty batch is one empty block
        for s in range(0, max(noisy.shape[0], 1), _FRAME_BLOCK)
    ]
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(out) for out in zip(*blocks))


def _decode_block(e, noisy, target, half_prior: float, max_iterations: int):
    """``_decode_batch`` on a few frames, every message in half-LLR units."""
    B = noisy.shape[0]
    hard = noisy.astype(np.uint8)
    iters = np.zeros(B, dtype=np.int64)
    unsat = np.zeros(B, dtype=np.int64)
    present = target[:, e.present_checks]
    absent_miss = np.count_nonzero(target, axis=1) - np.count_nonzero(present, axis=1)
    sgn_syn = 1.0 - 2.0 * present.astype(np.float64)
    prior = post = half_prior * (1.0 - 2.0 * hard.astype(np.float64))
    # check-major edge messages, reused across iterations; the first n rows
    # hold the n frames still active.  Iteration 0 only checks the received
    # block: its posterior is the prior, whose sign is the received bit, and
    # its c2v is 0, so v2c leaves it as the prior.
    v2c_buf, t_buf, ext_buf = (np.empty((B, e.num_edges)) for _ in range(3))
    # one more column, always 0: the slot tables' padding reads it
    c2v_buf = np.zeros((B, e.num_edges + 1))
    neg_buf = np.empty((B, e.num_edges), dtype=np.bool_)
    active = np.arange(B)
    _gather(prior, e.edge_var_cm, v2c_buf)

    for it in range(max_iterations + 1):
        n = active.size
        if n == 0:  # every frame converged, or the batch is empty
            break
        v2c, t, ext = v2c_buf[:n], t_buf[:n], ext_buf[:n]
        c2v = c2v_buf[:n, :-1]
        if it:
            # check update: extrinsic tanh product, syndrome sign folded in;
            # tanh(v2c) of a half-LLR message is tanh(LLR / 2)
            np.tanh(v2c, out=t)
            np.abs(t, out=ext)
            np.maximum(ext, _TANH_FLOOR, out=ext)
            np.copysign(ext, t, out=t)
            prod = np.multiply.reduceat(t, e.check_first, axis=1)
            prod *= sgn_syn
            _gather(prod, e.edge_seg, ext)
            np.divide(ext, t, out=ext)
            np.clip(ext, -_ATANH_CEIL, _ATANH_CEIL, out=ext)
            np.arctanh(ext, out=c2v)
            np.clip(c2v, -0.5 * _LLR_CLAMP, 0.5 * _LLR_CLAMP, out=c2v)

            # variable update: each column's check messages, slot by slot;
            # a column no check touches keeps its prior
            post = prior.copy()
            for cols, slots in e.var_slots:
                post[:, cols] += _slot_sum(c2v_buf[:n], slots)
            _gather(post, e.edge_var_cm, v2c)

        # v2c holds the posterior per check-major edge until c2v is subtracted
        miss = _syndrome_mismatch(e, v2c, neg_buf[:n], present, absent_miss)
        np.subtract(v2c, c2v, out=v2c)
        np.clip(v2c, -0.5 * _LLR_CLAMP, 0.5 * _LLR_CLAMP, out=v2c)

        done = miss == 0
        if np.any(done):
            rows = active[done]
            hard[rows] = post[done] < 0
            iters[rows] = it
            keep = ~done
            active = active[keep]
            prior, sgn_syn = prior[keep], sgn_syn[keep]
            present, absent_miss = present[keep], absent_miss[keep]
            v2c_buf[: active.size] = v2c[keep]
            post, miss = post[keep], miss[keep]

    if active.size:
        # non-converged frames keep their last hard decision
        hard[active] = post < 0
        iters[active] = max_iterations
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
    """Write key blocks as ASCII lines of '0'/'1'; any nonzero value is '1'."""
    blocks = np.atleast_2d(blocks)
    text = np.full((blocks.shape[0], blocks.shape[1] + 1), ord("\n"), dtype=np.uint8)
    digits = text[:, :-1]
    np.not_equal(blocks, 0, out=digits.view(np.bool_))
    digits += ord("0")
    with open(path, "wb") as fh:
        fh.write(text.data)
