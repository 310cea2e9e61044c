"""Syndrome encoding and belief-propagation syndrome decoding over a BSC.

Only the m-bit syndrome of a key block ever crosses the classical channel:
Alice sends s = H'x (mod 2) computed over the effective-matrix prefix H',
and Bob runs sum-product decoding on his noisy copy y with the target
syndrome folded into the check-node updates.  The decoder is a flooding
schedule with the exact tanh-product check rule; a batch kernel decodes
many independent frames at once, which is what makes the Monte-Carlo
characterization affordable in pure numpy.

Message layout: the variable-to-check and check-to-variable messages are
C-contiguous (edges, frames) float64 arrays, frames innermost, with the
edges in ``PrefixEdges``' check-slot order for the whole decode, in buffers
allocated once per block.  Slot k holds the k-th edge of every check with
more than k edges, and the checks go by degree, highest first, so the first
``full_slots`` slots are one (slots, checks, frames) block and each later
(partial) slot is a run over the leading checks.  A per-check product is
then one ``multiply.reduce`` over axis 0 of the block, then one multiply
per partial slot into its leading checks; signed by the target bit, it
divides each slot's messages by broadcasting, with no gather back to the
edges.  The product takes a check's edges in column order, left to right,
as ``multiply.reduceat`` over a check-major segment did: an axis-0 reduce
multiplies its rows one after another, and a partial slot multiplies onto
that product.  So every product, and every hard decision, is the same bit
for bit as in the check-major kernel this one replaced.  New messages come
back as the posterior gathered to the edges (``edge_var``) minus the check
message.  Every gather is ``np.take(..., axis=0)`` with an intp index, which
copies a row of frames per edge.

Two message buffers: ``tanh`` runs in place over v2c, whose value before
it is never read again (the variable update rebuilds v2c from the
posterior), and the division and ``arctanh`` write straight into c2v,
whose old value is dead once v2c = posterior - c2v has been formed.  At
iteration 0 that subtraction and v2c's clamp are identities (c2v is 0 and
|prior| is within the clamp), and after the last iteration v2c is never
read, so both run only in between.

The tanh floor: each |tanh| is raised to ``_TANH_FLOOR`` so that the
extrinsic division stays finite.  The floor's two passes (``maximum`` and
``copysign``) are identities when no |tanh| is under it, and so is the
exact per-edge test for that, which is skipped unless some check's product
is under 2 * ``_TANH_FLOOR``: every factor of a product is at most 1 in
magnitude and rounding is monotone, so a product is never larger than any
of its factors.  When the test floors a |tanh|, the product is taken again.
A |tanh| that small comes with a prior or a check message near 0 (a
crossover prior near 0.5, say); a product that small also comes with a
check of high degree, where the test then finds nothing to floor.

Clamps: no clip comes before ``arctanh``.  Each extrinsic ratio is at
most 1 in magnitude, by the same monotone rounding, and, give or take
rounding, at most tanh(_LLR_CLAMP / 2) = 1 - 2.8e-11, except at a check of
degree 1, which divides its product by itself: exactly +-1, whose
``arctanh`` is +-inf.  The c2v clamp maps that to +-_LLR_CLAMP / 2, as it
maps the +-17.6 that a clip to +-(1 - 1e-15) before ``arctanh`` would give,
so such a clip never changes a message.  At a check of degree 3 or more
each ratio is at most tanh(_LLR_CLAMP / 2) squared, whose ``arctanh`` is
12.2, so the c2v clamp runs only when some check has 1 or 2 edges
(``full_slots`` < 3).

Variable update: each column's check messages are summed slot by slot.
Slot k of a ``PrefixEdges.var_slots`` table is every column's k-th edge,
taken straight from the check messages, and short columns read one extra
message row that is always 0.  The sum of a column's d messages x0 ..
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
pass of an iteration streams one or both of the two message buffers, and a
block's buffers (23040 edges x 4 frames x 8 B x 2 = 1.5 MB on the 1024x5120
mother) fit in one core's 2 MiB L2, where a 64-frame batch's (24 MB) spill
to memory on every pass.  Frames are independent, so blocking changes no
result.  A frame that converges leaves the block: the frames still active
are the leading (edges, frames) array of each flat buffer.

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
edge's variable.  The candidate syndrome is then the parity of ``v2c < 0``
over each check's edges, with no hard-decision array and no second gather:
one ``bitwise_xor.reduce`` over the full slots and one XOR per partial
slot, the same reduction as the check product.  ``encode_syndrome_batch``
takes a key's parity the same way.  Target 1-bits on checks with no edge in
the prefix are counted once per frame, since no key meets them.  Iteration
0 runs the same check on the gathered prior, which is negative exactly
where the received bit is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tanner import MatrixPrefix

# |tanh| floor keeps the extrinsic division finite when a message is ~0
_TANH_FLOOR = 1e-12
# every prior and message LLR is clamped to +-_LLR_CLAMP
_LLR_CLAMP = 25.0
# frames per decoder block: a block's two (edges, frames) float64 message
# buffers stay in a core's 2 MiB L2 (1.5 MB on a 1024x5120 mother).  On
# five 64-frame cells of that mother, with four buffers, 2 to 8 frames per
# block decoded within a few percent of each other, 1 and 16 about 10%
# slower and the whole batch at once about 35% slower; with two, 2 and 8
# frames were still not faster than 4 (0.58 and 0.59 s of CPU against
# 0.48 s, medians of 4 alternating runs).
_FRAME_BLOCK = 4
# keys per syndrome-encoding chunk: a chunk gathers an (edges, 16) uint8
# array (0.37 MB at 23040 edges), not one for the whole batch.  Encoding
# 256 keys of the 1024x5120 mother took 1.8 ms in chunks of 16, 2.1 ms in
# 32 and 4.7 ms in one piece.
_ENCODE_CHUNK = 16


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
    out = np.zeros((keys.shape[0], prefix.num_checks), dtype=np.uint8)
    # a chunk's (edges, rows) key bits, not the whole batch's, are gathered
    for s in range(0, keys.shape[0], _ENCODE_CHUNK):
        chunk = np.ascontiguousarray(keys[s : s + _ENCODE_CHUNK].T)
        bits = np.take(chunk, e.edge_var, axis=0)
        out[s : s + _ENCODE_CHUNK, e.checks] = (
            _check_reduce(np.bitwise_xor, e, bits) & 1
        ).T
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
    """out[k] = src[idx[k]], written C-contiguous into ``out``.

    The indices come from ``PrefixEdges`` and are always in range; mode
    "clip" only lets ``np.take`` write into ``out`` without a buffered copy.
    """
    np.take(src, idx, axis=0, out=out, mode="clip")


def _slot_sum(src: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Sums of the rows ``src[slots[k]]`` over k, x0 + S with S pairwise.

    x0 is slot 0 and S is ``_pairwise_sum`` of the other slots: the order
    in which ``add.reduceat`` sums a segment (module docstring).
    """
    out = np.take(src, slots[0], axis=0)
    if len(slots) > 1:
        out += _pairwise_sum(src, slots[1:])
    return out


def _pairwise_sum(src: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Sum of the terms ``src[slots[k]]``, in numpy's pairwise order.

    Fewer than 8 terms: left to right.  8 to 128: eight running sums over
    whole blocks of 8 terms, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover terms one by one.  More: the two halves, split at a
    multiple of 8, summed recursively.
    """
    n = len(slots)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(src, slots[:half]) + _pairwise_sum(src, slots[half:])
    term = np.empty((slots.shape[1], src.shape[1]))
    if n < 8:
        acc, rest = np.take(src, slots[0], axis=0), slots[1:]
    else:
        r = [np.take(src, k, axis=0) for k in slots[:8]]
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


def _full_block(e, x: np.ndarray) -> np.ndarray:
    """The first ``e.full_slots`` slots of the (edges, frames) array ``x``,
    as a (slots, checks, frames) view."""
    return x[: e.full_slots * e.checks.size].reshape(
        e.full_slots, e.checks.size, x.shape[1]
    )


def _check_reduce(ufunc, e, x: np.ndarray) -> np.ndarray:
    """(checks, frames): ``ufunc`` over each check's edges of ``x``, slot 0 first.

    One axis-0 reduce over the full slots, then one call per partial slot
    on the leading checks it holds.
    """
    acc = ufunc.reduce(_full_block(e, x), axis=0)
    for start, count in e.partial_slots:
        ufunc(acc[:count], x[start : start + count], out=acc[:count])
    return acc


def _syndrome_mismatch(e, signed, neg, target, absent_miss) -> np.ndarray:
    """Per frame, the number of checks whose candidate syndrome bit misses.

    ``signed`` holds one value per edge and frame that is negative exactly
    when the edge's variable is a 1; the candidate syndrome is the parity of
    those signs per check of ``e.checks``, compared with ``target`` (the
    target on those checks).  ``absent_miss`` adds each frame's target
    1-bits on checks with no edge in the prefix, which no key can satisfy.
    """
    np.less(signed, 0, out=neg)
    cand = _check_reduce(np.bitwise_xor, e, neg.view(np.uint8))
    return np.count_nonzero(cand != target, axis=0) + absent_miss


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


def _frames(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The frames at indices ``keep`` of the (rows, frames) array ``x``,
    C-contiguous.

    One strided copy per frame: ``take`` or ``compress`` on axis 1 copy
    element by element, and took 0.30-0.42 ms on a (23040, 4) block
    against 0.07 ms for this (2-vCPU host, numpy 2.4).
    """
    out = np.empty((x.shape[0], keep.size), dtype=x.dtype)
    for k, j in enumerate(keep.tolist()):
        out[:, k] = x[:, j]
    return out


def _decode_block(e, noisy, target, half_prior: float, max_iterations: int):
    """``_decode_batch`` on a few frames, every message in half-LLR units."""
    B, E = noisy.shape[0], e.num_edges
    hard = noisy.astype(np.uint8)
    iters = np.zeros(B, dtype=np.int64)
    unsat = np.zeros(B, dtype=np.int64)
    # every per-frame array below is (rows, frames), frames innermost
    present = np.ascontiguousarray(target[:, e.checks].T)
    absent_miss = np.count_nonzero(target, axis=1) - np.count_nonzero(present, axis=0)
    sgn_syn = 1.0 - 2.0 * present.astype(np.float64)
    prior = post = half_prior * (1.0 - 2.0 * hard.T.astype(np.float64, order="C"))
    # the two edge message buffers, reused across iterations: the first n
    # frames' worth of each is the (edges, n) array of the n frames still
    # active.  Iteration 0 only checks the received block: its posterior is
    # the prior, whose sign is the received bit, and its c2v is 0, so v2c
    # stays the prior.
    v2c_buf = np.empty(E * B)
    # one more row, kept 0: the slot tables' padding reads it
    c2v_buf = np.zeros((E + 1) * B)
    neg_buf = np.empty(E * B, dtype=np.bool_)
    # only a check of degree 1 or 2 can send a message past the clamp
    clamp_c2v = e.full_slots < 3
    active = np.arange(B)
    _gather(prior, e.edge_var, v2c_buf.reshape(E, B))

    for it in range(max_iterations + 1):
        n = active.size
        if n == 0:  # every frame converged, or the batch is empty
            break
        v2c, neg = v2c_buf[: E * n].reshape(E, n), neg_buf[: E * n].reshape(E, n)
        c2v_pad = c2v_buf[: (E + 1) * n].reshape(E + 1, n)
        c2v_pad[E] = 0.0
        c2v = c2v_pad[:E]
        if it:
            # check update: extrinsic tanh product, syndrome sign folded in;
            # tanh(v2c) of a half-LLR message is tanh(LLR / 2), taken in
            # place, since v2c is rebuilt from the posterior below
            np.tanh(v2c, out=v2c)
            prod = _check_reduce(np.multiply, e, v2c)
            if np.abs(prod).min(initial=1.0) < 2 * _TANH_FLOOR:
                # some |tanh| may be under the floor; c2v is free until
                # the division below
                np.abs(v2c, out=c2v)
                if c2v.min(initial=1.0) < _TANH_FLOOR:
                    np.maximum(c2v, _TANH_FLOOR, out=c2v)
                    np.copysign(c2v, v2c, out=v2c)
                    prod = _check_reduce(np.multiply, e, v2c)
            prod *= sgn_syn
            np.divide(prod, _full_block(e, v2c), out=_full_block(e, c2v))
            for start, count in e.partial_slots:
                run = slice(start, start + count)
                np.divide(prod[:count], v2c[run], out=c2v[run])
            # a degree-1 check divides its product by itself: +-1, +-inf
            with np.errstate(divide="ignore"):
                np.arctanh(c2v, out=c2v)
            if clamp_c2v:
                np.clip(c2v, -0.5 * _LLR_CLAMP, 0.5 * _LLR_CLAMP, out=c2v)

            # variable update: each column's check messages, slot by slot;
            # a column no check touches keeps its prior
            post = prior.copy()
            for cols, slots in e.var_slots:
                post[cols] += _slot_sum(c2v_pad, slots)
            _gather(post, e.edge_var, v2c)

        # v2c holds the posterior per edge until c2v is subtracted; that is
        # an identity at iteration 0, and dead after the last one
        miss = _syndrome_mismatch(e, v2c, neg, present, absent_miss)
        if 0 < it < max_iterations:
            np.subtract(v2c, c2v, out=v2c)
            np.clip(v2c, -0.5 * _LLR_CLAMP, 0.5 * _LLR_CLAMP, out=v2c)

        done = miss == 0
        if np.any(done):
            rows = active[done]
            hard[rows] = (post[:, done] < 0).T
            iters[rows] = it
            keep = np.flatnonzero(~done)
            active = active[keep]
            prior, sgn_syn = _frames(prior, keep), _frames(sgn_syn, keep)
            present, absent_miss = _frames(present, keep), absent_miss[keep]
            kept = _frames(v2c, keep)
            v2c_buf[: kept.size] = kept.ravel()
            post, miss = _frames(post, keep), miss[keep]

    if active.size:
        # non-converged frames keep their last hard decision
        hard[active] = (post < 0).T
        iters[active] = max_iterations
        unsat[active] = miss
    return hard, unsat == 0, iters, unsat


# the bytes ``str.strip()`` removes from an ASCII line
_KEY_SPACE = np.zeros(256, dtype=np.bool_)
_KEY_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def read_key_blocks(path, width: int | None = None) -> np.ndarray:
    r"""Read ASCII '0'/'1' key blocks, one block per line, equal lengths.

    Lines end at ``\n``, ``\r\n`` or a lone ``\r``.  Each line is stripped
    of the whitespace ``str.strip()`` removes (space, ``\t``, ``\x0b``,
    ``\x0c``, ``\x1c``-``\x1f``); blank lines are skipped, and any other
    line must be all 0/1, or the error names its line number.  When
    ``width`` is given every block is validated against it.

    The file is parsed as one byte array: a block is a run of non-space
    bytes, so a line holds at most one run, and in a valid file the digits,
    in file order, are the blocks one after another.
    """
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    bits = raw - np.uint8(ord("0"))
    digit = bits <= 1
    pos = np.flatnonzero(~digit)
    byte = raw[pos]
    is_space = _KEY_SPACE[byte]
    # a line ends at every \n and at every \r not followed by \n
    after = raw[np.minimum(pos + 1, raw.size - 1)]
    ends = pos[(byte == 10) | ((byte == 13) & (after != 10))]
    space = pos[is_space]
    starts = np.concatenate(([0], space + 1))
    stops = np.concatenate((space, [raw.size]))
    run = stops > starts
    starts, stops = starts[run], stops[run]
    line = np.searchsorted(ends, starts)  # 0-based line of each run
    bad = np.concatenate((
        line[1:][line[1:] == line[:-1]],  # a second run: whitespace inside
        np.searchsorted(ends, pos[~is_space]),  # neither 0/1 nor space
    ))
    if bad.size:
        raise ValueError(f"{path}:{int(bad.min()) + 1}: key lines must be 0/1 strings")
    if not starts.size:
        raise ValueError(f"{path}: no key blocks found")
    lengths = stops - starts
    if np.any(lengths != lengths[0]):
        raise ValueError(
            f"{path}: blocks have inconsistent lengths {sorted(set(lengths.tolist()))}"
        )
    if width is not None and lengths[0] != width:
        raise ValueError(
            f"{path}: block length {int(lengths[0])} does not match width {width}"
        )
    return bits[digit].reshape(starts.size, -1)


def write_key_blocks(path, blocks: np.ndarray) -> None:
    """Write key blocks as ASCII lines of '0'/'1'; any nonzero value is '1'."""
    blocks = np.atleast_2d(blocks)
    text = np.full((blocks.shape[0], blocks.shape[1] + 1), ord("\n"), dtype=np.uint8)
    digits = text[:, :-1]
    np.not_equal(blocks, 0, out=digits.view(np.bool_))
    digits += ord("0")
    with open(path, "wb") as fh:
        fh.write(text.data)
