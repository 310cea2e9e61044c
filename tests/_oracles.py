"""Reference implementations the optimized library code is checked against.

``CosetOracle`` and friends work on dense bitmask enumerations (n <= ~20),
completely independent of the message-passing decoder under test.
``peg_reference`` is the plain top-down PEG construction that
``raldpc.peg_construct`` must reproduce edge for edge, ``girth_reference``
is the per-prefix CSR breadth-first search that ``raldpc.girth_profile``
must agree with, ``decode_batch_reference`` is the sum-product batch
decoder that ``raldpc.codec._decode_batch`` must reproduce output for
output, ``load_alist_reference`` is the line-by-line alist loader
whose matrices and error messages ``raldpc.load_alist`` must reproduce, and
``read_key_blocks_reference`` is the text-mode, line-by-line key-file reader
whose blocks and error messages ``raldpc.read_key_blocks`` must reproduce.
"""

import numpy as np

from raldpc import DegreeProfile, ParityMatrix
from raldpc.codec import _LLR_CLAMP, _TANH_FLOOR, DecoderConfig
from raldpc.tanner import (
    ACYCLIC,
    AlistParseError,
    MatrixPrefix,
    _ints,
    _padded_adjacency,
)

# the reference's clip before ``arctanh``, which ``raldpc.codec`` drops
# because it never changes a message (its module docstring)
_ATANH_CEIL = 1.0 - 1e-15


def prefix_columns(prefix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(col_indptr, col_indices, edge_var): the prefix's column CSR, variable-major.

    ``edge_var`` is the column of each edge of ``col_indices``.
    """
    col_indptr = prefix.matrix.col_indptr[: prefix.width + 1]
    col_indices = prefix.matrix.col_indices[: col_indptr[-1]]
    edge_var = np.repeat(np.arange(prefix.width), np.diff(col_indptr))
    return col_indptr, col_indices, edge_var


def dense_parity(prefix) -> np.ndarray:
    """(m, width) dense 0/1 matrix of a prefix."""
    _, edge_check, edge_var = prefix_columns(prefix)
    H = np.zeros((prefix.num_checks, prefix.width), dtype=np.uint8)
    H[edge_check, edge_var] = 1
    return H


class CosetOracle:
    """Minimum-weight coset-leader decoder by full enumeration.

    Enumerates all 2^n error patterns, records each syndrome's first
    minimum-weight representative, and brute-forces the code's minimum
    distance along the way.
    """

    def __init__(self, H: np.ndarray):
        m, n = H.shape
        if n > 20:
            raise ValueError("oracle is exhaustive; n must stay small")
        self.H = H
        self.n = n
        # syndrome of every n-bit pattern, as an m-bit integer
        colmask = np.zeros(n, dtype=np.uint32)
        for j in range(n):
            colmask[j] = int.from_bytes(
                np.packbits(H[:, j], bitorder="little").tobytes(), "little"
            )
        synd = np.zeros(1 << n, dtype=np.uint32)
        weight = np.zeros(1 << n, dtype=np.uint8)
        for j in range(n):
            block = 1 << (j + 1)
            half = 1 << j
            synd.reshape(-1, block)[:, half:] ^= colmask[j]
            weight.reshape(-1, block)[:, half:] += 1
        self.synd = synd
        self.weight = weight
        codewords = np.flatnonzero(synd == 0)
        nz = codewords[codewords > 0]
        self.min_distance = int(weight[nz].min()) if nz.size else None
        order = np.argsort(weight, kind="stable")
        vals, first = np.unique(synd[order], return_index=True)
        self.leader = {int(v): int(order[f]) for v, f in zip(vals, first)}

    def _syndrome_int(self, bits: np.ndarray) -> int:
        acc = 0
        for j in np.flatnonzero(bits):
            acc ^= int(self.synd[1 << int(j)])
        return acc

    def decode(self, noisy: np.ndarray, target_syndrome: np.ndarray) -> np.ndarray:
        """noisy xor (minimum-weight pattern moving its syndrome to target)."""
        t = int.from_bytes(
            np.packbits(np.asarray(target_syndrome, dtype=np.uint8),
                        bitorder="little").tobytes(),
            "little",
        )
        s = t ^ self._syndrome_int(np.asarray(noisy))
        e_int = self.leader[s]
        e = np.zeros(self.n, dtype=np.uint8)
        for j in range(self.n):
            e[j] = (e_int >> j) & 1
        return np.asarray(noisy, dtype=np.uint8) ^ e


def patterns_of_weight_at_most(n: int, t: int):
    """All n-bit error patterns with 1..t set bits."""
    from itertools import combinations

    for w in range(1, t + 1):
        for pos in combinations(range(n), w):
            e = np.zeros(n, dtype=np.uint8)
            e[list(pos)] = 1
            yield e


def peg_reference(
    num_checks: int, num_vars: int, profile: DegreeProfile, seed: int
) -> ParityMatrix:
    """Grow an m x n Tanner graph by progressive edge growth, column by column.

    The straightforward top-down BFS with masks and ``np.unique`` that
    ``raldpc.peg_construct`` replaced; kept as the reference it must match.

    For each new variable node, the first edge goes to a check of minimum
    current degree; each further edge does a BFS from the variable and
    attaches to an unreached check if one exists, otherwise to a check at
    maximal BFS depth.  Ties are broken by minimum current check degree and
    then by a seed-derived permutation of the check indices, so the result
    is deterministic for fixed inputs.
    """
    m, n = int(num_checks), int(num_vars)
    if len(profile) != n:
        raise ValueError("profile length must equal num_vars")
    if n <= m:
        raise ValueError("num_vars must exceed num_checks (rate would be <= 0)")
    degs = profile.column_degrees
    if int(degs.max()) > m:
        raise ValueError("column degree exceeds number of check nodes")

    rng = np.random.default_rng(seed)
    rank = np.empty(m, dtype=np.int64)
    rank[rng.permutation(m)] = np.arange(m)

    max_col_deg = int(degs.max())
    var_adj = np.full((n, max_col_deg), -1, dtype=np.int32)
    var_cnt = np.zeros(n, dtype=np.int32)
    cap = 8
    check_adj = np.full((m, cap), -1, dtype=np.int32)
    check_cnt = np.zeros(m, dtype=np.int64)

    reached_c = np.zeros(m, dtype=bool)
    reached_v = np.zeros(n, dtype=bool)

    def bfs_candidates(j: int) -> np.ndarray:
        """Checks eligible for the next edge of variable j (PEG rule)."""
        reached_c[:] = False
        reached_v[:] = False
        reached_v[j] = True
        frontier_c = var_adj[j, : var_cnt[j]]
        if frontier_c.size == 0:
            return np.arange(m)
        reached_c[frontier_c] = True
        last_level = frontier_c
        while True:
            rows = check_adj[frontier_c]
            mask = np.arange(cap) < check_cnt[frontier_c, None]
            vs = rows[mask]
            vs = vs[~reached_v[vs]]
            if vs.size == 0:
                break
            new_v = np.unique(vs)
            reached_v[new_v] = True
            rows = var_adj[new_v]
            vmask = np.arange(max_col_deg) < var_cnt[new_v, None]
            cs = rows[vmask]
            cs = cs[~reached_c[cs]]
            if cs.size == 0:
                break
            new_c = np.unique(cs)
            reached_c[new_c] = True
            frontier_c = new_c
            last_level = new_c
        unreached = np.flatnonzero(~reached_c)
        return unreached if unreached.size else last_level

    for j in range(n):
        for _ in range(int(degs[j])):
            cand = bfs_candidates(j)
            key = check_cnt[cand] * (m + 1) + rank[cand]
            c = int(cand[np.argmin(key)])
            var_adj[j, var_cnt[j]] = c
            var_cnt[j] += 1
            if check_cnt[c] == cap:
                check_adj = np.concatenate(
                    [check_adj, np.full((m, cap), -1, dtype=np.int32)], axis=1
                )
                cap *= 2
            check_adj[c, check_cnt[c]] = j
            check_cnt[c] += 1

    # sorting pushes the -1 padding of short columns to the row front
    srt = np.sort(var_adj, axis=1)
    col_indices = srt[srt >= 0]
    col_indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    return ParityMatrix(m, n, col_indptr, col_indices)


def _gather_rows(indptr, indices, rows):
    """Concatenate CSR rows ``rows`` without a Python loop."""
    lens = indptr[rows + 1] - indptr[rows]
    total = int(lens.sum())
    if total == 0:
        return indices[:0]
    pos = np.repeat(np.cumsum(lens) - lens, lens)
    src = np.repeat(indptr[rows], lens) + (np.arange(total) - pos)
    return indices[src]


def girth_reference(prefix: MatrixPrefix):
    """Exact girth of the Tanner graph restricted to the prefix columns.

    The CSR search with mirrored variable and check branches that
    ``raldpc.girth_profile`` replaced; kept as the reference it must match.

    BFS from every variable node; the first BFS level at which some node is
    reached along two distinct edges certifies a cycle of twice that depth,
    and the best value over all roots is the exact girth.  Returns an even
    integer >= 4, or ``ACYCLIC`` (inf) when no cycle exists.
    """
    return _girth_from_roots(prefix, 0, ACYCLIC)


def _girth_from_roots(prefix: MatrixPrefix, first_root: int, best):
    """min(``best``, shortest cycle found by BFS from roots first_root..width-1).

    Every root's value is at least the prefix girth, and the shortest cycle
    through a root is found from it, so with ``best`` the girth of the first
    ``first_root`` columns the result is the girth of the whole prefix.
    """
    m, w = prefix.num_checks, prefix.width
    col_indptr, col_indices, edge_var = prefix_columns(prefix)
    row_indptr = np.concatenate(([0], np.cumsum(np.bincount(col_indices, minlength=m))))
    row_indices = edge_var[np.argsort(col_indices, kind="stable")]

    visit_c = np.full(m, -1, dtype=np.int64)
    visit_v = np.full(w, -1, dtype=np.int64)
    for root in range(first_root, w):
        if best <= 4:
            break  # bipartite graphs cannot do better
        visit_v[root] = root
        frontier_v = np.array([root], dtype=np.int64)
        frontier_c = None
        depth = 0
        while True:
            depth += 1
            if 2 * depth >= best:
                break
            if depth % 2 == 1:  # variables -> checks
                targets = _gather_rows(col_indptr, col_indices, frontier_v)
                targets = targets[visit_c[targets] != root]
                if targets.size == 0:
                    break
                counts = np.bincount(targets, minlength=m)
                hit = counts.max() >= 2
                frontier_c = np.flatnonzero(counts)
                visit_c[frontier_c] = root
            else:  # checks -> variables
                targets = _gather_rows(row_indptr, row_indices, frontier_c)
                targets = targets[visit_v[targets] != root]
                if targets.size == 0:
                    break
                counts = np.bincount(targets, minlength=w)
                hit = counts.max() >= 2
                frontier_v = np.flatnonzero(counts)
                visit_v[frontier_v] = root
            if hit:
                best = min(best, 2 * depth)
                break
    return int(best) if best != ACYCLIC else ACYCLIC


def check_major(prefix):
    """(edge_var_cm, present_checks, check_first, inv_perm): the prefix's edges
    sorted by (check, variable).

    ``edge_var_cm`` is each check-major edge's variable, ``present_checks``
    the checks with an edge, ``check_first`` where each one's edges start,
    and ``inv_perm`` each column-order edge's check-major position.
    """
    _, edge_check, edge_var = prefix_columns(prefix)
    perm = np.argsort(edge_check, kind="stable")
    counts = np.bincount(edge_check, minlength=prefix.num_checks)
    present = np.flatnonzero(counts)
    check_first = (np.cumsum(counts) - counts)[present]
    return edge_var[perm], present, check_first, np.argsort(perm, kind="stable")


def _batch_syndrome_mismatch(prefix, cm, hard, target) -> np.ndarray:
    """Per frame, the checks where the syndrome of ``hard`` misses ``target``.

    The syndrome is the parity of each present check's key bits over the
    check-major arrays ``cm``; an absent check's syndrome bit is 0.
    """
    edge_var_cm, present, check_first, _ = cm
    syn = np.zeros((hard.shape[0], prefix.num_checks), dtype=np.uint8)
    bits = np.take(hard, edge_var_cm, axis=1)
    syn[:, present] = np.bitwise_xor.reduceat(bits, check_first, axis=1) & 1
    return np.count_nonzero(syn != target, axis=1)


def _gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """out[:, k] = src[:, idx[k]], written C-contiguous into ``out``.

    The indices are always in range; mode "clip" only lets ``np.take`` write
    into ``out`` without a buffered copy.
    """
    np.take(src, idx, axis=1, out=out, mode="clip")


def decode_batch_reference(
    prefix: MatrixPrefix,
    noisy: np.ndarray,
    target: np.ndarray,
    config: DecoderConfig,
    messages: list | None = None,
):
    """Decode a batch of independent frames with one flooding schedule.

    The one-pass kernel that ``raldpc.codec._decode_batch`` replaced: all
    frames in one set of (frames, edges) buffers in check-major edge order
    (``check_major``) at full LLR scale, with the candidate syndrome
    re-encoded from those arrays every iteration.  Kept as the reference
    the blocked kernel must match on all four outputs.

    Returns (hard_keys (B,w) uint8, success (B,), iterations_used (B,),
    unsatisfied (B,)).  Identical in behaviour to decoding each frame alone.
    When ``messages`` is a list, each iteration appends to it a copy of its
    (active frames, edges) check-to-variable messages, in check-major order.
    """
    var_indptr, edge_check, _ = prefix_columns(prefix)
    edge_check_cm = np.sort(edge_check, kind="stable")
    cm = check_major(prefix)
    edge_var_cm, present_checks, check_first, inv_perm = cm
    B = noisy.shape[0]
    p = config.crossover_prior
    prior_mag = min(float(np.log((1.0 - p) / p)), _LLR_CLAMP)

    hard = noisy.astype(np.uint8).copy()
    iters = np.zeros(B, dtype=np.int64)
    unsat = _batch_syndrome_mismatch(prefix, cm, hard, target)
    active = np.flatnonzero(unsat > 0)
    if active.size == 0:
        return hard, unsat == 0, iters, unsat

    prior = prior_mag * (1.0 - 2.0 * noisy[active].astype(np.float64))
    sgn_syn = 1.0 - 2.0 * target[active].astype(np.float64)
    # check-major edge messages, reused across iterations; the first n rows
    # hold the n frames still active
    v2c_buf, t_buf, c2v_buf, ext_buf = (
        np.empty((active.size, edge_check.size)) for _ in range(4)
    )
    full_buf = np.ones((active.size, prefix.num_checks))
    _gather(prior, edge_var_cm, v2c_buf)

    for it in range(1, config.max_iterations + 1):
        n = active.size
        v2c, t, c2v, ext = v2c_buf[:n], t_buf[:n], c2v_buf[:n], ext_buf[:n]
        full = full_buf[:n]

        # check update: extrinsic tanh product, syndrome sign folded in
        np.multiply(v2c, 0.5, out=t)
        np.tanh(t, out=t)
        np.abs(t, out=ext)
        np.maximum(ext, _TANH_FLOOR, out=ext)
        np.copysign(ext, t, out=t)
        # only present checks are refreshed here and gathered below, so the
        # other entries of the reused buffer never matter
        full[:, present_checks] = np.multiply.reduceat(t, check_first, axis=1)
        np.multiply(full, sgn_syn, out=full)
        _gather(full, edge_check_cm, ext)
        np.divide(ext, t, out=ext)
        np.clip(ext, -_ATANH_CEIL, _ATANH_CEIL, out=ext)
        np.arctanh(ext, out=c2v)
        np.multiply(c2v, 2.0, out=c2v)
        np.clip(c2v, -_LLR_CLAMP, _LLR_CLAMP, out=c2v)
        if messages is not None:
            messages.append(c2v.copy())

        # variable update and hard decision; ext holds c2v in variable order
        _gather(c2v, inv_perm, ext)
        post = prior + np.add.reduceat(ext, var_indptr[:-1], axis=1)
        _gather(post, edge_var_cm, v2c)
        np.subtract(v2c, c2v, out=v2c)
        np.clip(v2c, -_LLR_CLAMP, _LLR_CLAMP, out=v2c)
        cand = (post < 0).astype(np.uint8)

        miss = _batch_syndrome_mismatch(prefix, cm, cand, target[active])
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
            v2c_buf[: active.size] = v2c[keep]
            sgn_syn = sgn_syn[keep]
            cand = cand[keep]
            miss = miss[keep]

    if active.size:
        # non-converged frames keep their last hard decision
        hard[active] = cand
        iters[active] = config.max_iterations
        unsat[active] = miss
    return hard, unsat == 0, iters, unsat


def load_alist_reference(path) -> ParityMatrix:
    """Parse an alist file back into a ParityMatrix.

    The line-by-line loader that ``raldpc.load_alist`` replaced; kept as
    the reference whose matrices and error messages it must reproduce.

    Accepts both zero-padded and unpadded entry lines.  Raises
    AlistParseError naming the offending line on any inconsistency.
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln.strip()]
    if len(lines) < 4:
        raise AlistParseError("line 1: file truncated (need at least 4 header lines)")
    ln, first = lines[0]
    head = _ints(first, ln)
    if len(head) != 2 or head[0] <= 0 or head[1] <= 0:
        raise AlistParseError(f"line {ln}: expected 'n m' with positive integers")
    n, m = head
    if n <= m:
        raise AlistParseError(
            f"line {ln}: n = {n} must exceed m = {m} (rate would be <= 0)"
        )
    ln, second = lines[1]
    maxes = _ints(second, ln)
    if len(maxes) != 2:
        raise AlistParseError(f"line {ln}: expected 'max_col_deg max_row_deg'")
    ln, third = lines[2]
    col_deg = _ints(third, ln)
    if len(col_deg) != n:
        raise AlistParseError(f"line {ln}: expected {n} column degrees")
    ln, fourth = lines[3]
    row_deg = _ints(fourth, ln)
    if len(row_deg) != m:
        raise AlistParseError(f"line {ln}: expected {m} row degrees")
    if maxes != [max(col_deg), max(row_deg)]:
        raise AlistParseError(
            f"line {lines[1][0]}: max degrees {maxes[0]} {maxes[1]} disagree with "
            f"the declared degrees (max {max(col_deg)} {max(row_deg)})"
        )
    if maxes == [0, 0]:
        raise AlistParseError(
            f"line {lines[1][0]}: max degrees 0 0: "
            "an alist file cannot hold a matrix with no edges"
        )
    if len(lines) != 4 + n + m:
        raise AlistParseError(
            f"line {lines[-1][0]}: expected {4 + n + m} content lines, got {len(lines)}"
        )
    return _parse_entry_lines(lines[4:], n, m, col_deg, row_deg)


def _parse_entry_lines(lines, n, m, col_deg, row_deg) -> ParityMatrix:
    """The matrix of the n column and m row entry lines, one (line number,
    text) pair at a time, raising AlistParseError at the first bad line."""
    cols = []
    for j in range(n):
        ln, text = lines[j]
        ents = [x for x in _ints(text, ln) if x != 0]
        if len(ents) != col_deg[j]:
            raise AlistParseError(
                f"line {ln}: column {j} has {len(ents)} entries, declared {col_deg[j]}"
            )
        if any(not (1 <= x <= m) for x in ents):
            raise AlistParseError(f"line {ln}: check index out of range 1..{m}")
        if len(set(ents)) != len(ents):
            raise AlistParseError(f"line {ln}: duplicate check index in column {j}")
        cols.append(sorted(x - 1 for x in ents))

    col_indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
    matrix = ParityMatrix(m, n, col_indptr, np.concatenate(cols).astype(np.int32))
    # validate the row section against the column section's check table
    _, check_adj = _padded_adjacency(matrix)
    for i in range(m):
        ln, text = lines[n + i]
        ents = sorted(x - 1 for x in _ints(text, ln) if x != 0)
        if len(ents) != row_deg[i]:
            raise AlistParseError(
                f"line {ln}: row {i} has {len(ents)} entries, declared {row_deg[i]}"
            )
        row = check_adj[i]
        if ents != row[row < n].tolist():
            raise AlistParseError(f"line {ln}: row {i} disagrees with column section")
    return matrix


def read_key_blocks_reference(path, width: int | None = None) -> np.ndarray:
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
