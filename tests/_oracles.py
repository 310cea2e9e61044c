"""Reference implementations the optimized library code is checked against.

``CosetOracle`` and friends work on dense bitmask enumerations (n <= ~20),
completely independent of the message-passing decoder under test.
``peg_reference`` is the plain top-down PEG construction that
``raldpc.peg_construct`` must reproduce edge for edge.
"""

import numpy as np

from raldpc import DegreeProfile, ParityMatrix


def dense_parity(prefix) -> np.ndarray:
    """(m, width) dense 0/1 matrix of a prefix."""
    e = prefix.edges
    H = np.zeros((e.num_checks, e.width), dtype=np.uint8)
    H[e.edge_check, e.edge_var] = 1
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
