"""Sparse bipartite Tanner graphs: progressive edge growth construction,
prefix girth analysis, and alist file I/O.

The mother parity-check matrix is grown column by column so that every
column prefix is itself a valid PEG graph.  Rate adaptation elsewhere in
the package works by taking the first n' columns of the mother matrix,
so prefix quality (girth) is a first-class concern here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

ACYCLIC = float("inf")  # sentinel girth for cycle-free prefixes


class AlistParseError(ValueError):
    """Raised when an alist file is malformed; message carries the line number."""


@dataclass(frozen=True)
class DegreeProfile:
    """Per-column variable-node degrees of the mother matrix."""

    column_degrees: np.ndarray

    def __post_init__(self):
        degs = np.asarray(self.column_degrees, dtype=np.int64)
        if degs.ndim != 1 or degs.size == 0:
            raise ValueError("degree profile must be a nonempty 1-D sequence")
        if np.any(degs < 2):
            raise ValueError("every column degree must be >= 2")
        object.__setattr__(self, "column_degrees", degs)

    def __len__(self):
        return int(self.column_degrees.size)

    @staticmethod
    def interleaved_4_5(num_vars: int) -> "DegreeProfile":
        """Alternating degree-4 / degree-5 columns.

        Interleaving keeps the 4/5 mix intact in every prefix, which matters
        because prefixes are used as codes in their own right.
        """
        degs = np.where(np.arange(num_vars) % 2 == 0, 4, 5)
        return DegreeProfile(degs)

    @staticmethod
    def uniform(num_vars: int, degree: int) -> "DegreeProfile":
        return DegreeProfile(np.full(num_vars, degree, dtype=np.int64))


@dataclass(eq=False)
class ParityMatrix:
    """Sparse m x n parity-check matrix in column-major adjacency form.

    ``col_indptr``/``col_indices`` are CSR-style: column j is adjacent to
    check nodes ``col_indices[col_indptr[j]:col_indptr[j+1]]``, strictly
    increasing, no duplicates.
    """

    num_checks: int
    num_vars: int
    col_indptr: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self):
        self.col_indptr = np.asarray(self.col_indptr, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int32)
        m, n = self.num_checks, self.num_vars
        if not (0 < m < n):
            raise ValueError("need 0 < num_checks < num_vars")
        if self.col_indptr.shape != (n + 1,) or self.col_indptr[0] != 0:
            raise ValueError("col_indptr must have length num_vars+1 and start at 0")
        if self.col_indptr[-1] != self.col_indices.size:
            raise ValueError("col_indptr end does not match edge count")
        if self.col_indices.size and (
            self.col_indices.min() < 0 or self.col_indices.max() >= m
        ):
            raise ValueError("check index out of range")
        # strictly increasing within each column <=> no duplicates
        if self.col_indices.size > 1:
            edge_col = np.repeat(np.arange(n), np.diff(self.col_indptr))
            same_col = edge_col[1:] == edge_col[:-1]
            if np.any((np.diff(self.col_indices) <= 0) & same_col):
                raise ValueError("column adjacency must be strictly increasing")

    @property
    def num_edges(self) -> int:
        return int(self.col_indices.size)

    def column_degrees(self) -> np.ndarray:
        return np.diff(self.col_indptr)

    def column(self, j: int) -> np.ndarray:
        return self.col_indices[self.col_indptr[j]:self.col_indptr[j + 1]]

    def __eq__(self, other):
        if not isinstance(other, ParityMatrix):
            return NotImplemented
        return (
            self.num_checks == other.num_checks
            and self.num_vars == other.num_vars
            and np.array_equal(self.col_indptr, other.col_indptr)
            and np.array_equal(self.col_indices, other.col_indices)
        )


class MatrixPrefix:
    """The first ``width`` columns of a mother matrix (the effective matrix).

    Width must exceed the check count, otherwise the code rate would be <= 0.
    The decoder's edge layout (``edges``) is built lazily and cached; a
    prefix is immutable and safe to share between threads.
    """

    def __init__(self, matrix: ParityMatrix, width: int):
        if not matrix.num_checks < width <= matrix.num_vars:
            raise ValueError(
                f"prefix width must be in ({matrix.num_checks}, {matrix.num_vars}]"
            )
        self.matrix = matrix
        self.width = int(width)
        self._edges = None

    @property
    def num_checks(self) -> int:
        return self.matrix.num_checks

    @property
    def edges(self) -> "PrefixEdges":
        if self._edges is None:
            self._edges = PrefixEdges(self.matrix, self.width)
        return self._edges

    def __repr__(self):
        return (
            f"MatrixPrefix({self.matrix.num_checks}x{self.matrix.num_vars}, "
            f"width={self.width})"
        )


class PrefixEdges:
    """The decoder's edge layout of a prefix: edges in check-slot order.

    ``checks`` lists the checks with an edge in the prefix by degree,
    highest first, ties in check order.  Slot k of a check is its k-th edge
    in column order.  The edges are stored slot by slot: slot k holds one
    edge of every check with more than k edges, in ``checks`` order, so it
    is a run over a leading part of ``checks``.  The first ``full_slots``
    slots (the least check degree) hold every check and form one
    (full_slots, checks) block; ``partial_slots`` lists the (start, count)
    of each later slot's run.  ``edge_var`` is each edge's variable.  The
    decoder reduces over the slots (``codec`` module docstring).

    The decoder sums a variable's messages slot by slot: ``var_slots`` is a
    tuple of (columns, slots) groups, where row k of the (degree, columns)
    table ``slots`` holds the position of each column's k-th edge.
    ``columns`` is an index array, or ``slice(None)`` when the group is
    every column.  Columns of degree 1 to 8 share one group, short columns
    padded with ``num_edges`` (a message slot that is always 0); each degree
    above 8 has a group of its own, since there the decoder's addition order
    depends on the degree (``codec`` module docstring).  Columns of degree 0
    are in no group.  Every index array is intp, so ``np.take`` uses it
    without a conversion.
    """

    def __init__(self, matrix: ParityMatrix, width: int):
        end = int(matrix.col_indptr[width])
        edge_check = matrix.col_indices[:end]
        degs = np.diff(matrix.col_indptr[: width + 1])
        check_deg = np.bincount(edge_check)
        self.num_edges = end
        self.checks = np.argsort(-check_deg, kind="stable")[: np.count_nonzero(check_deg)]
        # checks per slot: slot k holds the checks of degree > k
        per_deg = np.bincount(check_deg[self.checks])
        sizes = np.cumsum(per_deg[::-1])[::-1][1:]
        starts = np.cumsum(sizes) - sizes
        self.full_slots = int(np.count_nonzero(sizes == self.checks.size))
        self.partial_slots = tuple(
            zip(starts[self.full_slots :].tolist(), sizes[self.full_slots :].tolist())
        )

        # an edge's slot is its rank among its check's edges in column order
        by_check = np.argsort(edge_check, kind="stable")
        first = np.cumsum(check_deg) - check_deg
        rank = np.empty(end, dtype=np.intp)
        rank[by_check] = np.arange(end) - np.repeat(first, check_deg)
        place = np.empty(check_deg.size, dtype=np.intp)  # index in ``checks``
        place[self.checks] = np.arange(self.checks.size)
        pos = starts[rank] + place[edge_check]  # each edge's position, column order
        self.edge_var = np.empty(end, dtype=np.intp)
        self.edge_var[pos] = np.repeat(np.arange(width), degs)

        table = _pad_rows(degs, pos, end)
        high = sorted(set(degs[degs > 8].tolist()))  # np.unique imports numpy.ma
        groups = [np.flatnonzero((degs > 0) & (degs <= 8))]
        groups += [np.flatnonzero(degs == d) for d in high]
        self.var_slots = tuple(
            (
                slice(None) if cols.size == width else cols,
                np.ascontiguousarray(table[cols, : degs[cols].max()].T),
            )
            for cols in groups
            if cols.size
        )


def _members(bits: int, count: int) -> list[int]:
    """The bit numbers of ``bits``, which has ``count`` of them, increasing."""
    # on a shared 2-vCPU host the loop took 0.35-0.75 us a member at
    # m = 1024-4096 and numpy a flat 8-20 us: they cross at 24-30 members
    if count <= 24:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    size = (bits.bit_length() + 7) >> 3
    raw = np.frombuffer(bits.to_bytes(size, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0].tolist()


def peg_construct(
    num_checks: int, num_vars: int, profile: DegreeProfile, seed: int
) -> ParityMatrix:
    """Grow an m x n Tanner graph by progressive edge growth, column by column.

    A column's first edge goes to any check; each further edge goes to a
    check that a BFS from the column leaves unreached if there is one, else
    to a check on the BFS's deepest level.  Ties go to the least current
    check degree, then to the lowest rank in the seed's permutation, so the
    result is deterministic for fixed inputs.

    Sets of checks are Python ints, bit r for the check of rank r.
    ``bycnt[d]`` is the set of checks with d edges so far and ``near[r]``
    the set that shares a placed column with r.  Each edge's BFS levels
    extend the previous edge's from its one new check (README, "Notes on
    the construction").
    """
    m, n = int(num_checks), int(num_vars)
    if len(profile) != n:
        raise ValueError("profile length must equal num_vars")
    if n <= m:
        raise ValueError("num_vars must exceed num_checks (rate would be <= 0)")
    degs = profile.column_degrees
    if int(degs.max()) > m:
        raise ValueError("column degree exceeds number of check nodes")

    perm = np.random.default_rng(seed).permutation(m).tolist()
    every = (1 << m) - 1
    near = [0] * m  # about m^2 / 8 bytes: 170 KB at m = 1024, 2.4 MB at 4096
    bycnt = [every]  # no check has an edge yet
    low_cnt = 0  # bycnt[:low_cnt] are empty, and stay so: counts only grow

    def extend(levels: list[int], c: int) -> tuple[int, list[int]]:
        """(candidates, levels) of the column's checks once check ``c`` (a
        bit) joins them, from their cumulative reached ``levels`` before."""
        reached, fresh, last = levels[0] | c, c, len(levels) - 1
        out = [reached]
        while True:
            known = reached | levels[min(len(out), last)]
            unreached = every ^ known
            size, left = fresh.bit_count(), unreached.bit_count()
            # each way lists its set and does one big-int op a member; PEG
            # on the 1024x5120 mother (shared 2-vCPU host, medians of 6) took
            # 0.68 s going bottom-up past 1x, 0.70 s past 2x, 0.76 s past 4x
            # and 0.81 s past 8x
            if size > left:  # bottom-up: drop the checks that miss it
                new = unreached
                for u in _members(unreached, left):
                    if not near[u] & fresh:
                        new ^= 1 << u
            else:
                members = _members(fresh, size)
                new = reduce(or_, map(near.__getitem__, members), 0) & unreached
            if known | new == reached:
                return every ^ reached, out
            reached = known | new
            out.append(reached)
            if reached == every:
                return reached ^ out[-2], out
            fresh = new

    col_indices = []
    for deg in degs.tolist():
        levels, cand, cols = [0], every, []
        for e in range(deg):
            if e:
                cand, levels = extend(levels, low)
            d = low_cnt
            while not cand & bycnt[d]:
                d += 1
            pick = cand & bycnt[d]
            low = pick & -pick
            bycnt[d] ^= low
            if d + 1 == len(bycnt):
                bycnt.append(0)
            bycnt[d + 1] |= low
            while not bycnt[low_cnt]:
                low_cnt += 1
            for r in cols:
                near[r] |= low
            r = low.bit_length() - 1
            near[r] |= levels[0]
            cols.append(r)
        col_indices += sorted(perm[r] for r in cols)
    col_indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    return ParityMatrix(m, n, col_indptr, col_indices)


def _pad_rows(lens: np.ndarray, values: np.ndarray, pad: int) -> np.ndarray:
    """(rows, max length) table of the CSR rows of ``values``, padded with ``pad``.

    Row i holds the next ``lens[i]`` entries of ``values``, then ``pad``.
    """
    table = np.full((lens.size, int(lens.max())), pad, dtype=values.dtype)
    table[np.arange(table.shape[1]) < lens[:, None]] = values
    return table


def girth_profile(matrix: ParityMatrix, widths) -> list[tuple[int, float]]:
    """Girth of each prefix width, widths strictly increasing in (m, n].

    The girth is an even integer >= 4, or ``ACYCLIC`` (inf) when no cycle
    exists.  One pass over the columns: every cycle is closed by its last
    column j, so the girth of width w is the least, over j < w, of the
    shortest cycle that j closes (``_closed_cycle``).  ``near[c]`` is the
    set of checks within one hop of check c over the columns so far, c
    included: a Python int, bit c for check c, as in ``peg_construct``.
    """
    widths = [int(w) for w in widths]
    if not widths:
        raise ValueError("widths must be nonempty")
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly increasing")
    m = matrix.num_checks
    if widths[0] <= m or widths[-1] > matrix.num_vars:
        raise ValueError(f"widths must lie in ({m}, {matrix.num_vars}]")
    indptr = matrix.col_indptr[: widths[-1] + 1].tolist()
    checks = matrix.col_indices[: indptr[-1]].tolist()
    near = [1 << c for c in range(m)]
    out, best = [], ACYCLIC
    for j in range(widths[-1]):
        col = checks[indptr[j] : indptr[j + 1]]
        if best > 4 and len(col) > 1:
            best = _closed_cycle(near, col, best)
        own = sum(1 << c for c in col)
        for c in col:
            near[c] |= own
        if j + 1 == widths[len(out)]:
            out.append((j + 1, best))
    return out


def _closed_cycle(near: list[int], col: list[int], best):
    """min(``best``, the shortest cycle closed by a column with checks ``col``).

    That cycle is 2(1 + d) long, d the least hop distance between two
    checks of ``col`` (a hop joins two checks of one column).  At radius r,
    ``inner`` and ``outer`` hold the balls of radius r - 1 and r around
    each check.  d = 2r - 1 when an outer ball meets another check's inner
    ball (the inner balls are disjoint by then, so the others' union is the
    union less its own); else d = 2r when the outer balls overlap.  It
    stops before a length that cannot beat ``best``, and when no ball grew.
    """
    inner, outer, length = [1 << c for c in col], [near[c] for c in col], 4
    while length < best and outer != inner:  # length is 4r
        union = reduce(or_, inner)
        if any(o & (union ^ i) for o, i in zip(outer, inner)):
            return length
        if length + 2 < best and (
            reduce(or_, outer).bit_count() < sum(o.bit_count() for o in outer)
        ):
            return length + 2
        length += 4
        if length < best:  # grow the balls only for a test that will read them
            shells = [o ^ i for o, i in zip(outer, inner)]
            inner, outer = outer, [
                reduce(or_, map(near.__getitem__, _members(s, s.bit_count())), o)
                for s, o in zip(shells, outer)
            ]
    return best


def save_alist(matrix: ParityMatrix, path) -> None:
    """Write the matrix in alist text format (1-based, zero-padded rows)."""
    if matrix.num_edges == 0:
        raise ValueError("an alist file cannot hold a matrix with no edges")
    m, n = matrix.num_checks, matrix.num_vars
    col_degs = matrix.column_degrees()
    row_degs = np.bincount(matrix.col_indices, minlength=m)
    edge_col = np.repeat(np.arange(n, dtype=np.int32), col_degs)
    cols_by_check = edge_col[np.argsort(matrix.col_indices, kind="stable")]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {m}\n{col_degs.max()} {row_degs.max()}\n")
        np.savetxt(fh, [col_degs], fmt="%d")
        np.savetxt(fh, [row_degs], fmt="%d")
        # the entries, 1-based with 0 as padding
        np.savetxt(fh, _pad_rows(col_degs, matrix.col_indices + 1, 0), fmt="%d")
        np.savetxt(fh, _pad_rows(row_degs, cols_by_check + 1, 0), fmt="%d")


def _ints(line: str, lineno: int) -> list[int]:
    toks = line.split()
    # plain ASCII digits only: int() would also take "+1", "-0" and "0_2"
    digits = "".join(toks)
    if toks and not (digits.isascii() and digits.isdigit()):
        raise AlistParseError(f"line {lineno}: token is not a decimal number")
    return list(map(int, toks))


def load_alist(path) -> ParityMatrix:
    """Parse an alist file back into a ParityMatrix.

    Accepts both zero-padded and unpadded entry lines.  Raises
    AlistParseError naming the offending line on any inconsistency.  The
    header lines are read one at a time; the n + m entry lines are parsed
    and checked as whole arrays by ``_parse_entries``.
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
    return _parse_entries(lines[4:], n, m, col_deg, row_deg)


def _parse_entries(lines, n, m, col_deg, row_deg) -> ParityMatrix:
    """The matrix of the n column and m row entry lines, (number, text) pairs.

    AlistParseError names the first line that a check flags, with the
    message of its first failing check: a token that is not ASCII digits;
    an entry count other than the declared degree; in a column, an index
    outside 1..m, then a repeated check; in a row, entries that disagree
    with the column section.  The columns are checked in full before the
    rows, and only the lines before the first bad token are parsed.
    """
    body = "\n".join(text for _, text in lines) + "\n"
    # splitlines() took the other blanks; str.split() also splits at \x1f
    bad = re.search(r"[^0-9 \t\x1f\n]", body)
    cut = body.rfind("\n", 0, bad.start()) + 1 if bad else len(body)
    good = body.count("\n", 0, cut)  # the lines before the first bad token
    # a -1 ends each line's values: a value's line counts the -1s before it
    ents = np.fromstring(
        body[:cut].replace("\n", " -1 ").replace("\x1f", " "), dtype=np.int64, sep=" "
    )
    del body  # freed before the arrays below, which set the load's peak memory
    line = np.cumsum(ents < 0)[ents > 0]
    # 0-based entries, big - 1 standing for every value past n and m (an
    # int64-saturated token too), so that (line, entry) keys cannot overflow
    big = max(n, m) + 1
    ents = np.minimum(ents[ents > 0], big) - 1
    cnt = np.bincount(line, minlength=good)
    declared = col_deg + row_deg
    # no line holds ``cut`` entries, so clipping a degree there keeps a mismatch
    miscount = cnt != np.array([min(d, cut) for d in declared[:good]], dtype=np.int64)

    def refuse(start, stop, checks):
        """Raise at the first line from ``start`` that a (flags, message)
        check flags, else at the first bad token if it is before ``stop``."""
        flagged = np.logical_or.reduce([flags for flags, _ in checks])
        if flagged.any():
            k = int(flagged.argmax())
            why = next(msg for flags, msg in checks if flags[k])
            why = why.format(k, cnt[start + k], declared[start + k])
            raise AlistParseError(f"line {lines[start + k][0]}: {why}")
        if good < stop:
            raise AlistParseError(f"line {lines[good][0]}: token is not a decimal number")

    split = int(cnt[:n].sum())
    col_line, col_ents = line[:split], ents[:split]
    keys = np.sort(col_line * big + col_ents)  # (column, check), sorted
    ncol = min(good, n)
    refuse(0, n, [
        (miscount[:n], "column {0} has {1} entries, declared {2}"),
        (np.bincount(col_line[col_ents >= m], minlength=ncol) > 0,
         f"check index out of range 1..{m}"),
        (np.bincount(keys[1:][keys[1:] == keys[:-1]] // big, minlength=ncol) > 0,
         "duplicate check index in column {0}"),
    ])
    checks = keys % big
    matrix = ParityMatrix(m, n, np.concatenate(([0], np.cumsum(cnt[:n]))), checks)
    given = np.sort((line[split:] - n) * big + ents[split:])
    # the (check, column) keys, sorted; built in place, to keep the peak down
    want = checks * big
    want += keys // big
    want.sort()
    # the two line up to the first row whose length differs from its check's
    disagree = cnt[n:] != np.bincount(checks, minlength=m)[: good - n]
    k = min(given.size, want.size)
    disagree[given[:k][given[:k] != want[:k]] // big] = True
    refuse(n, n + m, [
        (miscount[n:], "row {0} has {1} entries, declared {2}"),
        (disagree, "row {0} disagrees with column section"),
    ])
    return matrix
