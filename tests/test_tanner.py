import hashlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import raldpc as rl
from raldpc.cli import main
from raldpc.tanner import ACYCLIC, AlistParseError

from _oracles import girth_reference, load_alist_reference, peg_reference
from _strategies import byte_edits


def small_matrix(cols, m):
    """Build a ParityMatrix from explicit column adjacency lists."""
    indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
    indices = np.concatenate([np.asarray(sorted(c), dtype=np.int32) for c in cols])
    return rl.ParityMatrix(m, len(cols), indptr.astype(np.int64), indices)


class TestDegreeProfile:
    def test_interleaved_counts(self):
        prof = rl.DegreeProfile.interleaved_4_5(5120)
        counts = np.bincount(prof.column_degrees)
        assert counts[4] == 2560 and counts[5] == 2560
        # every prefix keeps the mix within one column
        assert prof.column_degrees[0] == 4 and prof.column_degrees[1] == 5

    def test_uniform(self):
        prof = rl.DegreeProfile.uniform(6, 2)
        assert len(prof) == 6
        assert np.all(prof.column_degrees == 2)

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            rl.DegreeProfile(np.array([2, 1, 3]))


class TestPegConstruct:
    def test_degree_sum_identity(self):
        # (m=4, n=6, all-degree-2): 12 edges, 2 distinct checks per column
        m = rl.peg_construct(4, 6, rl.DegreeProfile.uniform(6, 2), seed=0)
        assert m.num_edges == 12
        for j in range(6):
            col = m.column(j)
            assert len(col) == 2 and len(set(col.tolist())) == 2

    def test_deterministic(self):
        prof = rl.DegreeProfile.interleaved_4_5(40)
        a = rl.peg_construct(16, 40, prof, seed=9)
        b = rl.peg_construct(16, 40, prof, seed=9)
        assert a == b

    def test_profile_respected(self):
        prof = rl.DegreeProfile.interleaved_4_5(40)
        m = rl.peg_construct(16, 40, prof, seed=3)
        assert np.array_equal(m.column_degrees(), prof.column_degrees)

    def test_degree_conservation(self):
        m = rl.peg_construct(16, 40, rl.DegreeProfile.interleaved_4_5(40), seed=3)
        row_deg = np.bincount(m.col_indices, minlength=16)
        assert row_deg.sum() == m.column_degrees().sum() == m.num_edges

    def test_rejects_infeasible_degree(self):
        with pytest.raises(ValueError):
            rl.peg_construct(4, 8, rl.DegreeProfile.uniform(8, 5), seed=0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            rl.peg_construct(8, 8, rl.DegreeProfile.uniform(8, 2), seed=0)

    def test_rejects_profile_length_mismatch(self):
        with pytest.raises(ValueError):
            rl.peg_construct(4, 8, rl.DegreeProfile.uniform(6, 2), seed=0)


@st.composite
def peg_codes(draw):
    """(m, n, ragged profile, seed), degrees in 2..m so degree == m occurs."""
    m = draw(st.integers(2, 24))
    n = draw(st.integers(m + 1, 3 * m + 8))
    degs = draw(st.lists(st.integers(2, m), min_size=n, max_size=n))
    return m, n, rl.DegreeProfile(np.asarray(degs)), draw(st.integers(0, 2**32 - 1))


@st.composite
def wide_peg_codes(draw):
    """(m, n, ragged profile, seed) with m up to 150: the check sets of
    ``peg_construct`` span several digits of a Python int and up to 19
    bytes when listed through numpy."""
    m = draw(st.integers(2, 150))
    n = draw(st.integers(m + 1, m + 60))
    # degrees up to 10 keep the reference fast; its BFS still reaches every word
    degs = draw(st.lists(st.integers(2, min(m, 10)), min_size=n, max_size=n))
    return m, n, rl.DegreeProfile(np.asarray(degs)), draw(st.integers(0, 2**32 - 1))


class TestPegReference:
    """``peg_construct`` equals the plain top-down PEG of ``_oracles``."""

    @settings(max_examples=80, deadline=None)
    @given(code=peg_codes())
    # sparse degree-2 columns: early BFS runs exhaust their component, so
    # the candidates are the unreached checks
    @example(code=(16, 40, rl.DegreeProfile.uniform(40, 2), 5))
    # every column touches every check
    @example(code=(5, 9, rl.DegreeProfile.uniform(9, 5), 1))
    # each edge extends the levels of the edge before from its new check:
    # levels that had grown and then stalled (twice), so the new check
    # opens another component
    @example(code=(12, 20, rl.DegreeProfile.uniform(20, 3), 0))
    # extensions that run past the end of the levels before: those levels
    # had stalled, and the new check's own ball goes deeper
    @example(code=(16, 24, rl.DegreeProfile.uniform(24, 3), 1))
    # bottom-up steps on the new check's fresh set, past level 0
    @example(code=(20, 30, rl.DegreeProfile.uniform(30, 3), 2))
    # columns of degree 6 to 9: five to eight extensions each
    @example(code=(12, 18, rl.DegreeProfile.uniform(18, 6), 3))
    @example(code=(9, 14, rl.DegreeProfile.uniform(14, 8), 4))
    @example(code=(24, 40, rl.DegreeProfile(np.resize([6, 2, 9, 3], 40)), 6))
    def test_matches_reference(self, code):
        m, n, profile, seed = code
        assert rl.peg_construct(m, n, profile, seed) == peg_reference(m, n, profile, seed)

    @settings(max_examples=25, deadline=None)
    @given(code=wide_peg_codes())
    # m at and around multiples of 64 and of 8 (whole bytes for numpy)
    @example(code=(63, 200, rl.DegreeProfile.interleaved_4_5(200), 1))
    @example(code=(64, 200, rl.DegreeProfile.uniform(200, 3), 2))
    @example(code=(65, 130, rl.DegreeProfile.uniform(130, 2), 3))
    @example(code=(128, 400, rl.DegreeProfile.interleaved_4_5(400), 4))
    # both level directions, and frontiers listed one bit at a time and
    # through numpy (more than 24 checks): sparse three-word columns, then
    # dense ones whose searches reach every check in two or three levels
    @example(code=(150, 210, rl.DegreeProfile.interleaved_4_5(210), 6))
    @example(code=(100, 150, rl.DegreeProfile.uniform(150, 6), 4))
    # every column of degree 6 to 9, over two words
    @example(code=(70, 100, rl.DegreeProfile(np.resize([6, 9, 7, 8], 100)), 5))
    def test_matches_reference_past_one_word(self, code):
        m, n, profile, seed = code
        assert rl.peg_construct(m, n, profile, seed) == peg_reference(m, n, profile, seed)

    def test_matches_reference_interleaved(self):
        # sparse like the real mother: deep searches that reach every check
        prof = rl.DegreeProfile.interleaved_4_5(400)
        assert rl.peg_construct(40, 400, prof, 11) == peg_reference(40, 400, prof, 11)


class TestGoldenDigest:
    """Full ``matrix_digest`` of fixed PEG codes: construction stays bit-identical."""

    @pytest.mark.parametrize(
        "m, n, profile, seed, digest",
        [
            (64, 256, "interleaved45", 3,
             "911c51b65171ffaa4f7cef8f2ab951d07e4d688d820c53be8d4822d84c86b539"),
            (256, 1280, "interleaved45", 7,
             "7a33ad9d95483dd8efb6924d84e6c87d778ac0fa0c2a17bd0e54da2fb0820697"),
            (64, 256, "uniform3", 3,
             "b1948ebe2e6d139cd78362f2cf119e14c750b633c5f45bc2396777cd5f350b54"),
            (100, 500, "interleaved45", 5,
             "054df395e9b4965c8774bf66a4c176f94ff688f8664a56c07edc58ea8b252ab3"),
        ],
    )
    def test_small_codes(self, m, n, profile, seed, digest):
        prof = (
            rl.DegreeProfile.interleaved_4_5(n)
            if profile == "interleaved45"
            else rl.DegreeProfile.uniform(n, 3)
        )
        assert rl.matrix_digest(rl.peg_construct(m, n, prof, seed)) == digest

    def test_acceptance_mother(self, mother_matrix):
        assert rl.matrix_digest(mother_matrix) == (
            "83bb245f68d31035f2ed21262bff8ab2adfeefbb76f87c59f6581b6c309760c6"
        )

    def test_large_mother(self):
        # 2048x10240: twice the acceptance mother's frame length
        matrix = rl.peg_construct(
            2048, 10240, rl.DegreeProfile.interleaved_4_5(10240), 20260810
        )
        assert rl.matrix_digest(matrix) == (
            "cce9f5fc549da8598cd0f96d35292a2157c6a9c35b908707921666e095da7950"
        )
        assert rl.girth_profile(matrix, [2560, 5120, 10240]) == [
            (2560, 8), (5120, 8), (10240, 6),
        ]


@st.composite
def ragged_codes(draw):
    """(matrix, widths) of a random code that PEG would not build.

    Columns hold at most 2, 3 or 4 random checks, so 4-, 6- and 8-cycles
    occur.  The first ``split`` columns keep only checks from distinct
    connected components, so that prefix is a forest and any cycle comes
    from a later column; ``split`` is among the widths whenever it is a
    valid one.
    """
    m = draw(st.integers(2, 20))
    n = draw(st.integers(m + 1, 2 * m + 8))
    cap = draw(st.integers(2, 4))
    split = draw(st.integers(0, n))
    label = list(range(m))  # connected component of each check
    cols = []
    for j in range(n):
        col = sorted(draw(st.sets(st.integers(0, m - 1), max_size=min(m, cap))))
        if j < split:
            seen = {}
            for c in col:
                seen.setdefault(label[c], c)
            col = sorted(seen.values())
            label = [label[col[0]] if x in seen else x for x in label]
        cols.append(col)
    widths = draw(st.sets(st.integers(m + 1, n), min_size=1, max_size=5))
    if split > m:
        widths.add(split)
    return small_matrix(cols, m), sorted(widths)


class TestGirthReference:
    """``girth_profile`` equals the per-prefix CSR search of ``_oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(code=ragged_codes())
    # the only 4-cycle lives in the last column
    @example(code=(small_matrix([[0, 2], [0, 1], [1, 2], [0], [0, 2]], m=3), [4, 5]))
    # a forest up to width 4, then a 6-cycle through the last column
    @example(code=(small_matrix([[0, 1], [1, 2], [], [], [0, 2]], m=3), [4, 5]))
    def test_matches_reference(self, code):
        matrix, widths = code
        assert rl.girth_profile(matrix, widths) == [
            (w, girth_reference(rl.MatrixPrefix(matrix, w))) for w in widths
        ]

    def test_matches_reference_on_peg_mother(self):
        prof = rl.DegreeProfile.interleaved_4_5(400)
        matrix = rl.peg_construct(40, 400, prof, 11)
        widths = [50, 100, 200, 400]
        assert rl.girth_profile(matrix, widths) == [
            (w, girth_reference(rl.MatrixPrefix(matrix, w))) for w in widths
        ]

    @pytest.mark.parametrize(
        "m, n, degree, widths, girths",
        [
            # a forest whose balls stop growing, then a 66-cycle (radius 16)
            (64, 80, 2, [65, 72, 80], [66, 22, 18]),
            # 4r and 4r + 2 cycles found at radius 2 and beyond
            (200, 260, 3, [201, 230, 260], [10, 10, 10]),
        ],
    )
    def test_matches_reference_at_high_girth(self, m, n, degree, widths, girths):
        matrix = rl.peg_construct(m, n, rl.DegreeProfile.uniform(n, degree), 1)
        assert rl.girth_profile(matrix, widths) == list(zip(widths, girths))
        assert girths == [girth_reference(rl.MatrixPrefix(matrix, w)) for w in widths]


class TestGirth:
    def test_shared_check_pair_gives_four(self):
        # columns 0 and 1 both hit checks {0,1}
        m = small_matrix([[0, 1], [0, 1], [1, 2], [0, 2]], m=3)
        assert rl.girth_profile(m, [4]) == [(4, 4)]

    def test_forest_is_acyclic(self):
        # a path graph: no column pair shares more than one check
        tree = small_matrix([[0], [1], [0, 1]], m=2)
        assert rl.girth_profile(tree, [3]) == [(3, ACYCLIC)]

    def test_six_cycle(self):
        # v0-c0-v1-c1-v2-c2-v0, no shared pair anywhere
        m = small_matrix([[0, 2], [0, 1], [1, 2], [0]], m=3)
        assert rl.girth_profile(m, [4]) == [(4, 6)]

    def test_prefix_masks_later_columns(self):
        # the only 4-cycle lives in the last column
        m = small_matrix([[0, 2], [0, 1], [1, 2], [0], [0, 2]], m=3)
        assert rl.girth_profile(m, [5]) == [(5, 4)]
        assert rl.girth_profile(m, [4]) == [(4, 6)]

    def test_girth_even_and_monotone_on_random_peg(self):
        for seed in range(5):
            m = rl.peg_construct(24, 96, rl.DegreeProfile.uniform(96, 3), seed=seed)
            widths = [32, 48, 64, 80, 96]
            prof = rl.girth_profile(m, widths)
            girths = [g for _, g in prof]
            for g in girths:
                assert g == ACYCLIC or (g % 2 == 0 and g >= 4)
            assert all(a >= b for a, b in zip(girths, girths[1:]))

    @settings(max_examples=40, deadline=None)
    @given(code=peg_codes(), data=st.data())
    def test_profile_matches_per_width_girth(self, code, data):
        m, n, profile, seed = code
        matrix = rl.peg_construct(m, n, profile, seed)
        widths = sorted(data.draw(
            st.sets(st.integers(m + 1, n), min_size=1, max_size=5)
        ))
        assert rl.girth_profile(matrix, widths) == [
            rl.girth_profile(matrix, [w])[0] for w in widths
        ]

    def test_girth_profile_validation(self):
        m = rl.peg_construct(8, 24, rl.DegreeProfile.uniform(24, 2), seed=0)
        with pytest.raises(ValueError):
            rl.girth_profile(m, [12, 12])
        with pytest.raises(ValueError):
            rl.girth_profile(m, [16, 12])
        with pytest.raises(ValueError):
            rl.girth_profile(m, [8, 16])  # width must exceed num_checks
        with pytest.raises(ValueError):
            rl.girth_profile(m, [16, 25])


class TestParityMatrixValidation:
    def test_rejects_duplicate_in_column(self):
        with pytest.raises(ValueError):
            rl.ParityMatrix(3, 4, np.array([0, 2, 4, 6, 8]),
                            np.array([0, 0, 0, 1, 1, 2, 0, 2], dtype=np.int32))

    def test_rejects_out_of_range_check(self):
        with pytest.raises(ValueError):
            rl.ParityMatrix(2, 3, np.array([0, 1, 2, 3]),
                            np.array([0, 1, 2], dtype=np.int32))

    def test_prefix_width_bounds(self):
        m = rl.peg_construct(4, 8, rl.DegreeProfile.uniform(8, 2), seed=1)
        with pytest.raises(ValueError):
            rl.MatrixPrefix(m, 4)
        with pytest.raises(ValueError):
            rl.MatrixPrefix(m, 9)
        assert rl.MatrixPrefix(m, 5).width == 5


class TestAlist:
    def test_round_trip(self, tmp_path):
        m = rl.peg_construct(12, 30, rl.DegreeProfile.interleaved_4_5(30), seed=2)
        path = tmp_path / "m.alist"
        rl.save_alist(m, path)
        assert rl.load_alist(path) == m

    def test_layout(self, tmp_path):
        m = small_matrix([[0, 1], [0, 2], [1, 2], [0, 1, 2]], m=3)
        path = tmp_path / "m.alist"
        rl.save_alist(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "4 3"
        assert lines[1] == "3 3"  # max col degree, max row degree
        assert lines[2] == "2 2 2 3"
        assert lines[3] == "3 3 3"
        assert lines[4] == "1 2 0"  # 1-based, zero-padded

    @pytest.mark.parametrize(
        "matrix, digest",
        [
            (rl.peg_construct(12, 30, rl.DegreeProfile.interleaved_4_5(30), seed=2),
             "1e76ba36623e281ca5d0d3e01bfc7a15ef2329d4991b53aa4a40846012091413"),
            # column 1 and check 1 have no edge
            (small_matrix([[0, 2], [], [2, 3], [0], [0, 2, 3]], m=4),
             "21f8d3fb46fcea1ce3b02b7748cb7db7009910f5c75eb3ecc1fd55fbcecda141"),
        ],
    )
    def test_golden_bytes(self, tmp_path, matrix, digest):
        path = tmp_path / "m.alist"
        rl.save_alist(matrix, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_rejects_wrong_edge_count(self, tmp_path):
        m = small_matrix([[0, 1], [0, 1], [0, 1]], m=2)
        path = tmp_path / "m.alist"
        rl.save_alist(m, path)
        text = path.read_text().splitlines()
        text[2] = "2 1 2"  # declared degree disagrees with the entry line
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(AlistParseError, match="line"):
            rl.load_alist(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.alist"
        path.write_text("")
        with pytest.raises(AlistParseError):
            rl.load_alist(path)

    def test_rejects_out_of_range_index(self, tmp_path):
        path = tmp_path / "m.alist"
        path.write_text("3 2\n2 3\n2 2 2\n3 3\n1 2\n1 3\n1 2\n1 2 3\n1 2 3\n")
        with pytest.raises(AlistParseError, match="out of range"):
            rl.load_alist(path)

    def test_rejects_duplicate_index(self, tmp_path):
        path = tmp_path / "m.alist"
        path.write_text("3 2\n2 3\n2 2 2\n3 3\n1 1\n1 2\n1 2\n1 2 3\n1 2 3\n")
        with pytest.raises(AlistParseError, match="duplicate"):
            rl.load_alist(path)

    def test_rejects_row_column_disagreement(self, tmp_path):
        m = small_matrix([[0, 1], [0, 1], [0, 1]], m=2)
        path = tmp_path / "m.alist"
        rl.save_alist(m, path)
        text = path.read_text().splitlines()
        text[7] = "1 2 0"  # row 1 drops column 3; column section disagrees
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(AlistParseError):
            rl.load_alist(path)

    @pytest.mark.parametrize(
        "lineno, text",
        [
            (2, "7 9"),  # max degrees disagree with the declared degrees
            (2, "2 2"),
            (1, "+3 2"),  # tokens that are not plain ASCII digits
            (3, "2 2 +2"),
            (5, "+1 2"),
            (6, "0_1 2"),
            (8, "1 2 3 -0"),
            (1, "2 2"),  # no more columns than checks
            (1, "1 2"),
        ],
    )
    def test_rejects_what_save_alist_never_writes(self, tmp_path, capsys, lineno, text):
        m = small_matrix([[0, 1], [0, 1], [0, 1]], m=2)
        path = tmp_path / "m.alist"
        rl.save_alist(m, path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AlistParseError, match=f"line {lineno}"):
            rl.load_alist(path)
        assert main(["girth-profile", "--matrix", str(path), "--widths", "3"]) == 3
        assert f"line {lineno}:" in capsys.readouterr().err
        keys = str(tmp_path / "keys.txt")  # never read: the matrix is refused first
        code = main(["reconcile", "--matrix", str(path), "--width", "3", "--alice", keys,
                     "--bob", keys, "--p", "0.1", "--out", str(tmp_path / "c.txt")])
        assert code == 3


@st.composite
def any_matrices(draw):
    """Random small ParityMatrix with at least one edge: ragged columns,
    degree-0 columns and checks with no edge all occur."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(m + 1, m + 12))
    cols = [sorted(draw(st.sets(st.integers(0, m - 1)))) for _ in range(n)]
    if not any(cols):
        cols[draw(st.integers(0, n - 1))] = [draw(st.integers(0, m - 1))]
    return small_matrix(cols, m)


@st.composite
def token_edits(draw, data: bytes, m: int) -> bytes:
    """``data`` with one token of one entry line inserted or replaced: an
    odd token, m + 1 or one of the line's own tokens (a repeated index)."""
    lines = data.split(b"\n")
    k = draw(st.integers(min(4, len(lines) - 1), len(lines) - 1))
    toks = lines[k].split(b" ")
    # zeros, tokens int() takes but the alist format does not, values past
    # int64 and uint64, and blanks other than the space
    odd = st.sampled_from([
        b"0", b"00", b"+1", b"-0", b"0_2", b"9223372036854775808",
        b"18446744073709551616", b"99999999999999999999", b"\t", b"\x1f", b"\x0b",
        str(m + 1).encode(),
    ])
    tok = draw(odd | st.sampled_from(toks))
    i = draw(st.integers(0, len(toks)))
    toks[i:i + (i < len(toks) and draw(st.booleans()))] = [tok]
    lines[k] = b" ".join(toks)
    return b"\n".join(lines)


@st.composite
def edited_alists(draw) -> bytes:
    """save_alist's file of a random matrix after 1-3 token or byte edits."""
    matrix = draw(any_matrices())
    with tempfile.TemporaryDirectory() as tmp:
        rl.save_alist(matrix, f"{tmp}/m.alist")
        with open(f"{tmp}/m.alist", "rb") as fh:
            data = fh.read()
    for _ in range(draw(st.integers(1, 3))):
        edit = st.one_of(token_edits(data, matrix.num_checks), byte_edits(data))
        data = draw(edit)
    return data


def loaded(load, path):
    """``load(path)``, or the type and text of the ValueError it raises."""
    try:
        return load(path)
    except ValueError as exc:  # AlistParseError and UnicodeDecodeError included
        return type(exc), str(exc)


def check_slot_tables(matrix, width):
    """The edges are stored slot by slot: ``checks`` is the checks with an
    edge by degree, highest first, ties in check order; slot k is one run
    over the checks with more than k edges, the first ``full_slots`` over
    every check, the rest at ``partial_slots``; and each check's slots hold
    its columns in increasing order.  Every column of degree > 0 is in one
    ``var_slots`` group, whose table lists the positions of its edges in
    column order; and every index array the decoder gathers with is intp."""
    e = rl.MatrixPrefix(matrix, width).edges
    degs = matrix.column_degrees()[:width]
    edge_check = matrix.col_indices[: matrix.col_indptr[width]]
    by_check = np.argsort(edge_check, kind="stable")
    assert e.num_edges == edge_check.size
    assert np.array_equal(np.sort(e.checks), np.unique(edge_check))
    d = np.bincount(edge_check, minlength=matrix.num_checks)[e.checks]
    assert np.all((d[:-1] > d[1:]) | ((d[:-1] == d[1:]) & (e.checks[:-1] < e.checks[1:])))
    sizes = [int(np.count_nonzero(d > k)) for k in range(d.max(initial=0))]
    starts = np.cumsum(sizes, dtype=np.int64) - sizes
    assert e.full_slots == (d.min() if d.size else 0)
    assert list(e.partial_slots) == list(zip(starts, sizes))[e.full_slots:]
    slot_check = np.concatenate([e.checks[:k] for k in sizes] + [e.checks[:0]])
    # a stable sort by check lists each check's slots in order
    order = np.argsort(slot_check, kind="stable")
    assert np.array_equal(slot_check[order], edge_check[by_check])
    assert np.array_equal(e.edge_var[order], np.repeat(np.arange(width), degs)[by_check])
    seen = []
    for cols, slots in e.var_slots:
        cols = np.arange(width)[cols]
        assert slots.shape == (degs[cols].max(), cols.size)
        assert degs[cols].max() <= 8 or np.all(degs[cols] == degs[cols][0])
        assert slots.dtype == np.intp
        for j, col_slots in zip(cols, slots.T):
            edges = col_slots[: degs[j]]
            assert np.all(e.edge_var[edges] == j)
            assert np.array_equal(slot_check[edges], matrix.column(j))
            assert np.all(col_slots[degs[j]:] == e.num_edges)
        seen.extend(cols)
    assert sorted(seen) == np.flatnonzero(degs).tolist()
    for idx in (e.edge_var, e.checks):
        assert idx.dtype == np.intp
    return e.var_slots


class TestPrefixEdges:
    @settings(max_examples=100, deadline=None)
    @given(matrix=any_matrices(), data=st.data())
    def test_slot_tables(self, matrix, data):
        width = data.draw(st.integers(matrix.num_checks + 1, matrix.num_vars))
        check_slot_tables(matrix, width)

    def test_each_degree_above_eight_has_its_own_group(self):
        degs = [9, 3, 12, 9, 0, 20, 1, 8, 12, 5] + [2] * 11
        matrix = small_matrix([list(range(d)) for d in degs], m=20)
        groups = check_slot_tables(matrix, 21)
        assert [cols.tolist() for cols, _ in groups] == [
            [1, 6, 7, 9, *range(10, 21)], [0, 3], [2, 8], [5]
        ]

    def test_one_group_of_every_column_below_degree_nine(self):
        matrix = rl.peg_construct(12, 30, rl.DegreeProfile.interleaved_4_5(30), seed=2)
        (cols, slots), = check_slot_tables(matrix, 30)
        assert cols == slice(None) and slots.shape == (5, 30)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("alist") / "m.alist"


class TestAlistRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(matrix=any_matrices())
    def test_round_trip(self, path, matrix):
        rl.save_alist(matrix, path)
        assert rl.load_alist(path) == matrix

    @settings(max_examples=300, deadline=None)
    @given(matrix=any_matrices(), data=st.data())
    def test_one_byte_edit_loads_same_or_is_refused(self, path, matrix, data):
        rl.save_alist(matrix, path)
        path.write_bytes(data.draw(byte_edits(path.read_bytes())))
        try:
            loaded = rl.load_alist(path)
        except ValueError:  # AlistParseError and UnicodeDecodeError included
            return
        assert loaded == matrix

    @settings(max_examples=100, deadline=None)
    @given(matrix=any_matrices(), data=st.data())
    def test_girth_profile_cli_on_edited_file(self, path, matrix, data):
        rl.save_alist(matrix, path)
        path.write_bytes(data.draw(byte_edits(path.read_bytes())))
        code = main(["girth-profile", "--matrix", str(path), "--widths",
                     str(matrix.num_vars), "--out", str(path.with_suffix(".csv"))])
        assert code in (0, 3)

    def test_every_line_prefix_is_refused(self, tmp_path):
        m = rl.peg_construct(12, 30, rl.DegreeProfile.interleaved_4_5(30), seed=2)
        path = tmp_path / "m.alist"
        rl.save_alist(m, path)
        lines = path.read_text().splitlines(keepends=True)
        for k in range(len(lines)):
            path.write_text("".join(lines[:k]))
            with pytest.raises(AlistParseError):
                rl.load_alist(path)

    def test_matrix_without_edges_is_refused(self, tmp_path):
        empty = small_matrix([[], [], []], m=2)
        with pytest.raises(ValueError, match="no edges"):
            rl.save_alist(empty, tmp_path / "m.alist")
        assert not (tmp_path / "m.alist").exists()
        # the file save_alist would have written, if it wrote one
        path = tmp_path / "m.alist"
        path.write_text("3 2\n0 0\n0 0 0\n0 0\n0\n0\n0\n0\n0\n")
        with pytest.raises(AlistParseError, match="line 2: .*no edges"):
            rl.load_alist(path)
        assert main(["girth-profile", "--matrix", str(path), "--widths", "3"]) == 3


class TestAlistReference:
    """``load_alist`` gives the reference's matrix, or its exception type
    and text, on edited files."""

    @settings(max_examples=300, deadline=None)
    @given(text=edited_alists())
    # a check twice in a column whose count matches its declared degree
    @example(text=b"3 2\n2 3\n2 2 2\n3 3\n1 2\n2 2\n1 2\n1 2 3\n1 2 3\n")
    # a count error on a line before a bad-token line
    @example(text=b"3 2\n2 3\n2 2 2\n3 3\n1\n1 2\n+1 2\n1 2 3\n1 2 3\n")
    # a bad token in the row section after clean columns
    @example(text=b"3 2\n2 3\n2 2 2\n3 3\n1 2\n1 2\n1 2\n1 2 3\n1 0_2 3\n")
    # rows whose counts match their declared degrees but whose entries
    # disagree: the same length as the check, then shorter
    @example(text=b"3 2\n2 2\n1 1 2\n2 2\n1\n2\n1 2\n2 3\n2 3\n")
    @example(text=b"3 2\n2 3\n2 2 2\n2 3\n1 2\n1 2\n1 2\n1 2\n1 2 3\n")
    # no edges; no more columns than checks
    @example(text=b"3 2\n0 0\n0 0 0\n0 0\n0\n0\n0\n0\n0\n")
    @example(text=b"2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n")
    def test_matches_reference(self, path, text):
        path.write_bytes(text)
        assert loaded(rl.load_alist, path) == loaded(load_alist_reference, path)
