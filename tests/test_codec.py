import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raldpc as rl
from raldpc import codec
from raldpc.charact import _run_cell
from raldpc.codec import (
    _ENCODE_CHUNK,
    _FRAME_BLOCK,
    _LLR_CLAMP,
    _TANH_FLOOR,
    DecoderConfig,
    _check_reduce,
    _decode_batch,
    _slot_sum,
)

from _oracles import (
    CosetOracle,
    check_major,
    decode_batch_reference,
    dense_parity,
    leave_one_out_messages,
    patterns_of_weight_at_most,
    prefix_columns,
    read_key_blocks_reference,
)
from _strategies import byte_edits


@pytest.fixture(scope="module")
def small_prefix():
    m = rl.peg_construct(8, 12, rl.DegreeProfile.uniform(12, 3), seed=5)
    return rl.MatrixPrefix(m, 12)


CFG = DecoderConfig(crossover_prior=0.02)


class TestEncode:
    def test_zero_key_zero_syndrome(self, small_prefix):
        assert not rl.encode_syndrome(small_prefix, np.zeros(12, np.uint8)).any()

    def test_linearity_many_cases(self, small_prefix):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, (1000, 12), dtype=np.uint8)
        b = rng.integers(0, 2, (1000, 12), dtype=np.uint8)
        sa = rl.encode_syndrome_batch(small_prefix, a)
        sb = rl.encode_syndrome_batch(small_prefix, b)
        sab = rl.encode_syndrome_batch(small_prefix, a ^ b)
        assert np.array_equal(sab, sa ^ sb)

    def test_unit_vectors_give_column_adjacency(self, small_prefix):
        for j in range(12):
            key = np.zeros(12, np.uint8)
            key[j] = 1
            s = rl.encode_syndrome(small_prefix, key)
            assert np.array_equal(
                np.flatnonzero(s), small_prefix.matrix.column(j)
            )

    def test_batch_matches_single(self, small_prefix):
        # check 2 of the hand-built matrix touches no column
        bare = rl.ParityMatrix(
            4, 6, [0, 2, 4, 6, 7, 9, 10], [0, 1, 1, 3, 0, 3, 1, 0, 1, 3]
        )
        rng = np.random.default_rng(2)
        for prefix in (small_prefix, rl.MatrixPrefix(bare, 6)):
            H = dense_parity(prefix)
            keys = rng.integers(0, 2, (50, prefix.width), dtype=np.uint8)
            batch = rl.encode_syndrome_batch(prefix, keys)
            for k in range(50):
                ref = H.astype(np.int64) @ keys[k] % 2
                assert np.array_equal(batch[k], ref)
                assert np.array_equal(rl.encode_syndrome(prefix, keys[k]), ref)

    def test_chunked_batch_matches_rows(self, small_prefix):
        # two whole encoding chunks and a short one
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 2, (2 * _ENCODE_CHUNK + 3, 12), dtype=np.uint8)
        batch = rl.encode_syndrome_batch(small_prefix, keys)
        rows = [rl.encode_syndrome(small_prefix, k) for k in keys]
        assert np.array_equal(batch, np.array(rows))

    def test_length_mismatch_rejected(self, small_prefix):
        with pytest.raises(ValueError):
            rl.encode_syndrome(small_prefix, np.zeros(11, np.uint8))

    @pytest.mark.parametrize(
        "value",
        # 2s encode as 0s; 256, 0.5 and NaN are 0 as uint8
        [np.uint8(2), 2, -1, 256, 1.5, 0.5, np.nan],
    )
    def test_non_bit_values_rejected(self, small_prefix, value):
        key = np.zeros(12, dtype=np.asarray(value).dtype)
        key[3] = value
        with pytest.raises(ValueError, match="key must contain only 0/1 values"):
            rl.encode_syndrome_batch(small_prefix, np.stack([key * 0, key]))
        with pytest.raises(ValueError, match="key must contain only 0/1 values"):
            rl.encode_syndrome(small_prefix, key)

    def test_any_dtype_of_bits_encodes_alike(self, small_prefix):
        key = np.random.default_rng(4).integers(0, 2, 12, dtype=np.uint8)
        want = rl.encode_syndrome(small_prefix, key)
        for dtype in (bool, np.int64, np.float64):
            assert np.array_equal(rl.encode_syndrome(small_prefix, key.astype(dtype)), want)
            batch = rl.encode_syndrome_batch(small_prefix, key[None, :].astype(dtype))
            assert np.array_equal(batch[0], want)


class TestDecode:
    def test_satisfied_input_returns_at_iteration_zero(self, small_prefix):
        rng = np.random.default_rng(3)
        key = rng.integers(0, 2, 12, dtype=np.uint8)
        s = rl.encode_syndrome(small_prefix, key)
        r = rl.decode(small_prefix, key, s, CFG)
        assert r.success and r.iterations_used == 0
        assert np.array_equal(r.corrected_key, key)
        assert r.unsatisfied_checks == 0

    def test_empty_batch_runs_no_iteration(self, small_prefix, monkeypatch):
        def no_iteration(src, slots):
            raise AssertionError("an empty batch ran a variable update")

        monkeypatch.setattr("raldpc.codec._slot_sum", no_iteration)
        cfg = DecoderConfig(crossover_prior=0.02, max_iterations=5)
        empty = np.zeros((0, 12), dtype=np.uint8)
        hard, ok, iters, unsat = _decode_batch(small_prefix, empty, empty[:, :8], cfg)
        assert hard.shape == (0, 12) and hard.dtype == np.uint8
        assert ok.shape == iters.shape == unsat.shape == (0,)
        assert ok.dtype == np.bool_

    def test_single_flip_recovered_exhaustively(self, small_prefix):
        rng = np.random.default_rng(4)
        for _ in range(5):
            key = rng.integers(0, 2, 12, dtype=np.uint8)
            s = rl.encode_syndrome(small_prefix, key)
            for j in range(12):
                noisy = key.copy()
                noisy[j] ^= 1
                r = rl.decode(small_prefix, noisy, s, CFG)
                assert r.success and np.array_equal(r.corrected_key, key)

    def test_success_iff_no_unsatisfied_checks(self, small_prefix):
        rng = np.random.default_rng(5)
        for trial in range(200):
            key = rng.integers(0, 2, 12, dtype=np.uint8)
            s = rl.encode_syndrome(small_prefix, key)
            noisy = key ^ (rng.random(12) < 0.25).astype(np.uint8)
            r = rl.decode(small_prefix, noisy, s, CFG)
            assert r.success == (r.unsatisfied_checks == 0)
            assert r.iterations_used <= CFG.max_iterations
            if r.success:
                # soundness: the corrected key reproduces the target syndrome
                assert np.array_equal(rl.encode_syndrome(small_prefix, r.corrected_key), s)

    def test_coset_symmetry(self, small_prefix):
        rng = np.random.default_rng(6)
        for trial in range(50):
            key = rng.integers(0, 2, 12, dtype=np.uint8)
            s = rl.encode_syndrome(small_prefix, key)
            noisy = key ^ (rng.random(12) < 0.15).astype(np.uint8)
            c = rng.integers(0, 2, 12, dtype=np.uint8)
            r1 = rl.decode(small_prefix, noisy, s, CFG)
            r2 = rl.decode(
                small_prefix, noisy ^ c, s ^ rl.encode_syndrome(small_prefix, c), CFG
            )
            assert r1.success == r2.success
            assert np.array_equal(r1.corrected_key ^ c, r2.corrected_key)

    def test_matches_coset_leader_oracle(self, small_prefix):
        oracle = CosetOracle(dense_parity(small_prefix))
        t0 = (oracle.min_distance - 1) // 2
        assert t0 >= 1
        rng = np.random.default_rng(7)
        key = rng.integers(0, 2, 12, dtype=np.uint8)
        s = rl.encode_syndrome(small_prefix, key)
        for e in patterns_of_weight_at_most(12, t0):
            noisy = key ^ e
            r = rl.decode(small_prefix, noisy, s, CFG)
            assert r.success
            assert np.array_equal(r.corrected_key, oracle.decode(noisy, s))

    def test_batch_equals_per_frame_decode(self, small_prefix):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 2, (64, 12), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(small_prefix, keys)
        noisy = keys ^ (rng.random((64, 12)) < 0.2).astype(np.uint8)
        hard, ok, iters, unsat = _decode_batch(small_prefix, noisy, syn, CFG)
        for k in range(64):
            r = rl.decode(small_prefix, noisy[k], syn[k], CFG)
            assert r.success == ok[k]
            assert r.iterations_used == iters[k]
            assert r.unsatisfied_checks == unsat[k]
            assert np.array_equal(r.corrected_key, hard[k])

    def test_length_mismatch_rejected(self, small_prefix):
        with pytest.raises(ValueError):
            rl.decode(small_prefix, np.zeros(10, np.uint8), np.zeros(8, np.uint8), CFG)
        with pytest.raises(ValueError):
            rl.decode(small_prefix, np.zeros(12, np.uint8), np.zeros(7, np.uint8), CFG)

    # as uint8, 256, 0.5 and NaN are 0 and 257 is 1
    @pytest.mark.parametrize("value", [256, 257, -1, 0.5, np.nan])
    @pytest.mark.parametrize("what", ["noisy_key", "target_syndrome"])
    def test_non_bit_values_rejected(self, small_prefix, what, value):
        dtype = np.asarray(value).dtype
        key, syn = np.zeros(12, dtype=dtype), np.zeros(8, dtype=dtype)
        (key if what == "noisy_key" else syn)[3] = value
        with pytest.raises(ValueError, match=f"{what} must contain only 0/1 values"):
            rl.decode(small_prefix, key, syn, CFG)

    def test_nonconvergence_is_reported_not_raised(self, small_prefix):
        # an unsatisfiable syndrome paired with a hostile prior
        cfg = DecoderConfig(crossover_prior=0.49, max_iterations=3)
        rng = np.random.default_rng(9)
        key = rng.integers(0, 2, 12, dtype=np.uint8)
        s = rl.encode_syndrome(small_prefix, key) ^ 1  # flip every syndrome bit
        r = rl.decode(small_prefix, key, s, cfg)
        assert isinstance(r.success, bool)
        assert r.iterations_used <= 3


def _decode_digest(hard, ok, iters, unsat) -> str:
    h = hashlib.sha256()
    for arr, dtype in ((hard, np.uint8), (ok, np.bool_), (iters, np.int64), (unsat, np.int64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


class TestGoldenDecode:
    """Recorded decoder outputs on a 256x1280 PEG code (seed 7).

    Any change to the decoder kernel must keep these digests: a speedup
    counts only if hard decisions, success flags, iteration counts and
    unsatisfied counts stay bit-identical.  The three error rates sit in
    the working region, the waterfall and the hopeless region of this code.
    The digests were recorded with numpy 2.4 on x86-64; a libm that rounds
    tanh or arctanh differently can move a hard decision.
    """

    GOLDEN = {
        (0.01, 10): "6457526e6f8631f7abe582dba158e8e2040c0bc456c23bac83858508425e5845",
        (0.01, 60): "6457526e6f8631f7abe582dba158e8e2040c0bc456c23bac83858508425e5845",
        (0.02, 10): "855f77b08db5032adb2eef3f6b5367b706def71fbdd4738cdd3a05cfba2fd750",
        (0.02, 60): "433d3b2825ccb616957618f8c336ba2cd970b674742fbcc37659197a9b0169ae",
        (0.04, 10): "c5f3819b33b3bc51d5ba16d114a631be8f2b8e65b9c860762a87ef2ef2bc9413",
        (0.04, 60): "9f0a7d9b13170c81ae38e6713c5bb704105e0aaa6c1a48584ae7b6340e422c72",
    }
    GOLDEN_SINGLE = "c96c04dc20fe52199a562f7655282431835040eb52b72f04720f4eaa813ec3df"

    @pytest.fixture(scope="class")
    def prefix(self):
        m = rl.peg_construct(256, 1280, rl.DegreeProfile.interleaved_4_5(1280), seed=7)
        return rl.MatrixPrefix(m, 1280)

    @staticmethod
    def _frames(prefix, p, batch, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2, (batch, prefix.width), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        noisy = keys ^ (rng.random((batch, prefix.width)) < p).astype(np.uint8)
        return noisy, syn

    @pytest.mark.parametrize("p, max_iterations", sorted(GOLDEN))
    def test_batch_digest(self, prefix, p, max_iterations):
        noisy, syn = self._frames(prefix, p, 64, seed=100)
        cfg = DecoderConfig(crossover_prior=p, max_iterations=max_iterations)
        out = _decode_batch(prefix, noisy, syn, cfg)
        assert _decode_digest(*out) == self.GOLDEN[(p, max_iterations)]

    def test_single_block_digest(self, prefix):
        noisy, syn = self._frames(prefix, 0.02, 8, seed=101)
        cfg = DecoderConfig(crossover_prior=0.02, max_iterations=10)
        res = [rl.decode(prefix, noisy[k], syn[k], cfg) for k in range(8)]
        digest = _decode_digest(
            np.stack([r.corrected_key for r in res]),
            [r.success for r in res],
            [r.iterations_used for r in res],
            [r.unsatisfied_checks for r in res],
        )
        assert digest == self.GOLDEN_SINGLE


class TestBatchSplit:
    """Decoding any split of a batch, in any order, equals decoding it whole."""

    FRAMES = 24

    @pytest.fixture(scope="class")
    def batch(self):
        m = rl.peg_construct(64, 256, rl.DegreeProfile.interleaved_4_5(256), seed=3)
        prefix = rl.MatrixPrefix(m, 256)
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 2, (self.FRAMES, 256), dtype=np.uint8)
        p = np.resize([0.0, 0.01, 0.02, 0.03, 0.05], self.FRAMES)[:, None]
        noisy = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        cfg = DecoderConfig(crossover_prior=0.03, max_iterations=20)
        whole = _decode_batch(prefix, noisy, syn, cfg)
        # frames leave the active set at many different iterations
        assert len(set(whole[2].tolist())) >= 4
        return prefix, noisy, syn, cfg, whole

    @settings(max_examples=30, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 3), min_size=FRAMES, max_size=FRAMES),
        order=st.permutations(range(FRAMES)),
    )
    def test_any_split_equals_whole_batch(self, batch, labels, order):
        prefix, noisy, syn, cfg, whole = batch
        for group in set(labels):
            idx = np.array([k for k in order if labels[k] == group])
            part = _decode_batch(prefix, noisy[idx], syn[idx], cfg)
            for got, want in zip(part, whole):
                assert np.array_equal(got, want[idx])


class TestThreadedDecode:
    """The frame blocks left after iteration 0 decode alike on any number of
    shares, each share on its own thread but the caller's."""

    FRAMES = 40
    MAX_ITERATIONS = 12

    @pytest.fixture(scope="class")
    def batch(self):
        m = rl.peg_construct(64, 256, rl.DegreeProfile.interleaved_4_5(256), seed=3)
        prefix = rl.MatrixPrefix(m, 256)
        rng = np.random.default_rng(21)
        keys = rng.integers(0, 2, (self.FRAMES, 256), dtype=np.uint8)
        p = np.resize([0.0, 0.01, 0.02, 0.03, 0.08], self.FRAMES)[:, None]
        noisy = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        cfg = DecoderConfig(crossover_prior=0.03, max_iterations=self.MAX_ITERATIONS)
        whole = _decode_batch(prefix, noisy, syn, cfg)
        iters = whole[2].tolist()
        # frames leave at iteration 0, at many later iterations and at the cap
        assert 0 in iters and self.MAX_ITERATIONS in iters
        assert len(set(iters)) >= 6
        return prefix, noisy, syn, cfg, whole

    @pytest.mark.parametrize(
        "frames, threads, started",
        [
            (FRAMES, 2, 1),
            (FRAMES, 3, 2),
            (2 * _FRAME_BLOCK + 1, 8, 2),  # three blocks, fewer than threads
            (_FRAME_BLOCK, 3, 0),  # one block starts no thread
            (0, 3, 0),
        ],
    )
    def test_equals_one_thread(self, batch, monkeypatch, frames, threads, started):
        prefix, noisy, syn, cfg, whole = batch
        take = np.arange(self.FRAMES)
        if frames < self.FRAMES:
            # frames that iteration 0 leaves, so that the block count is exact
            take = np.flatnonzero(whole[2] > 0)[:frames]
        starts = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda t: (starts.append(t), real_start(t))[1]
        )
        got = _decode_batch(prefix, noisy[take], syn[take], cfg, threads=threads)
        assert len(starts) == started
        for g, w in zip(got, whole):
            assert g.dtype == w.dtype and np.array_equal(g, w[take])

    def test_share_that_raises_stops_every_share(self, batch, monkeypatch):
        prefix, noisy, syn, cfg, _ = batch
        calls = []

        def fail_on_third(x, keep):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("share failed")
            return real(x, keep)

        real = codec._frames
        monkeypatch.setattr(codec, "_frames", fail_on_third)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="share failed"):
            _decode_batch(prefix, noisy, syn, cfg, threads=3)
        assert threading.active_count() == before


@st.composite
def decode_cases(draw):
    """A random small code, a prefix of it, and a batch of frames to decode.

    The code is a ragged PEG code whose checks are spread over up to three
    more check rows, so some checks have no edge.
    """
    m = draw(st.integers(2, 16))
    spare = draw(st.integers(0, 3))
    n = draw(st.integers(m + spare + 1, 3 * m + 8))
    degs = draw(st.lists(st.integers(2, min(m, 4)), min_size=n, max_size=n))
    peg = rl.peg_construct(
        m, n, rl.DegreeProfile(np.asarray(degs)), draw(st.integers(0, 2**32 - 1))
    )
    rows = np.sort(draw(st.permutations(range(m + spare)))[:m])
    matrix = rl.ParityMatrix(m + spare, n, peg.col_indptr, rows[peg.col_indices])
    prefix = rl.MatrixPrefix(matrix, draw(st.integers(m + spare + 1, n)))
    return (prefix, *draw(frames(prefix)))


@st.composite
def frames(draw, prefix):
    """(noisy, syn, cfg): a batch of frames for ``prefix`` and its decoder.

    Frames get their own noise level around the prior's; some frames get
    target 1-bits on checks with no edge in the prefix, which no key can
    satisfy, so they run to max_iterations.
    """
    m = prefix.num_checks
    batch = draw(st.integers(0, 3 * _FRAME_BLOCK + 1))
    p = draw(st.floats(0.001, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.integers(0, 2, (batch, prefix.width), dtype=np.uint8)
    syn = rl.encode_syndrome_batch(prefix, keys)
    absent = np.setdiff1d(np.arange(m), prefix_columns(prefix)[1])
    if absent.size:
        hostile = rng.random(batch) < 0.3
        syn[np.ix_(hostile, absent)] = rng.integers(0, 2, (hostile.sum(), absent.size))
    noise = rng.random(batch)[:, None] * 2 * p
    noisy = keys ^ (rng.random(keys.shape) < noise).astype(np.uint8)
    cfg = DecoderConfig(crossover_prior=p, max_iterations=draw(st.integers(1, 20)))
    return noisy, syn, cfg


def code_from_degrees(num_checks, degrees, rows, seed):
    """ParityMatrix whose column j holds ``degrees[j]`` random checks.

    The checks are drawn among ``rows`` (increasing), so any check left
    out of ``rows`` has no edge.
    """
    rng = np.random.default_rng(seed)
    rows = np.asarray(rows)
    cols = [np.sort(rng.choice(rows, d, replace=False)) for d in degrees]
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    indices = np.concatenate([np.asarray(c, dtype=np.int32) for c in cols] + [[]])
    return rl.ParityMatrix(num_checks, len(degrees), indptr, indices)


@st.composite
def mixed_degree_cases(draw, min_degree=1, max_degree=24):
    """A code of random columns with degrees ``min_degree`` to ``max_degree``.

    Unlike PEG codes of degree 2 to 4, these columns reach the variable
    update's pairwise summation (degree 9 and up) unless ``max_degree`` is
    below 9; up to three checks have no edge.
    """
    m = draw(st.integers(2, 40))
    spare = draw(st.integers(0, 3))
    n = draw(st.integers(m + spare + 1, 2 * m + 12))
    top = draw(st.integers(max(min_degree, 1), min(m, max_degree)))
    degs = draw(st.lists(st.integers(min_degree, top), min_size=n, max_size=n))
    width = draw(st.integers(m + spare + 1, n))
    if not any(degs[:width]):  # a prefix needs an edge
        degs[draw(st.integers(0, width - 1))] = 1
    rows = np.sort(draw(st.permutations(range(m + spare)))[:m])
    matrix = code_from_degrees(m + spare, degs, rows, draw(st.integers(0, 2**32 - 1)))
    prefix = rl.MatrixPrefix(matrix, width)
    return (prefix, *draw(frames(prefix)))


class TestDecodeReference:
    """``_decode_batch`` equals the one-pass kernel of ``_oracles`` on every output."""

    @settings(max_examples=150, deadline=None)
    @given(case=decode_cases())
    def test_matches_reference(self, case):
        prefix, noisy, syn, cfg = case
        got = _decode_batch(prefix, noisy, syn, cfg)
        want = decode_batch_reference(prefix, noisy, syn, cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @settings(max_examples=150, deadline=None)
    @given(case=mixed_degree_cases())
    def test_matches_reference_mixed_degrees(self, case):
        prefix, noisy, syn, cfg = case
        got = _decode_batch(prefix, noisy, syn, cfg)
        want = decode_batch_reference(prefix, noisy, syn, cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_matches_reference_at_very_high_degrees(self):
        # above 129 edges a column's pairwise sum splits in two, at 258 twice
        degs = np.full(320, 3)
        degs[[5, 40, 41, 100, 200, 319]] = [130, 137, 200, 258, 9, 17]
        prefix = rl.MatrixPrefix(code_from_degrees(300, degs, np.arange(300), 14), 320)
        rng = np.random.default_rng(15)
        batch = 2 * _FRAME_BLOCK + 1
        keys = rng.integers(0, 2, (batch, 320), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        noisy = keys ^ (rng.random(keys.shape) < 0.1).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=0.1, max_iterations=12)
        got = _decode_batch(prefix, noisy, syn, cfg)
        want = decode_batch_reference(prefix, noisy, syn, cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.any(got[2] > 0)

    @pytest.mark.parametrize("batch", [0, 1, 2 * _FRAME_BLOCK + 1])
    @pytest.mark.parametrize("regular", [False, True])
    def test_layout_edge_cases(self, regular, batch):
        if regular:
            # every check has 6 edges: the layout has no partial slot
            cols = [sorted({j % 8, (j + 1) % 8, (j + 3) % 8}) for j in range(16)]
            m = 8
        else:
            # check 5 has no edge, check 4 one edge, column 3 none
            cols = [[0, 1, 2], [0, 1], [1, 2, 3], [], [0, 2, 3], [0, 4], [1, 3],
                    [2, 3], [0, 1, 2, 3], [1, 2]]
            m = 6
        indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
        matrix = rl.ParityMatrix(m, len(cols), indptr, np.concatenate(cols))
        prefix = rl.MatrixPrefix(matrix, len(cols))
        assert (prefix.edges.partial_slots == ()) == regular
        rng = np.random.default_rng(21)
        keys = rng.integers(0, 2, (batch, len(cols)), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        if not regular:
            syn[::3, 5] = 1
        noisy = keys ^ (rng.random(keys.shape) < 0.15).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=0.1, max_iterations=9)
        got = _decode_batch(prefix, noisy, syn, cfg)
        # as in TestDegreeZeroColumns: the reference decodes degree-0
        # columns first and is not asked for their bits
        moved, order = zero_columns_first(prefix)
        want = decode_batch_reference(moved, noisy[:, order], syn, cfg)
        used = np.diff(indptr)[order] > 0
        assert np.array_equal(got[0][:, order][:, used], want[0][:, used])
        assert np.array_equal(got[0][:, order][:, ~used], noisy[:, order][:, ~used])
        for g, w in zip(got[1:], want[1:]):
            assert np.array_equal(g, w)

    def test_prefix_without_edges(self):
        # no check has an edge: the layout is empty, every frame keeps its
        # received bits, and a target 1-bit is never met
        prefix = rl.MatrixPrefix(rl.ParityMatrix(2, 5, [0, 0, 0, 0, 1, 3], [1, 0, 1]), 3)
        assert prefix.edges.num_edges == 0 and prefix.edges.checks.size == 0
        noisy = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
        syn = np.array([[0, 0], [1, 1]], np.uint8)
        assert not rl.encode_syndrome_batch(prefix, noisy).any()
        hard, ok, iters, unsat = _decode_batch(prefix, noisy, syn, CFG)
        assert np.array_equal(hard, noisy)
        assert ok.tolist() == [True, False] and iters.tolist() == [0, CFG.max_iterations]
        assert unsat.tolist() == [0, 2]

    def test_absent_checks_never_converge(self):
        # check 2 touches no column; a target 1-bit there stays unsatisfied
        bare = rl.ParityMatrix(
            4, 6, [0, 2, 4, 6, 7, 9, 10], [0, 1, 1, 3, 0, 3, 1, 0, 1, 3]
        )
        prefix = rl.MatrixPrefix(bare, 6)
        rng = np.random.default_rng(13)
        batch = 2 * _FRAME_BLOCK + 3
        keys = rng.integers(0, 2, (batch, 6), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        syn[::2, 2] = 1
        noisy = keys ^ (rng.random(keys.shape) < 0.1).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=0.1, max_iterations=7)
        got = _decode_batch(prefix, noisy, syn, cfg)
        want = decode_batch_reference(prefix, noisy, syn, cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        hard, ok, iters, unsat = got
        assert not ok[::2].any() and np.all(iters[::2] == 7)
        assert np.all(unsat[::2] >= 1)


def check_major_positions(prefix):
    """Each check-major edge's position in the kernel's slot layout.

    Slot k of the layout is a run over ``checks[:count]``, so each position
    has a check; sorted by (check, variable), the positions must list the
    reference's check-major edges.
    """
    e = prefix.edges
    counts = [e.checks.size] * e.full_slots + [count for _, count in e.partial_slots]
    slot_check = np.concatenate([e.checks[:k] for k in counts] + [e.checks[:0]])
    order = np.lexsort((e.edge_var, slot_check))
    edge_var_cm, present, check_first, _ = check_major(prefix)
    assert np.array_equal(e.edge_var[order], edge_var_cm)
    assert np.array_equal(
        slot_check[order], np.repeat(present, np.diff([*check_first, order.size]))
    )
    return order


def check_messages(prefix, noisy, syn, cfg):
    """(kernel, reference, leave-one-out): every iteration's check messages
    of both decoders, and ``leave_one_out_messages`` of the reference's
    inputs with each edge's check degree.

    The kernel's are the half-LLR ``c2v`` buffers its variable update reads,
    recorded by a wrapper around ``codec._slot_sum``; with every column of
    degree 1 to 8 there is one call per iteration.  They come back as
    (frames, edges + 1) arrays in check-major order, the padding column
    last.  A batch of at most ``_FRAME_BLOCK`` frames is one block, so the
    rows match the reference's.
    """
    assert len(prefix.edges.var_slots) == 1 and noisy.shape[0] <= _FRAME_BLOCK
    got, want, inputs = [], [], []

    def recording(src, slots):
        got.append(src.copy())
        return _slot_sum(src, slots)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("raldpc.codec._slot_sum", recording)
        kernel = _decode_batch(prefix, noisy, syn, cfg)
    reference = decode_batch_reference(
        prefix, noisy, syn, cfg, messages=want, check_inputs=inputs
    )
    for g, w in zip(kernel, reference):
        assert np.array_equal(g, w)
    rows = np.append(check_major_positions(prefix), prefix.edges.num_edges)
    loo = [leave_one_out_messages(prefix, v2c, sgn) for v2c, sgn in inputs]
    return [g[rows].T for g in got], want, loo


class TestCheckMessages:
    """Every check message of the kernel, doubled, equals the reference's
    full-LLR message bit for bit, at every iteration, and the leave-one-out
    product's message up to rounding."""

    @staticmethod
    def assert_same_messages(got, want, loo):
        assert len(got) == len(want) == len(loo)
        for g, w, (c2v, degree) in zip(got, want, loo):
            # the extra column is the slot tables' zero padding
            assert not g[:, -1].any()
            assert np.array_equal(2.0 * g[:, :-1], w)
            # the quotient and the leave-one-out product x each take at most
            # d + 1 roundings of 2^-53 relative; c = 2 arctanh x turns a
            # relative dx / x into dc = sinh(|c|) dx / x, and the clamp at
            # 25 caps sinh(|c|)
            tol = 1e-12 + 2 * (degree + 1) * 2.0**-53 * np.sinh(np.abs(c2v))
            assert np.all(np.abs(2.0 * g[:, :-1] - c2v) <= tol)

    @settings(max_examples=250, deadline=None)
    @given(case=st.one_of(decode_cases(), mixed_degree_cases(max_degree=8)))
    def test_matches_reference(self, case):
        prefix, noisy, syn, cfg = case
        self.assert_same_messages(
            *check_messages(prefix, noisy[:_FRAME_BLOCK], syn[:_FRAME_BLOCK], cfg)
        )

    def test_saturated_messages(self):
        # check 0 touches no column: frames with a target 1-bit there never
        # converge, and their messages run into the v2c clamp; every other
        # check has 3 or more edges, so the check messages stay under the
        # clamp, which is skipped
        degs = np.resize([3, 4, 2, 5], 40)
        prefix = rl.MatrixPrefix(code_from_degrees(20, degs, np.arange(1, 20), 17), 40)
        assert prefix.edges.full_slots >= 3 and prefix.edges.checks.size == 19
        rng = np.random.default_rng(18)
        keys = rng.integers(0, 2, (_FRAME_BLOCK, 40), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        syn[::2, 0] = 1
        noisy = keys ^ (rng.random(keys.shape) < 0.05).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=0.05, max_iterations=40)
        got, want, loo = check_messages(prefix, noisy, syn, cfg)
        self.assert_same_messages(got, want, loo)
        assert len(want) == 40
        assert 0.9 * _LLR_CLAMP < np.abs(want[-1]).max() < _LLR_CLAMP

    @pytest.mark.parametrize("p", [0.5 - 1e-13, 0.05])
    def test_tanh_floor(self, p):
        # at p = 0.5 - 1e-13 every prior message (about 2e-13) is under the
        # tanh floor of 1e-12, so the check update must raise it there; at
        # p = 0.05 no check product is under 2e-12, and the update skips the
        # per-edge floor test
        degs = np.resize([3, 4, 2, 5], 40)
        prefix = rl.MatrixPrefix(code_from_degrees(20, degs, np.arange(20), 19), 40)
        rng = np.random.default_rng(20)
        keys = rng.integers(0, 2, (_FRAME_BLOCK, 40), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        noisy = keys ^ (rng.random(keys.shape) < 0.05).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=p, max_iterations=8)
        got, want, loo = check_messages(prefix, noisy, syn, cfg)
        self.assert_same_messages(got, want, loo)
        assert len(want) >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degree_one_and_two_checks(self):
        # check 0 has one edge and check 1 two: their messages reach or pass
        # the clamp (a degree-1 check's arctanh is +-inf), so it must run,
        # and the infinite arctanh must not warn
        rng = np.random.default_rng(24)
        cols = [np.sort(rng.choice(np.arange(2, 12), 3, replace=False)) for _ in range(24)]
        cols += [[0, 5], [1, 6], [1, 7]]
        indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
        prefix = rl.MatrixPrefix(rl.ParityMatrix(12, 27, indptr, np.concatenate(cols)), 27)
        assert prefix.edges.full_slots == 1 and prefix.edges.partial_slots[0][1] == 11
        keys = rng.integers(0, 2, (_FRAME_BLOCK, 27), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        noisy = keys ^ (rng.random(keys.shape) < 0.08).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=0.05, max_iterations=20)
        got, want, loo = check_messages(prefix, noisy, syn, cfg)
        self.assert_same_messages(got, want, loo)
        assert np.abs(want[0]).max() == _LLR_CLAMP

    def test_tiny_product_without_floor(self):
        # 4 checks of about 45 edges at p = 0.45: iteration 1's tanh product
        # (about 0.1 ** 45) is under the floor test's 2e-12, so the exact
        # per-edge test runs, but no |tanh| (about 0.1) is under the floor
        degs = np.full(60, 3)
        prefix = rl.MatrixPrefix(code_from_degrees(4, degs, np.arange(4), 27), 60)
        p = 0.45
        t = np.tanh(0.5 * np.log((1 - p) / p))
        assert t > _TANH_FLOOR and t ** prefix.edges.full_slots < 2 * _TANH_FLOOR
        rng = np.random.default_rng(28)
        keys = rng.integers(0, 2, (_FRAME_BLOCK, 60), dtype=np.uint8)
        syn = rl.encode_syndrome_batch(prefix, keys)
        noisy = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
        cfg = DecoderConfig(crossover_prior=p, max_iterations=6)
        got, want, loo = check_messages(prefix, noisy, syn, cfg)
        self.assert_same_messages(got, want, loo)
        assert len(want) >= 1


class TestSlotSum:
    """The variable update adds a column's messages in ``add.reduceat``'s
    order, bit for bit, at every degree: left to right, pairwise, and the
    pairwise sum split once (130 to 257 edges) or twice."""

    DEGREES = [*range(1, 41), 127, 128, 129, 130, 136, 137, 200, 257, 258, 300, 513]

    @pytest.mark.parametrize("rows", [1, 3, _FRAME_BLOCK])
    def test_equals_add_reduceat(self, rows):
        rng = np.random.default_rng(16)
        for d in self.DEGREES:
            # magnitudes over 26 decades make any change of order show;
            # ``rows`` frames, innermost as in the decoder
            scale = np.exp(rng.uniform(-30, 30, (3 * d, rows)))
            x = rng.standard_normal((3 * d, rows)) * scale
            slots = np.arange(3 * d).reshape(3, d).T.copy()
            # segment sums of each frame's row, as add.reduceat sums them
            want = np.add.reduceat(np.ascontiguousarray(x.T), [0, d, 2 * d], axis=1)
            assert np.array_equal(_slot_sum(x, slots), want.T), d


class TestCheckReduce:
    """The check update's product and the syndrome parity take each check's
    edges in column order, left to right, as ``multiply.reduceat`` and
    ``bitwise_xor.reduceat`` over its check-major segment do, bit for bit,
    at every check degree from 1 to 40."""

    @pytest.mark.parametrize("rows", [1, 3, _FRAME_BLOCK])
    def test_equals_reduceat(self, rows):
        rng = np.random.default_rng(22)
        # check i has i edges, so every slot after the first is partial;
        # checks 0 and 41 have none
        H = np.zeros((42, 60), dtype=np.uint8)
        for i in rng.permutation(np.arange(1, 41)):
            H[i, rng.choice(60, i, replace=False)] = 1
        col_rows = [np.flatnonzero(H[:, j]) for j in range(60)]
        indptr = np.concatenate(([0], np.cumsum([c.size for c in col_rows])))
        matrix = rl.ParityMatrix(42, 60, indptr, np.concatenate(col_rows))
        prefix = rl.MatrixPrefix(matrix, 60)
        e = prefix.edges
        order = check_major_positions(prefix)
        _, present, check_first, _ = check_major(prefix)
        by_check = np.argsort(e.checks)
        # magnitudes over 14 decades make any change of order show
        x = rng.standard_normal((e.num_edges, rows)) * np.exp(
            rng.uniform(-16, 16, (e.num_edges, rows))
        )
        bits = rng.integers(0, 2, (e.num_edges, rows), dtype=np.uint8)
        for ufunc, a in ((np.multiply, x), (np.bitwise_xor, bits)):
            cm = np.ascontiguousarray(a[order].T)  # (frames, edges), check-major
            want = ufunc.reduceat(cm, check_first, axis=1)
            assert np.array_equal(_check_reduce(ufunc, e, a)[by_check], want.T)
        assert np.array_equal(e.checks[by_check], present)


def zero_columns_first(prefix):
    """(prefix, order): the prefix's code with its degree-0 columns first.

    Column k of the new code is column ``order[k]`` of the old one.  The
    other columns keep their relative order, so every edge keeps its place
    in check-major order and the decoder does the same arithmetic on them.
    """
    deg = prefix.matrix.column_degrees()[: prefix.width]
    order = np.argsort(deg > 0, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(deg[order])))
    indices = np.concatenate([prefix.matrix.column(j) for j in order])
    matrix = rl.ParityMatrix(prefix.num_checks, prefix.width, indptr, indices)
    return rl.MatrixPrefix(matrix, prefix.width), order


class TestDegreeZeroColumns:
    """A column that no check touches keeps its received bit, and changes
    nothing else, wherever it sits in the prefix."""

    @settings(max_examples=150, deadline=None)
    @given(case=mixed_degree_cases(min_degree=0))
    def test_keeps_received_bit_and_matches_reference(self, case):
        prefix, noisy, syn, cfg = case
        hard, ok, iters, unsat = _decode_batch(prefix, noisy, syn, cfg)
        zero = prefix.matrix.column_degrees()[: prefix.width] == 0
        assert np.array_equal(hard[:, zero], noisy[:, zero])
        # the reference hands a degree-0 column a neighbour's message, and
        # fails on a trailing one, so it decodes them first and is not asked
        # for their bits
        moved, order = zero_columns_first(prefix)
        want = decode_batch_reference(moved, noisy[:, order], syn, cfg)
        assert np.array_equal(hard[:, order][:, ~zero[order]], want[0][:, ~zero[order]])
        for g, w in zip((ok, iters, unsat), want[1:]):
            assert np.array_equal(g, w)

    def test_trailing_column_keeps_received_bit(self):
        # column 4 of this 3x5 code touches no check
        bare = rl.ParityMatrix(3, 5, [0, 2, 4, 6, 9, 9], [0, 1, 1, 2, 0, 2, 0, 1, 2])
        prefix = rl.MatrixPrefix(bare, 5)
        noisy = np.array([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [1, 1, 0, 1, 1]], np.uint8)
        syn = np.zeros((3, 3), np.uint8)
        hard, ok, iters, unsat = _decode_batch(prefix, noisy, syn, CFG)
        assert np.array_equal(hard[:, 4], noisy[:, 4])
        assert ok[0] and iters[0] == 0
        assert np.array_equal(rl.encode_syndrome_batch(prefix, hard)[ok], syn[ok])


class TestDecoderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(crossover_prior=0.0)
        with pytest.raises(ValueError):
            DecoderConfig(crossover_prior=0.5)
        with pytest.raises(ValueError):
            DecoderConfig(crossover_prior=0.1, max_iterations=0)
        # a float budget, whole or not, would fail later in range()
        with pytest.raises(ValueError):
            DecoderConfig(0.05, 10.0)
        with pytest.raises(ValueError):
            DecoderConfig(0.05, 2.5)

    def test_integer_iterations_are_stored_as_int(self):
        for n in (10, np.int64(10), np.uint8(10)):
            cfg = DecoderConfig(0.05, n)
            assert type(cfg.max_iterations) is int and cfg.max_iterations == 10


class TestHighNoiseFullWidth:
    def test_p30_defeats_full_width(self, mother_matrix):
        # far beyond code capability: expect universal failure
        prefix = rl.MatrixPrefix(mother_matrix, 5120)
        est = _run_cell(prefix, 0.3, 100, (12,), 20)
        assert est.point_estimate == 1.0


@st.composite
def key_blocks(draw) -> np.ndarray:
    """A (blocks, width) 0/1 uint8 array, at least one bit."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    data = draw(st.binary(min_size=rows * width, max_size=rows * width))
    return (np.frombuffer(data, dtype=np.uint8) & 1).reshape(rows, width)


# the ASCII whitespace str.strip() removes, other than line ends
_STRIP = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


@st.composite
def key_file_bytes(draw) -> tuple[bytes, int | None]:
    r"""Key-file bytes and a width to read them at.

    Lines end in ``\n``, ``\r\n`` or a lone ``\r``, the last one maybe in
    none; blank lines and whitespace around lines are mixed in, and some
    lines are ragged or carry a whitespace or non-0/1 byte inside.
    """
    width = draw(st.integers(1, 12))
    space = st.text(st.sampled_from(_STRIP), max_size=3)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ["block"] * 6 + ["blank", "ragged", "space-inside", "not-a-bit"]
        ))
        if kind == "blank":
            body = draw(space)
        else:
            size = draw(st.integers(1, 12)) if kind == "ragged" else width
            body = "".join(draw(st.lists(st.sampled_from("01"), min_size=size,
                                         max_size=size)))
            if kind in ("space-inside", "not-a-bit"):
                at = draw(st.integers(1, len(body)))
                byte = draw(st.sampled_from(
                    _STRIP if kind == "space-inside"
                    else ["2", "a", "-", "\x00", "\x7f", "\x80", "\x85", "\xa0", "\xff"]
                ))
                body = body[:at] + byte + body[at:]
            body = draw(space) + body + draw(space)
        lines.append(body + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    read_width = draw(st.sampled_from([None, width, width + 1]))
    return "".join(lines).encode("latin-1"), read_width


class TestKeyBlockFiles:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("keys") / "keys.txt"

    @settings(max_examples=400, deadline=None)
    @given(case=key_file_bytes())
    def test_matches_reference(self, path, case):
        # the same blocks, or the same ValueError text, as the text-mode
        # line-by-line reader; a non-ASCII byte is refused by both, but the
        # reference's UnicodeDecodeError names a position that depends on
        # how text mode buffers the file
        data, width = case
        path.write_bytes(data)
        try:
            want = read_key_blocks_reference(path, width)
        except UnicodeDecodeError:
            with pytest.raises(ValueError):
                rl.read_key_blocks(path, width)
            return
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                rl.read_key_blocks(path, width)
            assert str(got.value) == str(exc)
            return
        got = rl.read_key_blocks(path, width)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("data", [
        b"", b"\n\r\n\r", b" \t\x0b\x0c\x1c\x1d\x1e\x1f\n",  # no blocks
        b"01\r\r\n10\r", b"\x1f01 \r\n\n\t10\x0c",  # line ends, strip
        b"01\n1 0\n", b"01\n1\x1c0\n", b"01\n\n10\r2\n",  # bad line 2 / 4
        b"01\n010\n1\n", b"0110",  # ragged, width mismatch
        b"01\n1a", b"01\r1 0", b"01\n10\n\x00",  # bad line 2 / 2 / 3
        # the search for the first bad line walks every line
        pytest.param(b"01\n" * 4999 + b"1/\n", id="bad-line-5000"),
    ])
    def test_matches_reference_on_edges(self, tmp_path, data):
        path = tmp_path / "keys.txt"
        path.write_bytes(data)
        try:
            want = read_key_blocks_reference(path, 2)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                rl.read_key_blocks(path, 2)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(rl.read_key_blocks(path, 2), want)

    @settings(max_examples=100, deadline=None)
    @given(blocks=key_blocks())
    def test_any_blocks_round_trip(self, path, blocks):
        rl.write_key_blocks(path, blocks)
        assert np.array_equal(rl.read_key_blocks(path, width=blocks.shape[1]), blocks)

    @settings(max_examples=100, deadline=None)
    @given(blocks=key_blocks(), data=st.data())
    def test_one_byte_edit_loads_or_is_refused(self, path, blocks, data):
        rl.write_key_blocks(path, blocks)
        path.write_bytes(data.draw(byte_edits(path.read_bytes())))
        try:
            loaded = rl.read_key_blocks(path)
        except ValueError:  # UnicodeDecodeError included
            return
        assert loaded.ndim == 2 and np.all(loaded <= 1)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        blocks = rng.integers(0, 2, (3, 17), dtype=np.uint8)
        path = tmp_path / "keys.txt"
        rl.write_key_blocks(path, blocks)
        assert np.array_equal(rl.read_key_blocks(path), blocks)
        assert np.array_equal(rl.read_key_blocks(path, width=17), blocks)

    def test_bytes_match_per_bit_rendering(self, tmp_path):
        rng = np.random.default_rng(11)
        cases = [
            rng.integers(0, 2, (4, 33), dtype=np.uint8),
            rng.integers(0, 2, 9, dtype=np.uint8),  # 1-D: one block
            rng.integers(-3, 4, (2, 10)),  # any nonzero value is a 1
            np.array([[0.0, 0.5, 2.0]]),
        ]
        for blocks in cases:
            path = tmp_path / "keys.txt"
            rl.write_key_blocks(path, blocks)
            want = "".join(
                "".join("1" if b else "0" for b in row) + "\n"
                for row in np.atleast_2d(blocks)
            )
            assert path.read_bytes() == want.encode("ascii")

    def test_width_validation(self, tmp_path):
        path = tmp_path / "keys.txt"
        rl.write_key_blocks(path, np.zeros((1, 8), np.uint8))
        with pytest.raises(ValueError):
            rl.read_key_blocks(path, width=9)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("0102\n")
        with pytest.raises(ValueError):
            rl.read_key_blocks(path)

    def test_rejects_ragged_blocks(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("0101\n010\n")
        with pytest.raises(ValueError):
            rl.read_key_blocks(path)
