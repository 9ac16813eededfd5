"""GF(2) substrate: packed vectors/matrices against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtanner import gf2
from qtanner.errors import DimensionMismatchError
from qtanner.gf2 import BitMatrix, BitVector

from oracles import lex_key, np_mat_vec_gf2, np_rank_gf2, span


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, [int(rng.integers(0, 1 << cols)) for _ in range(rows)])


def entry(m, i, j):
    """Entry (i, j) of a packed-row matrix."""
    return (m.data[i] >> j) & 1


def to_ascii(m):
    """One '0'/'1' line per row of ``m``, column 0 first."""
    return "\n".join("".join(str(entry(m, i, j)) for j in range(m.cols)) for i in range(m.rows))


def transpose(m):
    """Mᵀ, one entry at a time."""
    return BitMatrix(m.cols, m.rows, [sum(entry(m, i, j) << i for i in range(m.rows))
                                      for j in range(m.cols)])


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("10110")
        assert v.weight() == 3
        assert v.bits == 0b1101
        assert v.to01() == "10110"

    def test_xor_and_length_check(self):
        a = BitVector.from_string("101")
        b = BitVector.from_string("110")
        assert (a ^ b).to01() == "011"
        with pytest.raises(DimensionMismatchError):
            a ^ BitVector.from_string("1100")

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            BitVector(3, 0b1000)


class TestMatVecMul:
    """The dense syndrome oracle that the kernel and solve checks use."""

    def test_identity(self):
        v = BitVector.from_string("101")
        assert np_mat_vec_gf2(BitMatrix.identity(3), v) == v.bits

    def test_even_parity(self):
        m = BitMatrix.from_strings(["111"])
        assert np_mat_vec_gf2(m, BitVector.from_string("110")) == 0

    def test_repetition_check_matrix(self):
        # H for the length-3 repetition code, direct inner-product oracle
        h = BitMatrix.from_strings(["110", "101"])
        v = BitVector.from_string("100")
        expect = 0
        for i in range(h.rows):
            dot = sum(entry(h, i, j) * v[j] for j in range(3)) % 2
            expect |= dot << i
        assert np_mat_vec_gf2(h, v) == expect == 0b11

    def test_dimension_error_names_lengths(self):
        with pytest.raises(DimensionMismatchError, match="expected 3, got 2"):
            np_mat_vec_gf2(BitMatrix.identity(3), BitVector.from_string("10"))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_matrix(rng, 5, 9)
            v = int(rng.integers(0, 1 << 9))
            w = int(rng.integers(0, 1 << 9))
            assert np_mat_vec_gf2(m, v ^ w) == np_mat_vec_gf2(m, v) ^ np_mat_vec_gf2(m, w)


class TestRank:
    def test_identity_and_zero(self):
        assert gf2.Echelon(BitMatrix.identity(4)).rank == 4
        assert gf2.Echelon(BitMatrix(3, 5)).rank == 0

    def test_matches_independent_elimination(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rows = [int(rng.integers(0, 1 << 10)) for _ in range(10)]
            m = BitMatrix(10, 10, rows)
            assert gf2.Echelon(m).rank == np_rank_gf2(BitMatrix(len(rows), 10, rows))

    def test_invariant_under_permutation_and_transpose(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_matrix(rng, 6, 8)
            perm = list(rng.permutation(6))
            mp = BitMatrix(6, 8, [m.data[i] for i in perm])
            ranks = [gf2.Echelon(a).rank for a in (m, mp, transpose(m))]
            assert ranks[0] == ranks[1] == ranks[2]


class TestKernelBasis:
    def test_identity_has_empty_kernel(self):
        assert gf2.Echelon(BitMatrix.identity(3)).kernel().rows == 0

    def test_parity_code_kernel(self):
        kb = gf2.Echelon(BitMatrix.from_strings(["111"])).kernel()
        assert kb.rows == 2
        assert all(kb.data[i].bit_count() % 2 == 0 for i in range(2))

    def test_kron_kernel_dimension_by_enumeration(self):
        # rep_3 x par_3 checks: kernel dim 9 - 2 = 7, verified by enumeration
        ha = BitMatrix.from_strings(["110", "101"])
        hb = BitMatrix.from_strings(["111"])
        h = gf2.kronecker(ha, hb)
        kb = gf2.Echelon(h).kernel()
        assert kb.rows == 7
        count = sum(
            1
            for x in range(1 << 9)
            if all((r & x).bit_count() % 2 == 0 for r in h.data)
        )
        assert count == 1 << 7

    def test_kernel_rows_map_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = random_matrix(rng, 4, 7)
            kb = gf2.Echelon(m).kernel()
            assert kb.rows == 7 - gf2.Echelon(m).rank
            assert gf2.Echelon(kb).rank == kb.rows
            for i in range(kb.rows):
                assert np_mat_vec_gf2(m, kb.data[i]) == 0


class TestSolveAny:
    def test_identity(self):
        x = gf2.Echelon(BitMatrix.identity(3)).solve(BitVector.from_string("011"))
        assert x.to01() == "011"

    def test_inconsistent_returns_none(self):
        assert gf2.Echelon(BitMatrix(2, 3)).solve(BitVector.from_string("10")) is None

    def test_odd_weight_solution(self):
        m = BitMatrix.from_strings(["111"])
        x = gf2.Echelon(m).solve(BitVector.from_string("1"))
        assert x is not None and x.weight() % 2 == 1
        assert np_mat_vec_gf2(m, x) == 1

    def test_random_systems_verified_by_remultiplication(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_matrix(rng, 5, 6)
            b = BitVector(5, int(rng.integers(0, 32)))
            x = gf2.Echelon(m).solve(b)
            if x is not None:
                assert np_mat_vec_gf2(m, x) == b.bits

    def test_inconsistency_cross_check(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_matrix(rng, 4, 5)
            b = BitVector(4, int(rng.integers(0, 16)))
            x = gf2.Echelon(m).solve(b)
            # b solvable iff b is in the column space = rowspace of transpose
            solvable = gf2.rowspace_contains(transpose(m), b)
            assert (x is not None) == solvable


    def test_dimension_error_names_lengths(self):
        with pytest.raises(DimensionMismatchError, match="expected 3, got 2"):
            gf2.Echelon(BitMatrix.identity(3)).solve(BitVector.from_string("10"))


def with_column(m, b):
    """[M | b]: b (bit i for row i) appended as column ``m.cols``."""
    return BitMatrix(m.rows, m.cols + 1,
                     [r | ((b >> i) & 1) << m.cols for i, r in enumerate(m.data)])


class TestDependentRows:
    """``rank`` and ``solve``, which the relations {t : tM = 0} decide, on
    matrices with planted dependent rows, against the rank and syndrome
    oracles."""

    @staticmethod
    def planted(rng):
        # independent-looking rows, then sums of random subsets of them
        # (the empty sum, a zero row, included) inserted at random places
        cols = int(rng.integers(1, 9))
        data = [int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(1, 5)))]
        for _ in range(int(rng.integers(0, 3))):
            picks = rng.integers(0, 2, size=len(data))
            row = 0
            for pick, r in zip(picks, data):
                row ^= r if pick else 0
            data.insert(int(rng.integers(0, len(data) + 1)), row)
        return BitMatrix(len(data), cols, data)

    def test_readers_match_oracles(self):
        rng = np.random.default_rng(29)
        for _ in range(80):
            m = self.planted(rng)
            ech = gf2.Echelon(m)
            rank = np_rank_gf2(m)
            assert ech.rank == rank
            reachable = [np_rank_gf2(with_column(m, b)) == rank for b in range(1 << m.rows)]
            # every b, the unit vectors (a right inverse's rows) among them
            for b in range(1 << m.rows):
                x = ech.solve(BitVector(m.rows, b))
                assert (x is None) == (not reachable[b])
                if x is not None:
                    assert np_mat_vec_gf2(m, x) == b


class TestRowspaceContains:
    def test_zero_always_contained(self):
        assert gf2.rowspace_contains(BitMatrix.from_strings(["110"]), BitVector(3, 0))

    def test_identity_contains_everything(self):
        assert gf2.rowspace_contains(BitMatrix.identity(3), BitVector.from_string("111"))

    def test_single_row_excludes(self):
        m = BitMatrix.from_strings(["110"])
        # rowspace = {000, 110}
        assert not gf2.rowspace_contains(m, BitVector.from_string("011"))

    def test_dimension_error_names_lengths(self):
        with pytest.raises(DimensionMismatchError, match="expected 3, got 2"):
            gf2.rowspace_contains(BitMatrix.identity(3), BitVector.from_string("10"))

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = random_matrix(rng, 4, 6)
            v = BitVector(6, int(rng.integers(0, 64)))
            aug = BitMatrix(5, 6, m.data + [v.bits])
            assert gf2.rowspace_contains(m, v) == (gf2.Echelon(aug).rank == gf2.Echelon(m).rank)


class TestKronecker:
    def test_identity_kron_identity(self):
        assert gf2.kronecker(BitMatrix.identity(2), BitMatrix.identity(2)) == BitMatrix.identity(4)

    def test_hand_expansion(self):
        m = gf2.kronecker(BitMatrix.from_strings(["11"]), BitMatrix.from_strings(["10"]))
        assert to_ascii(m) == "1010"

    def test_naive_double_loop_oracle(self):
        ha = BitMatrix.from_strings(["110", "101"])
        hb = BitMatrix.from_strings(["111"])
        k = gf2.kronecker(ha, hb)
        assert k.rows == 2 and k.cols == 9
        for i in range(ha.rows):
            for p in range(hb.rows):
                for j in range(ha.cols):
                    for q in range(hb.cols):
                        assert entry(k, i * hb.rows + p, j * hb.cols + q) == (
                            entry(ha, i, j) & entry(hb, p, q)
                        )

    def test_associative_up_to_nothing_on_desk_cases(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = random_matrix(rng, 2, 2)
            b = random_matrix(rng, 1, 3)
            c = random_matrix(rng, 2, 2)
            left = gf2.kronecker(gf2.kronecker(a, b), c)
            right = gf2.kronecker(a, gf2.kronecker(b, c))
            assert left == right


class TestAsciiSerialization:
    def test_round_trip(self):
        m = BitMatrix.from_strings(["101", "010"])
        assert BitMatrix.from_strings(to_ascii(m).splitlines()) == m


def test_lex_key_orders_by_bit_index():
    # bit 0 compares first and 0 < 1, so "010" sorts before "100"
    a = BitVector.from_string("100").bits
    b = BitVector.from_string("010").bits
    key_0, key_b, key_a = gf2.lex_keys(np.array([0, b, a], dtype=np.uint64), 3).tolist()
    assert key_0 < key_b < key_a


@given(length=st.integers(1, 64), data=st.data())
def test_lex_keys_match_lex_key(length, data):
    words = data.draw(st.lists(st.integers(0, (1 << length) - 1), min_size=1, max_size=6))
    keys = gf2.lex_keys(np.array(words, dtype=np.uint64).reshape(-1, 1), length)
    assert keys.shape == (len(words), 1)
    assert keys.ravel().tolist() == [lex_key(w, length) for w in words]


def test_span_words_matches_span():
    basis = [0b1001, 0b0110, 0b1100]
    words = gf2.span_words(BitMatrix(3, 4, basis)).tolist()
    assert words[0] == 0 and len(words) == 8
    assert sorted(words) == sorted(span(basis))
    # in lex order: bit 0 compares first, a clear bit before a set one
    assert words == sorted(words, key=lambda w: lex_key(w, 4))


@given(cols=st.integers(1, 64), data=st.data())
def test_span_words_in_ascending_lex_key_order(cols, data):
    # dependent rows included: the span has 2^rank words, each once
    rows = data.draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=8))
    words = gf2.span_words(BitMatrix(len(rows), cols, rows))
    keys = gf2.lex_keys(words, cols)
    assert len(words) == 1 << gf2.Echelon(BitMatrix(len(rows), cols, rows)).rank
    assert words[0] == 0 and (keys[1:] > keys[:-1]).all()
    assert set(words.tolist()) == set(span(rows))


class TestBitRows:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 208])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        values = [int(rng.integers(0, 2, size=n) @ (1 << np.arange(n, dtype=object)))
                  if n else 0 for _ in range(5)]
        rows = gf2.to_bit_rows(values, n)
        assert rows.shape == (5, n)
        assert [[int(b) for b in row] for row in rows] == [
            [(v >> i) & 1 for i in range(n)] for v in values
        ]
        assert gf2.from_bit_rows(rows) == values

    @pytest.mark.parametrize("width", [1, 9, 16, 24, 25, 33, 48, 49, 64])
    def test_word_packer_matches_loop(self, width):
        rng = np.random.default_rng(width)
        words = 3
        n = words * width + 5
        cols = rng.permutation(n)[: words * width]
        rows = rng.integers(0, 2, size=(4, n)).astype(np.uint8)
        rows[0] = 1  # every partial sum at its largest
        got = gf2.WordPacker(cols, width, n)(rows)
        assert got.dtype == np.uint64
        for t in range(4):
            for j in range(words):
                want = sum(int(rows[t, cols[j * width + p]]) << p for p in range(width))
                assert int(got[t, j]) == want
        assert (gf2.unpack_words(got, width).reshape(4, -1) == rows[:, cols]).all()

    @pytest.mark.parametrize("slots", [None, 2, 1])
    def test_word_cache_matches_dict_memo(self, slots, monkeypatch):
        if slots:  # every word shares its slot with others
            monkeypatch.setattr(gf2.WordCache, "SLOTS", slots)
        mask = 0xF0F0_0000_0000_0F0F
        asked, read = [], []  # words f computed, words read through the memo

        def leader(word):  # as coset leaders are
            asked.append(word)
            return word ^ mask

        def index(word):  # -1 for "no codeword", as scans are
            return -1 if word % 3 == 0 else word % 1009

        leaders = gf2.WordCache(leader, np.uint64)
        assert asked == [0] and leaders.memo == {0: mask}  # the slots start at get(0)
        get = leaders.get
        leaders.get = lambda word: read.append(word) or get(word)
        indices = gf2.WordCache(index)
        rng = np.random.default_rng(11)
        inputs = [rng.integers(0, 1 << 64, size=(3, 5), dtype=np.uint64),
                  rng.integers(0, 5, size=(40, 7), dtype=np.uint64),  # repeats, and word 0
                  np.zeros((6, 4), dtype=np.uint64),
                  np.zeros((0, 3), dtype=np.uint64),
                  np.array([(1 << 64) - 1, 1 << 63, 0, 1], dtype=np.uint64)]
        for words in inputs + inputs:
            flat = words.ravel().tolist()
            before = len(read)
            got = leaders(words)
            assert got.dtype == np.uint64 and got.shape == words.shape
            assert got.ravel().tolist() == [w ^ mask for w in flat]
            new = read[before:]  # each distinct missed word reads the memo once
            assert len(new) == len(set(new)) and set(new) <= set(flat)
            if not slots:  # nothing is evicted: word 0 and words seen before hit
                assert 0 not in new and not set(new) & set(read[:before])
            got = indices(words)
            assert got.dtype == np.int64 and got.shape == words.shape
            assert got.ravel().tolist() == [index(w) for w in flat]
        # evicted or not, f ran once per distinct word: the memo answered the rest
        assert len(asked) == len(set(asked))
        assert set(asked) == {w for words in inputs for w in words.ravel().tolist()} | {0}
        assert leaders.memo == {w: w ^ mask for w in asked}
        assert [get(w) for w in asked] == [w ^ mask for w in asked] and len(asked) == len(leaders.memo)

    def test_word_width_bounds(self):
        for width in (0, 65):
            with pytest.raises(ValueError, match="word width"):
                gf2.WordPacker(range(65), width, 65)
