"""Classical codes, dual tensor constructions and the exhaustive oracles.

The kappa / decomposition / coset-leader routines are cross-checked here
against fully independent enumerations that never share code paths with
the library routines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtanner import codes, decoder, gf2
from qtanner.codes import LinearCode
from qtanner.errors import BudgetError, NotInCodeError
from qtanner.gf2 import BitMatrix

from oracles import (
    codeword_bits,
    exhaustive_min_cr,
    independent_kappa,
    local_dual_tensor_distance,
    np_commutator_gf2,
    np_mat_vec_gf2,
    same_subspace,
)


def kappa_of(ca, cb):
    """κ of C_A ⊞ C_B, as a Tanner code reads each of its sides."""
    return codes.dual_tensor_code(ca, cb).kappa


def split_one(dt, x):
    """(c, r) of ``dt.split`` of the one codeword x, as ints."""
    _, c, r = dt.split(np.array([x], dtype=np.uint64))
    return int(c[0]), int(r[0])


def tensor_code(ca, cb):
    """C_A ⊗ C_B: grid codewords with every column in C_A, every row in
    C_B; position (a, b) of the grid is bit a*n_B + b (A-major), the
    Kronecker convention of the package."""
    gen = gf2.kronecker(ca.gen, cb.gen)
    return LinearCode(ca.n * cb.n, gen, gf2.Echelon(gen).kernel())


class TestConstruction:
    def test_parity_from_check(self):
        c = LinearCode.from_generator(BitMatrix.from_strings(["111"])).dual()
        assert c.dim == 2
        assert all(x.bit_count() % 2 == 0 for x in codeword_bits(c))

    def test_repetition_from_generator(self):
        c = LinearCode.from_generator(BitMatrix.from_strings(["111"]))
        assert c.dim == 1
        assert set(codeword_bits(c)) == {0, 0b111}

    def test_dim_matches_kernel_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = BitMatrix(2, 4, [int(rng.integers(1, 16)) for _ in range(2)])
            c = LinearCode.from_generator(h).dual()
            brute = sum(
                1
                for x in range(16)
                if all((r & x).bit_count() % 2 == 0 for r in h.data)
            )
            assert 1 << c.dim == brute

    def test_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = codes.sample_random_code(6, 3, rng)
            prod = np_commutator_gf2(c.gen, c.pchk)
            assert not prod.any()
            assert gf2.Echelon(c.gen).rank == c.gen.rows
            assert gf2.Echelon(c.pchk).rank == c.pchk.rows
            assert c.gen.rows + c.pchk.rows == c.n

    def test_dependent_input_rows_reduced(self):
        h = BitMatrix.from_strings(["110", "110", "011"])
        c = LinearCode.from_generator(h).dual()
        assert c.pchk.rows == 2 and c.dim == 1

    def test_json_reads_generator_rows(self):
        c = LinearCode.from_json({"n": 5, "gen": ["11000", "01100", "00110", "00011"]})
        assert same_subspace(c, codes.parity_code(5))
        assert LinearCode.from_json({"n": 4, "gen": []}).dim == 0

    def test_json_length_is_a_whole_number(self):
        for n in (3, 3.0, np.int64(3)):
            c = LinearCode.from_json({"n": n, "gen": ["111"]})
            assert c.n == 3 and type(c.n) is int and c.dim == 1
        for n in (3.9, True, "3"):
            with pytest.raises(ValueError, match="is not a whole number"):
                LinearCode.from_json({"n": n, "gen": ["111"]})
        with pytest.raises(ValueError, match="is not a whole number"):
            LinearCode.from_json({"n": 3.9, "gen": []})

    @pytest.mark.parametrize("gen, message", [
        ("111", "gen must be a list"),
        ([111], "rows must be bit strings"),
        (["111", "1"], "unequal lengths"),
    ])
    def test_json_generator_rows_are_bit_strings_of_one_length(self, gen, message):
        with pytest.raises(ValueError, match=message):
            LinearCode.from_json({"n": 3, "gen": gen})


class TestDual:
    def test_rep_par_duality(self):
        assert same_subspace(codes.repetition_code(3).dual(), codes.parity_code(3))

    def test_involution(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c = codes.sample_random_code(5, 2, rng)
            assert same_subspace(c.dual().dual(), c)

    def test_full_inner_product_check(self):
        rng = np.random.default_rng(8)
        c = codes.sample_random_code(6, 3, rng)
        d = c.dual()
        for x in codeword_bits(c):
            for y in codeword_bits(d):
                assert (x & y).bit_count() % 2 == 0


class TestTensorCode:
    """The tensor-code reference of ``test_equals_dual_of_tensor_of_duals``."""

    def test_rep2_tensor_rep2(self):
        t = tensor_code(codes.repetition_code(2), codes.repetition_code(2))
        assert set(codeword_bits(t)) == {0, 0b1111}

    def test_dimension_product(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            ca = codes.sample_random_code(4, 2, rng)
            cb = codes.sample_random_code(3, 1, rng)
            assert tensor_code(ca, cb).dim == ca.dim * cb.dim

    def test_rep3_tensor_par3_columns(self):
        t = tensor_code(codes.repetition_code(3), codes.parity_code(3))
        words = set(codeword_bits(t))
        assert len(words) == 1 << (1 * 2)  # dim = dim(rep_3) * dim(par_3)
        for x in words:
            for b in range(3):
                col = tuple((x >> (a * 3 + b)) & 1 for a in range(3))
                assert col in {(0, 0, 0), (1, 1, 1)}


class TestDualTensorCode:
    def test_rep3_par3_dimension(self):
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        assert dt.dim == 7
        assert gf2.Echelon(dt.pchk).rank == 2

    def test_full_space_partner(self):
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.full_space(3))
        assert dt.dim == 9  # dual of the zero code is everything
        assert dt.pchk.rows == 0

    def test_membership_of_c_plus_r_samples(self):
        rng = np.random.default_rng(12)
        ca, cb = codes.repetition_code(3), codes.parity_code(3)
        dt = codes.dual_tensor_code(ca, cb)
        for _ in range(30):
            c = 0
            for b in range(3):
                u = int(rng.choice(codeword_bits(ca)))
                for a in range(3):
                    if (u >> a) & 1:
                        c |= 1 << (a * 3 + b)
            r = 0
            for a in range(3):
                r |= int(rng.choice(codeword_bits(cb))) << (a * 3)
            assert not np_mat_vec_gf2(dt.pchk, c ^ r)

    def test_equals_dual_of_tensor_of_duals(self):
        ca, cb = codes.repetition_code(3), codes.parity_code(3)
        dt = codes.dual_tensor_code(ca, cb)
        alt = tensor_code(ca.dual(), cb.dual()).dual()
        assert sorted([0] + dt.codewords().tolist()) == sorted(codeword_bits(alt))


def random_dual_tensor_code(na, ka, nb, kb, seed):
    rng = np.random.default_rng(seed)
    return codes.dual_tensor_code(codes.sample_random_code(na, ka, rng),
                                  codes.sample_random_code(nb, kb, rng))


class TestLexOrder:
    """The codewords and the column space are spanned in lex order, so
    the decoder's scan order and the split's tie-break need no lexsort."""

    LOCAL_CODES = {
        "reference": lambda fx: fx("ref_code").x_correction_code,
        "z8_rep3": lambda fx: fx("unique_code").x_correction_code,
        "side_z": lambda fx: fx("z_side")(fx("ref_code")).x_correction_code,
        # the Z14/rep_7 instance's local code: 8,191 words
        "rep7_rep7": lambda fx: codes.dual_tensor_code(codes.repetition_code(7),
                                                       codes.repetition_code(7)),
        # dimension 15 on n = 64: words use the top bit of uint64
        "rep8_rep8": lambda fx: codes.dual_tensor_code(codes.repetition_code(8),
                                                       codes.repetition_code(8)),
        "random_4x5": lambda fx: random_dual_tensor_code(4, 2, 5, 3, 1),
        "random_6x6": lambda fx: random_dual_tensor_code(6, 1, 6, 2, 2),
        "random_3x7": lambda fx: random_dual_tensor_code(3, 1, 7, 2, 3),
    }

    @pytest.mark.parametrize("name", sorted(LOCAL_CODES))
    def test_codewords_in_ascending_lex_key_order(self, name, request):
        dt = self.LOCAL_CODES[name](request.getfixturevalue)
        xs = dt.codewords()
        keys = gf2.lex_keys(xs, dt.n)
        assert len(xs) == (1 << dt.dim) - 1 and xs.all()
        assert (keys[1:] > keys[:-1]).all()
        assert not any(np_mat_vec_gf2(dt.pchk, x) for x in xs[:: max(1, len(xs) // 64)].tolist())

    @pytest.mark.parametrize("name", sorted(LOCAL_CODES))
    def test_column_space_by_syndrome_then_lex_key(self, name, request):
        dt = self.LOCAL_CODES[name](request.getfixturevalue)
        space = dt._column_space
        syn, keys = space.syndromes, gf2.lex_keys(space.words, dt.n)
        assert len(space.words) == 1 << (dt.code_a.dim * dt.nb)
        assert ((syn[1:] > syn[:-1]) | (syn[1:] == syn[:-1]) & (keys[1:] > keys[:-1])).all()


class TestMinDistance:
    def test_known_codes(self):
        assert codes.min_distance_bruteforce(codes.repetition_code(5)) == 5
        assert codes.min_distance_bruteforce(codes.parity_code(4)) == 2
        assert codes.min_distance_bruteforce(codes.zero_code(3)) == math.inf

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(14)
        c = codes.sample_random_code(8, 3, rng)
        brute = min(x.bit_count() for x in codeword_bits(c) if x)
        assert codes.min_distance_bruteforce(c) == brute

    def test_budget_refusal(self):
        big = codes.full_space(23)
        with pytest.raises(BudgetError):
            codes.min_distance_bruteforce(big)


class TestSampleRandomCode:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert codes.sample_random_code(4, 0, rng).dim == 0
        assert codes.sample_random_code(4, 4, rng).dim == 4

    def test_seed_determinism(self):
        a = codes.sample_random_code(6, 3, np.random.default_rng(99))
        b = codes.sample_random_code(6, 3, np.random.default_rng(99))
        assert a.gen == b.gen and a.pchk == b.pchk

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            codes.sample_random_code(3, 4, np.random.default_rng(0))


class TestProductExpansionKappa:
    def test_single_codeword_full_support(self):
        # rep_1 boxplus rep_1 has the single codeword "1": the one
        # decomposition c = 1, r = 0 costs 1, so kappa = (1/1) / 1 = 1
        k = kappa_of(codes.repetition_code(1), codes.repetition_code(1))
        assert k == Fraction(1)

    def test_rep2_boxplus_rep2_cross_pattern(self):
        # frozen from the independent enumerator: the anti-diagonal
        # {(0,1),(1,0)} needs one column plus one row, cost 1, weight 2/4
        k = kappa_of(codes.repetition_code(2), codes.repetition_code(2))
        assert k == Fraction(1, 2)
        assert k == independent_kappa(codes.repetition_code(2), codes.repetition_code(2))

    def test_full_space_degenerate_decomposition(self):
        k = kappa_of(codes.full_space(2), codes.zero_code(2))
        # every x decomposes as c = x, r = 0; kappa set by column counts
        assert k == independent_kappa(codes.full_space(2), codes.zero_code(2))

    def test_rep3_par3_value_and_independent_enumerator(self):
        k = kappa_of(codes.repetition_code(3), codes.parity_code(3))
        assert k == Fraction(1, 3)  # frozen from the independent enumerator
        assert k == independent_kappa(codes.repetition_code(3), codes.parity_code(3))

    def test_rep2_par3_rectangular_grid(self):
        # |A| = 2, |B| = 3: the normalised cost weighs columns and rows
        # differently, so the value checks the |B|, |A| cost scaling
        k = kappa_of(codes.repetition_code(2), codes.parity_code(3))
        assert k == Fraction(2, 5)
        assert k == independent_kappa(codes.repetition_code(2), codes.parity_code(3))

    def test_positive_for_proper_codes(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            ca = codes.sample_random_code(3, 1, rng)
            cb = codes.sample_random_code(3, 2, rng)
            assert kappa_of(ca, cb) > 0

    def test_zero_code_has_no_kappa(self):
        # zero ⊞ zero holds no nonzero codeword to take a ratio of
        with pytest.raises(ValueError, match="zero dual tensor code"):
            kappa_of(codes.zero_code(2), codes.zero_code(2))

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            kappa_of(codes.full_space(5), codes.full_space(5))
        # dimension 16 is within MAX_TABLE_DIM, but every one of the 2^16 - 1
        # codewords has 2^16 candidates: 2^32 pairs, over MAX_SPLIT_PAIRS
        with pytest.raises(BudgetError, match="pairs"):
            kappa_of(codes.full_space(4), codes.full_space(4))

    @pytest.mark.parametrize(
        "delta, b_code, kappa",
        [
            (4, codes.parity_code, Fraction(1, 4)),  # the reference's rep_4 ⊞ par_4
            (5, codes.repetition_code, Fraction(13, 25)),
            (7, codes.repetition_code, Fraction(25, 49)),
        ],
    )
    def test_pinned_values(self, delta, b_code, kappa):
        # recorded from the table-walk implementation the split replaced
        assert kappa_of(codes.repetition_code(delta), b_code(delta)) == kappa


class TestMinCrDecomposition:
    """``DualTensorCode.split`` of one codeword at a time."""

    def test_zero(self):
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        c, r = split_one(dt, 0)
        assert c == 0 and r == 0

    def test_single_row_codeword(self):
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        x = 0b011  # row 0 = 110 pattern, a parity codeword
        c, r = split_one(dt, x)
        assert c == 0 and r == x

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(18)
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        words = dt.codewords().tolist()
        for x in rng.choice(len(words), size=20, replace=False):
            x = words[int(x)]
            c, r = split_one(dt, x)
            key, c0, r0 = exhaustive_min_cr(dt, x)
            assert (c, r) == (c0, r0)
            assert c ^ r == x

    def test_rejects_non_codeword(self):
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        bad = 1  # single bit: column not in rep_3, row not in par_3
        assert np_mat_vec_gf2(dt.pchk, bad)
        with pytest.raises(NotInCodeError):
            split_one(dt, bad)
        # and with the roles of rep_3 and par_3 exchanged
        dt_t = codes.dual_tensor_code(codes.parity_code(3), codes.repetition_code(3))
        assert np_mat_vec_gf2(dt_t.pchk, bad)
        with pytest.raises(NotInCodeError):
            split_one(dt_t, bad)

    def test_budget_refusal(self):
        # rep_5 ⊞ par_5 has dimension 21 > MAX_TABLE_DIM
        dt = codes.dual_tensor_code(codes.repetition_code(5), codes.parity_code(5))
        assert dt.dim > codes.MAX_TABLE_DIM
        with pytest.raises(BudgetError):
            split_one(dt, 0)
        with pytest.raises(BudgetError):
            dt.codewords()


class TestSplit:
    def test_column_space_prepared_once_per_code(self):
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        assert len(dt.codewords()) == (1 << dt.dim) - 1
        space = dt._column_space
        dt.split(dt.codewords())
        assert dt._column_space is space
        assert len(space.words) == 1 << 3  # C_A ⊗ F_2^3: a rep_3 word per column
        assert space.block == 1 << 2  # C_A ⊗ C_B = rep_3 ⊗ par_3

    @settings(max_examples=8)
    @given(
        na=st.sampled_from([2, 3]),
        nb=st.sampled_from([2, 3]),
        data=st.data(),
    )
    def test_matches_independent_oracles(self, na, nb, data):
        # random proper local codes: every split against the column-
        # assignment search on square grids (where the normalised cost
        # ranks splits as ||c|| + ||r|| does), kappa on every grid
        ka = data.draw(st.integers(1, na - 1), label="ka")
        kb = data.draw(st.integers(1, nb - 1), label="kb")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ca = codes.sample_random_code(na, ka, rng)
        cb = codes.sample_random_code(nb, kb, rng)
        dt = codes.dual_tensor_code(ca, cb)
        xs = dt.codewords()
        ambient = [x for x in range(1, 1 << dt.n) if not np_mat_vec_gf2(dt.pchk, x)]
        assert sorted(xs.tolist()) == ambient
        costs, cs, rs = dt.split(xs)
        for x, cost, c, r in zip(xs.tolist(), costs.tolist(), cs.tolist(), rs.tolist()):
            assert c ^ r == x
            if na == nb:
                (n_split, _), c0, r0 = exhaustive_min_cr(dt, x)
                assert (c, r) == (c0, r0)
                assert cost == n_split * na
                assert split_one(dt, x) == (c0, r0)
        assert dt.kappa == independent_kappa(ca, cb)

    def test_passes_split_large_inputs(self, monkeypatch):
        # a pass holds at most SPLIT_PASS candidates; several passes give
        # the one-pass result
        dt = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3))
        xs = dt.codewords()
        whole = dt.split(xs)
        monkeypatch.setattr(codes, "SPLIT_PASS", 5)
        parts = dt.split(xs)
        assert all(np.array_equal(a, b) for a, b in zip(whole, parts))


class TestCosetLeaderTable:
    """The syndrome -> leader map of the decoder cache (``cache.leaders``)."""

    def test_zero_syndrome_maps_to_zero(self, rep3_par3_code):
        assert decoder.get_cache(rep3_par3_code).leaders.get(0) == 0

    def test_weight_minimality_by_full_scan(self, rep3_par3_code):
        dt = rep3_par3_code.x_correction_code
        cache = decoder.get_cache(rep3_par3_code)
        table = {s: cache.leaders.get(s) for s in range(1 << dt.pchk.rows)}
        assert len(table) == 4
        # independent scan over all 2^9 vectors
        best = {}
        for y in range(1 << 9):
            s = 0
            for i, row in enumerate(dt.pchk.data):
                s |= ((row & y).bit_count() & 1) << i
            if s not in best or y.bit_count() < best[s]:
                best[s] = y.bit_count()
        for s, y in table.items():
            assert y.bit_count() == best[s]
            syn = 0
            for i, row in enumerate(dt.pchk.data):
                syn |= ((row & y).bit_count() & 1) << i
            assert syn == s

    def test_weight1_leaders_unique_when_distance_3(self, unique_code):
        # rep_3 boxplus rep_3 has distance 3, so every unit vector is the
        # unique minimum-weight element of its coset and the lookup returns
        # it exactly
        dt = unique_code.x_correction_code
        assert local_dual_tensor_distance(dt.code_a.pchk, dt.code_b.pchk) == 3
        cache = decoder.get_cache(unique_code)
        for p in range(9):
            s = 0
            for i, row in enumerate(dt.pchk.data):
                s |= ((row >> p) & 1) << i
            assert cache.leaders.get(s) == 1 << p
