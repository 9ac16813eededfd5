"""Quantum Tanner code assembly, parameters, syndromes, classification."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtanner import cayley, codes, decoder, gf2, tanner
from qtanner.errors import CommutationError, DimensionMismatchError
from qtanner.gf2 import BitVector
from qtanner.noise import make_rng

from oracles import local_syndrome, np_commutator_gf2, np_mat_vec_gf2, np_rank_gf2


class TestBuild:
    def test_css_commutation_exact(self, ref_code, tiny_code, z5_code):
        for code in (ref_code, tiny_code, z5_code):
            prod = np_commutator_gf2(code.h_x, code.h_z)
            assert not prod.any()

    def test_reference_shape(self, ref_code):
        assert ref_code.n == 208
        assert ref_code.h_x.rows == 2 * 13 * (1 * 3)
        assert ref_code.h_z.rows == 2 * 13 * (3 * 1)

    def test_row_weight_equals_codeword_weight(self, ref_code):
        basis_weights = [x.bit_count() for x in ref_code.x_check_basis.data]
        per_vertex = [row.bit_count() for row in ref_code.h_x.data]
        for v_idx in range(len(ref_code.v0_vertices)):
            block = per_vertex[v_idx * ref_code.r0 : (v_idx + 1) * ref_code.r0]
            assert block == basis_weights
        assert all(w <= ref_code.delta**2 for w in per_vertex)

    def test_local_length_mismatch_rejected(self):
        g = cayley.build_group("cyclic", 5)
        cx = cayley.build_complex(g, [1, 4], [1, 4])
        with pytest.raises(DimensionMismatchError):
            tanner.QuantumTannerCode(cx, codes.repetition_code(3), codes.parity_code(3))

    def test_broken_orientation_raises_commutation_error(self):
        # transposing the V00 views places C_B ⊗ C_A there instead of
        # C_A ⊗ C_B, which no longer commutes with the V1 checks
        cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
        table, order, d = cx.view_table.copy(), cx.group.order, cx.delta
        table[:order] = table[:order].reshape(order, d, d).transpose(0, 2, 1).reshape(order, -1)
        cx.view_table = table  # class-major ids: V00 is the first |G| rows
        code = object.__new__(tanner.QuantumTannerCode)
        with pytest.raises(CommutationError, match="local-view orientation is broken"):
            code.__init__(cx, codes.repetition_code(3), codes.parity_code(3))
        assert np_commutator_gf2(code.h_x, code.h_z).any()

    def test_z5_degenerate_hz(self, z5_code):
        assert z5_code.h_z.rows == 0
        assert z5_code.n == 20


class TestZSide:
    def test_exact_matrix_exchange(self, ref_code, z_side):
        z = z_side(ref_code)
        assert z.h_x == ref_code.h_z
        assert z.h_z == ref_code.h_x
        assert z.k == ref_code.k

    def test_double_swap_restores(self, ref_code, z_side):
        zz = z_side(z_side(ref_code))
        assert zz.h_x == ref_code.h_x and zz.h_z == ref_code.h_z

    def test_effective_classes_flip_j(self, ref_code, z_side):
        z = z_side(ref_code)
        order = ref_code.complex.group.order
        for v in range(4 * order):
            raw = ref_code.complex.vertex_class(v)
            assert ref_code.effective_class(v) == raw
            assert z.effective_class(v) == raw ^ 1


class TestDimension:
    def test_reference_bound(self, ref_code):
        k, bound = tanner.code_dimension(ref_code)
        assert bound == pytest.approx(52.0)
        assert k >= 52

    def test_rank_matches_independent_oracle(self, tiny_code):
        assert tiny_code.rank_hx == np_rank_gf2(tiny_code.h_x)
        assert tiny_code.rank_hz == np_rank_gf2(tiny_code.h_z)
        k, _ = tanner.code_dimension(tiny_code)
        assert k == tiny_code.n - np_rank_gf2(tiny_code.h_x) - np_rank_gf2(
            tiny_code.h_z
        )

    @pytest.mark.parametrize(
        "m, gens, delta",
        [(8, [1, 7, 4], 3), (12, [1, 11, 2, 10, 6], 5)],
        ids=["z8_rep3", "z12_rep5"],
    )
    def test_bound_holds_without_rate_paired_locals(self, m, gens, delta):
        # rep_Δ on both sides is not rate-paired, so (1 - 2ρ)²·n (8 on Z8,
        # 108 on Z12) would exceed k; the check count gives a true bound
        cx = cayley.build_complex(cayley.build_group("cyclic", m), gens, gens)
        rep = codes.repetition_code(delta)
        code = tanner.QuantumTannerCode(cx, rep, rep)
        k, bound = tanner.code_dimension(code)
        assert bound == code.n - code.h_x.rows - code.h_z.rows
        assert bound <= k
        assert k < (1 - 2 * code.rho) ** 2 * code.n

    def test_rho_half_bound_degenerates(self, tiny_code):
        # rep_2 locals give rho = 1/2
        k, bound = tanner.code_dimension(tiny_code)
        assert bound == 0.0
        assert k >= 0


class TestSyndrome:
    def test_zero_error(self, ref_code):
        assert tanner.syndrome_bits_z(ref_code, 0) == 0

    def test_stabilizer_row_has_zero_syndrome(self, ref_code):
        assert tanner.syndrome_bits_z(ref_code, ref_code.h_x.data[5]) == 0

    def test_weight1_support_covers_two_v1_vertices(self, ref_code):
        q = 7
        s = tanner.syndrome_bits_z(ref_code, 1 << q)
        touched = {
            pos
            for pos in range(len(ref_code.v1_vertices))
            if local_syndrome(ref_code, s, pos)
        }
        face_vs = set(ref_code.complex.corner_table[q].tolist())
        v1_positions = {
            pos for pos, v in enumerate(ref_code.v1_vertices) if v in face_vs
        }
        assert touched == v1_positions and len(touched) == 2

    def test_fast_syndrome_matches_matrix_product(self, ref_code):
        rng = make_rng(5, 0)
        for _ in range(20):
            e = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 1 << 63)) << 63)
            e &= (1 << 208) - 1
            assert tanner.syndrome_bits_z(ref_code, e) == np_mat_vec_gf2(ref_code.h_z, e)


class TestReducedWeight:
    def test_zero(self, tiny_code):
        assert tanner.reduced_weight(tiny_code, BitVector(tiny_code.n, 0)) == 0

    def test_stabilizer_row_reduces_to_zero(self, tiny_code):
        e = BitVector(tiny_code.n, tiny_code.h_x.data[0])
        assert tanner.reduced_weight(tiny_code, e) == 0

    def test_greedy_bounds_rowspace_minimum(self, tiny_code):
        # the exact minimum over the rowspace of H_X, enumerated here
        rowspace = {0}
        for row in tiny_code.h_x.data:
            rowspace |= {s ^ row for s in rowspace}
        rng = make_rng(6, 0)
        for _ in range(25):
            e = int(rng.integers(0, 1 << tiny_code.n))
            brute = min((e ^ s).bit_count() for s in rowspace)
            greedy = tanner.reduced_weight(tiny_code, BitVector(tiny_code.n, e))
            assert brute <= greedy <= e.bit_count()

    def test_length_check(self, tiny_code):
        with pytest.raises(DimensionMismatchError):
            tanner.reduced_weight(tiny_code, BitVector(tiny_code.n + 1, 0))


class TestClassifyResidual:
    def test_zero_is_corrected(self, ref_code):
        assert tanner.classify_residual(ref_code, BitVector(208, 0)) == "corrected"

    def test_stabilizer_is_corrected(self, ref_code):
        stabilizer = BitVector(208, ref_code.h_x.data[3])
        assert tanner.classify_residual(ref_code, stabilizer) == "corrected"

    def test_partition_on_random_vectors(self, ref_code):
        rng = make_rng(7, 0)
        seen = set()
        for _ in range(40):
            bits = 0
            for w in rng.choice(208, size=4, replace=False):
                bits |= 1 << int(w)
            v = BitVector(208, bits)
            cls = tanner.classify_residual(ref_code, v)
            seen.add(cls)
            in_rowspace = gf2.rowspace_contains(ref_code.h_x, v)
            nonzero_syndrome = tanner.syndrome_bits_z(ref_code, bits) != 0
            if cls == "corrected":
                assert in_rowspace
            elif cls == "detected":
                assert not in_rowspace and nonzero_syndrome
            else:
                assert not in_rowspace and not nonzero_syndrome
        assert "detected" in seen

    def test_logical_found_by_randomized_search(self, ref_code):
        w, v = tanner.random_logical_search(ref_code, make_rng(8, 0), tries=100)
        assert v is not None and w == v.weight()
        assert tanner.classify_residual(ref_code, v) == "logical"


@pytest.fixture(scope="session", params=["ref_code", "unique_code", "rep3_par3_code"])
def code_with_logical(request):
    """A code, rank(H_X) by the numpy oracle, and a logical operator."""
    code = request.getfixturevalue(request.param)
    _, logical = tanner.random_logical_search(code, make_rng(8, 0), tries=100)
    assert logical is not None
    return code, np_rank_gf2(code.h_x), logical.bits


def _residuals(code, logical):
    """Residuals of every class: uniform vectors, sparse vectors,
    stabilizers and stabilizers plus a logical."""
    n, rows = code.n, code.h_x.data
    stabilizer = st.sets(st.integers(0, len(rows) - 1)).map(
        lambda picks: _xor_rows(rows, picks)
    )
    return st.one_of(
        st.integers(0, (1 << n) - 1),
        st.sets(st.integers(0, n - 1), max_size=8).map(lambda s: sum(1 << q for q in s)),
        stabilizer,
        stabilizer.map(lambda s: s ^ logical),
    )


def _oracle_class(code, rank_hx, bits):
    """The class of a residual by the numpy rank and syndrome oracles."""
    rows = code.h_x.data
    augmented = gf2.BitMatrix(len(rows) + 1, code.n, rows + [bits])
    if np_rank_gf2(augmented) == rank_hx:
        return tanner.CORRECTED
    return tanner.DETECTED if np_mat_vec_gf2(code.h_z, bits) else tanner.LOGICAL


@given(data=st.data())
def test_classify_matches_numpy_rank_oracle(code_with_logical, data):
    code, rank_hx, logical = code_with_logical
    bits = data.draw(_residuals(code, logical))
    cls = tanner.classify_residual(code, BitVector(code.n, bits))
    assert cls == _oracle_class(code, rank_hx, bits)


@given(data=st.data())
def test_classify_rows_matches_numpy_rank_oracle(code_with_logical, data):
    # a batch mixes zero rows with every kind of residual; each row gets
    # the class the oracles give it alone
    code, rank_hx, logical = code_with_logical
    batch = data.draw(st.lists(st.one_of(st.just(0), _residuals(code, logical)), max_size=6))
    classes = tanner.classify_rows(code, gf2.to_bit_rows(batch, code.n))
    assert classes.tolist() == [_oracle_class(code, rank_hx, bits) for bits in batch]


class TestClassifyRows:
    def test_empty_batch(self, unique_code):
        classes = tanner.classify_rows(unique_code, np.zeros((0, unique_code.n), np.uint8))
        assert classes.shape == (0,)

    def test_width_check(self, unique_code):
        for width in (unique_code.n - 1, unique_code.n + 1):
            with pytest.raises(DimensionMismatchError):
                tanner.classify_rows(unique_code, np.zeros((2, width), np.uint8))

    def test_echelon_built_only_for_a_quiet_nonzero_row(self):
        # zero rows and rows with a syndrome need no elimination of H_X;
        # a nonzero stabilizer does
        cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
        code = tanner.QuantumTannerCode(cx, codes.repetition_code(3), codes.repetition_code(3))
        rows = np.zeros((3, code.n), np.uint8)
        rows[1, 5] = rows[2, [0, 40]] = 1
        assert tanner.classify_rows(code, rows).tolist() == ["corrected", "detected", "detected"]
        assert "echelon_x" not in code.__dict__
        rows[0] = gf2.to_bit_rows(code.h_x.data[:1], code.n)
        assert tanner.classify_rows(code, rows).tolist() == ["corrected", "detected", "detected"]
        assert "echelon_x" in code.__dict__


def _xor_rows(rows, picks):
    out = 0
    for i in picks:
        out ^= rows[i]
    return out


class TestTheoryReport:
    def test_direct_substitution(self, ref_code):
        rep = tanner.theory_report(ref_code, eps=0.5, delta=0.05, k_iters=8, kappa=1.0)
        assert rep.a_eps == pytest.approx(12.0)  # 24 / (1 * 4 * 0.5)
        assert rep.b_eps == pytest.approx(24.0)  # 3 * 4 / (1 * 0.5)

    def test_gamma_vanishes_at_delta_limit(self, ref_code):
        rep = tanner.theory_report(
            ref_code, eps=0.5, delta=1 / 18 - 1e-12, k_iters=4, kappa=1.0
        )
        assert rep.gamma == pytest.approx(0.0, abs=1e-10)

    def test_parameter_ranges(self, ref_code):
        with pytest.raises(ValueError):
            tanner.theory_report(ref_code, eps=1.5, delta=0.05, k_iters=1)
        with pytest.raises(ValueError):
            tanner.theory_report(ref_code, eps=0.5, delta=0.2, k_iters=1)

    def test_independent_formula_evaluation(self, ref_code):
        eps, delta, k = 0.5, 0.04, 6
        rep = tanner.theory_report(ref_code, eps, delta, k)
        kappa = float(ref_code.kappa)
        d_r = 2 / 4  # min distance of the four local codes is par_4's 2
        assert rep.kappa == pytest.approx(kappa)
        assert rep.d_r == pytest.approx(d_r)
        # spreadsheet-style re-evaluation of every printed constant
        assert rep.a_eps == pytest.approx(24 / (kappa * 4 * (1 - eps)))
        assert rep.b_eps == pytest.approx(3 * 4 / (kappa * (1 - eps)))
        assert rep.c_delta == pytest.approx(d_r**2 * delta**3 * kappa / (2**12 * 16))
        assert rep.k_lower_bound == 208 - 78 - 78  # n minus the X and Z check rows
        assert rep.d_lower_bound == pytest.approx(d_r**2 * kappa**2 * 208 / (256 * 4))
        c1 = (eps - 2 * delta) / (eps * (1 - delta))
        c2 = 2 / eps
        assert rep.c1 == pytest.approx(c1) and rep.c2 == pytest.approx(c2)
        assert rep.seq_residual_coeff == pytest.approx(1 + 2 * c2 / (kappa * c1))
        gamma = (1 - 18 * delta) / 16
        assert rep.gamma == pytest.approx(gamma)
        assert rep.beta == pytest.approx(6 * 16 / (kappa * delta))
        assert rep.alpha_k == pytest.approx(24 / (5 * kappa) * (1 - gamma) ** k)

    def test_reference_kappa_value(self, ref_code):
        # both dual tensor sides of rep_4/par_4 brute-force to 1/4
        assert ref_code.kappa == Fraction(1, 4)

    def test_kappa_tables_built_once_per_code(self, monkeypatch):
        # one split of all codewords per side on the first read, none after
        splits = []
        split = codes.DualTensorCode.split

        def counted(dt, xs):
            splits.append((dt.dim, len(xs)))
            return split(dt, xs)

        monkeypatch.setattr(codes.DualTensorCode, "split", counted)
        cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
        code = tanner.QuantumTannerCode(cx, codes.repetition_code(3), codes.parity_code(3))
        first = code.kappa
        second = code.kappa
        assert first == second
        # rep_3 ⊞ par_3 and par_3 ⊞ rep_3 both have dimension 7
        assert splits == [(7, 127), (7, 127)]


    def test_one_local_code_object_per_side(self):
        # the cache, the check bases and κ all read the code's two
        # DualTensorCodes: one elimination of each side's local checks
        cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
        code = tanner.QuantumTannerCode(cx, codes.repetition_code(3), codes.parity_code(3))
        cache = decoder.get_cache(code)
        assert cache.dt is code.x_correction_code
        assert code.z_check_basis is code.x_correction_code.pchk
        assert code.x_check_basis is code.z_correction_code.pchk
        echelon = code.x_correction_code.echelon
        assert code.kappa == Fraction(1, 3)
        assert code.x_correction_code.echelon is echelon


def test_dihedral_instance_builds(z_side):
    g = cayley.build_group("dihedral", 6)
    cx = cayley.build_complex(g, [1, 5, 6, 7], [1, 5, 6, 7])
    code = tanner.QuantumTannerCode(cx, codes.repetition_code(4), codes.parity_code(4))
    assert code.n == 12 * 16
    prod = np_commutator_gf2(code.h_x, code.h_z)
    assert not prod.any()
    # the exact matrix exchange must survive non-abelian groups too
    z = z_side(code)
    assert z.h_x == code.h_z and z.h_z == code.h_x


def test_hz_rows_match_independent_assembly(tiny_code):
    """Rebuild H_Z from scratch using only the face-triple algebra.

    For vertex (h, 01) the face (g, a, b) is incident iff ag = h, sitting
    at grid position (a, b); for (h, 10) iff gb = h.  Face (g, a, b) is
    q = (g·Δ + a)·Δ + b, and vertex (h, c) is c·|G| + h.  No view table.
    """
    code = tiny_code
    cx = code.complex
    mul = cx.group.mul
    delta = cx.delta
    rows = []
    for v in code.v1_vertices:
        cls = cx.vertex_class(v)
        h = v % cx.group.order
        for z in code.z_check_basis.data:
            bits = 0
            for q in range(code.n):
                (g, ai), bi = divmod(q // delta, delta), q % delta
                a = cx.gens_a.elements[ai]
                b = cx.gens_b.elements[bi]
                if cls == 1:  # V01
                    incident = mul[a][g] == h
                else:  # V10
                    incident = mul[g][b] == h
                if incident and (z >> (ai * delta + bi)) & 1:
                    bits |= 1 << q
            rows.append(bits)
    assert rows == code.h_z.data
