"""Groups, generating sets, and the left-right Cayley complex geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qtanner import cayley
from qtanner.cayley import V00, V01, V10, V11
from qtanner.errors import BudgetError, GeneratingSetError, GroupAxiomError


class TestBuildGroup:
    def test_trivial_cyclic(self):
        g = cayley.build_group("cyclic", 1)
        assert g.order == 1 and g.id == 0

    def test_cyclic_is_modular_addition(self):
        g = cayley.build_group("cyclic", 5)
        assert g.mul[2][4] == 1
        assert g.inv[2] == 3

    def test_dihedral_nonabelian_witness(self):
        g = cayley.build_group("dihedral", 3)
        assert g.order == 6
        witness = any(
            g.mul[a][b] != g.mul[b][a] for a in range(6) for b in range(6)
        )
        assert witness

    def test_table_round_trip(self):
        src = cayley.build_group("dihedral", 4)
        g = cayley.build_group("table", table=src.mul)
        assert g.order == 8 and np.array_equal(g.inv, src.inv)

    def test_groups_compare_by_table(self):
        assert cayley.build_group("cyclic", 5) == cayley.build_group("cyclic", 5)
        assert cayley.build_group("cyclic", 5) != cayley.build_group("cyclic", 6)
        src = cayley.build_group("dihedral", 3)
        assert cayley.build_group("table", table=src.mul) != src  # names differ

    def test_axiom_violation_names_triple(self):
        bad = [[0, 1], [1, 1]]  # 1*1 = 1 breaks inverses/associativity
        with pytest.raises(GroupAxiomError):
            cayley.build_group("table", table=bad)

    def test_broken_associativity_reported(self):
        # latin square that is not associative (order 5 quasigroup)
        t = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupAxiomError, match="triple|identity|inverse"):
            cayley.build_group("table", table=t)


def _cyclic_with(m, a, b, value):
    """The table of Z_m with entry (a, b) replaced by ``value``: still a
    two-sided identity 0 and inverses, but not associative."""
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    table[a][b] = value
    return table


# the first axiom a table breaks, as reported: entries in row-major
# order, the first element without an inverse, the first failing triple
# in (a, b, c) loop order up to order 64, and the first failing sampled
# triple of the seed-0 generator above it
@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "multiplication table is not square"),
    ([[0, 1, 2]], "multiplication table is not square"),
    ([[0, 1], [1, 0, 0]], "multiplication table is not square"),
    ([[0, 1], [1, 2]], "table entry 2 out of range"),
    ([[0, 5], [-3, 0]], "table entry 5 out of range"),
    ([[0, -1], [1, 0]], "table entry -1 out of range"),
    ([], "no identity element"),
    ([[1, 1], [1, 1]], "no identity element"),
    ([[0, 1], [1, 1]], "element 1 has no inverse"),
    ([[0, 1, 2], [1, 2, 2], [2, 1, 1]], "element 1 has no inverse"),
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "associativity fails on triple (1, 1, 2)"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "associativity fails on triple (1, 1, 2)"),
    (_cyclic_with(64, 63, 63, 5), "associativity fails on triple (1, 62, 63)"),
    (_cyclic_with(65, 2, 3, 7), "associativity fails on triple (2, 3, 46)"),
    (_cyclic_with(66, 40, 50, 3), "associativity fails on triple (16, 40, 50)"),
    # not a list of rows at all
    (5, "multiplication table is not square"),
    ([1, 2], "multiplication table is not square"),
], ids=lambda x: x.split(" (")[0] if isinstance(x, str) else None)
def test_table_axiom_messages(table, message):
    with pytest.raises(GroupAxiomError) as info:
        cayley.build_group("table", table=table)
    assert str(info.value) == message


class TestValidateGeneratingSet:
    def test_z5_symmetric_pair(self):
        g = cayley.build_group("cyclic", 5)
        s = cayley.validate_generating_set(g, [1, 4])
        assert s.size == 2

    def test_z6_even_residues_rejected_with_size(self):
        g = cayley.build_group("cyclic", 6)
        with pytest.raises(GeneratingSetError, match="size 3"):
            cayley.validate_generating_set(g, [2, 4])

    def test_z13_reference_set(self):
        g = cayley.build_group("cyclic", 13)
        s = cayley.validate_generating_set(g, [1, 12, 5, 8])
        assert s.size == 4

    def test_missing_inverse_named(self):
        g = cayley.build_group("cyclic", 5)
        with pytest.raises(GeneratingSetError, match="inverse of 1"):
            cayley.validate_generating_set(g, [1, 2, 3])

    def test_whole_number_elements_only(self):
        g = cayley.build_group("cyclic", 8)
        s = cayley.validate_generating_set(g, [1.0, np.int64(7), 4])
        assert s.elements == (1, 7, 4) and all(type(e) is int for e in s.elements)
        for bad in (4.7, True, "4", None):
            with pytest.raises(ValueError, match="is not a whole number"):
                cayley.validate_generating_set(g, [1, 7, bad])


def build_z13():
    g = cayley.build_group("cyclic", 13)
    return cayley.build_complex(g, [1, 12, 5, 8], [1, 12, 5, 8])


class TestComplexCounts:
    def test_z5_counts(self):
        g = cayley.build_group("cyclic", 5)
        cx = cayley.build_complex(g, [1, 4], [1, 4])
        assert cx.num_vertices == 20
        assert cx.num_faces == 20
        assert cx.num_a_edges == cx.num_b_edges == 20

    def test_z13_face_count(self):
        assert build_z13().num_faces == 13 * 16

    def test_faces_have_one_vertex_per_class(self):
        cx = build_z13()
        order = cx.group.order
        for q in range(cx.num_faces):
            classes = sorted(v // order for v in cx.corner_table[q].tolist())
            assert classes == [V00, V01, V10, V11]

    def test_face_index_bijection(self):
        # face (g, a, b) is q = (g·Δ + a)·Δ + b, entry (a, b) of the view
        # of vertex (g, 00): every face once, in index order
        cx = build_z13()
        d = cx.delta
        faces = [(g * d + ai) * d + bi
                 for g in range(cx.group.order) for ai in range(d) for bi in range(d)]
        assert faces == list(range(cx.num_faces))
        v00 = [cx.vertex(g, V00) for g in range(cx.group.order)]
        assert cx.view_table[v00].ravel().tolist() == faces


class TestLocalView:
    def test_each_face_in_exactly_four_views(self):
        cx = build_z13()
        hits = [0] * cx.num_faces
        for v in range(cx.num_vertices):
            view = cx.view_table[v].tolist()
            assert len(set(view)) == cx.delta**2  # all entries distinct
            for q in view:
                hits[q] += 1
        assert all(h == 4 for h in hits)

    def test_view_matches_face_incidence(self):
        cx = build_z13()
        for v in range(cx.num_vertices):
            for q in cx.view_table[v].tolist():
                assert v in cx.corner_table[q].tolist()

    def test_same_class_views_disjoint(self):
        cx = build_z13()
        order = cx.group.order
        for cls in (V00, V01, V10, V11):
            seen = set()
            for g in range(order):
                view = set(cx.view_table[cx.vertex(g, cls)].tolist())
                assert not (seen & view)
                seen |= view

    def test_z5_enumeration_cross_check(self):
        g = cayley.build_group("cyclic", 5)
        cx = cayley.build_complex(g, [1, 4], [1, 4])
        # entry (a=1, b=4) of vertex (0, 00) is face (0, 1, 4)
        ai = cx.gens_a.elements.index(1)
        bi = cx.gens_b.elements.index(4)
        view = cx.view_table[cx.vertex(0, V00)].tolist()
        assert view[ai * 2 + bi] == (0 * cx.delta + ai) * cx.delta + bi


@st.composite
def complexes(draw):
    """A complex on cyclic(m ≤ 16), dihedral(m ≤ 8), or an explicit table
    (one of those with its elements relabelled, so the identity need not
    be 0), with random symmetric generating sets in random order."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "table"]))
    source = kind if kind != "table" else draw(st.sampled_from(["cyclic", "dihedral"]))
    m = draw(st.integers(2, 16 if source == "cyclic" else 8))
    group = cayley.build_group(source, m)
    # r, r⁻¹ (and s) generate either group
    base = [1, m - 1] + ([m] if source == "dihedral" else [])
    if kind == "table":
        label = draw(st.permutations(range(group.order)))
        table = [[0] * group.order for _ in range(group.order)]
        for x in range(group.order):
            for y in range(group.order):
                table[label[x]][label[y]] = label[group.mul[x][y]]
        group = cayley.build_group("table", table=table)
        base = [label[x] for x in base]

    def symmetric_set():
        elems = set(base) | draw(st.sets(st.integers(0, group.order - 1), max_size=3))
        return draw(st.permutations(sorted(elems | {group.inv[x] for x in elems})))

    a_gens, b_gens = symmetric_set(), symmetric_set()
    if len(b_gens) != len(a_gens):
        b_gens = draw(st.permutations(a_gens))
    return cayley.build_complex(group, a_gens, b_gens)


@given(cx=complexes())
def test_tables_match_the_paper_formulas(cx):
    mul, inv, order = cx.group.mul, cx.group.inv, cx.group.order
    a_gens, b_gens = list(cx.gens_a.elements), list(cx.gens_b.elements)
    assert cx.view_table.shape == (cx.num_vertices, cx.delta**2)
    for v in range(cx.num_vertices):
        want = oracles.local_view(mul, inv, a_gens, b_gens, v // order, v % order)
        assert cx.view_table[v].tolist() == want
    assert cx.corner_table.shape == (cx.num_faces, 4)
    for q in range(cx.num_faces):
        want = oracles.face_corners(mul, a_gens, b_gens, q)
        assert cx.corner_table[q].tolist() == want


@given(cx=complexes())
def test_view_table_face_layout(cx):
    # face q = g·Δ² + p sits at local bit p = q mod Δ² of every view that
    # holds it, and its g is the view's defining element
    d2, order, mul, inv = cx.delta**2, cx.group.order, cx.group.mul, cx.group.inv
    assert (cx.view_table % d2 == np.arange(d2)).all()
    for v in range(cx.num_vertices):
        cls, h = divmod(v, order)
        want = []
        for a in cx.gens_a.elements:
            for b in cx.gens_b.elements:
                g = mul[inv[a], h] if cls in (V01, V11) else h  # a⁻¹h
                want.append(mul[g, inv[b]] if cls in (V10, V11) else g)  # ·b⁻¹
        assert (cx.view_table[v] // d2).tolist() == want


class TestSecondEigenvalue:
    def test_complete_graph_spectrum(self):
        # Z_5 with every non-identity generator is K_5: lambda2 = -1
        g = cayley.build_group("cyclic", 5)
        cx = cayley.build_complex(g, [1, 2, 3, 4], [1, 2, 3, 4])
        lam2, flag = cx.second_eigenvalue("A")
        assert lam2 == pytest.approx(-1.0, abs=1e-9)
        assert flag

    def test_cycle_spectrum(self):
        m = 12
        g = cayley.build_group("cyclic", m)
        cx = cayley.build_complex(g, [1, m - 1], [1, m - 1])
        lam2, _ = cx.second_eigenvalue("B")
        assert lam2 == pytest.approx(2 * math.cos(2 * math.pi / m), abs=1e-9)

    def test_power_iteration_oracle(self):
        cx = build_z13()
        lam2, flag = cx.second_eigenvalue("A")
        n = cx.group.order
        # shift by the degree so the spectrum is nonnegative, deflate the
        # all-ones top eigenvector, and power-iterate for lambda2 + delta
        shifted = cx.adjacency("A") + cx.delta * np.eye(n)
        rng = np.random.default_rng(31)
        v = rng.standard_normal(n)
        ones = np.ones(n) / math.sqrt(n)
        v -= ones * (ones @ v)
        for _ in range(20_000):
            v = shifted @ v
            v -= ones * (ones @ v)
            v /= np.linalg.norm(v)
        estimate = float(v @ (shifted @ v)) - cx.delta
        assert lam2 == pytest.approx(estimate, abs=1e-6)
        assert flag == (lam2 <= 2 * math.sqrt(cx.delta - 1) + 1e-9)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(cayley, "MAX_EIGENSOLVE_ORDER", 8)
        g = cayley.build_group("cyclic", 12)
        cx = cayley.build_complex(g, [1, 11], [1, 11])
        with pytest.raises(BudgetError):
            cx.second_eigenvalue("A")


def test_mismatched_generator_sizes_rejected():
    g = cayley.build_group("cyclic", 7)
    with pytest.raises(GeneratingSetError):
        cayley.build_complex(g, [1, 6], [1, 6, 2, 5])
