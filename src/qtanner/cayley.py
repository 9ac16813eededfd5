"""Finite groups, symmetric generating sets, and the quadripartite
left-right Cayley complex.

Vertices come in four classes 00/01/10/11 (class-major ids); qubits sit
on square faces indexed by triples (g, a, b).  The local view of a vertex
is the Δ x Δ array of incident faces with rows indexed by A and columns
by B.  Every per-instance table (the group axioms, every local view,
every face's corners) is computed from the group table as numpy index
arithmetic, once per group or complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, GeneratingSetError, GroupAxiomError, whole

MAX_EIGENSOLVE_ORDER = 4096
ASSOC_EXHAUSTIVE_ORDER = 64

V00, V01, V10, V11 = 0, 1, 2, 3


@dataclass
class FiniteGroup:
    """Multiplication-table group; elements are indices 0..order-1.

    ``mul`` is the (order, order) intp table (``mul[g, h]`` = gh) and
    ``inv`` the intp array of inverses, so per-instance tables are
    fancy-indexed straight from them."""

    order: int
    mul: np.ndarray
    inv: np.ndarray
    id: int
    name: str = "table"

    def __eq__(self, other) -> bool:
        # the table fixes order, inverses and identity; arrays compare by value
        return (isinstance(other, FiniteGroup) and self.name == other.name
                and np.array_equal(self.mul, other.mul))


def _validate_table(mul: Sequence[Sequence[int]]) -> FiniteGroup:
    """The group of a square table (nested lists or an array), checked
    axiom by axiom on a numpy copy; the first violation raises, named as
    a row-major scan of the table would first meet it."""
    try:
        n = len(mul)
        square = all(len(row) == n for row in mul)
    except TypeError:  # not a list of rows
        square = False
    if not square:
        raise GroupAxiomError("multiplication table is not square")
    t = np.array(mul).reshape(n, n)
    if n and t.dtype.kind not in "biu":  # JSON floats, or ints beyond int64
        t = np.array([[whole(x, "table entry") for x in row] for row in mul], dtype=object)
    out = (t < 0) | (t >= n)
    if out.any():
        raise GroupAxiomError(f"table entry {t.flat[np.argmax(out)]} out of range")
    t = t.astype(np.intp)
    # identity: a two-sided unit
    elems = np.arange(n)
    unit = (t == elems).all(axis=1) & (t.T == elems).all(axis=1)
    if not unit.any():
        raise GroupAxiomError("no identity element")
    identity = int(np.argmax(unit))
    # inverse of g: the first h with gh = hg = identity
    both = (t == identity) & (t.T == identity)
    has_inv = both.any(axis=1)
    if not has_inv.all():
        raise GroupAxiomError(f"element {int(np.argmin(has_inv))} has no inverse")
    inv = both.argmax(axis=1)
    # associativity: exhaustive up to order 64, as one compare of all
    # triples ([a, b, c] of t[t] is (ab)c, of t[:, t] a(bc)), sampled beyond:
    # 200,000 triples in one draw, the same numbers as one draw per triple,
    # so the first failure in draw order is the one a loop would meet
    if n <= ASSOC_EXHAUSTIVE_ORDER:
        fails = np.argwhere(t[t] != t[:, t])
    else:
        drawn = np.random.default_rng(0).integers(0, n, size=(200_000, 3))
        a, b, c = drawn.T
        fails = drawn[t[t[a, b], c] != t[a, t[b, c]]]
    if len(fails):
        a, b, c = map(int, fails[0])
        raise GroupAxiomError(f"associativity fails on triple ({a}, {b}, {c})")
    return FiniteGroup(n, t, inv, identity)


def build_group(kind: str, m: int = 0, table: Optional[list[list[int]]] = None) -> FiniteGroup:
    """Construct cyclic(m), dihedral(m) (order 2m), or validate a table."""
    if kind == "cyclic":
        if m < 1:
            raise GroupAxiomError("cyclic group needs m >= 1")
        elems = np.arange(m)
        g = _validate_table((elems[:, None] + elems) % m)
        g.name = f"cyclic({m})"
        return g
    if kind == "dihedral":
        if m < 1:
            raise GroupAxiomError("dihedral group needs m >= 1")
        # element (i, j) = r^i s^j encoded as i + m*j:
        # r^i1 s^j1 · r^i2 s^j2 = r^(i1 ± i2) s^(j1 + j2), minus when j1 = 1
        j1, i1 = np.divmod(np.arange(2 * m)[:, None], m)
        j2, i2 = np.divmod(np.arange(2 * m), m)
        g = _validate_table((i1 + np.where(j1, -i2, i2)) % m + m * (j1 ^ j2))
        g.name = f"dihedral({m})"
        return g
    if kind == "table":
        if table is None:
            raise GroupAxiomError("explicit table required for kind='table'")
        return _validate_table(table)
    raise GroupAxiomError(f"unknown group kind {kind!r}")


@dataclass
class GeneratingSet:
    """Ordered symmetric generating set; order fixes local-view coordinates."""

    group: FiniteGroup
    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def validate_generating_set(group: FiniteGroup, elements: Sequence[int]) -> GeneratingSet:
    elems = tuple(whole(e, "generator") for e in elements)
    if len(set(elems)) != len(elems):
        raise GeneratingSetError(f"generators contain duplicates: {elems}")
    for e in elems:
        if not 0 <= e < group.order:
            raise GeneratingSetError(f"generator {e} out of range")
    present = set(elems)
    for e in elems:
        if group.inv[e] not in present:
            raise GeneratingSetError(
                f"set is not symmetric: inverse of {e} (= {group.inv[e]}) is missing"
            )
    # BFS closure from the identity, on the table as nested lists: a walk
    # of single lookups, which Python ints serve fastest
    mul = group.mul.tolist()
    reached = {group.id}
    frontier = [group.id]
    while frontier:
        nxt = []
        for g in frontier:
            for s in elems:
                h = mul[g][s]
                if h not in reached:
                    reached.add(h)
                    nxt.append(h)
        frontier = nxt
    if len(reached) != group.order:
        raise GeneratingSetError(
            f"set generates a subgroup of size {len(reached)} < {group.order}"
        )
    return GeneratingSet(group, elems)


@dataclass
class LeftRightCayleyComplex:
    """Quadripartite complex: |V| = 4|G|, |Q| = |G|Δ², |E_A| = |E_B| = 2|G|Δ."""

    group: FiniteGroup
    gens_a: GeneratingSet
    gens_b: GeneratingSet
    delta: int = field(init=False)
    num_faces: int = field(init=False)
    num_vertices: int = field(init=False)

    def __post_init__(self):
        if self.gens_a.size != self.gens_b.size:
            raise GeneratingSetError(
                f"|A| = {self.gens_a.size} and |B| = {self.gens_b.size} must match"
            )
        self.delta = self.gens_a.size
        self.num_faces = self.group.order * self.delta * self.delta
        self.num_vertices = 4 * self.group.order

    @property
    def num_a_edges(self) -> int:
        return 2 * self.group.order * self.delta

    @property
    def num_b_edges(self) -> int:
        return 2 * self.group.order * self.delta

    # vertex ids are class-major: id = class * |G| + g
    def vertex(self, g: int, cls: int) -> int:
        return cls * self.group.order + g

    def vertex_class(self, v: int) -> int:
        return v // self.group.order

    @cached_property
    def corner_table(self) -> np.ndarray:
        """(|Q|, 4) intp array: row q holds the corners of face q = (g, a, b)
        in classes 00, 01, 10, 11, the vertices of g, ag, gb and agb."""
        order, mul = self.group.order, self.group.mul
        g = np.arange(order)[:, None, None]
        a = np.array(self.gens_a.elements)[:, None]
        b = np.array(self.gens_b.elements)
        ag = mul[a, g]
        corners = (g, ag + order, mul[g, b] + 2 * order, mul[ag, b] + 3 * order)
        return np.stack(np.broadcast_arrays(*corners), axis=-1).reshape(-1, 4)

    @cached_property
    def view_table(self) -> np.ndarray:
        """(|V|, Δ²) intp array: row v is the local view of vertex v.

        The defining group element of the face at entry (a, b) of the
        view of h is h for class 00, a⁻¹h for 01, hb⁻¹ for 10 and
        a⁻¹hb⁻¹ for 11.  Row v is ``elem·Δ² + arange(Δ²)``, so face q
        sits at local bit q mod Δ² of every view that holds it (the
        decoder's gather relies on this) and q // Δ² is the defining
        element.
        """
        order, d = self.group.order, self.delta
        mul, inv = self.group.mul, self.group.inv
        h = np.arange(order)[:, None, None]
        ah = mul[inv[list(self.gens_a.elements)][:, None], h]
        b_inv = inv[list(self.gens_b.elements)]
        # entry (ai, bi) of the view holds face (g, ai, bi)
        entries = np.arange(d * d).reshape(d, d)
        elems = (h, ah, mul[h, b_inv], mul[ah, b_inv])
        return np.concatenate([g * (d * d) + entries for g in elems]).reshape(-1, d * d)

    def adjacency(self, which: str) -> np.ndarray:
        """0/1 adjacency of Cay(A,G) (left action) or Cay(G,B) (right)."""
        n, mul = self.group.order, self.group.mul
        adj = np.zeros((n, n), dtype=np.float64)
        rows = np.arange(n)[:, None]
        if which == "A":
            adj[rows, mul[list(self.gens_a.elements)].T] = 1.0  # g -> ag
        elif which == "B":
            adj[rows, mul[:, list(self.gens_b.elements)]] = 1.0  # g -> gb
        else:
            raise ValueError(f"which must be 'A' or 'B', got {which!r}")
        return adj

    def second_eigenvalue(self, which: str) -> tuple[float, bool]:
        """λ₂ of the requested Cayley graph and its Ramanujan flag
        (λ₂ ≤ 2√(Δ-1) + 1e-9)."""
        if self.group.order > MAX_EIGENSOLVE_ORDER:
            raise BudgetError(
                f"group order {self.group.order} > eigensolve budget {MAX_EIGENSOLVE_ORDER}"
            )
        adj = self.adjacency(which)
        evals = np.linalg.eigvalsh(adj)
        lam2 = float(np.sort(evals)[::-1][1]) if self.group.order > 1 else float("-inf")
        return lam2, lam2 <= 2.0 * (self.delta - 1) ** 0.5 + 1e-9


def build_complex(
    group: FiniteGroup, a_elems: Sequence[int], b_elems: Sequence[int]
) -> LeftRightCayleyComplex:
    gens_a = validate_generating_set(group, a_elems)
    gens_b = validate_generating_set(group, b_elems)
    return LeftRightCayleyComplex(group, gens_a, gens_b)
