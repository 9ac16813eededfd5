"""Finite groups, symmetric generating sets, and the quadripartite
left-right Cayley complex.

Vertices come in four classes 00/01/10/11 (class-major ids); qubits sit
on square faces indexed by triples (g, a, b).  The local view of a vertex
is the Δ x Δ array of incident faces with rows indexed by A and columns
by B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, GeneratingSetError, GroupAxiomError

MAX_EIGENSOLVE_ORDER = 4096
ASSOC_EXHAUSTIVE_ORDER = 64

V00, V01, V10, V11 = 0, 1, 2, 3


@dataclass
class FiniteGroup:
    """Multiplication-table group; elements are indices 0..order-1."""

    order: int
    mul: list[list[int]]
    inv: list[int]
    id: int
    name: str = "table"


def _validate_table(mul: list[list[int]], rng: Optional[np.random.Generator] = None) -> FiniteGroup:
    n = len(mul)
    if any(len(row) != n for row in mul):
        raise GroupAxiomError("multiplication table is not square")
    for row in mul:
        for x in row:
            if not 0 <= x < n:
                raise GroupAxiomError(f"table entry {x} out of range")
    # identity: a two-sided unit
    identity = None
    for e in range(n):
        if all(mul[e][g] == g and mul[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupAxiomError("no identity element")
    inv = [-1] * n
    for g in range(n):
        for h in range(n):
            if mul[g][h] == identity and mul[h][g] == identity:
                inv[g] = h
                break
        if inv[g] == -1:
            raise GroupAxiomError(f"element {g} has no inverse")
    # associativity: exhaustive up to order 64, sampled beyond
    if n <= ASSOC_EXHAUSTIVE_ORDER:
        triples = (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        )
    else:
        rng = rng or np.random.default_rng(0)
        triples = (
            tuple(int(x) for x in rng.integers(0, n, size=3)) for _ in range(200_000)
        )
    for a, b, c in triples:
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise GroupAxiomError(f"associativity fails on triple ({a}, {b}, {c})")
    return FiniteGroup(n, mul, inv, identity)


def build_group(kind: str, m: int = 0, table: Optional[list[list[int]]] = None) -> FiniteGroup:
    """Construct cyclic(m), dihedral(m) (order 2m), or validate a table."""
    if kind == "cyclic":
        if m < 1:
            raise GroupAxiomError("cyclic group needs m >= 1")
        mul = [[(i + j) % m for j in range(m)] for i in range(m)]
        g = _validate_table(mul)
        g.name = f"cyclic({m})"
        return g
    if kind == "dihedral":
        if m < 1:
            raise GroupAxiomError("dihedral group needs m >= 1")
        # element (i, j) = r^i s^j encoded as i + m*j
        def prod(x: int, y: int) -> int:
            i1, j1 = x % m, x // m
            i2, j2 = y % m, y // m
            i = (i1 + (i2 if j1 == 0 else -i2)) % m
            return i + m * ((j1 + j2) % 2)

        mul = [[prod(x, y) for y in range(2 * m)] for x in range(2 * m)]
        g = _validate_table(mul)
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
    elems = tuple(int(e) for e in elements)
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
    # BFS closure from the identity
    reached = {group.id}
    frontier = [group.id]
    while frontier:
        nxt = []
        for g in frontier:
            for s in elems:
                h = group.mul[g][s]
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

    def vertex_group_elem(self, v: int) -> int:
        return v % self.group.order

    def face_index(self, g: int, ai: int, bi: int) -> int:
        return (g * self.delta + ai) * self.delta + bi

    def face_triple(self, q: int) -> tuple[int, int, int]:
        bi = q % self.delta
        rest = q // self.delta
        return rest // self.delta, rest % self.delta, bi

    def face_vertices(self, q: int) -> tuple[int, int, int, int]:
        """The four corners (classes 00, 01, 10, 11) of face (g, a, b)."""
        g, ai, bi = self.face_triple(q)
        a = self.gens_a.elements[ai]
        b = self.gens_b.elements[bi]
        mul = self.group.mul
        return (
            self.vertex(g, V00),
            self.vertex(mul[a][g], V01),
            self.vertex(mul[g][b], V10),
            self.vertex(mul[mul[a][g]][b], V11),
        )

    def local_view(self, v: int) -> list[int]:
        """Faces incident to v as a flat Δ x Δ array, entry (ai, bi) at
        position ai*Δ + bi.

        The defining group element of the face at entry (a, b) is
        g for class 00, a⁻¹h for 01, hb⁻¹ for 10, a⁻¹hb⁻¹ for 11.
        """
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range")
        cls = self.vertex_class(v)
        h = self.vertex_group_elem(v)
        mul, inv = self.group.mul, self.group.inv
        out = []
        for ai, a in enumerate(self.gens_a.elements):
            ha = h if cls in (V00, V10) else mul[inv[a]][h]
            for bi, b in enumerate(self.gens_b.elements):
                g = ha if cls in (V00, V01) else mul[ha][inv[b]]
                out.append(self.face_index(g, ai, bi))
        return out

    def adjacency(self, which: str) -> np.ndarray:
        """0/1 adjacency of Cay(A,G) (left action) or Cay(G,B) (right)."""
        n = self.group.order
        adj = np.zeros((n, n), dtype=np.float64)
        if which == "A":
            for g in range(n):
                for a in self.gens_a.elements:
                    adj[g, self.group.mul[a][g]] = 1.0
        elif which == "B":
            for g in range(n):
                for b in self.gens_b.elements:
                    adj[g, self.group.mul[g][b]] = 1.0
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
