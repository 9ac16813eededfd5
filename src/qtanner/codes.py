"""Classical linear codes, tensor / dual tensor constructions, and the
exhaustive oracles the decoder relies on (minimal column/row
decompositions, product-expansion constant).

The minimal (c, r) splits of C_A ⊞ C_B are enumerated in one place,
``DualTensorCode.decomposition_table``; the decoder's local codeword
cache, ``min_cr_decomposition`` and ``product_expansion_kappa`` all read
it.  All exhaustive routines are gated by explicit budgets and raise
``BudgetError`` beyond them rather than degrading silently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .errors import BudgetError, LocalCacheError, NotInCodeError, whole
from .gf2 import BitMatrix, BitVector

# Enumeration budgets (bits of state each oracle may walk).
MAX_DISTANCE_DIM = 22
MAX_TABLE_DIM = 16  # dim of C_A ⊞ C_B
MAX_TABLE_PAIRS = 1 << 22  # (c, r) pairs walked by the decomposition table


class LinearCode:
    """A binary linear code held as a paired (generator, parity check) basis.

    Invariants: gen and pchk rows are each independent, gen·pchkᵀ = 0, and
    rank(gen) + rank(pchk) = n.
    """

    __slots__ = ("n", "gen", "pchk")

    def __init__(self, n: int, gen: BitMatrix, pchk: BitMatrix):
        self.n = n
        self.gen = gen
        self.pchk = pchk

    @classmethod
    def from_parity_check(cls, h: BitMatrix) -> "LinearCode":
        h = gf2.row_reduce_independent(h)
        return cls(h.cols, gf2.kernel_basis(h), h)

    @classmethod
    def from_generator(cls, g: BitMatrix) -> "LinearCode":
        g = gf2.row_reduce_independent(g)
        return cls(g.cols, g, gf2.kernel_basis(g))

    @property
    def dim(self) -> int:
        return self.gen.rows

    @property
    def rate(self) -> float:
        return self.dim / self.n

    def dual(self) -> "LinearCode":
        return LinearCode(self.n, self.pchk, self.gen)

    def contains(self, v: BitVector) -> bool:
        return gf2.mat_vec_mul(self.pchk, v).bits == 0

    def contains_bits(self, bits: int) -> bool:
        return all((r & bits).bit_count() & 1 == 0 for r in self.pchk.data)

    def codeword_bits(self) -> list[int]:
        """All 2^dim codewords as packed ints (Gray-code order from 0)."""
        return list(self.gen.iter_rowspace())

    def to_json(self) -> dict:
        return {"n": self.n, "gen": [self.gen.row(i).to01() for i in range(self.gen.rows)]}

    @classmethod
    def from_json(cls, obj: dict) -> "LinearCode":
        n = whole(obj["n"], "code length n")
        rows = obj["gen"]
        if not rows:
            return zero_code(n)
        g = BitMatrix.from_strings(rows)
        if g.cols != n:
            raise ValueError(f"generator width {g.cols} != n {n}")
        return cls.from_generator(g)

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.dim})"


def repetition_code(n: int) -> LinearCode:
    return LinearCode.from_generator(BitMatrix(1, n, [(1 << n) - 1]))


def parity_code(n: int) -> LinearCode:
    """Even-weight code of length n (dual of the repetition code)."""
    return repetition_code(n).dual()


def full_space(n: int) -> LinearCode:
    return LinearCode(n, BitMatrix.identity(n), BitMatrix(0, n))


def zero_code(n: int) -> LinearCode:
    return LinearCode(n, BitMatrix(0, n), BitMatrix.identity(n))


def sample_random_code(n: int, k: int, rng) -> LinearCode:
    """Uniformly random k-dimensional subspace of F_2^n.

    Rejection-samples k x n matrices until full rank; deterministic for a
    fixed numpy Generator state.
    """
    if k > n:
        raise ValueError(f"dimension {k} exceeds length {n}")
    if k == 0:
        return zero_code(n)
    while True:
        bits = rng.integers(0, 2, size=(k, n))
        g = BitMatrix.from_rows(bits.tolist(), cols=n)
        if gf2.rank(g) == k:
            return LinearCode.from_generator(g)


def tensor_code(ca: LinearCode, cb: LinearCode) -> LinearCode:
    """C_A x C_B: grid codewords with every column in C_A, every row in C_B.

    Position (a, b) of the grid is bit a*n_B + b (A-major), matching the
    project-wide Kronecker convention.
    """
    gen = gf2.kronecker(ca.gen, cb.gen)
    return LinearCode(ca.n * cb.n, gen, gf2.kernel_basis(gen))


@dataclass
class DualTensorCode:
    """C_A ⊞ C_B: sums of column codewords and row codewords.

    pchk = H_A ⊗ H_B; dim = |A|·|B| − dim(C_A^⊥)·dim(C_B^⊥).
    """

    code_a: LinearCode
    code_b: LinearCode
    pchk: BitMatrix
    dim: int

    @property
    def na(self) -> int:
        return self.code_a.n

    @property
    def nb(self) -> int:
        return self.code_b.n

    @property
    def n(self) -> int:
        return self.na * self.nb

    def contains_bits(self, bits: int) -> bool:
        return all((r & bits).bit_count() & 1 == 0 for r in self.pchk.data)

    def codeword_bits(self) -> list[int]:
        if self.dim > MAX_TABLE_DIM:
            raise BudgetError(f"dual tensor dimension {self.dim} > {MAX_TABLE_DIM}")
        return list(gf2.kernel_basis(self.pchk).iter_rowspace())

    @functools.cached_property
    def decomposition_table(self) -> dict[int, tuple[int, int, int]]:
        """Every nonzero codeword x mapped to its cheapest split (cost, c, r).

        x = c + r with every column of c in C_A and every row of r in C_B;
        cost = ||c||·|B| + ||r||·|A| (nonzero columns of c, nonzero rows of
        r) is the normalised ||c||/|A| + ||r||/|B| scaled by |A||B|.  Ties
        break toward the lexicographically smallest c.  Built once per
        code by walking every pair of the placed column and row spaces.
        """
        na, nb, n = self.na, self.nb, self.n
        if self.dim > MAX_TABLE_DIM:
            raise BudgetError(f"dual tensor dimension {self.dim} > {MAX_TABLE_DIM}")
        pair_bits = self.code_a.dim * nb + self.code_b.dim * na
        if 1 << pair_bits > MAX_TABLE_PAIRS:
            raise BudgetError(
                f"(c, r) pair enumeration 2^{pair_bits} exceeds budget {MAX_TABLE_PAIRS}"
            )
        col_masks = [sum(1 << (a * nb + b) for a in range(na)) for b in range(nb)]
        row_width = (1 << nb) - 1
        # C_A ⊗ F_2^B and F_2^A ⊗ C_B, each element with its cost share
        cs = [
            (c, nb * sum(1 for m in col_masks if c & m))
            for c in gf2.span(gf2.kronecker(self.code_a.gen, BitMatrix.identity(nb)).data)
        ]
        rs = [
            (r, na * sum(1 for a in range(na) if (r >> (a * nb)) & row_width))
            for r in gf2.span(gf2.kronecker(BitMatrix.identity(na), self.code_b.gen).data)
        ]
        # c in lex order, so only a strictly cheaper split replaces a kept one
        cs.sort(key=lambda e: gf2.lex_key(e[0], n))
        table: dict[int, tuple[int, int, int]] = {}
        for c, c_cost in cs:
            for r, r_cost in rs:
                x = c ^ r
                cost = c_cost + r_cost
                cur = table.get(x)
                if cur is None or cost < cur[0]:
                    table[x] = (cost, c, r)
        table.pop(0, None)
        if len(table) != (1 << self.dim) - 1:
            raise LocalCacheError(
                f"(c, r) sums give {len(table)} nonzero codewords, "
                f"expected 2^{self.dim} - 1 for a dimension-{self.dim} local code"
            )
        return table


def dual_tensor_code(ca: LinearCode, cb: LinearCode) -> DualTensorCode:
    pchk = gf2.kronecker(ca.pchk, cb.pchk)
    dim = ca.n * cb.n - ca.pchk.rows * cb.pchk.rows
    return DualTensorCode(ca, cb, pchk, dim)


def min_distance_bruteforce(code: LinearCode) -> int | float:
    """Exact minimum nonzero codeword weight; inf for the zero code."""
    if code.dim == 0:
        return math.inf
    if code.dim > MAX_DISTANCE_DIM:
        raise BudgetError(
            f"distance enumeration needs 2^{code.dim} codewords (budget 2^{MAX_DISTANCE_DIM})"
        )
    best = code.n + 1
    x = 0
    basis = code.gen.data
    for i in range(1, 1 << code.dim):
        x ^= basis[(i & -i).bit_length() - 1]
        w = x.bit_count()
        if w < best:
            best = w
    return best


def min_cr_decomposition(x: BitVector | int, dt: DualTensorCode) -> tuple[BitVector, BitVector]:
    """Split a dual-tensor codeword x into its cheapest c + r.

    c has every column in C_A, r every row in C_B.  The cost is the
    normalised ||c||/|A| + ||r||/|B| of product expansion (nonzero columns
    of c, nonzero rows of r); on the square grids of Tanner codes it ranks
    splits exactly as ||c|| + ||r|| does.  Ties break toward the
    lexicographically smallest c (bit-index order).  A lookup in
    ``dt.decomposition_table``.
    """
    bits = x.bits if isinstance(x, BitVector) else x
    if not dt.contains_bits(bits):
        raise NotInCodeError("vector is not in the dual tensor code")
    table = dt.decomposition_table
    _, c, r = table[bits] if bits else (0, 0, 0)
    return BitVector(dt.n, c), BitVector(dt.n, r)


def product_expansion_kappa(ca: LinearCode, cb: LinearCode) -> Fraction:
    """Largest κ with κ(||c||/|A| + ||r||/|B|) ≤ |x|/(|A||B|) for all
    nonzero x in C_A ⊞ C_B, minimizing the left side over decompositions.

    Exact rational result from the decomposition table, whose costs are
    the per-codeword optimum with the common denominator |A||B| cleared.
    """
    table = dual_tensor_code(ca, cb).decomposition_table
    if not table:
        raise ValueError("kappa undefined for the zero dual tensor code")
    return min(Fraction(x.bit_count(), cost) for x, (cost, _, _) in table.items())
