"""Classical linear codes, tensor / dual tensor constructions, and the
exhaustive oracles the decoder relies on (minimal column/row
decompositions, product-expansion constant).

Each matrix is eliminated once, as a ``gf2.Echelon``: a code is read
off its generator's, and a dual tensor code keeps that of H_A ⊗ H_B for
its codewords and the decoder's right inverse.  A quantum Tanner code
holds its two local dual tensor codes, one per error type, so every
local result of a side is read from one ``DualTensorCode``.

The minimal (c, r) splits of C_A ⊞ C_B are enumerated in one place,
``DualTensorCode.split``, which reads the candidates of each codeword
it is given from C_A ⊗ F_2^B, prepared once per code; the decoder's
local codeword cache splits a codeword the first time it needs it, and
``DualTensorCode.kappa`` splits every codeword once.  All exhaustive
routines are gated by explicit budgets and raise ``BudgetError`` beyond
them rather than degrading silently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import gf2
from .errors import BudgetError, LocalCacheError, NotInCodeError, whole
from .gf2 import BitMatrix

# Enumeration budgets (bits of state each oracle may walk).
MAX_DISTANCE_DIM = 22
MAX_TABLE_DIM = 16  # dim of C_A ⊞ C_B
MAX_SPLIT_PAIRS = 1 << 24  # (codeword, candidate) pairs one split call compares
SPLIT_PASS = 1 << 16  # (codeword, candidate) pairs one split pass holds in memory


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
    def from_generator(cls, g: BitMatrix) -> "LinearCode":
        return cls.from_echelon(gf2.Echelon(g))

    @classmethod
    def from_echelon(cls, ech: gf2.Echelon) -> "LinearCode":
        """The span of a generator: its RREF rows and kernel."""
        n = ech.shape[1]
        return cls(n, BitMatrix(ech.rank, n, ech.rows), ech.kernel())

    @property
    def dim(self) -> int:
        return self.gen.rows

    def dual(self) -> "LinearCode":
        return LinearCode(self.n, self.pchk, self.gen)

    @classmethod
    def from_json(cls, obj: dict) -> "LinearCode":
        n = whole(obj["n"], "code length n")
        rows = obj["gen"]
        if not isinstance(rows, list):
            raise ValueError(f"generator gen must be a list of bit strings, got {rows!r}")
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
        ech = gf2.Echelon(BitMatrix(k, n, gf2.from_bit_rows(bits)))
        if ech.rank == k:
            return LinearCode.from_echelon(ech)


class _ColumnSpace(NamedTuple):
    """C_A ⊗ F_2^B (every column in C_A), as ``DualTensorCode.split``
    reads it.

    ``words`` are sorted by their syndrome under I_A ⊗ H_B (``checks``),
    and in lex order within a syndrome, each with its cost share
    ``costs`` = |B|·(nonzero columns).  A codeword x splits as c + r with
    exactly the ``block`` words c whose syndrome equals its own, a coset
    of C_A ⊗ C_B; ``rows`` masks the rows of the grid that price r.
    """

    words: np.ndarray
    costs: np.ndarray
    syndromes: np.ndarray
    checks: np.ndarray
    rows: np.ndarray
    block: int


def _syndromes(words: np.ndarray, checks: np.ndarray) -> np.ndarray:
    """Syndrome of each uint64 word under the check rows ``checks``,
    packed with check i at bit i."""
    bits = (np.bitwise_count(words[..., None] & checks) & 1).astype(np.uint64)
    return np.bitwise_or.reduce(bits << np.arange(len(checks), dtype=np.uint64), axis=-1)


def _nonzero_parts(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """How many of the disjoint ``masks`` (rows or columns) meet each word."""
    return ((words[..., None] & masks) != 0).sum(axis=-1, dtype=np.int64)


@dataclass
class DualTensorCode:
    """C_A ⊞ C_B: sums of column codewords and row codewords.

    pchk = H_A ⊗ H_B; dim = |A|·|B| − dim(C_A^⊥)·dim(C_B^⊥).  The
    elimination, the column space and κ are each computed on first use
    and kept.
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

    def _check_budget(self) -> None:
        if self.dim > MAX_TABLE_DIM:
            raise BudgetError(f"dual tensor dimension {self.dim} > {MAX_TABLE_DIM}")
        if self.n > 64:
            raise BudgetError(f"local grid of {self.n} > 64 bits exceeds the word width")

    @functools.cached_property
    def echelon(self) -> gf2.Echelon:
        """The one elimination of H_A ⊗ H_B: its kernel is the code, and
        the decoder's right inverse is its ``solve`` of each unit syndrome."""
        return gf2.Echelon(self.pchk)

    def codewords(self) -> np.ndarray:
        """The 2^dim − 1 nonzero codewords as uint64, the span of the
        kernel of H_A ⊗ H_B in ascending ``gf2.lex_keys`` order."""
        self._check_budget()
        basis = self.echelon.kernel()
        if basis.rows != self.dim:
            raise LocalCacheError(
                f"kernel of the local checks holds 2^{basis.rows} - 1 nonzero codewords, "
                f"expected 2^{self.dim} - 1 for a dimension-{self.dim} local code"
            )
        return gf2.span_words(basis)[1:]

    @functools.cached_property
    def kappa(self) -> Fraction:
        """Largest κ with κ(||c||/|A| + ||r||/|B|) ≤ |x|/(|A||B|) for all
        nonzero x in the code, minimizing the left side over splits.

        Exact rational result from one ``split`` of every nonzero codeword,
        whose costs are the per-codeword optimum with the common denominator
        |A||B| cleared.  Weights are at most |A||B| ≤ 64 and costs at most
        twice that, so distinct ratios differ by far more than float rounding
        and the float argmin picks an exact minimizer.
        """
        xs = self.codewords()
        if not len(xs):
            raise ValueError("kappa undefined for the zero dual tensor code")
        cost, _, _ = self.split(xs)
        weights = np.bitwise_count(xs).astype(np.int64)
        i = int(np.argmin(weights / cost))
        return Fraction(int(weights[i]), int(cost[i]))

    @functools.cached_property
    def _column_space(self) -> _ColumnSpace:
        """C_A ⊗ F_2^B, prepared once per code.  Its dimension
        dim C_A·|B| is at most ``dim``, so ``MAX_TABLE_DIM`` bounds it."""
        self._check_budget()
        na, nb = self.na, self.nb
        words = gf2.span_words(gf2.kronecker(self.code_a.gen, BitMatrix.identity(nb)))
        checks = gf2.kronecker(BitMatrix.identity(na), self.code_b.pchk)
        checks = np.array(checks.data, dtype=np.uint64)
        syndromes = _syndromes(words, checks)
        # the span is in lex order, so a stable sort by syndrome keeps lex
        # order within a syndrome
        order = np.argsort(syndromes, kind="stable")
        cols = [sum(1 << (a * nb + b) for a in range(na)) for b in range(nb)]
        return _ColumnSpace(
            words=words[order],
            costs=nb * _nonzero_parts(words[order], np.array(cols, dtype=np.uint64)),
            syndromes=syndromes[order],
            checks=checks,
            rows=np.array([((1 << nb) - 1) << (a * nb) for a in range(na)], dtype=np.uint64),
            block=1 << (self.code_a.dim * self.code_b.dim),
        )

    def split(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cost, c, r) arrays: the cheapest split x = c + r of each
        codeword x of the uint64 array ``xs``.

        Every column of c is in C_A and every row of r in C_B; cost =
        ||c||·|B| + ||r||·|A| (nonzero columns of c, nonzero rows of r)
        is the normalised ||c||/|A| + ||r||/|B| scaled by |A||B|.  Ties
        break toward the lexicographically smallest c.  The candidates
        c of x are the words of C_A ⊗ F_2^B whose syndrome under the
        checks of F_2^A ⊗ C_B equals that of x, 2^(dim C_A·dim C_B) of
        them; the scan runs in passes of at most ``SPLIT_PASS``
        candidates, and a call may compare at most ``MAX_SPLIT_PAIRS``.
        """
        space = self._column_space
        xs = np.asarray(xs, dtype=np.uint64)
        if len(xs) * space.block > MAX_SPLIT_PAIRS:
            raise BudgetError(
                f"splitting {len(xs)} codewords compares {len(xs)} x {space.block} "
                f"(codeword, candidate) pairs, over the budget {MAX_SPLIT_PAIRS}"
            )
        step = max(1, SPLIT_PASS // space.block)
        if len(xs) <= step:
            return self._split_pass(space, xs)
        parts = [self._split_pass(space, xs[i:i + step]) for i in range(0, len(xs), step)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _split_pass(
        self, space: _ColumnSpace, xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        syn = _syndromes(xs, space.checks)
        start = np.searchsorted(space.syndromes, syn)
        if (np.take(space.syndromes, start, mode="clip") != syn).any():
            raise NotInCodeError("vector is not in the dual tensor code")
        idx = start[:, None] + np.arange(space.block)
        c = space.words[idx]
        r = xs[:, None] ^ c
        cost = space.costs[idx] + self.na * _nonzero_parts(r, space.rows)
        # each block is in lex order of c, so the first minimum is the lex-smallest tie
        best = np.argmin(cost, axis=1)
        picked = np.arange(len(xs))
        return cost[picked, best], c[picked, best], r[picked, best]


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
