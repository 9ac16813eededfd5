"""Quantum Tanner CSS codes assembled from a left-right Cayley complex
and a pair of local codes.

X-type checks place a product basis of C_A ⊗ C_B on the local views of
V0 vertices; Z-type checks place C_A^⊥ ⊗ C_B^⊥ on V1 vertices.  The
``flip_roles`` switch relabels vertex classes (i, j) -> (i, 1-j), which
together with dualized local codes yields the Z-error decoding code with
H_X and H_Z exactly exchanged.  A code builds its two local dual
tensor codes once, ``x_correction_code`` = C_A ⊞ C_B (checks
C_A^⊥ ⊗ C_B^⊥) and ``z_correction_code`` = C_A^⊥ ⊞ C_B^⊥ (checks
C_A ⊗ C_B); the check bases, κ and the decoder cache are read from them.

Every per-error quantity has one implementation, on (trials, n) 0/1
rows: the H_Z syndrome (``syndrome_rows_z``), the greedy
stabilizer-reduced rows and weights (``greedy_reduce_rows``) and the
failure class (``classify_rows``).  ``syndrome_bits_z``,
``reduced_weight`` and ``classify_residual`` are their one-row views,
which no package path calls (the benchmark's tracer names them), and
the randomized logical search runs on rows too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import codes as codes_mod
from . import gf2
from .cayley import LeftRightCayleyComplex, V00, V01, V10, V11
from .codes import LinearCode
from .errors import CommutationError, DimensionMismatchError
from .gf2 import BitMatrix, BitVector

CORRECTED = "corrected"
DETECTED = "detected"
LOGICAL = "logical"


class QuantumTannerCode:
    """CSS code with qubits on faces; immutable after construction."""

    def __init__(
        self,
        complex: LeftRightCayleyComplex,
        local_a: LinearCode,
        local_b: LinearCode,
        flip_roles: bool = False,
    ):
        if local_a.n != complex.delta or local_b.n != complex.delta:
            raise DimensionMismatchError(complex.delta, local_a.n, "local code length")
        self.complex = complex
        self.local_a = local_a
        self.local_b = local_b
        self.flip_roles = flip_roles
        self.n = complex.num_faces
        self.delta = complex.delta

        order = complex.group.order
        flip = 1 if flip_roles else 0
        # effective class of a raw class: XOR the j bit
        raw_of_eff = [cls ^ flip for cls in (V00, V01, V10, V11)]
        self.v0_vertices = [
            complex.vertex(g, raw_of_eff[V00]) for g in range(order)
        ] + [complex.vertex(g, raw_of_eff[V11]) for g in range(order)]
        self.v1_vertices = [
            complex.vertex(g, raw_of_eff[V01]) for g in range(order)
        ] + [complex.vertex(g, raw_of_eff[V10]) for g in range(order)]

        # the local code of each error type, built once: X errors are
        # corrected in C_A ⊞ C_B, whose checks H_A ⊗ H_B are the Z check
        # basis, Z errors in C_A^⊥ ⊞ C_B^⊥, whose checks G_A ⊗ G_B are the X one
        self.x_correction_code = codes_mod.dual_tensor_code(local_a, local_b)
        self.z_correction_code = codes_mod.dual_tensor_code(local_a.dual(), local_b.dual())
        self.x_check_basis = self.z_correction_code.pchk
        self.z_check_basis = self.x_correction_code.pchk
        self.r0 = self.x_check_basis.rows
        self.r1 = self.z_check_basis.rows

        view_table = complex.view_table
        self.h_x, h_x_rows = self._embed(view_table[self.v0_vertices], self.x_check_basis)
        self.h_z, h_z_rows = self._embed(view_table[self.v1_vertices], self.z_check_basis)
        # Hᵀ as (n, rows) float32 arrays: batched syndromes are one BLAS
        # product with them (sums of at most n ones are exact in float32)
        self.h_x_t_dense = np.ascontiguousarray(h_x_rows.T, dtype=np.float32)
        self.h_z_t_dense = np.ascontiguousarray(h_z_rows.T, dtype=np.float32)

        # H_Z x for every row x of H_X: the rows of H_X · H_Zᵀ
        if syndrome_rows_z(self, h_x_rows).any():
            raise CommutationError("H_X · H_Z^T != 0; local-view orientation is broken")

        self._decoder_cache = None  # built on first use by decoder.get_cache

    def _embed(self, views: np.ndarray, basis: BitMatrix) -> tuple[BitMatrix, np.ndarray]:
        """Every row of ``basis`` placed on each of the local ``views``
        (view-major), as a BitMatrix and as (rows, n) 0/1 rows: one
        scatter of the basis bits into their faces."""
        local = gf2.to_bit_rows(basis.data, self.delta**2)
        rows = np.zeros((len(views), basis.rows, self.n), dtype=np.uint8)
        rows[np.arange(len(views))[:, None, None], np.arange(basis.rows)[:, None],
             views[:, None, :]] = local
        rows = rows.reshape(-1, self.n)
        return BitMatrix(len(rows), self.n, gf2.from_bit_rows(rows)), rows

    @cached_property
    def echelon_x(self) -> gf2.Echelon:
        """RREF of H_X, built on first use; stabilizer membership tests."""
        return gf2.Echelon(self.h_x)

    @cached_property
    def echelon_x_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(pivot columns, RREF rows as a (rank, n) float32 array) of
        ``echelon_x``, built on first use: a 0/1 row r is a stabilizer
        iff r + r[pivots] · rows = 0 over GF(2)."""
        ech = self.echelon_x
        return (np.array(ech.pivots, dtype=np.intp),
                gf2.to_bit_rows(ech.rows, self.n).astype(np.float32))

    @cached_property
    def echelon_z(self) -> gf2.Echelon:
        """RREF of H_Z, built on first use; its kernel seeds the
        randomized logical search."""
        return gf2.Echelon(self.h_z)

    @property
    def rank_hx(self) -> int:
        return self.echelon_x.rank

    @property
    def rank_hz(self) -> int:
        return self.echelon_z.rank

    @property
    def k(self) -> int:
        return self.n - self.rank_hx - self.rank_hz

    @property
    def rho(self) -> Fraction:
        return Fraction(self.local_a.dim, self.delta)

    @property
    def kappa(self) -> Fraction:
        """min of the product-expansion constants of the two local codes
        (both sides are used, one per error type), each computed on first
        read and kept by its ``DualTensorCode``."""
        return min(self.x_correction_code.kappa, self.z_correction_code.kappa)

    def __repr__(self) -> str:
        return f"QuantumTannerCode(n={self.n}, delta={self.delta}, flip={self.flip_roles})"


def code_dimension(code: QuantumTannerCode) -> tuple[int, int]:
    """(k, counting lower bound n − rows(H_X) − rows(H_Z)).

    The bound holds for any local codes, because rank ≤ rows, and can be
    negative.  For rate-paired locals, dim C_B = Δ − dim C_A, it equals
    the (1 − 2ρ)²·n of Leverrier–Zémor.
    """
    return code.k, code.n - code.h_x.rows - code.h_z.rows


def syndrome_bits_z(code: QuantumTannerCode, e_bits: int) -> int:
    """H_Z e of one packed error, as a packed int: the one-row view of
    ``syndrome_rows_z``."""
    return gf2.from_bit_rows(syndrome_rows_z(code, gf2.to_bit_rows([e_bits], code.n)))[0]


def syndrome_rows_z(code: QuantumTannerCode, rows: np.ndarray) -> np.ndarray:
    """H_Z e for every row e of a (trials, n) 0/1 array, as 0/1 rows."""
    return _gf2_product(rows, code.h_z_t_dense)


def _gf2_product(rows: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """rows · dense over GF(2), as 0/1 rows: one float32 product of 0/1
    arrays, whose sums of at most n ones are exact in float32."""
    counts = rows.astype(np.float32) @ dense
    return (counts.astype(np.uint32) & 1).astype(np.uint8)


def reduced_weight(code: QuantumTannerCode, e: BitVector) -> int:
    """A greedy upper bound on min over stabilizers s of |e + s|: the
    one-row view of the weights of ``greedy_reduce_rows``."""
    if e.n != code.n:
        raise DimensionMismatchError(code.n, e.n)
    return int(greedy_reduce_rows(code, gf2.to_bit_rows([e.bits], code.n))[1][0])


def greedy_reduce_rows(code: QuantumTannerCode, rows: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(reduced rows, their weights) of a (trials, n) 0/1 array, each
    row reduced greedily by the rows of H_X: a row repeatedly adds the
    first generator of largest positive weight drop, until none drops.

    A pass takes one product of the rows still reducing with H_Xᵀ; the
    drop of generator h on e is |e| − |e + h| = 2|e ∧ h| − |h|.  A row
    leaves once no drop is positive.  Every added generator is a
    stabilizer, so each reduced row has the class and syndrome of its
    input.
    """
    rows = rows.copy()
    weights = rows.sum(axis=1, dtype=np.int64)
    h_x_t = code.h_x_t_dense
    if h_x_t.shape[1] == 0:
        return rows, weights
    h_x, h_weights = h_x_t.T.astype(np.uint8), h_x_t.sum(axis=0).astype(np.int64)
    active = np.flatnonzero(weights)
    while active.size:
        drops = 2 * (rows[active].astype(np.float32) @ h_x_t).astype(np.int64) - h_weights
        best = drops.argmax(axis=1)
        gain = drops[np.arange(active.size), best]
        keep = gain > 0
        active, best = active[keep], best[keep]
        rows[active] ^= h_x[best]
        weights[active] -= gain[keep]
    return rows, weights


def classify_rows(code: QuantumTannerCode, rows: np.ndarray) -> np.ndarray:
    """The failure class of every row r of a (trials, n) 0/1 residual
    array, as an object array of class names: corrected if r is a
    stabilizer, detected if H_Z r ≠ 0, logical otherwise.

    Zero rows are corrected.  The other rows take one syndrome product,
    and a nonzero syndrome is detected: a stabilizer has none (H_X·H_Zᵀ
    = 0 is checked at construction), so testing it first gives the same
    class.  Only the nonzero rows with zero syndrome are reduced by the
    RREF of H_X, one product of their pivot columns with its rows, and
    those left nonzero are logical; ``echelon_x`` and its dense arrays
    are built when the first such row appears.
    """
    if rows.ndim != 2 or rows.shape[1] != code.n:
        raise DimensionMismatchError(code.n, rows.shape[-1])
    classes = np.full(len(rows), CORRECTED, dtype=object)
    live = np.flatnonzero(rows.any(axis=1))
    detected = syndrome_rows_z(code, rows[live]).any(axis=1)
    classes[live[detected]] = DETECTED
    quiet = live[~detected]
    if quiet.size:
        pivots, echelon = code.echelon_x_dense
        quiet_rows = rows[quiet]
        left = quiet_rows ^ _gf2_product(quiet_rows[:, pivots], echelon)
        classes[quiet[left.any(axis=1)]] = LOGICAL
    return classes


def classify_residual(code: QuantumTannerCode, residual: BitVector) -> str:
    """``classify_rows`` of the one residual: its one-row view."""
    if residual.n != code.n:
        raise DimensionMismatchError(code.n, residual.n)
    return classify_rows(code, gf2.to_bit_rows([residual.bits], code.n))[0]


def random_logical_search(
    code: QuantumTannerCode, rng, tries: int = 200
) -> tuple[int | float, Optional[BitVector]]:
    """Randomized upper bound on the X-distance: lowest-weight element of
    ker H_Z outside rowspace(H_X) found among random kernel combinations
    (greedily stabilizer-reduced).  Returns (weight, vector) or (inf, None).

    All tries draw their combinations in one ``rng.integers`` call (the
    same numbers as one call per try); then they are one product with
    the kernel basis, reduced in one call and classified as rows.  A reduced combination stays in ker
    H_Z, so it is logical exactly when it is nonzero and not a
    stabilizer; the first lightest logical row wins.
    """
    kb = code.echelon_z.kernel()
    if kb.rows == 0:
        return math.inf, None
    # the default dtype: dtype=np.uint8 would draw different numbers
    picks = rng.integers(0, 2, size=(tries, kb.rows)).astype(np.uint8)
    kernel = gf2.to_bit_rows(kb.data, code.n).astype(np.float32)
    reduced, weights = greedy_reduce_rows(code, _gf2_product(picks, kernel))
    logical = np.flatnonzero(classify_rows(code, reduced) == LOGICAL)
    if logical.size == 0:
        return math.inf, None
    best = logical[weights[logical].argmin()]
    return int(weights[best]), BitVector(code.n, gf2.from_bit_rows(reduced[best:best + 1])[0])


def check_weight_histogram(code: QuantumTannerCode) -> dict[str, dict[int, int]]:
    out: dict[str, dict[int, int]] = {"X": {}, "Z": {}}
    for name, mat in (("X", code.h_x), ("Z", code.h_z)):
        for row in mat.data:
            w = row.bit_count()
            out[name][w] = out[name].get(w, 0) + 1
    return out


@dataclass
class TheoryReport:
    """Instance constants evaluated from the closed-form expressions; purely
    informational and printed alongside empirical results."""

    n: int
    degree: int
    rho: float
    d_r: float
    kappa: float
    eps: float
    delta: float
    k: int
    k_lower_bound: int
    d_lower_bound: float
    a_eps: float
    b_eps: float
    c_delta: float
    c1: float
    c2: float
    seq_residual_coeff: float
    beta: float
    gamma: float
    alpha_k: float
    k_iters: int

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def local_relative_distance(code: QuantumTannerCode) -> float:
    """Achieved d_r: min relative distance of C_A, C_B and their duals."""
    dists = [
        codes_mod.min_distance_bruteforce(c)
        for c in (
            code.local_a,
            code.local_b,
            code.local_a.dual(),
            code.local_b.dual(),
        )
    ]
    return min(d / code.delta for d in dists)


def theory_report(
    code: QuantumTannerCode,
    eps: float,
    delta: float,
    k_iters: int,
    kappa: Optional[float] = None,
) -> TheoryReport:
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not 0 < delta < 1 / 18:
        raise ValueError(f"delta must be in (0, 1/18), got {delta}")
    if kappa is None:
        kappa = float(code.kappa)
    d = code.delta
    d_r = local_relative_distance(code)
    rho = float(code.rho)
    gamma = (1 - 18 * delta) / 16
    c1 = (eps - 2 * delta) / (eps * (1 - delta))
    c2 = 2 / eps
    k, k_bound = code_dimension(code)
    return TheoryReport(
        n=code.n,
        degree=d,
        rho=rho,
        d_r=d_r,
        kappa=kappa,
        eps=eps,
        delta=delta,
        k=k,
        k_lower_bound=k_bound,
        d_lower_bound=d_r**2 * kappa**2 * code.n / (256 * d),
        a_eps=24 / (kappa * d * (1 - eps)),
        b_eps=3 * d / (kappa * (1 - eps)),
        c_delta=d_r**2 * delta**3 * kappa / (2**12 * d**2),
        c1=c1,
        c2=c2,
        seq_residual_coeff=1 + 2 * c2 / (kappa * c1),
        beta=6 * d**2 / (kappa * delta),
        gamma=gamma,
        alpha_k=24 / (5 * kappa) * (1 - gamma) ** k_iters,
        k_iters=k_iters,
    )
