"""Single-shot decoding of quantum Tanner codes by mismatch decomposition.

Both decoders share the same pipeline: per-vertex minimum-weight local
corrections (coset leaders), a global mismatch Ẑ that XORs the two
candidate corrections of every face, and a greedy decomposition of Ẑ
into local dual-tensor codewords.  The two schedules differ in which
vertex steps next and in θ: the sequential one drains a FIFO worklist
of vertices whose views meet Ẑ and removes any codeword clearing a
(1-ε) fraction of its weight; the parallel one sweeps the four
(effective) vertex classes V00, V01, V10, V11, each in group order,
with the fixed 1/2 threshold, choosing a maximal-weight codeword per
vertex.

There is one implementation, which decodes many syndromes at once, one
numpy row per trial, as multi-round runs and sweep blocks do: the
initial mismatch (``lockstep_initial_mismatch``), then one
decomposition in place (``lockstep_sequential_decomposition``,
``lockstep_parallel_decomposition``).  ``sequential_decode``,
``parallel_decode``, ``initial_mismatch`` and the two
``*_mismatch_decomposition`` functions are its one-row views, for
``decode-one``.  Each decomposition returns its ``Steps``, the columns
of the step log.

Both stop at a provable fixed point.  A codeword x passes at v only if
2|x ∩ Ẑ_v| - |x| ≥ ceil(θ|x|), and |x ∩ Ẑ_v| ≤ |Ẑ|, so no vertex finds
one while |Ẑ| is below h_min(θ), the least ceil((|x| + ceil(θ|x|)) / 2)
over the cached codewords (n + 1 if there are none).  The cache keeps
h_min next to each θ table (``scan_table`` returns both): a row lighter
than it is not scanned, and a row that falls below it leaves.

Candidate search is exhaustive over the cached nonzero codewords of
C_A ⊞ C_B, the span of the kernel of H_A ⊗ H_B, which comes in
lexicographic order, sorted by weight descending with one stable radix
pass (so lexicographic within a weight class).  The
minimal (c, r) split of a codeword is computed by
``codes.DualTensorCode.split`` only when the decoder needs it, and
memoized per codeword.  A threshold policy θ asks for a reduction of at
least ceil(θ|x|) (sequential: θ = 1-ε, parallel: θ = 1/2); the cache
keeps one ``gf2.WordCache`` per θ whose memo holds the search result
for every local Δ²-bit mismatch pattern seen so far, and only a pattern
seen for the first time runs the numpy popcount scan.  Face q sits at
local bit q mod Δ² of every view that holds it (see
``cayley.LeftRightCayleyComplex.view_table``).  Every per-vertex table
(each class's faces in sweep order, the packers, built on first use) is
read from the complex's ``view_table``, and one check at cache build
makes sure the views of each class partition the faces, which is what
lets the parallel schedule update a whole class at once.

The coset leader of a local syndrome s is found in the same cached
codewords: y₀ = ``dt.echelon.solve(s)``, the particular solution of
the local echelon, is one member of the coset, and one popcount over
y₀ ⊕ ({0} ∪ C_A ⊞ C_B) gives the lightest; ties go to the largest
``gf2.lex_keys`` key (the first vector in ``itertools.combinations``
order).  Leaders are memoized per syndrome, in the ``gf2.WordCache``
``leaders``, so no table over all 2^r syndromes is built and r needs
no budget.

Every lockstep step packs views (or local syndromes) into one word per
(row, vertex) and reads the result of every word from a
``gf2.WordCache`` (a θ table, or the coset leaders): one hash and two
``take``s per array in its direct-mapped slots, and only missed words
go to its memo.  The initial mismatch lifts the leaders densely, one
column permutation per class, V01 then V10.  A removed codeword and
its share of f̂ are XORed back bit by bit at (row, face), splitting a
codeword only where f̂ takes one of its parts.

Both schedules run one first-hit test (``_first_hits``): every view of
every row at or above h_min is packed into one word and the scan of
every word read from the θ table at once.  Ẑ cannot change before a
row's first hit under either schedule, so a row where no vertex finds a
codeword is a fixed point and is left alone.  The parallel schedule
runs the test at the start of every sweep, and only rows with a hit go
on to the four class steps: such a row always changes.  A class step
reads the θ = 1/2 scans as a (rows, slots) array (the V00 step, which
runs before Ẑ changes, reads them from the test); same-class views
partition the faces, so the class is stepped at once.  The sequential
schedule runs the test once per pass: every (row, vertex) holds a queue
key (its enqueue number) or none, and each row steps at the queued
vertex of least key that hits, dropping every key up to it (the no-op
pops, as Ẑ cannot change before a hit); the corners of the faces the
step changed that are not queued get fresh keys in vertex order.  A
row leaves when no queued vertex hits or |Ẑ| falls below h_min.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

import numpy as np

from . import gf2
from .errors import DimensionMismatchError, LocalCacheError
from .gf2 import BitVector
from .tanner import QuantumTannerCode


def as_fraction(x) -> Fraction:
    """Exact parameter parsing; floats are read as their decimal literal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def checked_eps(eps) -> Fraction:
    """The sequential decoder's ε as a Fraction, which must lie in (0, 1)."""
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return eps


class LocalCodewordCache:
    """Per-code view of the local correction code C_1^⊥ = C_A ⊞ C_B, the
    code's ``x_correction_code`` (``dt``).

    Holds every nonzero codeword as a Δ² bit mask with its weight, the
    memo ``splits`` of the minimal (c, r) splits computed so far (see
    ``split_many``; set-up computes none), and the parallel sweep order
    with each sweep class's faces (``class_faces``, checked to partition
    the faces; every face id is checked to lie in the complex).  Set-up
    checks that the local checks H_A ⊗ H_B are independent (the lowest
    dependent one is named in a ``LocalCacheError``), so
    ``dt.echelon.solve`` reaches every local syndrome.

    Built on first use, so ``get_cache`` (the set-up a run times) and
    ``decode-one`` build none of them: the ``gf2.WordCache`` of coset
    leaders (``leaders``: syndrome to leader, at most 2^r entries), one
    ``gf2.WordCache`` of candidate searches per threshold policy θ
    (``scan_table``), the sweep class of every vertex
    (``vertex_class``), and the lockstep decoders' ``gf2.WordPacker``s.
    ``packers[c]`` reads every view of sweep class c (V00, V01, V10,
    V11) out of (trials, n) face rows as one Δ²-bit word: bit p of the
    word of the class's j-th vertex is face ``class_faces[c, j·Δ² + p]``.
    ``syndrome_words`` reads the r₁-bit local syndrome of every V1
    vertex out of (trials, H_Z rows) rows, ``order`` V01 words then
    ``order`` V10 words (sweep classes 1 and 2), and ``lift_columns``
    gives each face the column of its bit in the V01 leaders and in the
    V10 leaders, unpacked side by side.  ``view_words`` (read only by the
    first-hit test of both lockstep schedules) reads every vertex's
    local pattern, in vertex order, as one Δ²-bit word: its columns
    ``sweep_order[c·|G|:(c+1)·|G|]`` are the words of ``packers[c]``.
    """

    def __init__(self, code: QuantumTannerCode):
        dt = self.dt = code.x_correction_code
        self.code = code
        n = self.n = dt.n
        masks = dt.codewords()
        weights = np.bitwise_count(masks)
        # the codewords come in lex order, so one stable pass by n - weight
        # (8-bit, a key numpy's stable sort radix-sorts) gives weight
        # descending, lex order within a weight
        order = np.argsort((n - weights).astype(np.uint8), kind="stable")
        self.masks = masks[order]
        self.weights = weights[order].astype(np.int64)
        self.neg_weights = -self.weights
        self.splits: dict[int, tuple[int, int]] = {}
        # the first unit syndrome solve cannot reach is the lowest bit any
        # relation among the checks touches
        dependent = 0
        for rel in dt.echelon.relations:
            dependent |= rel
        if dependent:
            i = (dependent & -dependent).bit_length() - 1
            raise LocalCacheError(f"local check {i} depends on the other local checks")
        self._build_views(code)
        self._scan_tables: dict[Fraction, tuple[gf2.WordCache, int]] = {}

    def split_many(self, indices: list[int]) -> list[tuple[int, int]]:
        """The minimal (c, r) splits of the cached codewords ``indices``:
        those not split before go through one ``dt.split``, and every
        split is memoized in ``splits``."""
        new = [i for i in dict.fromkeys(indices) if i not in self.splits]
        if new:
            _, c, r = self.dt.split(self.masks[new])
            self.splits.update(zip(new, zip(c.tolist(), r.tolist())))
        return [self.splits[i] for i in indices]

    def _build_views(self, code: QuantumTannerCode) -> None:
        cx = code.complex
        view_table = cx.view_table
        num_faces = cx.num_faces
        # checked first: the per-class count below would miscount a face
        # id outside [0, faces) or fail on it with a bare numpy error
        outside = (view_table < 0) | (view_table >= num_faces)
        if outside.any():
            v, p = np.argwhere(outside)[0]
            raise LocalCacheError(
                f"view of vertex {v} holds face {view_table[v, p]}, outside the complex")
        # parallel sweep order: classes V00, V01, V10, V11, each in group order
        order = cx.group.order
        v0, v1 = code.v0_vertices, code.v1_vertices
        self.sweep_order = v0[:order] + v1[:order] + v1[order:] + v0[order:]
        # class_faces[c, j·Δ² + p] is bit p of the j-th view of sweep class
        # c.  Its order·Δ² = n entries must be n distinct faces: the views
        # of one class partition the faces, so a parallel class step is
        # well defined.  One count of (class, face) pairs checks all four
        # classes; only when it fails does a per-class scan name the
        # vertex of the first repeat in sweep order.
        faces = self.class_faces = view_table[self.sweep_order].reshape(4, -1)
        counts = np.bincount((faces + num_faces * np.arange(4)[:, None]).ravel(),
                             minlength=4 * num_faces)
        if not (counts == 1).all():
            for cls, row in enumerate(faces):
                repeat = np.ones(row.size, dtype=bool)
                repeat[np.unique(row, return_index=True)[1]] = False
                if repeat.any():
                    v = self.sweep_order[cls * order + int(repeat.argmax()) // view_table.shape[1]]
                    raise LocalCacheError(
                        f"view of vertex {v} overlaps another view of class {cls}")
            raise LocalCacheError("the views of a sweep class do not cover the faces")

    @cached_property
    def leaders(self) -> gf2.WordCache:
        return gf2.WordCache(partial(_coset_leader_uncached, self), np.uint64)

    @cached_property
    def vertex_class(self) -> np.ndarray:
        """The effective class of every vertex, which is its sweep class."""
        code = self.code
        return np.array([code.effective_class(v) for v in range(code.complex.num_vertices)])

    @cached_property
    def packers(self) -> list[gf2.WordPacker]:
        return [gf2.WordPacker(faces, self.n, self.code.n) for faces in self.class_faces]

    @cached_property
    def lift_columns(self) -> tuple[np.ndarray, np.ndarray]:
        n, faces = self.code.n, self.class_faces
        return np.argsort(faces[1]), n + np.argsort(faces[2])

    @cached_property
    def syndrome_words(self) -> Optional[gf2.WordPacker]:
        rz, r1 = self.code.h_z.rows, self.code.r1
        return gf2.WordPacker(np.arange(rz), r1, rz) if r1 else None

    @cached_property
    def view_words(self) -> gf2.WordPacker:
        code = self.code
        return gf2.WordPacker(code.complex.view_table.ravel(), self.n, code.n)

    def scan_table(self, theta: Fraction) -> tuple[gf2.WordCache, int]:
        """(table, floor) for threshold policy θ, built on first use.

        The table is the memoized candidate search: the ``gf2.WordCache``
        of ``_scan_uncached`` with thresholds ceil(θ·|x_i|) for cached
        codeword i, in integer arithmetic.  Patterns have Δ² bits, so
        its memo holds at most 2^Δ² entries.  The floor is h_min(θ), the least |Ẑ| at which
        some vertex can find a codeword at θ: the least
        ceil((|x| + ceil(θ|x|)) / 2) over the cached codewords x, or
        n + 1 if there are none.  x passes at v only if
        2|x ∩ Ẑ_v| - |x| ≥ ceil(θ|x|), and |x ∩ Ẑ_v| ≤ |Ẑ|, so every Ẑ
        lighter than h_min(θ) is a fixed point of both schedules."""
        theta = as_fraction(theta)
        entry = self._scan_tables.get(theta)
        if entry is None:
            thresholds = -((-theta.numerator * self.weights) // theta.denominator)
            table = gf2.WordCache(partial(_scan_uncached, self, thresholds))
            # with no codeword nothing hits, at any |Ẑ| ≤ n
            floor = int(((self.weights + thresholds + 1) // 2).min(initial=self.code.n + 1))
            entry = self._scan_tables[theta] = table, floor
        return entry


def get_cache(code: QuantumTannerCode) -> LocalCodewordCache:
    if code._decoder_cache is None:
        code._decoder_cache = LocalCodewordCache(code)
    return code._decoder_cache


def _coset_leader_uncached(cache: LocalCodewordCache, s: int) -> int:
    """The lightest vector of y₀ ⊕ ({0} ∪ C_A ⊞ C_B), y₀ the particular
    solution ``dt.echelon.solve`` gives for s (any solution spans the
    same coset, so the leader does not depend on which); among equal
    weights the one of largest ``gf2.lex_keys`` key (keys are
    distinct), which is the first vector in ``itertools.combinations``
    order.  Syndrome 0 has leader 0 (the
    word cache asks it at build), with no scan."""
    if s == 0:
        return 0
    y0 = cache.dt.echelon.solve(BitVector(cache.dt.pchk.rows, s)).bits
    coset = np.append(cache.masks, np.uint64(0)) ^ np.uint64(y0)
    weights = np.bitwise_count(coset)
    ties = coset[weights == weights.min()]
    return int(ties[np.argmax(gf2.lex_keys(ties, cache.n))])


def _scan_uncached(cache: LocalCodewordCache, thresholds: np.ndarray, zloc: int) -> int:
    """Index of the first cached codeword meeting the reduction threshold,
    -1 if none does.

    The list is sorted by weight descending, so the first hit is a
    maximal-weight satisfying codeword (lexicographic tie-break); only
    weights ≤ 2|zloc| can qualify, which bounds the scanned slice.
    """
    if zloc == 0:
        return -1
    start = int(np.searchsorted(cache.neg_weights, -2 * zloc.bit_count()))
    if start >= len(cache.weights):
        return -1
    masks = cache.masks[start:]
    hits = np.bitwise_count(masks & np.uint64(zloc)).astype(np.int64)
    cond = 2 * hits - cache.weights[start:] >= thresholds[start:]
    if not cond.any():
        return -1
    return start + int(np.argmax(cond))


class Steps:
    """The steps a lockstep decomposition took, for the step log.

    ``weights`` holds |Ẑ| of every row before the decomposition, and
    ``chunks`` one tuple of equal-length arrays per sequential pass or
    parallel class step that removed codewords, in the order taken: the
    row, the vertex and the codeword index of every step, and the local
    pattern Ẑ_v its scan read.  ``columns`` derives the rest.
    """

    def __init__(self, cache: LocalCodewordCache, weights: np.ndarray):
        self.cache = cache
        self.weights = weights
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def columns(self) -> dict[str, np.ndarray]:
        """One entry per step, row by row and each row's steps in the
        order taken: "row", "vertex", "class" (its effective class),
        "codeword", "|x|", and |Ẑ| "before" and "after" the step.  A
        step changes |Ẑ| by |x| - 2|x ∩ Ẑ_v|."""
        cache = self.cache
        empty = np.zeros(0, dtype=np.intp)
        chunks = self.chunks or [(empty, empty, empty, empty.astype(np.uint64))]
        rows, vertices, codewords, words = (np.concatenate(c) for c in zip(*chunks))
        order = np.argsort(rows, kind="stable")
        rows, vertices, codewords = rows[order], vertices[order], codewords[order]
        x_weight = cache.weights[codewords]
        hits = np.bitwise_count(cache.masks[codewords] & words[order]).astype(np.int64)
        change = x_weight - 2 * hits
        # |Ẑ| after each step: the row's weight plus its changes so far
        total = np.cumsum(change)
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        before_row = np.repeat(total[first] - change[first], np.diff(first, append=rows.size))
        after = self.weights[rows].astype(np.int64) + total - before_row
        return {"row": rows, "vertex": vertices, "class": cache.vertex_class[vertices],
                "codeword": codewords, "|x|": x_weight, "before": after - change,
                "after": after}


# One-row views of the lockstep decoder, for decode-one: a syndrome is
# one row, and f̂ comes back as a (1, n) bit row with the ``Steps``.


def initial_mismatch(code: QuantumTannerCode, noisy_syndrome: BitVector
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(Ẑ, ε₀₁) of one noisy syndrome as (1, n) bit rows: the one-row
    view of ``lockstep_initial_mismatch``."""
    if noisy_syndrome.n != code.h_z.rows:
        raise DimensionMismatchError(code.h_z.rows, noisy_syndrome.n, "syndrome length")
    syndromes = gf2.to_bit_rows([noisy_syndrome.bits], code.h_z.rows)
    return lockstep_initial_mismatch(get_cache(code), syndromes)


def sequential_mismatch_decomposition(
    code: QuantumTannerCode, zhat: np.ndarray, f: np.ndarray,
    eps: Fraction | float = Fraction(1, 2),
) -> Steps:
    """``lockstep_sequential_decomposition`` of the rows ``initial_mismatch``
    gives, in place."""
    return lockstep_sequential_decomposition(get_cache(code), zhat, f, eps)


def parallel_mismatch_decomposition(
    code: QuantumTannerCode, zhat: np.ndarray, f: np.ndarray, k: int
) -> Steps:
    """``lockstep_parallel_decomposition`` of the rows ``initial_mismatch``
    gives, in place."""
    return lockstep_parallel_decomposition(get_cache(code), zhat, f, k)


def sequential_decode(
    code: QuantumTannerCode,
    noisy_syndrome: BitVector,
    eps: Fraction | float = Fraction(1, 2),
) -> tuple[np.ndarray, Steps]:
    """Full sequential decoder: local corrections, mismatch decomposition,
    then f̂ = Σ_{V01} ε̃_v + Ĉ₁ + R̂₀, with its steps."""
    zhat, f = initial_mismatch(code, noisy_syndrome)
    return f, sequential_mismatch_decomposition(code, zhat, f, eps)


def parallel_decode(
    code: QuantumTannerCode, noisy_syndrome: BitVector, k: int
) -> tuple[np.ndarray, Steps]:
    """Full parallel decoder with k decomposition sweeps (θ = 1/2), with
    its steps."""
    zhat, f = initial_mismatch(code, noisy_syndrome)
    return f, parallel_mismatch_decomposition(code, zhat, f, k)


def _word_bits(
    row: np.ndarray, slot: np.ndarray, words: np.ndarray, faces: np.ndarray, d2: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, faces) index of every set bit of the Δ²-bit ``words``,
    word i lying on the view of slot ``slot[i]`` of the face table
    ``faces`` (a class's faces, or every view's), in row ``row[i]``."""
    hit, bit = np.nonzero(gf2.unpack_words(words, d2))
    return row[hit], faces[slot[hit] * d2 + bit]


def lockstep_initial_mismatch(
    cache: LocalCodewordCache, syndromes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Ẑ, ε₀₁) bit rows for a (trials, H_Z rows) array of noisy
    syndromes: per-vertex minimum corrections and their XOR.

    The local syndromes are read as one word per V1 vertex, and their
    leaders come from the word cache ``leaders`` (word 0 has leader 0).
    The leaders are lifted densely, one ``gf2.unpack_words`` for both
    classes and one column permutation per class (a gather through
    ``lift_columns``): the V01 lift is ε₀₁, and Ẑ is ε₀₁ with the V10
    lift XORed in (a face has one vertex of each class, so the two lifts
    overlap).
    """
    trials, n = len(syndromes), cache.code.n
    if cache.syndrome_words is None:  # r₁ = 0: no local checks
        return np.zeros((trials, n), dtype=np.uint8), np.zeros((trials, n), dtype=np.uint8)
    leaders = cache.leaders(cache.syndrome_words(syndromes))
    lifts = gf2.unpack_words(leaders, cache.n).reshape(trials, 2 * n)
    v01, v10 = cache.lift_columns
    eps01 = lifts[:, v01]
    return eps01 ^ lifts[:, v10], eps01


def _first_hits(
    cache: LocalCodewordCache, table: gf2.WordCache, zhat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(words, scans) of (rows, n) Ẑ rows: every vertex's view packed into
    one Δ²-bit word, in vertex order, and the scan of each word in
    ``table`` (a codeword index, -1 for none).  Ẑ cannot change before a
    row's first hit under either schedule, so a row without one is a
    fixed point."""
    words = cache.view_words(zhat)
    return words, table(words)


# which split parts of a removed codeword land in f̂ = ε₀₁ + Ĉ₁ + R̂₀, per
# sweep class V00, V01, V10, V11: (c part?, r part?).  f̂ takes Ĉ₁, the c
# parts removed at V01 and V11, and R̂₀, the r parts removed at V00 and V01
_F_SHARE = ((False, True), (True, True), (False, False), (True, False))


def lockstep_parallel_decomposition(
    cache: LocalCodewordCache, zhat: np.ndarray, f: np.ndarray, k: int
) -> Steps:
    """k sweeps over the four vertex classes with the fixed 1/2
    threshold on every row of ``zhat`` in place, XORing each removed
    codeword's share of f̂ into ``f``; returns the ``Steps``.

    Views of same-class vertices are disjoint, so in-class updates
    commute and a class step equals the class's vertices stepped one by
    one, in group order.  A row is active only while |Ẑ| is at least the
    θ = 1/2 floor of ``scan_table`` (no vertex finds a codeword in a
    lighter Ẑ, as |x ∩ Ẑ_v| ≤ |Ẑ|).  Each sweep starts with the first-hit
    test (``_first_hits``) on the active rows, and a row where no vertex
    finds a codeword leaves the active set: it would sweep without
    change.  Every other row changes in this sweep (Ẑ is untouched until
    the first class that holds a hit runs), so after the class steps the
    active rows are those still at or above the floor.  A class step
    packs each view of the class into one Δ²-bit word per row, reads the
    scan of every word from the θ = 1/2 word cache as one (rows, slots)
    array and XORs back only the removed codewords, at the (row, face) of
    each of their bits; the V00 step runs first, on the Ẑ the test
    scanned, so it reads its words and scans from the test's columns of
    the V00 vertices.  Only the V00 and V11 steps need (c, r) splits, for
    the r and c parts of f̂; they split their new codewords in one pass.
    """
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    table, floor = cache.scan_table(Fraction(1, 2))
    d2 = cache.n
    weights = gf2.row_weights(zhat)
    steps = Steps(cache, weights)
    sweep = np.reshape(cache.sweep_order, (4, -1))
    active = np.flatnonzero(weights >= floor)
    for _ in range(k):
        if active.size:
            words, scans = _first_hits(cache, table, zhat[active])
            moving = (scans >= 0).any(axis=1)
            active, words, scans = active[moving], words[moving], scans[moving]
        if active.size == 0:
            break
        z, acc = zhat[active], f[active]
        for cls, (packer, faces, vertices, (c_share, r_share)) in enumerate(
                zip(cache.packers, cache.class_faces, sweep, _F_SHARE)):
            # Ẑ is untouched before the V00 step, which reads the test's scans
            if cls == 0:
                found = scans[:, vertices]
            else:
                packed = packer(z)
                found = table(packed)
            row, slot = np.nonzero(found >= 0)
            if row.size == 0:
                continue
            removed = found[row, slot]
            stepped = vertices[slot]
            steps.chunks.append((active[row], stepped, removed,
                                 words[row, stepped] if cls == 0 else packed[row, slot]))
            bits = _word_bits(row, slot, cache.masks[removed], faces, d2)
            z[bits] ^= 1
            if c_share != r_share:  # V11 keeps c, V00 keeps r: only these split
                part = 0 if c_share else 1
                shares = [cr[part] for cr in cache.split_many(removed.tolist())]
                acc[_word_bits(row, slot, np.array(shares, dtype=np.uint64), faces, d2)] ^= 1
            elif c_share:  # V01 keeps c + r, the whole codeword
                acc[bits] ^= 1
        zhat[active], f[active] = z, acc
        active = active[gf2.row_weights(z) >= floor]
    return steps


# no queue key: a vertex not in a row's FIFO
_UNQUEUED = np.iinfo(np.int64).max


def lockstep_sequential_decomposition(
    cache: LocalCodewordCache, zhat: np.ndarray, f: np.ndarray,
    eps: Fraction | float = Fraction(1, 2),
) -> Steps:
    """The sequential FIFO with θ = 1 - ε on every row of ``zhat`` in
    place, removing any local codeword that clears ≥ ceil((1-ε)|x|) of
    Ẑ and XORing its Ĉ₁ + R̂₀ share of f̂ into ``f``; returns the ``Steps``.

    ε is checked and the θ table and floor looked up once per call.  A
    row with |Ẑ| below the floor is a fixed point (no vertex finds a
    codeword, as |x ∩ Ẑ_v| ≤ |Ẑ|) and is left as it is.  Every other
    row's FIFO is an array of queue keys, one per vertex: its enqueue
    number, or none.  It starts with every vertex whose view meets Ẑ, in
    vertex order.  Each pass runs the first-hit test (``_first_hits``)
    on the rows left and steps each at its queued vertex of least key
    that finds a codeword.  The queued vertices before it would pop as
    no-ops, since Ẑ cannot change before a hit, so every key up to it is
    dropped.  A row leaves when none of its queued vertices hits, or when
    the step leaves |Ẑ| below the floor; the rows that stay queue the
    corners of the faces the step changed that are not queued, with
    fresh keys in vertex order.
    """
    theta = 1 - checked_eps(eps)
    table, floor = cache.scan_table(theta)
    weights = gf2.row_weights(zhat)
    steps = Steps(cache, weights)
    rows = np.flatnonzero(weights >= floor)
    cx, d2 = cache.code.complex, cache.n
    faces, corners, vertices = cx.view_table.ravel(), cx.corner_table, np.arange(cx.num_vertices)
    keys, fresh = None, 0
    while rows.size:
        words, scans = _first_hits(cache, table, zhat[rows])
        if keys is None:  # the initial queue: every view that meets Ẑ
            keys = np.where(words != 0, vertices, _UNQUEUED)
        queued_hits = np.where(scans >= 0, keys, _UNQUEUED)
        at = np.arange(rows.size)
        v = queued_hits.argmin(axis=1)
        key = queued_hits[at, v]
        go = key < _UNQUEUED
        if not go.all():
            at, v, key, rows, keys = at[go], v[go], key[go], rows[go], keys[go]
            if rows.size == 0:
                break
        removed = scans[at, v]
        steps.chunks.append((rows, v, removed, words[at, v]))
        x = cache.masks[removed]
        zhat[_word_bits(rows, v, x, faces, d2)] ^= 1
        cls = cache.vertex_class[v]
        shares = np.where(cls == 1, x, np.uint64(0))  # V01 keeps c + r, the whole codeword
        split = np.flatnonzero(cls % 3 == 0)  # V00 keeps r, V11 keeps c: only these split
        if split.size:
            parts = cache.split_many(removed[split].tolist())
            shares[split] = [part[1] if k == 0 else part[0]
                             for part, k in zip(parts, cls[split].tolist())]
        f[_word_bits(rows, v, shares, faces, d2)] ^= 1
        stay = gf2.row_weights(zhat[rows]) >= floor
        if not stay.all():
            v, key, x, rows, keys = v[stay], key[stay], x[stay], rows[stay], keys[stay]
        if rows.size == 0:
            break
        keys[keys <= key[:, None]] = _UNQUEUED  # the step's pop and the no-op pops
        row, changed = _word_bits(np.arange(rows.size), v, x, faces, d2)
        corner = np.zeros(keys.shape, dtype=bool)
        corner[row[:, None], corners[changed]] = True
        fresh += len(vertices)
        keys = np.where(corner & (keys == _UNQUEUED), fresh + vertices, keys)
    return steps
