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
``lockstep_parallel_decomposition``).  Each decomposition returns its
``Steps``, the columns of the step log.  ``sequential_decode``,
``parallel_decode``, ``initial_mismatch`` and the two
``*_mismatch_decomposition`` functions are its one-row views, which no
package path calls: the benchmark's tracer names them.

Both stop at a provable fixed point: no vertex finds a codeword while
|Ẑ| is below h_min(θ), which ``LocalCodewordCache.scan_table`` returns
with each θ table, so a row lighter than it is not scanned, and a row
that falls below it leaves.

Candidate search is exhaustive over the cached nonzero codewords of
C_A ⊞ C_B, sorted by weight descending and lexicographic within a
weight; the minimal (c, r) split of a codeword is computed by
``codes.DualTensorCode.split`` only when the decoder needs it, and
memoized.  A threshold policy θ asks for a reduction of at least
ceil(θ|x|) (sequential: θ = 1-ε, parallel: θ = 1/2); the cache keeps
one ``gf2.WordCache`` per θ whose memo holds the search result for
every local Δ²-bit mismatch pattern seen so far.  The coset leader of
a local syndrome is found in the same codewords
(``_coset_leader_uncached``) and memoized per syndrome in the
``gf2.WordCache`` ``leaders``, so no table over all 2^r syndromes is
built and r needs no budget.

Every lockstep step indexes views by vertex id: bit p of the view of
vertex v is face ``view_table[v, p]`` (see
``cayley.LeftRightCayleyComplex.view_table``), and each sweep class is
one block of |G| consecutive ids.  Cache build checks that each class
is such a block and that its views partition the faces, which is what
lets the parallel schedule update a whole class at once.  Every view word the
decoder scans comes from ``_first_hits``: it packs the views of a block
of ids (every vertex, or one class) into one word per (row, vertex) and
reads the scans of all words from a θ table at once (one hash and two
``take``s per array, and only missed words go to the memo).  A removed
codeword and its share of f̂ are XORed back bit by bit at (row, face),
splitting a codeword only where f̂ takes one of its parts, as the
per-class table ``_SHARES`` says.

Over every vertex, ``_first_hits`` is the first-hit test both schedules
run: Ẑ cannot change before a row's first hit, so a row where no vertex
finds a codeword is a fixed point and is left alone.  The parallel
schedule runs it at the start of every sweep, and a class step is
``_first_hits`` on the class's block (the V00 step, which runs before Ẑ
changes, reads its block of the test).  The sequential FIFO runs it
once per pass and steps each row at its queued vertex of least key that
hits.
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
    code's ``x_correction_code`` (``dt``).  It keeps the code's
    ``complex`` but not the code, which holds the cache: a discarded code
    is freed at once, without a cyclic collection.

    Holds every nonzero codeword as a Δ² bit mask with its weight, the
    memo ``splits`` of the minimal (c, r) splits computed so far (see
    ``split_many``; set-up computes none), and the parallel sweep order
    ``sweep_order``: classes V00, V01, V10, V11, each checked to be one
    block of |G| consecutive vertex ids in group order whose views
    partition the faces (every face id is checked to lie in the
    complex).  Set-up checks that the local checks H_A ⊗ H_B are
    independent (the lowest dependent one is named in a
    ``LocalCacheError``), so ``dt.echelon.solve`` reaches every local
    syndrome.

    Built on first use, so ``get_cache`` (the set-up a run times) builds
    none of them: the ``gf2.WordCache`` of coset leaders (``leaders``:
    syndrome to leader, at most 2^r entries), one
    ``gf2.WordCache`` of candidate searches per threshold policy θ
    (``scan_table``), the sweep class of every vertex (``vertex_class``,
    read off ``sweep_order``), and the lockstep decoders' two
    ``gf2.WordPacker``s.  ``view_words`` (read only by ``_first_hits``)
    reads every vertex's local pattern out of (trials, n) face rows as
    one Δ²-bit word, in vertex order: bit p of vertex v's word is face
    ``view_table[v, p]``, and a slice of vertex ids, such as a sweep
    class's block, reads just those words.  ``syndrome_words`` reads the
    r₁-bit local syndrome of every V1 vertex out of (trials, H_Z rows)
    rows, ``order`` V01 words then ``order`` V10 words (sweep classes 1
    and 2), and ``lift_columns`` gives each face the column of its bit in
    the V01 leaders and in the V10 leaders, unpacked side by side.
    """

    def __init__(self, code: QuantumTannerCode):
        dt = self.dt = code.x_correction_code
        self.complex = code.complex
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
        # the parallel class steps read class c as one slice of vertex ids
        blocks = np.reshape(self.sweep_order, (4, -1))
        if (np.diff(blocks) != 1).any():
            raise LocalCacheError("a sweep class is not a run of consecutive vertex ids")
        # faces[c, j·Δ² + p] is bit p of the j-th view of sweep class c.
        # Its order·Δ² = n entries must be n distinct faces: the views of
        # one class partition the faces, so a parallel class step is well
        # defined.  One count of (class, face) pairs checks all four
        # classes; only when it fails does a per-class scan name the
        # vertex of the first repeat in sweep order.
        faces = view_table[blocks].reshape(4, -1)
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
        """The sweep class of every vertex (its effective class): its
        position in ``sweep_order`` over |G|."""
        return np.argsort(self.sweep_order) // self.complex.group.order

    @cached_property
    def lift_columns(self) -> tuple[np.ndarray, np.ndarray]:
        order = self.complex.group.order  # the V1 vertices are sweep classes 1 and 2
        faces = self.complex.view_table[self.sweep_order[order:3 * order]].reshape(2, -1)
        return np.argsort(faces[0]), self.complex.num_faces + np.argsort(faces[1])

    @cached_property
    def syndrome_words(self) -> Optional[gf2.WordPacker]:
        r1 = self.dt.pchk.rows
        rz = 2 * self.complex.group.order * r1  # r₁ checks on each of the 2|G| V1 vertices
        return gf2.WordPacker(np.arange(rz), r1, rz) if r1 else None

    @cached_property
    def view_words(self) -> gf2.WordPacker:
        cx = self.complex
        return gf2.WordPacker(cx.view_table.ravel(), self.n, cx.num_faces)

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
            floor = int(((self.weights + thresholds + 1) // 2).min(
                initial=self.complex.num_faces + 1))
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


# One-row views of the lockstep decoder, named by the benchmark's tracer: a
# syndrome is one row, and f̂ comes back as a (1, n) bit row with the ``Steps``.


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
    cache: LocalCodewordCache, row: np.ndarray, vertex: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, faces) index of every set bit of the Δ²-bit ``words``,
    word i lying on the view of vertex ``vertex[i]`` in row ``row[i]``:
    bit p is face ``view_table[vertex[i], p]``."""
    hit, bit = np.nonzero(gf2.unpack_words(words, cache.n))
    return row[hit], cache.complex.view_table[vertex[hit], bit]


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
    trials, n = len(syndromes), cache.complex.num_faces
    if cache.syndrome_words is None:  # r₁ = 0: no local checks
        return np.zeros((trials, n), dtype=np.uint8), np.zeros((trials, n), dtype=np.uint8)
    leaders = cache.leaders(cache.syndrome_words(syndromes))
    lifts = gf2.unpack_words(leaders, cache.n).reshape(trials, 2 * n)
    v01, v10 = cache.lift_columns
    eps01 = lifts[:, v01]
    return eps01 ^ lifts[:, v10], eps01


def _first_hits(
    cache: LocalCodewordCache, table: gf2.WordCache, zhat: np.ndarray,
    block: slice = slice(None),
) -> tuple[np.ndarray, np.ndarray]:
    """(words, scans) of (rows, n) Ẑ rows: the view of every vertex of
    ``block`` (a slice of vertex ids, every vertex by default) packed
    into one Δ²-bit word, in vertex order, and the scan of each word in
    ``table`` (a codeword index, -1 for none).  Over every vertex it is
    the first-hit test: Ẑ cannot change before a row's first hit under
    either schedule, so a row without one is a fixed point."""
    words = cache.view_words(zhat, block)
    return words, table(words)


# which split parts of a removed codeword land in f̂ = ε₀₁ + Ĉ₁ + R̂₀, per
# sweep class V00, V01, V10, V11: (c part, r part).  f̂ takes Ĉ₁, the c
# parts removed at V01 and V11, and R̂₀, the r parts removed at V00 and V01
_SHARES = np.array([(False, True), (True, True), (False, False), (True, False)])


def _split_shares(
    cache: LocalCodewordCache, removed: np.ndarray, r_part: list[bool]
) -> np.ndarray:
    """f̂'s share of each removed codeword of which f̂ takes one part, at
    V00 or V11: its r part where ``r_part`` holds, else its c part, from
    one ``split_many``."""
    splits = cache.split_many(removed.tolist())
    return np.array([r if take_r else c for (c, r), take_r in zip(splits, r_part)],
                    dtype=np.uint64)


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
    active rows are those still at or above the floor.  Each class is one
    block of |G| consecutive vertex ids, and a class step is
    ``_first_hits`` on its block: one Δ²-bit word per (row, vertex) and
    its scan from the θ = 1/2 word cache, as one (rows, vertices) array.
    It XORs back only the removed codewords, at the (row, face) of each
    of their bits.  The V00 step runs first, on the Ẑ the test scanned,
    so it reads its block of the test's words and scans.  Only the V00
    and V11 steps need (c, r) splits, for the r and c parts of f̂; they
    split their new codewords in one pass.
    """
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    table, floor = cache.scan_table(Fraction(1, 2))
    weights = gf2.row_weights(zhat)
    steps = Steps(cache, weights)
    order = cache.complex.group.order
    blocks = [slice(v, v + order) for v in cache.sweep_order[::order]]
    active = np.flatnonzero(weights >= floor)
    for _ in range(k):
        if active.size:
            words, scans = _first_hits(cache, table, zhat[active])
            moving = (scans >= 0).any(axis=1)
            active, words, scans = active[moving], words[moving], scans[moving]
        if active.size == 0:
            break
        z, acc = zhat[active], f[active]
        for cls, (block, (c_share, r_share)) in enumerate(zip(blocks, _SHARES.tolist())):
            # Ẑ is untouched before the V00 step, which reads the test's block
            packed, found = ((words[:, block], scans[:, block]) if cls == 0
                             else _first_hits(cache, table, z, block))
            row, slot = np.nonzero(found >= 0)
            if row.size == 0:
                continue
            removed = found[row, slot]
            stepped = block.start + slot
            steps.chunks.append((active[row], stepped, removed, packed[row, slot]))
            bits = _word_bits(cache, row, stepped, cache.masks[removed])
            z[bits] ^= 1
            if c_share != r_share:  # V11 keeps c, V00 keeps r: only these split
                shares = _split_shares(cache, removed, [r_share] * removed.size)
                acc[_word_bits(cache, row, stepped, shares)] ^= 1
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
    cx = cache.complex
    corners, vertices = cx.corner_table, np.arange(cx.num_vertices)
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
        zhat[_word_bits(cache, rows, v, x)] ^= 1
        c_share, r_share = _SHARES[cache.vertex_class[v]].T
        # V01 keeps c + r, the whole codeword; V00 keeps r, V11 keeps c: only these split
        shares = np.where(c_share & r_share, x, np.uint64(0))
        split = np.flatnonzero(c_share != r_share)
        if split.size:
            shares[split] = _split_shares(cache, removed[split], r_share[split].tolist())
        f[_word_bits(cache, rows, v, shares)] ^= 1
        stay = gf2.row_weights(zhat[rows]) >= floor
        if not stay.all():
            v, key, x, rows, keys = v[stay], key[stay], x[stay], rows[stay], keys[stay]
        if rows.size == 0:
            break
        keys[keys <= key[:, None]] = _UNQUEUED  # the step's pop and the no-op pops
        row, changed = _word_bits(cache, np.arange(rows.size), v, x)
        corner = np.zeros(keys.shape, dtype=bool)
        corner[row[:, None], corners[changed]] = True
        fresh += len(vertices)
        keys = np.where(corner & (keys == _UNQUEUED), fresh + vertices, keys)
    return steps
