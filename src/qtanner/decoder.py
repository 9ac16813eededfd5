"""Single-shot decoding of quantum Tanner codes by mismatch decomposition.

Both decoders share the same pipeline: per-vertex minimum-weight local
corrections (coset leaders), a global mismatch vector that
XORs the two candidate corrections of every face, and a greedy
decomposition of that mismatch into local dual-tensor codewords.  The
decomposition has one core: ``_search`` picks the codeword to remove at
one vertex (mask Ẑ to the view, gather the local pattern, scan), and
``_step`` applies it; ``find_reducing_codeword`` exposes the search.
The two schedules differ only in which vertex they hand to ``_step``
next and in θ: the sequential one drains a FIFO worklist of vertices
whose views meet Ẑ and removes any codeword clearing a (1-ε) fraction
of its weight; the parallel one sweeps the four (effective) vertex
classes V00, V01, V10, V11, each in group order, with the fixed 1/2
threshold, choosing a maximal-weight codeword per vertex.

Both stop at a provable fixed point.  A codeword x passes at v only if
2|x ∩ Ẑ_v| - |x| ≥ ceil(θ|x|), and |x ∩ Ẑ_v| ≤ |Ẑ|, so no vertex finds
one while |Ẑ| is below h_min(θ), the least ceil((|x| + ceil(θ|x|)) / 2)
over the cached codewords (n + 1 if there are none).  The cache keeps
h_min next to each θ table (``scan_table`` returns both): the FIFO
stops popping, a sweep is not started and a lockstep row is not scanned
below it.

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
seen for the first time runs the numpy popcount scan.
Local patterns are gathered from the set bits of Ẑ inside a view by
the face layout alone: face q sits at local bit q mod Δ² of every
view that holds it (see ``cayley.LeftRightCayleyComplex.view_table``),
so the gather needs no per-vertex table.  Every per-vertex table (the
view lists and masks, each class's faces in sweep order, the lockstep
packers, built on first use) is read from the complex's
``view_table``, and one check at cache build makes sure the views of
each class partition the faces, which is what lets the parallel
schedule update a whole class at once.

The coset leader of a local syndrome s is found in the same cached
codewords: y₀ = ``dt.echelon.solve(s)``, the particular solution of
the local echelon, is one member of the coset, and one popcount over
y₀ ⊕ ({0} ∪ C_A ⊞ C_B) gives the lightest; ties go to the largest
``gf2.lex_keys`` key (the first vector in ``itertools.combinations``
order).  Leaders are memoized per syndrome, in the ``gf2.WordCache``
``leaders``, so no table over all 2^r syndromes is built and r needs
no budget.

The lockstep decoders decode many syndromes at once, one numpy row per
trial, as multi-round runs and sweep blocks do: the initial mismatch,
then one decomposition in place.  Every lockstep step packs views (or
local syndromes) into one word per (row, vertex) and reads the result
of every word from the same ``gf2.WordCache`` the scalar decoders read
one word at a time (a θ table, or the coset leaders): one hash and two
``take``s per array in its direct-mapped slots, and only missed words
go to its memo, the one memo of that lookup.  The initial mismatch
(``lockstep_initial_mismatch``, which a sweep block computes once and
shares by all its decoders) lifts the leaders densely, one column
permutation per class, V01 then V10.

Both lockstep schedules run one first-hit test (``_first_hits``): every
view of every row at or above h_min is packed into one word and the
scan of every word read from the θ table at once.  Ẑ cannot change
before a row's first hit under either schedule, so a row where no
vertex finds a codeword is a fixed point and is left alone.  The
parallel schedule runs the test at the start of every sweep, and only
rows with a hit go on to the four class steps: such a row always
changes, and a row without one would sweep without change, which is
where the scalar loop stops.  A class step reads the θ = 1/2 scans as a
(rows, slots) array (the V00 step, which runs before Ẑ changes, reads
them from the test) and XORs only the removed codewords and their share
of f̂ back, bit by bit at (row, face) (splitting a codeword only where
f̂ takes one of its parts); same-class views partition the faces, so
this is the scalar sweep.  The sequential schedule checks ε and looks
up its θ table once per call, runs the test once, and the scalar FIFO
drains only the rows with a hit, from their first vertex that finds
one.  Each row decodes to exactly what the scalar decoder gives its
syndrome.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    ``split``; set-up computes none), the per-vertex view/incidence
    tables the decomposition loops consume (all read from
    ``view_table``), and the parallel sweep order with each sweep
    class's faces (``class_faces``, checked to partition the faces).
    Set-up checks that the local checks H_A ⊗ H_B are independent (the
    lowest dependent one is named in a ``LocalCacheError``), so
    ``dt.echelon.solve`` reaches every local syndrome.

    Built on first use, so ``get_cache`` (the set-up a run times) and
    ``decode-one`` build none of them: the ``gf2.WordCache`` of coset
    leaders (``leaders``: syndrome to leader, at most 2^r entries), one
    ``gf2.WordCache`` of candidate searches per threshold policy θ
    (``scan_table``), and the lockstep decoders' ``gf2.WordPacker``s.
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

    def split(self, idx: int) -> tuple[int, int]:
        """The minimal (c, r) split of cached codeword idx, computed on
        first use."""
        cr = self.splits.get(idx)
        return cr if cr is not None else self.split_many([idx])[0]

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
        # checked first: the incidence scatter below would wrap a negative
        # face id and fail on one past the faces with a bare IndexError
        outside = (view_table < 0) | (view_table >= num_faces)
        if outside.any():
            v, p = np.argwhere(outside)[0]
            raise LocalCacheError(
                f"view of vertex {v} holds face {view_table[v, p]}, outside the complex")
        self.views = view_table.tolist()
        incidence = np.zeros((cx.num_vertices, num_faces), dtype=np.uint8)
        incidence[np.arange(cx.num_vertices)[:, None], view_table] = 1
        self.view_masks = gf2.from_bit_rows(incidence)
        self.face_vertices = cx.corner_table.tolist()
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


@dataclass
class Step:
    step: int
    vertex: int
    vertex_class: int
    codeword: int
    x_weight: int
    weight_before: int
    weight_after: int

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "vertex": self.vertex,
            "class": self.vertex_class,
            "|x|": self.x_weight,
            "before": self.weight_before,
            "after": self.weight_after,
        }


@dataclass
class MismatchState:
    """Evolving mismatch Ẑ plus flip accumulators and the vertex worklist."""

    code: QuantumTannerCode
    zhat: int
    initial_zhat: int
    eps01_sum: int
    acc_c0: int = 0
    acc_c1: int = 0
    acc_r0: int = 0
    acc_r1: int = 0
    worklist: deque = field(default_factory=deque)
    in_queue: bytearray = field(default_factory=bytearray)
    steps: list[Step] = field(default_factory=list)

    @classmethod
    def seeded(
        cls, cache: LocalCodewordCache, zhat: int, eps01_sum: int = 0
    ) -> "MismatchState":
        """State for mismatch Ẑ with every vertex whose view meets Ẑ
        queued, in vertex order."""
        state = cls(
            code=cache.code,
            zhat=zhat,
            initial_zhat=zhat,
            eps01_sum=eps01_sum,
            in_queue=bytearray(len(cache.view_masks)),
        )
        for v, mask in enumerate(cache.view_masks):
            if mask & zhat:
                state.worklist.append(v)
                state.in_queue[v] = 1
        return state

    def accumulators(self) -> tuple[BitVector, BitVector, BitVector, BitVector]:
        n = self.code.n
        return (
            BitVector(n, self.acc_c0),
            BitVector(n, self.acc_c1),
            BitVector(n, self.acc_r0),
            BitVector(n, self.acc_r1),
        )


def coset_leader(cache: LocalCodewordCache, s: int) -> int:
    """Minimum-weight local pattern with syndrome s under H_A ⊗ H_B:
    ``_coset_leader_uncached`` through the memo of ``cache.leaders``."""
    return cache.leaders.get(s)


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


def _gather(bits_in_view: int, d2: int) -> int:
    """Local pattern of global bits already masked to one view: face q
    is local bit q mod Δ² (``d2``) of every view holding it.  The loop
    runs once per set bit, not once per view bit."""
    out = 0
    while bits_in_view:
        lsb = bits_in_view & -bits_in_view
        out |= 1 << (lsb.bit_length() - 1) % d2
        bits_in_view ^= lsb
    return out


def initial_mismatch(code: QuantumTannerCode, noisy_syndrome: BitVector) -> MismatchState:
    """Per-vertex minimum corrections and their XOR (the noisy mismatch)."""
    if noisy_syndrome.n != code.h_z.rows:
        raise DimensionMismatchError(code.h_z.rows, noisy_syndrome.n, "syndrome length")
    cache = get_cache(code)
    zhat = 0
    eps01 = 0
    order = code.complex.group.order
    sig = noisy_syndrome.bits
    r1 = code.r1
    block = (1 << r1) - 1
    for pos, v in enumerate(code.v1_vertices):
        s = (sig >> (pos * r1)) & block
        if s == 0:
            continue
        lifted = gf2.scatter(coset_leader(cache, s), cache.views[v])
        zhat ^= lifted
        if pos < order:  # first block is the effective V01 class
            eps01 ^= lifted
    return MismatchState.seeded(cache, zhat, eps01)


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


def _search(cache: LocalCodewordCache, table: gf2.WordCache, zhat: int, v: int) -> int:
    """Index of the codeword to remove from Ẑ at vertex v, or -1: Ẑ
    masked to the view of v, gathered to a local pattern, then scanned."""
    local = zhat & cache.view_masks[v]
    if local == 0:
        return -1
    return table.get(_gather(local, cache.n))


def _step(state: MismatchState, cache: LocalCodewordCache, table: gf2.WordCache, v: int) -> int:
    """One decomposition step at vertex v: the changed faces, 0 if none."""
    idx = _search(cache, table, state.zhat, v)
    if idx < 0:
        return 0
    return _apply(state, cache, v, idx)


def find_reducing_codeword(
    code: QuantumTannerCode, zhat_bits: int, v: int, theta: Fraction | float
) -> Optional[tuple[int, int, int]]:
    """(x, c, r) on Q(v), as local Δ² masks, with |Ẑ|-|Ẑ+x| ≥ ceil(θ|x|),
    or None.  Scans weight-descending, so the hit has maximal |x|."""
    cache = get_cache(code)
    theta = as_fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    idx = _search(cache, cache.scan_table(theta)[0], zhat_bits, v)
    if idx < 0:
        return None
    return (int(cache.masks[idx]),) + cache.split(idx)


def _apply(state: MismatchState, cache: LocalCodewordCache, v: int, idx: int) -> int:
    """XOR codeword idx into the state at vertex v; returns changed faces."""
    code = state.code
    view = cache.views[v]
    c, r = cache.split(idx)
    c_g = gf2.scatter(c, view)
    r_g = gf2.scatter(r, view)
    changed = c_g ^ r_g
    eff = code.effective_class(v)
    i, j = eff >> 1, eff & 1
    if j == 0:
        state.acc_c0 ^= c_g
    else:
        state.acc_c1 ^= c_g
    if i == 0:
        state.acc_r0 ^= r_g
    else:
        state.acc_r1 ^= r_g
    before = state.zhat.bit_count()
    state.zhat ^= changed
    state.steps.append(
        Step(
            step=len(state.steps),
            vertex=v,
            vertex_class=eff,
            codeword=idx,
            x_weight=int(cache.weights[idx]),
            weight_before=before,
            weight_after=state.zhat.bit_count(),
        )
    )
    return changed


def sequential_mismatch_decomposition(
    state: MismatchState, eps: Fraction | float = Fraction(1, 2)
) -> tuple[BitVector, BitVector, BitVector, BitVector]:
    """Greedy decomposition: FIFO over vertices whose views intersect Ẑ,
    removing any local codeword that clears ≥ ceil((1-ε)|x|) weight."""
    theta = 1 - checked_eps(eps)
    cache = get_cache(state.code)
    _drain(state, cache, *cache.scan_table(theta))
    return state.accumulators()


def _drain(state: MismatchState, cache: LocalCodewordCache, table: gf2.WordCache,
           floor: int) -> None:
    """The sequential FIFO: step at the next queued vertex and queue the
    vertices of every face a step changed, until the queue is empty or
    |Ẑ| falls below ``floor``, the table's h_min(θ).  No vertex
    finds a codeword in a Ẑ that light, so every pop left would be a
    no-op: the vertices still queued stay in the worklist."""
    work = state.worklist
    while work and state.zhat.bit_count() >= floor:
        v = work.popleft()
        state.in_queue[v] = 0
        changed = _step(state, cache, table, v)
        if not changed:
            continue
        requeue = set()
        while changed:
            lsb = changed & -changed
            requeue.update(cache.face_vertices[lsb.bit_length() - 1])
            changed ^= lsb
        for u in sorted(requeue):
            if not state.in_queue[u]:
                work.append(u)
                state.in_queue[u] = 1


def parallel_mismatch_decomposition(
    state: MismatchState, k: int
) -> tuple[BitVector, BitVector, BitVector, BitVector]:
    """k sweeps over the four vertex classes with the fixed 1/2 threshold.

    Views of same-class vertices are disjoint, so in-class updates
    commute and the sweep equals evaluation against the class-entry
    snapshot; vertices are visited in group-element order for
    scheduling-independent output.  Sweeping stops once |Ẑ| is below
    the θ = 1/2 floor of ``scan_table`` (a fixed point) or a sweep
    removes nothing.
    """
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    cache = get_cache(state.code)
    table, floor = cache.scan_table(Fraction(1, 2))
    for _ in range(k):
        if state.zhat.bit_count() < floor:
            break
        changed_any = False
        for v in cache.sweep_order:
            if _step(state, cache, table, v):
                changed_any = True
        if not changed_any:
            break
    return state.accumulators()


def _finish(state: MismatchState) -> BitVector:
    code = state.code
    return BitVector(code.n, state.eps01_sum ^ state.acc_c1 ^ state.acc_r0)


def sequential_decode(
    code: QuantumTannerCode,
    noisy_syndrome: BitVector,
    eps: Fraction | float = Fraction(1, 2),
    return_state: bool = False,
):
    """Full sequential decoder: local corrections, mismatch decomposition,
    then f̂ = Σ_{V01} ε̃_v + Ĉ₁ + R̂₀."""
    state = initial_mismatch(code, noisy_syndrome)
    sequential_mismatch_decomposition(state, eps)
    f = _finish(state)
    return (f, state) if return_state else f


def parallel_decode(
    code: QuantumTannerCode,
    noisy_syndrome: BitVector,
    k: int,
    return_state: bool = False,
):
    """Full parallel decoder with k decomposition sweeps (θ = 1/2)."""
    state = initial_mismatch(code, noisy_syndrome)
    parallel_mismatch_decomposition(state, k)
    f = _finish(state)
    return (f, state) if return_state else f


# Lockstep decoding: one numpy array row per trial.  Each array step does
# for every row what the scalar core does for one Ẑ, so every row decodes
# to the same f̂ as ``parallel_decode`` / ``sequential_decode`` of its
# syndrome; tests/test_lockstep.py checks this against the scalar loop.


def _word_bits(
    row: np.ndarray, slot: np.ndarray, words: np.ndarray, faces: np.ndarray, d2: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, faces) index of every set bit of the Δ²-bit ``words``,
    word i lying on the view of slot ``slot[i]`` of the class with
    face table ``faces``, in row ``row[i]``."""
    hit, bit = np.nonzero(gf2.unpack_words(words, d2))
    return row[hit], faces[slot[hit] * d2 + bit]


def lockstep_initial_mismatch(
    cache: LocalCodewordCache, syndromes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Ẑ, ε₀₁) bit rows for a (trials, H_Z rows) array of noisy
    syndromes: ``initial_mismatch`` row by row.

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
# sweep class V00, V01, V10, V11 (see ``_apply``): (c part?, r part?)
_F_SHARE = ((False, True), (True, True), (False, False), (True, False))


def lockstep_parallel_decomposition(
    cache: LocalCodewordCache, zhat: np.ndarray, f: np.ndarray, k: int
) -> None:
    """``parallel_mismatch_decomposition`` on every row of ``zhat`` in
    place, XORing each removed codeword's share of f̂ into ``f``.

    A row is active only while |Ẑ| is at least the θ = 1/2 floor of
    ``scan_table`` (no vertex finds a codeword in a lighter Ẑ, as
    |x ∩ Ẑ_v| ≤ |Ẑ|).  Each sweep starts with the first-hit test
    (``_first_hits``) on the active rows, and a row where no vertex finds
    a codeword leaves the active set: it would sweep without change,
    which is where the scalar loop stops too.  Every other row changes in
    this sweep (Ẑ is untouched until the first class that holds a hit
    runs), so after the class steps the active rows are those still at
    or above the floor.  A class step packs each view of the class into
    one Δ²-bit word per row, reads the scan of every word from the
    θ = 1/2 word cache as one (rows, slots) array and XORs back only the
    removed codewords, at the (row, face) of each of their bits; the V00
    step runs first, on the Ẑ the test scanned, so it reads its scans
    from the test's columns of the V00 vertices.  Only the V00 and V11
    steps need (c, r) splits, for the r and c parts of f̂; they split
    their new codewords in one pass.
    """
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    table, floor = cache.scan_table(Fraction(1, 2))
    d2 = cache.n
    v00 = cache.sweep_order[:len(cache.sweep_order) // 4]
    active = np.flatnonzero(gf2.row_weights(zhat) >= floor)
    for _ in range(k):
        if active.size:
            scans = _first_hits(cache, table, zhat[active])[1]
            moving = (scans >= 0).any(axis=1)
            active, scans = active[moving], scans[moving]
        if active.size == 0:
            break
        z, acc = zhat[active], f[active]
        for cls, (packer, faces, (c_share, r_share)) in enumerate(
                zip(cache.packers, cache.class_faces, _F_SHARE)):
            # Ẑ is untouched before the V00 step, which reads the test's scans
            found = scans[:, v00] if cls == 0 else table(packer(z))
            row, slot = np.nonzero(found >= 0)
            if row.size == 0:
                continue
            removed = found[row, slot]
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


def lockstep_sequential_decomposition(
    cache: LocalCodewordCache, zhat: np.ndarray, f: np.ndarray,
    eps: Fraction | float = Fraction(1, 2),
) -> None:
    """``sequential_mismatch_decomposition`` on every row of ``zhat`` in
    place, XORing the Ĉ₁ + R̂₀ share of f̂ into ``f``.

    ε is checked and the θ = 1 - ε table and floor looked up once per
    call.  A row with |Ẑ| below the floor is a fixed point (no
    vertex finds a codeword, as |x ∩ Ẑ_v| ≤ |Ẑ|) and is left as it is.
    The other rows go through the first-hit test (``_first_hits``):
    the nonzero words of a row are its FIFO's initial queue, in vertex
    order, and a found codeword is a hit.  Ẑ cannot change before
    the first hit, so every queued vertex before it pops as a no-op: a
    row without a hit is a fixed point too, and a row with one is
    drained by the scalar FIFO (``_drain``) from its first hit on, the
    vertices before it popped (not marked queued, so a later step can
    queue them again).  The drained rows' Ẑ and f̂ go to ints and back
    as one stacked array each way.
    """
    theta = 1 - checked_eps(eps)
    table, floor = cache.scan_table(theta)
    rows = np.flatnonzero(gf2.row_weights(zhat) >= floor)
    if rows.size == 0:
        return
    words, scans = _first_hits(cache, table, zhat[rows])
    hits = scans >= 0
    moving = hits.any(axis=1)
    rows, hits = rows[moving], hits[moving]
    if rows.size == 0:
        return
    first = hits.argmax(axis=1)
    queued = (words[moving] != 0) & (np.arange(hits.shape[1]) >= first[:, None])
    code, m = cache.code, rows.size
    ints = gf2.from_bit_rows(np.concatenate([zhat[rows], f[rows]]))
    for i, q in enumerate(queued):
        state = MismatchState(code, ints[i], ints[i], ints[m + i],
                              worklist=deque(np.flatnonzero(q).tolist()),
                              in_queue=bytearray(q.tobytes()))
        _drain(state, cache, table, floor)
        ints[i], ints[m + i] = state.zhat, _finish(state).bits
    out = gf2.to_bit_rows(ints, code.n)
    zhat[rows], f[rows] = out[:m], out[m:]
