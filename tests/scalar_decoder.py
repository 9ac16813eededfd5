"""The scalar decoders: one Ẑ at a time as a Python int.

The reference the lockstep decoders of ``qtanner.decoder`` are checked
against, step by step.  It reads the package's local codeword cache
(codewords, splits, θ tables and coset leaders, through the same
``gf2.WordCache`` memos the lockstep steps read) but none of its
decoding code: views, view masks and face corners are read here from
the complex's ``view_table`` and ``corner_table``, and every step is a
Python-int mask, gather, scan and scatter at one vertex.

The decomposition has one core: ``_search`` picks the codeword to
remove at one vertex, and ``_step`` applies it.  The two schedules
differ only in which vertex they hand to ``_step`` next and in θ: the
sequential one drains a FIFO worklist of vertices whose views meet Ẑ
(``_drain``) and removes any codeword clearing a (1-ε) fraction of its
weight; the parallel one sweeps the four (effective) vertex classes
V00, V01, V10, V11, each in group order, with the fixed 1/2 threshold.
Both stop at the hit floor h_min(θ) of ``scan_table``.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from qtanner.decoder import LocalCodewordCache, as_fraction, checked_eps, get_cache
from qtanner.errors import DimensionMismatchError
from qtanner.gf2 import BitVector
from qtanner.tanner import QuantumTannerCode


@dataclass(frozen=True)
class Tables:
    """The per-vertex tables of one cache as Python lists and ints:
    every view (face ids by local bit), every view as a face mask, and
    every face's four corners."""

    views: list[list[int]]
    view_masks: list[int]
    face_vertices: list[list[int]]


_TABLES: "weakref.WeakKeyDictionary[LocalCodewordCache, Tables]" = weakref.WeakKeyDictionary()


def tables(cache: LocalCodewordCache) -> Tables:
    """The ``Tables`` of ``cache``, built once per cache."""
    found = _TABLES.get(cache)
    if found is None:
        cx = cache.code.complex
        views = cx.view_table.tolist()
        found = _TABLES[cache] = Tables(views, [sum(1 << q for q in view) for view in views],
                                        cx.corner_table.tolist())
    return found


def scatter(bits: int, positions: list[int]) -> int:
    """Move bit p of ``bits`` to bit ``positions[p]``; the loop runs once
    per set bit."""
    out = 0
    while bits:
        lsb = bits & -bits
        out |= 1 << positions[lsb.bit_length() - 1]
        bits ^= lsb
    return out


def split(cache: LocalCodewordCache, idx: int) -> tuple[int, int]:
    """The minimal (c, r) split of cached codeword idx, through the
    cache's memo."""
    return cache.split_many([idx])[0]


def coset_leader(cache: LocalCodewordCache, s: int) -> int:
    """Minimum-weight local pattern with syndrome s under H_A ⊗ H_B,
    through the memo of ``cache.leaders``."""
    return cache.leaders.get(s)


@dataclass
class Step:
    step: int
    vertex: int
    vertex_class: int
    codeword: int
    x_weight: int
    weight_before: int
    weight_after: int


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
        masks = tables(cache).view_masks
        state = cls(code=cache.code, zhat=zhat, initial_zhat=zhat, eps01_sum=eps01_sum,
                    in_queue=bytearray(len(masks)))
        for v, mask in enumerate(masks):
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
    views = tables(cache).views
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
        lifted = scatter(coset_leader(cache, s), views[v])
        zhat ^= lifted
        if pos < order:  # first block is the effective V01 class
            eps01 ^= lifted
    return MismatchState.seeded(cache, zhat, eps01)


def _search(cache: LocalCodewordCache, table, zhat: int, v: int) -> int:
    """Index of the codeword to remove from Ẑ at vertex v, or -1: Ẑ
    masked to the view of v, gathered to a local pattern, then scanned."""
    local = zhat & tables(cache).view_masks[v]
    if local == 0:
        return -1
    return table.get(_gather(local, cache.n))


def _step(state: MismatchState, cache: LocalCodewordCache, table, v: int) -> int:
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
    return (int(cache.masks[idx]),) + split(cache, idx)


def _apply(state: MismatchState, cache: LocalCodewordCache, v: int, idx: int) -> int:
    """XOR codeword idx into the state at vertex v; returns changed faces."""
    code = state.code
    view = tables(cache).views[v]
    c, r = split(cache, idx)
    c_g = scatter(c, view)
    r_g = scatter(r, view)
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


def _drain(state: MismatchState, cache: LocalCodewordCache, table, floor: int) -> None:
    """The sequential FIFO: step at the next queued vertex and queue the
    vertices of every face a step changed, until the queue is empty or
    |Ẑ| falls below ``floor``, the table's h_min(θ).  No vertex
    finds a codeword in a Ẑ that light, so every pop left would be a
    no-op: the vertices still queued stay in the worklist."""
    face_vertices = tables(cache).face_vertices
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
            requeue.update(face_vertices[lsb.bit_length() - 1])
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
    return BitVector(state.code.n, state.eps01_sum ^ state.acc_c1 ^ state.acc_r0)


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


def decode(cfg, code: QuantumTannerCode, syn: BitVector) -> tuple[BitVector, MismatchState]:
    """(f̂, final state) of the scalar decoder a ``noise.DecoderConfig``
    names, for one syndrome."""
    if cfg.kind == "sequential":
        return sequential_decode(code, syn, cfg.eps, return_state=True)
    return parallel_decode(code, syn, cfg.k, return_state=True)


def step_columns(state: MismatchState) -> list[tuple[int, int, int, int, int]]:
    """(vertex, class, codeword, |Ẑ| before, |Ẑ| after) of every step,
    in the order taken."""
    return [(s.vertex, s.vertex_class, s.codeword, s.weight_before, s.weight_after)
            for s in state.steps]
