"""Noise models, single-shot trials, multi-round protocols and sweeps.

Every trial runner takes (master seed, stream ids), and each trial
draws from its own counter-based RNG stream, keyed by (master seed,
stream id) and recorded as its CSV seed column, so results are
reproducible bit for bit no matter how trials are scheduled.  Only
``_round_errors`` turns stream ids into generators: it re-keys the one
shared ``rekeyed_rng`` to each trial in turn and draws all of that
trial's rounds up front, as packed bit rows, under every noise model.
Wall-clock timing is only recorded when explicitly requested, because
timing breaks byte-identical output.

A single-shot trial draws its (e, D) once and decodes that sample with
every decoder of the experiment, so decoder comparisons are paired.
``run_trial_block`` runs many such trials in lockstep, one numpy row
per trial, over groups of trials with their own noise models (a
sweep's grid points): the rows of all groups are stacked, the initial
mismatch is computed once per slice of rows and shared by every
decoder, the sample and residual columns are arrays, and the residuals
are classified as rows by ``tanner.classify_rows``.  It returns one
``TrialBlock`` of columns per group, which formats its own CSV lines;
``run_sweep`` (all grid points of a trial range as one block) runs on
it, and ``run_single_shot_trial`` stays as the one-trial reference, one
``TrialRecord`` per decoder.  A
multi-round run takes its trials as one batch and advances them in
lockstep, one round at a time: each trial's rounds are drawn up front
from its own stream, in the order a lone trial would draw them, and
the batch is decoded as numpy rows by ``DecoderConfig.decode_lockstep``.
The readout decodes the ideal syndromes of all trials the same way,
with the sequential decoder, and classifies the final residuals as
rows.  A run returns one ``RoundBatch``, its per-round weights as one
(trials, rounds, 4) array and its readouts as lists, which formats its
own CSV lines.  In both, a trial's results do not depend on the block
or batch it ran in.  Every CSV line is the text ``csv_text`` gives
(the sweep's line templates and the multi-round digits table put only
numbers and class names after a head that went through it), and
``write_csv`` writes the text.  Configs are checked when parsed: rates
and persistence lie in [0, 1], weights are non-negative whole numbers,
and each noise object has only its kind's keys.
"""

from __future__ import annotations

import csv
import io
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import decoder as dec
from . import gf2, tanner
from .errors import whole
from .gf2 import BitVector
from .tanner import QuantumTannerCode

RNG_ALGORITHM = "philox4x64"
STREAM_LIMIT = 1 << 64  # master seeds and stream ids lie in [0, 2^64)
SWEEP_TRIAL_LIMIT = 1 << 20  # trials per sweep point (low stream-id bits)


class TrialRecord(NamedTuple):
    """One decoder's record of a single-shot trial; one per-trial CSV
    row, whose fields are TRIAL_CSV_FIELDS."""

    instance_id: str
    decoder: str
    param: str
    p: float
    q: float
    e_weight: int
    d_weight: int
    d_vertex_support: int
    residual_weight: int
    residual_reduced_proxy: int
    failure_class: str
    seed: int
    ms: float


TRIAL_CSV_FIELDS = list(TrialRecord._fields)
TRIAL_STATS = ("e_weight", "d_weight", "d_vertex_support", "residual_weight",
               "residual_reduced_proxy")

# Trials formatted per chunk by ``TrialBlock.csv_chunks``: bounds the text
# held at once.
_CSV_CHUNK_TRIALS = 1 << 6


class TrialBlock(NamedTuple):
    """One grid point's single-shot trials of a sweep chunk, as columns.
    Its CSV rows (fields TRIAL_CSV_FIELDS) are, per trial, one row per
    decoder in config order, each ``TrialRecord`` of that (trial,
    decoder)."""

    heads: list[tuple]  # (instance_id, decoder, param, p, q) per decoder
    seeds: list[int]  # one stream id per trial
    stats: np.ndarray  # (trials, decoders, 5) ints, the TRIAL_STATS of every pair
    classes: np.ndarray  # (trials, decoders) failure class names
    ms: list[float]  # per decoder, the same on every trial

    def csv_chunks(self) -> Iterator[str]:
        """The block's CSV lines, ``_CSV_CHUNK_TRIALS`` trials a chunk.
        Each head goes through ``csv_text`` once (a % in it escaped for
        the template) and a trial's lines are one ``%`` template; the
        class names need no quoting and ``ms`` is written by repr, as
        ``csv_text`` writes it."""
        heads = [csv_text([head])[:-1].replace("%", "%%") for head in self.heads]
        template = "".join(f"{head},%d,%d,%d,%d,%d,%s,%d,{ms!r}\n"
                           for head, ms in zip(heads, self.ms))
        trials, decoders, width = self.stats.shape
        seeds = np.array(self.seeds, dtype=object)
        for lo in range(0, trials, _CSV_CHUNK_TRIALS):
            hi = min(lo + _CSV_CHUNK_TRIALS, trials)
            values = np.empty((hi - lo, decoders, width + 2), dtype=object)
            values[..., :width] = self.stats[lo:hi]
            values[..., width] = self.classes[lo:hi]
            values[..., width + 1] = seeds[lo:hi, None]
            yield template * (hi - lo) % tuple(values.ravel().tolist())


class PointRow(NamedTuple):
    """One aggregate CSV row; its fields are POINT_CSV_FIELDS."""

    instance_id: str
    decoder: str
    param: str
    p: float
    q: float
    trials: int
    failures: int
    failure_freq: float
    wilson_lo: float
    wilson_hi: float
    mean_residual: float
    mean_ms: float


POINT_CSV_FIELDS = list(PointRow._fields)

ROUND_STATS = ("e_weight", "d_weight", "d_vertex_support", "residual_weight")
MULTIROUND_CSV_FIELDS = ["instance_id", "decoder", "param", "p", "q", "trial", "round",
                         *ROUND_STATS, "failure_class", "seed"]


class RoundBatch(NamedTuple):
    """A multi-round batch as columns.  Its CSV rows (fields
    MULTIROUND_CSV_FIELDS) are, per trial, one row per round, then the
    readout row, round "final" and the only row with a failure_class;
    trial and seed both hold the trial's stream id."""

    head: tuple  # (instance_id, decoder, param, p, q), the same on every row
    seeds: list[int]  # one stream id per trial
    stats: np.ndarray  # (trials, rounds, 4) ints, the ROUND_STATS of every round
    final_weights: list[int]  # the readout's residual weight per trial
    final_classes: list[str]  # the readout's failure class per trial

    def csv_chunks(self) -> Iterator[str]:
        """The batch's CSV lines, one chunk per trial.  The head goes
        through ``csv_text`` once, and every integer of the round lines
        (round index and ROUND_STATS) is formatted once, as ",i" in a
        digits table up to the largest of them.  A trial's round lines
        are one ``"".join`` of table entries and line ends, the end of
        one line carrying the start of the next; the final row is
        ``csv_text`` again."""
        head = csv_text([self.head])[:-1]
        trials, rounds, width = self.stats.shape
        top = max(rounds, int(self.stats.max(initial=0)))
        digits = np.array([f",{i}" for i in range(top + 1)], dtype=object)
        cells = np.empty((rounds, width + 2), dtype=object)
        cells[:, 0] = digits[1:rounds + 1]
        for seed, values, weight, cls in zip(self.seeds, self.stats, self.final_weights,
                                             self.final_classes):
            cells[:, 1:-1] = digits[values]
            cells[:, -1] = f",,{seed}\n{head},{seed}"
            cells[-1, -1] = f",,{seed}\n" + csv_text(
                [(*self.head, seed, "final", 0, 0, 0, weight, cls, seed)])
            yield f"{head},{seed}" + "".join(cells.ravel().tolist())


DATA_KEYS = {"bernoulli": ("kind", "p"), "adversarial": ("kind", "w", "persistence")}
SYNDROME_KEYS = {"bernoulli": ("kind", "q"), "adversarial": ("kind", "s"),
                 "vertex_bounded": ("kind", "t")}
GRID_KEYS = ("p", "q", "w", "s")
DECODER_KEYS = {"sequential": ("kind", "eps"), "parallel": ("kind", "k")}


def check_keys(obj: dict, known: Sequence[str], where: str) -> None:
    """Reject a config object that is not a JSON object or has keys
    outside ``known``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}; known: {sorted(known)}")


def check_kind(obj: dict, keys_by_kind: dict, where: str, default: Optional[str] = None) -> str:
    """The kind of a config object (``default`` when it names none),
    after checking that it is known and that the object has only that
    kind's keys."""
    kind = obj.get("kind", default) if isinstance(obj, dict) else None
    if kind not in keys_by_kind:
        raise ValueError(f"{where} {obj!r} has no kind in {sorted(keys_by_kind)}")
    check_keys(obj, keys_by_kind[kind], where)
    return kind


def real(value, name: str) -> float:
    """A config rate as a float; a boolean or non-numeric value is an
    error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} = {value!r} is not a number")
    return float(value)


def fraction(value, name: str) -> Fraction:
    """A config parameter as an exact Fraction: a "p/q" string, an int,
    or a float read as its decimal literal (0.3 is 3/10)."""
    try:
        return dec.as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{name} = {value!r} is not a number") from None


def check_seed(master_seed: int) -> None:
    if not 0 <= master_seed < STREAM_LIMIT:
        raise ValueError(f"seed {master_seed} outside [0, 2^64)")


def stream_key(master_seed: int, stream: int) -> np.ndarray:
    """The Philox key of (master seed, stream id): the 64-bit words
    [stream, seed], i.e. the 128-bit integer (seed << 64) | stream.

    Both halves must lie in [0, 2^64), so that distinct (seed, stream)
    pairs never share a key.
    """
    check_seed(master_seed)
    check_stream(stream)
    return np.array([stream, master_seed], dtype=np.uint64)


def check_stream(stream: int) -> None:
    if not 0 <= stream < STREAM_LIMIT:
        raise ValueError(f"stream id {stream} outside [0, 2^64)")


def make_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Counter-based stream RNG: Philox keyed by (master seed, stream id)."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, stream)))


_REKEYED = np.random.Generator(np.random.Philox(0))
# the state every re-key sets (the setter copies it): counter 0 and empty
# buffers, under the key [stream, seed] that ``rekeyed_rng`` writes in
_REKEY_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
}


def rekeyed_rng(master_seed: int, stream: int) -> np.random.Generator:
    """This process's one shared generator, re-keyed to (master seed,
    stream id): counter 0, empty buffers, so it draws what
    ``make_rng(master_seed, stream)`` would, without building a Philox.
    The next call re-keys it, so finish drawing from it first."""
    check_seed(master_seed)
    check_stream(stream)
    _REKEY_STATE["state"]["key"][:] = stream, master_seed
    _REKEYED.bit_generator.state = _REKEY_STATE
    return _REKEYED


@dataclass(frozen=True)
class NoiseModel:
    """Data noise: bernoulli(p) or adversarial exact weight w (optionally
    persistent across rounds).  Syndrome noise: bernoulli(q), adversarial
    exact weight s, or vertex_bounded touching at most t V1 vertices.

    A persistent adversarial error keeps ⌊persistence·w⌋ faces of the
    previous round's error (drawn at random) and draws the rest afresh,
    so any persistence below 1/w keeps none; persistence is read as its
    decimal literal, so 0.29 of 100 faces keeps 29.  A parameter of
    another kind (``p`` of adversarial data noise, say) must stay 0.
    """

    data_kind: str = "bernoulli"
    p: float = 0.0
    w: int = 0
    persistence: float = 0.0
    syn_kind: str = "bernoulli"
    q: float = 0.0
    s: int = 0
    t: int = 0

    def _sides(self):
        """(side, kind, keys by kind, parameters) of data and syndrome."""
        return (("data", self.data_kind, DATA_KEYS, ("p", "w", "persistence")),
                ("syndrome", self.syn_kind, SYNDROME_KEYS, ("q", "s", "t")))

    def __post_init__(self):
        for side, kind, keys, params in self._sides():
            if kind not in keys:
                raise ValueError(f"unknown {side} noise {kind!r}; have {list(keys)}")
            for name in params:
                if getattr(self, name) and name not in keys[kind]:
                    raise ValueError(f"noise {name} does not apply to {kind} {side} noise")
        for name in ("p", "q", "persistence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"noise {name} = {value} outside [0, 1]")
        for name in ("w", "s", "t"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"noise {name} = {value} is negative")

    def pq_labels(self) -> tuple[float, float]:
        """The CSV (p, q) columns: a bernoulli rate, or else the adversarial
        weight (data) and weight or vertex bound (syndrome) as a float."""
        p = self.p if self.data_kind == "bernoulli" else self.w
        q = {"bernoulli": self.q, "adversarial": self.s, "vertex_bounded": self.t}[self.syn_kind]
        return float(p), float(q)

    def to_json(self) -> dict:
        """The config's noise object, each side with its kind's keys only."""
        return {side: {key: kind if key == "kind" else getattr(self, key) for key in keys[kind]}
                for side, kind, keys, _ in self._sides()}

    def at_grid_point(self, point: dict) -> "NoiseModel":
        """This model with a sweep grid point's rates p/q or adversarial
        weights w/s in place.  A weight makes its side adversarial (data
        noise keeps its persistence); a rate needs a bernoulli side, and
        one side takes a rate or a weight, not both."""
        check_keys(point, GRID_KEYS, "grid point")
        obj = self.to_json()
        for side, rate, weight in (("data", "p", "w"), ("syndrome", "q", "s")):
            if rate in point and weight in point:
                raise ValueError(f"grid point {point!r} sets both {rate} and {weight}")
            if weight in point:
                if obj[side]["kind"] != "adversarial":
                    obj[side] = {"kind": "adversarial"}
                obj[side][weight] = point[weight]
            elif rate in point:
                if obj[side]["kind"] != "bernoulli":
                    raise ValueError(f"grid point {point!r} sets rate {rate} on "
                                     f"{obj[side]['kind']} {side} noise")
                obj[side][rate] = point[rate]
        return NoiseModel.from_json(obj)

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        """A noise object: ``data`` and ``syndrome``, each checked against
        its kind's keys (bernoulli by default); a missing parameter is 0."""
        check_keys(obj, ("data", "syndrome"), "noise")
        d = obj.get("data", {})
        s = obj.get("syndrome", {})
        return cls(
            data_kind=check_kind(d, DATA_KEYS, "noise.data", default="bernoulli"),
            p=real(d.get("p", 0.0), "noise p"),
            w=whole(d.get("w", 0), "noise w"),
            persistence=real(d.get("persistence", 0.0), "noise persistence"),
            syn_kind=check_kind(s, SYNDROME_KEYS, "noise.syndrome", default="bernoulli"),
            q=real(s.get("q", 0.0), "noise q"),
            s=whole(s.get("s", 0), "noise s"),
            t=whole(s.get("t", 0), "noise t"),
        )


@dataclass(frozen=True)
class DecoderConfig:
    kind: str  # "sequential" | "parallel"
    eps: Fraction = Fraction(1, 2)
    k: int = 1

    def __post_init__(self):
        if self.kind == "sequential":
            dec.checked_eps(self.eps)
        elif self.kind == "parallel":
            if self.k < 1:
                raise ValueError(f"iteration count must be >= 1, got {self.k}")
        else:
            raise ValueError(f"unknown decoder kind {self.kind!r}")

    @property
    def param(self) -> str:
        return f"eps={self.eps}" if self.kind == "sequential" else f"k={self.k}"

    def decode(self, code: QuantumTannerCode, syn: BitVector) -> tuple[BitVector, dec.Steps]:
        """(f̂, the decomposition's ``Steps``) for one syndrome: the
        one-row view of ``decode_lockstep``."""
        if self.kind == "sequential":
            f, steps = dec.sequential_decode(code, syn, self.eps)
        else:
            f, steps = dec.parallel_decode(code, syn, self.k)
        return BitVector(code.n, gf2.from_bit_rows(f)[0]), steps

    def decode_lockstep(self, cache: dec.LocalCodewordCache, syndromes: np.ndarray
                        ) -> np.ndarray:
        """f̂ bit rows for a (trials, H_Z rows) array of syndromes of the
        cache's code, row by row equal to ``decode``."""
        zhat, f = dec.lockstep_initial_mismatch(cache, syndromes)
        self.decompose_lockstep(cache, zhat, f)
        return f

    def decompose_lockstep(self, cache: dec.LocalCodewordCache, zhat: np.ndarray,
                           f: np.ndarray) -> None:
        """This decoder's mismatch decomposition on every row of ``zhat``
        in place, its share of f̂ XORed into ``f`` (which holds ε₀₁ of the
        initial mismatch)."""
        if self.kind == "sequential":
            dec.lockstep_sequential_decomposition(cache, zhat, f, self.eps)
        else:
            dec.lockstep_parallel_decomposition(cache, zhat, f, self.k)

    @classmethod
    def from_json(cls, obj: dict) -> "DecoderConfig":
        """A decoder spec: {"kind": "sequential", "eps": ...} or
        {"kind": "parallel", "k": ...}; a missing parameter takes the
        field default."""
        kind = check_kind(obj, DECODER_KEYS, "decoder")
        if kind == "sequential":
            return cls(kind, eps=fraction(obj.get("eps", cls.eps), "decoder eps"))
        return cls(kind, k=whole(obj.get("k", cls.k), "decoder k"))


def sample_errors(code: QuantumTannerCode, model: NoiseModel, rng
                  ) -> tuple[BitVector, BitVector]:
    """One trial's (data error e, syndrome error D) drawn from ``rng``:
    the one-round view of ``_filled_rounds``, for ``decode-one``."""
    e, d = _filled_rounds(code, model, [rng], 1)
    return (BitVector(code.n, int.from_bytes(e.tobytes(), "little")),
            BitVector(code.h_z.rows, int.from_bytes(d.tobytes(), "little")))


def vertex_support_size(code: QuantumTannerCode, d: BitVector) -> int:
    """Number of V1 vertices whose check block of D is nonzero: the
    one-row view of ``_vertex_support_rows``."""
    rows = gf2.to_bit_rows([d.bits], code.h_z.rows)
    return int(_vertex_support_rows(dec.get_cache(code), rows)[0])


def run_single_shot_trial(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfgs: Sequence[DecoderConfig],
    master_seed: int,
    stream: int,
    instance_id: str = "",
    record_timing: bool = False,
) -> list[TrialRecord]:
    """One single-shot trial: (e, D) drawn once from stream ``stream``
    by ``_round_errors``, then decoded and classified by every config,
    one record per config in ``cfgs`` order, each with seed ``stream``."""
    e, d = (gf2.from_bit_rows(rows)[0]
            for rows in next(_round_errors(code, model, master_seed, [stream], 1)))
    return [rec for rec, _ in decode_trial(code, model, cfgs, BitVector(code.n, e),
                                           BitVector(code.h_z.rows, d), instance_id, stream,
                                           record_timing)]


def decode_trial(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfgs: Sequence[DecoderConfig],
    e: BitVector,
    d: BitVector,
    instance_id: str = "",
    seed: int = 0,
    record_timing: bool = False,
) -> list[tuple[TrialRecord, dec.Steps]]:
    """Decode and classify data error e under syndrome error d with every
    config: one (record, decoder ``Steps``) pair per config.  The
    syndrome and the sample's columns are computed once; ``ms`` times
    only that config's decode."""
    syn = BitVector(code.h_z.rows, tanner.syndrome_bits_z(code, e.bits) ^ d.bits)
    p, q = model.pq_labels()
    sample = dict(instance_id=instance_id, p=p, q=q, e_weight=e.weight(), d_weight=d.weight(),
                  d_vertex_support=vertex_support_size(code, d), seed=seed)
    pairs = []
    for cfg in cfgs:
        t0 = time.perf_counter() if record_timing else 0.0
        f, steps = cfg.decode(code, syn)
        ms = (time.perf_counter() - t0) * 1000.0 if record_timing else 0.0
        residual = BitVector(code.n, e.bits ^ f.bits)
        record = TrialRecord(
            decoder=cfg.kind,
            param=cfg.param,
            residual_weight=residual.weight(),
            residual_reduced_proxy=tanner.reduced_weight(code, residual),
            failure_class=tanner.classify_residual(code, residual),
            ms=ms,
            **sample,
        )
        pairs.append((record, steps))
    return pairs


# Bernoulli draws held at once (64 KiB of float64); a trial's run of
# draws split over several calls of ``rng.random`` gives the same numbers
# as one call.
_DRAW_CHUNK = 1 << 13


def _vertex_support_rows(cache: dec.LocalCodewordCache, d: np.ndarray) -> np.ndarray:
    """|D|_V of every row D of (trials, H_Z rows) bits of the cache's
    code, the number of V1 vertices whose check block of D is nonzero:
    the nonzero local syndrome words of each row."""
    words = cache.syndrome_words
    if words is None:  # r₁ = 0: no local checks
        return np.zeros(len(d), dtype=np.int64)
    return np.count_nonzero(words(d), axis=1)


def _uniform_rows(rngs: Iterable[np.random.Generator], rounds: int, width: int
                  ) -> Iterator[np.ndarray]:
    """``rounds`` rows of ``width`` uniforms from each generator in turn,
    all of one generator's before the next is taken, in blocks of at
    most ``_DRAW_CHUNK`` numbers.  Every block is the same buffer,
    refilled for the next, so use it before taking the next."""
    buf = np.empty((max(1, _DRAW_CHUNK // max(1, width)), width))
    k = 0
    for rng in rngs:
        left = rounds
        while left:
            m = min(left, len(buf) - k)
            rng.random(out=buf[k:k + m])
            k, left = k + m, left - m
            if k == len(buf):
                yield buf
                k = 0
    if k:
        yield buf[:k]


def _bernoulli_rounds(code: QuantumTannerCode, model: NoiseModel,
                      rngs: Iterable[np.random.Generator], trials: int, rounds: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Every round's (e, D) of the ``trials`` trials of ``rngs`` under
    Bernoulli data and syndrome noise, as packed little-endian bit rows
    (trials, rounds, bytes): trial after trial, the numbers
    ``_filled_rounds`` would draw, in whole blocks of uniforms rather
    than one row at a time.  Each block is compared once with a row of
    per-column rates (p for the data columns, q for the syndrome ones),
    and its two sides are packed straight into one array per side."""
    n, rz = code.n, code.h_z.rows
    width_e = n if model.p > 0.0 and n else 0
    width_d = rz if model.q > 0.0 and rz else 0
    rates = np.repeat([model.p, model.q], [width_e, width_d])
    e = np.zeros((trials, rounds, (n + 7) // 8), dtype=np.uint8)
    d = np.zeros((trials, rounds, (rz + 7) // 8), dtype=np.uint8)
    # row views, sized in full: with no trials a -1 could be any width
    e_rows = e.reshape(trials * rounds, e.shape[2])
    d_rows = d.reshape(trials * rounds, d.shape[2])
    lo = 0
    for u in _uniform_rows(rngs, rounds, width_e + width_d):
        bits, hi = u < rates, lo + len(u)
        e_rows[lo:hi, :(width_e + 7) // 8] = np.packbits(bits[:, :width_e], axis=1,
                                                        bitorder="little")
        d_rows[lo:hi, :(width_d + 7) // 8] = np.packbits(bits[:, width_e:], axis=1,
                                                        bitorder="little")
        lo = hi
    return e, d


def _fill_exact_weight(row: np.ndarray, w: int, rng,
                       prev: np.ndarray = np.zeros(0, dtype=np.intp), keep: int = 0) -> None:
    """Set ``w`` bits of the zero ``row``: first min(keep, |prev|) of the
    sorted positions ``prev`` drawn by ``rng.choice``, then the rest drawn
    among the other positions, where fresh index i names the i-th free
    position (found by ``np.searchsorted`` over the sorted kept ones)."""
    if not w:
        return
    n_keep = min(keep, len(prev))
    kept = np.sort(prev[rng.choice(len(prev), size=n_keep, replace=False)]) if n_keep else prev[:0]
    fresh = rng.choice(len(row) - n_keep, size=w - n_keep, replace=False)
    row[kept] = 1
    row[fresh + np.searchsorted(kept - np.arange(n_keep), fresh, side="right")] = 1


def _filled_rounds(code: QuantumTannerCode, model: NoiseModel,
                   rngs: Iterable[np.random.Generator], rounds: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Every round's (e, D) of every trial under any noise model, as
    packed little-endian bit rows (trials, rounds, bytes): trial after
    trial, round after round, data before syndrome.  A Bernoulli side
    draws one uniform per bit (none at rate 0); an adversarial side draws
    its w or s bits by ``_fill_exact_weight``, persistent data noise
    keeping ⌊persistence·w⌋ faces of the trial's previous round; a
    vertex-bounded side draws min(t, |V1|) vertices, then one nonzero
    check pattern per vertex in vertex order (one ``rng.integers`` call
    for all of them draws what one call per vertex would)."""
    n, rz, r1 = code.n, code.h_z.rows, code.r1
    for kind, weight, width in ((model.data_kind, model.w, n), (model.syn_kind, model.s, rz)):
        if kind == "adversarial" and weight > width:
            raise ValueError(f"adversarial weight {weight} exceeds {width} positions")
    keep = int(dec.as_fraction(model.persistence) * model.w)
    n_hit = min(model.t, len(code.v1_vertices)) if rz and r1 else 0
    block = np.arange(r1)
    e_rows = [np.zeros((0, rounds, (n + 7) // 8), dtype=np.uint8)]
    d_rows = [np.zeros((0, rounds, (rz + 7) // 8), dtype=np.uint8)]
    for rng in rngs:
        e = np.zeros((rounds + 1, n), dtype=np.uint8)  # e[0]: no error before round 1
        d = np.zeros((rounds, rz), dtype=np.uint8)
        for i in range(rounds):
            if model.data_kind != "bernoulli":
                _fill_exact_weight(e[i + 1], model.w, rng, np.flatnonzero(e[i]), keep)
            elif model.p > 0.0 and n:
                e[i + 1] = rng.random(n) < model.p
            if model.syn_kind == "adversarial":
                _fill_exact_weight(d[i], model.s, rng)
            elif model.syn_kind == "bernoulli" and model.q > 0.0 and rz:
                d[i] = rng.random(rz) < model.q
            elif model.syn_kind == "vertex_bounded" and n_hit:
                hit = np.sort(rng.choice(len(code.v1_vertices), size=n_hit, replace=False))
                patterns = rng.integers(1, 1 << r1, size=n_hit)
                d[i].reshape(-1, r1)[hit] = patterns[:, None] >> block & 1
        e_rows.append(np.packbits(e[None, 1:], axis=2, bitorder="little"))
        d_rows.append(np.packbits(d[None], axis=2, bitorder="little"))
    return np.concatenate(e_rows), np.concatenate(d_rows)


def _round_errors(code: QuantumTannerCode, model: NoiseModel, master_seed: int,
                  streams: Sequence[int], rounds: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(e, D) of every trial as (trials, n) and (trials, H_Z rows) bit
    rows, round after round; trial i draws from stream ``streams[i]`` of
    ``master_seed``.  This is where stream ids become generators: every
    trial's rounds are drawn up front, trial after trial, on the one
    ``rekeyed_rng``, re-keyed as each trial is reached (its draws end
    before the next is keyed), into packed (trials, rounds, bytes) rows:
    by ``_bernoulli_rounds`` under Bernoulli data and syndrome noise, by
    ``_filled_rounds`` under any other model.  The seed and the least
    and greatest stream id are checked before the first draw."""
    check_seed(master_seed)
    if len(streams):
        check_stream(min(streams))
        check_stream(max(streams))
    bernoulli = model.data_kind == model.syn_kind == "bernoulli"
    rngs = (rekeyed_rng(master_seed, s) for s in streams)
    e, d = (_bernoulli_rounds(code, model, rngs, len(streams), rounds) if bernoulli
            else _filled_rounds(code, model, rngs, rounds))
    for i in range(rounds):
        yield (np.unpackbits(e[:, i], axis=1, count=code.n, bitorder="little"),
               np.unpackbits(d[:, i], axis=1, count=code.h_z.rows, bitorder="little"))


def run_multiround(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfg: DecoderConfig,
    rounds: int,
    master_seed: int,
    streams: Sequence[int],
    instance_id: str = "",
) -> RoundBatch:
    """The multi-round protocol for a batch of trials run in lockstep:
    rounds cycles of (new error, noisy syndrome, decode) with the
    residual fed forward, then one noiseless sequential decode (ε = 1/2)
    as the final readout.  Trial i draws from stream ``streams[i]`` of
    ``master_seed`` and is recorded with that stream id as its trial and
    seed; its columns do not depend on the other trials of the batch.

    Returns the batch as columns: per trial and round |e|, |D|, |D|_V
    and the residual weight, and per trial the readout's residual weight
    and class.

    Every trial's rounds are drawn up front by ``_round_errors``, trial
    after trial on the one re-keyed generator.  Each round is then one
    array step over all trials: the syndromes are one product with H_Zᵀ,
    and ``DecoderConfig.decode_lockstep`` decodes them all.  The
    readout is one such step too: its ideal syndromes are one product,
    the sequential decoder (ε = 1/2) decodes them all in lockstep, and
    ``tanner.classify_rows`` classifies the final residuals as rows.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    seeds = list(streams)
    residual = np.zeros((len(seeds), code.n), dtype=np.uint8)
    stats = np.zeros((len(seeds), rounds, len(ROUND_STATS)), dtype=np.int64)
    cache = dec.get_cache(code)
    for i, (e, d) in enumerate(_round_errors(code, model, master_seed, seeds, rounds)):
        syn = tanner.syndrome_rows_z(code, residual ^ e) ^ d
        residual ^= e ^ cfg.decode_lockstep(cache, syn)
        stats[:, i, 0] = gf2.row_weights(e)
        stats[:, i, 1] = gf2.row_weights(d)
        stats[:, i, 2] = _vertex_support_rows(cache, d)
        stats[:, i, 3] = gf2.row_weights(residual)
    residual ^= DecoderConfig("sequential").decode_lockstep(
        cache, tanner.syndrome_rows_z(code, residual))
    return RoundBatch((instance_id, cfg.kind, cfg.param, *model.pq_labels()), seeds, stats,
                      gf2.row_weights(residual).tolist(),
                      tanner.classify_rows(code, residual).tolist())


def sweep_stream_id(point_idx: int, trial_idx: int) -> int:
    """Stream of one (grid point, trial): the point above 20 trial bits."""
    if not 0 <= trial_idx < SWEEP_TRIAL_LIMIT:
        raise ValueError(f"sweep trial index {trial_idx} outside [0, 2^20)")
    if point_idx < 0:
        raise ValueError(f"sweep point index {point_idx} is negative")
    return (point_idx << 20) | trial_idx


def run_sweep(
    code: QuantumTannerCode,
    models: Sequence[NoiseModel],
    cfgs: Sequence[DecoderConfig],
    trial_ids: Iterable[int],
    master_seed: int,
    instance_id: str = "",
    record_timing: bool = False,
) -> list[TrialBlock]:
    """Trials ``trial_ids`` at every sweep grid point, one ``TrialBlock``
    per point in point order: point i's noise is ``models[i]``.  Each
    trial draws once from its own stream ``sweep_stream_id(i, trial)``,
    recorded as its seed, and every config decodes that sample, so
    decoder comparisons are paired on the seed column.

    All points run as one ``run_trial_block``.  With ``record_timing``
    each point runs as its own block, so a decoder's ``ms`` is its decode
    time over that one point's trials, divided by their number."""
    trial_ids = list(trial_ids)
    groups = [(model, [sweep_stream_id(pi, t) for t in trial_ids])
              for pi, model in enumerate(models)]
    parts = [[group] for group in groups] if record_timing else [groups]
    return [block for part in parts
            for block in run_trial_block(code, part, cfgs, master_seed, instance_id,
                                         record_timing)]


# Rows per array step of ``run_trial_block``: bounds the memory of a
# block of any size; the columns do not depend on it.  The reference
# sweep's 800 rows run as two slices: as one slice they ran ~3% faster
# but raised its peak RSS by ~1.3 MB, against ~0.5 MB at this size.
_SLICE_TRIALS = 1 << 9


def _slice_errors(code: QuantumTannerCode, groups: Sequence[tuple[NoiseModel, list[int]]],
                  starts: Sequence[int], lo: int, hi: int, master_seed: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The one-round (e, D) bit rows of rows [lo, hi) of a block whose
    group g holds rows [starts[g], starts[g + 1]): each group's share
    drawn by ``_round_errors`` under its own model."""
    parts = [next(_round_errors(code, model, master_seed,
                                streams[max(lo, a) - a:min(hi, b) - a], 1))
             for (model, streams), a, b in zip(groups, starts, starts[1:])
             if max(lo, a) < min(hi, b)]
    return np.concatenate([e for e, _ in parts]), np.concatenate([d for _, d in parts])


def run_trial_block(
    code: QuantumTannerCode,
    groups: Sequence[tuple[NoiseModel, Sequence[int]]],
    cfgs: Sequence[DecoderConfig],
    master_seed: int,
    instance_id: str = "",
    record_timing: bool = False,
) -> list[TrialBlock]:
    """Single-shot trials decoded in lockstep, one ``TrialBlock`` per
    (noise model, streams) group: trial i of a group draws (e, D) once
    from stream ``streams[i]`` of ``master_seed`` under the group's
    model, recorded as its seed, and every config decodes that sample.
    Every (trial, decoder) of the columns equals
    ``run_single_shot_trial(..., master_seed, stream)`` field for field
    (except ``ms``).

    The groups' rows are stacked and run in slices of at most
    ``_SLICE_TRIALS`` rows, which may straddle groups.  A slice is one
    array step: each group's share of one-round draws by
    ``_round_errors``, one syndrome product, one
    ``lockstep_initial_mismatch`` that every config shares, each config's
    ``decompose_lockstep``, and the TRIAL_STATS columns and failure
    classes (``tanner.classify_rows``) as arrays; nothing runs per row.
    With ``record_timing``, ``ms`` is a config's decode time over the
    whole block (the shared initial mismatch included) divided by its
    trials.
    """
    groups = [(model, list(streams)) for model, streams in groups]
    starts = list(itertools.accumulate((len(streams) for _, streams in groups), initial=0))
    total = starts[-1]
    cache = dec.get_cache(code)
    stats = np.zeros((total, len(cfgs), len(TRIAL_STATS)), dtype=np.int64)
    classes = np.empty((total, len(cfgs)), dtype=object)
    spent = [0.0] * len(cfgs)
    for lo in range(0, total, _SLICE_TRIALS):
        hi = min(lo + _SLICE_TRIALS, total)
        e, d = _slice_errors(code, groups, starts, lo, hi, master_seed)
        t0 = time.perf_counter()
        zhat, eps01 = dec.lockstep_initial_mismatch(cache, tanner.syndrome_rows_z(code, e) ^ d)
        shared = time.perf_counter() - t0
        rows = stats[lo:hi]
        rows[:, :, 0] = gf2.row_weights(e)[:, None]
        rows[:, :, 1] = gf2.row_weights(d)[:, None]
        rows[:, :, 2] = _vertex_support_rows(cache, d)[:, None]
        for j, cfg in enumerate(cfgs):
            t0 = time.perf_counter()
            last = j == len(cfgs) - 1  # the last config takes (Ẑ, ε₀₁) itself
            residual = eps01 if last else eps01.copy()
            cfg.decompose_lockstep(cache, zhat if last else zhat.copy(), residual)
            spent[j] += shared + time.perf_counter() - t0
            residual ^= e
            rows[:, j, 3] = gf2.row_weights(residual)
            rows[:, j, 4] = tanner.greedy_reduce_rows(code, residual)[1]
            classes[lo:hi, j] = tanner.classify_rows(code, residual)
    ms = [s * 1000.0 / total if record_timing and total else 0.0 for s in spent]
    return [TrialBlock([(instance_id, cfg.kind, cfg.param, *model.pq_labels()) for cfg in cfgs],
                       streams, stats[a:b], classes[a:b], ms)
            for (model, streams), a, b in zip(groups, starts, starts[1:])]


def wilson_interval(failures: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) + z * z / (4 * trials)) / trials) ** 0.5 / denom
    return max(0.0, center - half), min(1.0, center + half)


def aggregate_points(blocks: Iterable[TrialBlock]) -> list[PointRow]:
    """Per (instance, p, q, decoder) summary with Wilson 95% interval on
    the logical-failure frequency, read from the blocks' columns; blocks
    with equal heads (one point's chunks, or points with equal p and q
    columns) add up.  Rows are sorted by the text of their key."""
    sums: dict[tuple, tuple] = {}  # key: (trials, failures, residual weight, ms) summed
    for block in blocks:
        trials = len(block.seeds)
        if not trials:
            continue
        fails = np.count_nonzero(block.classes == tanner.LOGICAL, axis=0).tolist()
        residual = block.stats[:, :, 3].sum(axis=0).tolist()
        for (iid, dec_name, param, p, q), f, r, ms in zip(block.heads, fails, residual,
                                                          block.ms):
            n0, f0, r0, ms0 = sums.get(key := (iid, p, q, dec_name, param), (0, 0, 0, 0.0))
            sums[key] = (n0 + trials, f0 + f, r0 + r, ms0 + ms * trials)
    rows = []
    for (iid, p, q, dec_name, param), (n, fails, residual, ms) in sorted(
            sums.items(), key=lambda kv: str(kv[0])):
        lo, hi = wilson_interval(fails, n)
        rows.append(PointRow(iid, dec_name, param, p, q, n, fails, fails / n, lo, hi,
                             residual / n, ms / n))
    return rows


def ols_slope_ci(xs: Sequence[float], ys: Sequence[float], z: float = 1.959964
                 ) -> tuple[float, float, float]:
    """(slope, lo, hi) of an ordinary least-squares fit y ~ x."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = len(x)
    if n < 3 or np.ptp(x) == 0:
        return 0.0, 0.0, 0.0
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = ym - slope * xm
    rss = float(((y - intercept - slope * x) ** 2).sum())
    se = (rss / (n - 2) / sxx) ** 0.5
    return slope, slope - z * se, slope + z * se


def csv_text(rows: Iterable[Sequence]) -> str:
    """``rows`` as CSV lines: '\\n' endings, fields quoted only where
    needed, floats by repr.  Every CSV line of this package is written
    by this rule, so equal values give equal bytes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_csv(path, fieldnames: Sequence[str], chunks: Iterable[str],
              header_comments: Sequence[str] = ()) -> None:
    """A CSV file: optional '#' comment header lines, the ``fieldnames``
    line, then the text ``chunks`` (formatted CSV lines, as
    ``TrialBlock.csv_chunks`` and ``RoundBatch.csv_chunks`` give) as they
    come."""
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(csv_text([fieldnames]))
        fh.writelines(chunks)
