"""Noise models, single-shot trials, multi-round protocols and sweeps.

Every trial derives its own counter-based RNG stream from
(master seed, stream id), so results are reproducible bit for bit no
matter how trials are scheduled.  Wall-clock timing is only recorded
when explicitly requested, because timing breaks byte-identical output.

A multi-round run takes its trials as one batch and advances them in
lockstep, one round at a time: each trial still draws from its own
stream in the order a lone trial would, and the batch is decoded as
numpy rows by ``DecoderConfig.decode_lockstep``, so a trial's record
does not depend on the batch it ran in.  Configs are checked when
parsed: rates and persistence lie in [0, 1], weights are non-negative
whole numbers and unknown keys are rejected.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import decoder as dec
from . import gf2, tanner
from .gf2 import BitVector
from .tanner import QuantumTannerCode

RNG_ALGORITHM = "philox4x64"
STREAM_LIMIT = 1 << 64  # master seeds and stream ids lie in [0, 2^64)
SWEEP_TRIAL_LIMIT = 1 << 20  # trials per sweep point (low stream-id bits)

TRIAL_CSV_FIELDS = [
    "instance_id",
    "decoder",
    "param",
    "p",
    "q",
    "e_weight",
    "d_weight",
    "d_vertex_support",
    "residual_weight",
    "residual_reduced_proxy",
    "failure_class",
    "seed",
    "ms",
]


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

MULTIROUND_CSV_FIELDS = [
    "instance_id",
    "decoder",
    "param",
    "p",
    "q",
    "trial",
    "round",
    "e_weight",
    "d_weight",
    "d_vertex_support",
    "residual_weight",
    "failure_class",
    "seed",
]

DATA_KINDS = ("bernoulli", "adversarial")
SYNDROME_KINDS = ("bernoulli", "adversarial", "vertex_bounded")
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


def whole(value, name: str) -> int:
    """A config count as an int; a fractional, boolean or non-numeric
    value is an error, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} = {value!r} is not a whole number")
    return value


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


def make_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Counter-based stream RNG: Philox keyed by (master seed, stream id).

    Both halves of the key must lie in [0, 2^64), so that distinct
    (seed, stream) pairs never share a key.
    """
    check_seed(master_seed)
    if not 0 <= stream < STREAM_LIMIT:
        raise ValueError(f"stream id {stream} outside [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=(master_seed << 64) | stream))


@dataclass(frozen=True)
class NoiseModel:
    """Data noise: bernoulli(p) or adversarial exact weight w (optionally
    persistent across rounds).  Syndrome noise: bernoulli(q), adversarial
    exact weight s, or vertex_bounded touching at most t V1 vertices.

    A persistent adversarial error keeps ⌊persistence·w⌋ faces of the
    previous round's error (drawn at random) and draws the rest afresh,
    so any persistence below 1/w keeps none.
    """

    data_kind: str = "bernoulli"
    p: float = 0.0
    w: int = 0
    persistence: float = 0.0
    syn_kind: str = "bernoulli"
    q: float = 0.0
    s: int = 0
    t: int = 0

    def __post_init__(self):
        if self.data_kind not in DATA_KINDS:
            raise ValueError(f"unknown data noise {self.data_kind!r}; have {list(DATA_KINDS)}")
        if self.syn_kind not in SYNDROME_KINDS:
            raise ValueError(
                f"unknown syndrome noise {self.syn_kind!r}; have {list(SYNDROME_KINDS)}"
            )
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
        p = self.p if self.data_kind == "bernoulli" else float(self.w)
        q = self.q if self.syn_kind == "bernoulli" else float(self.s or self.t)
        return p, q

    def to_json(self) -> dict:
        return {
            "data": {"kind": self.data_kind, "p": self.p, "w": self.w,
                     "persistence": self.persistence},
            "syndrome": {"kind": self.syn_kind, "q": self.q, "s": self.s, "t": self.t},
        }

    def at_grid_point(self, point: dict) -> "NoiseModel":
        """This model with a sweep grid point's rates p/q or adversarial
        weights w/s in place."""
        check_keys(point, GRID_KEYS, "grid point")
        obj = self.to_json()
        if "p" in point:
            obj["data"]["p"] = point["p"]
        if "w" in point:
            obj["data"].update(kind="adversarial", w=point["w"])
        if "q" in point:
            obj["syndrome"]["q"] = point["q"]
        if "s" in point:
            obj["syndrome"].update(kind="adversarial", s=point["s"])
        return NoiseModel.from_json(obj)

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        check_keys(obj, ("data", "syndrome"), "noise")
        d = obj.get("data", {})
        s = obj.get("syndrome", {})
        check_keys(d, ("kind", "p", "w", "persistence"), "noise.data")
        check_keys(s, ("kind", "q", "s", "t"), "noise.syndrome")
        return cls(
            data_kind=d.get("kind", "bernoulli"),
            p=real(d.get("p", 0.0), "noise p"),
            w=whole(d.get("w", 0), "noise w"),
            persistence=real(d.get("persistence", 0.0), "noise persistence"),
            syn_kind=s.get("kind", "bernoulli"),
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

    def decode(self, code: QuantumTannerCode, syn: BitVector, return_state: bool = False):
        """f̂ for the syndrome, with the decoder's ``MismatchState`` as
        (f̂, state) if ``return_state``."""
        if self.kind == "sequential":
            return dec.sequential_decode(code, syn, self.eps, return_state)
        return dec.parallel_decode(code, syn, self.k, return_state)

    def decode_lockstep(self, code: QuantumTannerCode, syndromes: np.ndarray) -> np.ndarray:
        """f̂ bit rows for a (trials, H_Z rows) array of syndromes, row by
        row equal to ``decode``."""
        if self.kind == "sequential":
            return dec.sequential_decode_lockstep(code, syndromes, self.eps)
        return dec.parallel_decode_lockstep(code, syndromes, self.k)

    def to_json(self) -> dict:
        if self.kind == "sequential":
            return {"kind": "sequential", "eps": str(self.eps)}
        return {"kind": "parallel", "k": self.k}

    @classmethod
    def from_json(cls, obj: dict) -> "DecoderConfig":
        """A decoder spec: {"kind": "sequential", "eps": ...} or
        {"kind": "parallel", "k": ...}; a missing parameter takes the
        field default."""
        kind = check_kind(obj, DECODER_KEYS, "decoder")
        if kind == "sequential":
            return cls(kind, eps=fraction(obj.get("eps", cls.eps), "decoder eps"))
        return cls(kind, k=whole(obj.get("k", cls.k), "decoder k"))


def _sample_bits_bernoulli(n: int, prob: float, rng) -> int:
    if prob <= 0.0 or n == 0:
        return 0
    hits = np.nonzero(rng.random(n) < prob)[0]
    bits = 0
    for i in hits:
        bits |= 1 << int(i)
    return bits


def _sample_bits_exact_weight(n: int, w: int, rng, keep_from: Optional[int] = None,
                              persistence: float = 0.0) -> int:
    if w > n:
        raise ValueError(f"adversarial weight {w} exceeds {n} positions")
    if w == 0:
        return 0
    kept: list[int] = []
    if keep_from and persistence > 0.0:
        prev = []
        b = keep_from
        while b:
            lsb = b & -b
            prev.append(lsb.bit_length() - 1)
            b ^= lsb
        n_keep = min(int(persistence * w), len(prev), w)
        if n_keep:
            kept = [int(x) for x in rng.choice(len(prev), size=n_keep, replace=False)]
            kept = [prev[i] for i in kept]
    kept_set = set(kept)
    remaining = [i for i in range(n) if i not in kept_set]
    fresh = rng.choice(len(remaining), size=w - len(kept), replace=False)
    bits = 0
    for i in kept:
        bits |= 1 << i
    for i in fresh:
        bits |= 1 << remaining[int(i)]
    return bits


def sample_errors(
    code: QuantumTannerCode, model: NoiseModel, rng, prev_data: int = 0
) -> tuple[BitVector, BitVector]:
    """Draw (data error e, syndrome error D) from the model; exact-weight
    contracts hold by construction."""
    if model.data_kind == "bernoulli":
        e = _sample_bits_bernoulli(code.n, model.p, rng)
    else:  # adversarial
        e = _sample_bits_exact_weight(
            code.n, model.w, rng, keep_from=prev_data, persistence=model.persistence
        )

    rz = code.h_z.rows
    if model.syn_kind == "bernoulli":
        d = _sample_bits_bernoulli(rz, model.q, rng)
    elif model.syn_kind == "adversarial":
        d = _sample_bits_exact_weight(rz, model.s, rng)
    else:  # vertex_bounded
        d = 0
        if rz and code.r1 and model.t:
            n_v = len(code.v1_vertices)
            hit = rng.choice(n_v, size=min(model.t, n_v), replace=False)
            for pos in sorted(int(x) for x in hit):
                pattern = int(rng.integers(1, 1 << code.r1))
                d |= pattern << (pos * code.r1)
    return BitVector(code.n, e), BitVector(rz, d)


def vertex_support_size(code: QuantumTannerCode, d: BitVector) -> int:
    """Number of V1 vertices whose check block of D is nonzero."""
    if code.r1 == 0:
        return 0
    block = (1 << code.r1) - 1
    bits = d.bits
    count = 0
    for pos in range(len(code.v1_vertices)):
        if (bits >> (pos * code.r1)) & block:
            count += 1
    return count


@dataclass
class TrialRecord:
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

    def csv_row(self) -> tuple:
        """The TRIAL_CSV_FIELDS values, in field order."""
        return tuple(getattr(self, k) for k in TRIAL_CSV_FIELDS)

    def as_dict(self) -> dict:
        return dict(zip(TRIAL_CSV_FIELDS, self.csv_row()))


def run_single_shot_trial(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfg: DecoderConfig,
    rng,
    instance_id: str = "",
    seed: int = 0,
    record_timing: bool = False,
    presampled: Optional[tuple[BitVector, BitVector]] = None,
) -> TrialRecord:
    """One sample-decode-classify cycle under a single noisy measurement."""
    e, d = presampled if presampled is not None else sample_errors(code, model, rng)
    return decode_trial(code, model, cfg, e, d, instance_id, seed, record_timing)[0]


def decode_trial(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfg: DecoderConfig,
    e: BitVector,
    d: BitVector,
    instance_id: str = "",
    seed: int = 0,
    record_timing: bool = False,
) -> tuple[TrialRecord, dec.MismatchState]:
    """Decode and classify data error e under syndrome error d: the
    trial's record and the decoder's final state."""
    syn = BitVector(code.h_z.rows, tanner.syndrome_bits_z(code, e.bits) ^ d.bits)
    t0 = time.perf_counter() if record_timing else 0.0
    f, state = cfg.decode(code, syn, return_state=True)
    ms = (time.perf_counter() - t0) * 1000.0 if record_timing else 0.0
    residual = BitVector(code.n, e.bits ^ f.bits)
    p, q = model.pq_labels()
    record = TrialRecord(
        instance_id=instance_id,
        decoder=cfg.kind,
        param=cfg.param,
        p=p,
        q=q,
        e_weight=e.weight(),
        d_weight=d.weight(),
        d_vertex_support=vertex_support_size(code, d),
        residual_weight=residual.weight(),
        residual_reduced_proxy=tanner.reduced_weight(code, residual, "greedy"),
        failure_class=tanner.classify_residual(code, residual),
        seed=seed,
        ms=ms,
    )
    return record, state


@dataclass
class RoundRecord:
    round: int
    e_weight: int
    d_weight: int
    d_vertex_support: int
    residual_weight: int


@dataclass
class MultiRoundRecord:
    """Residuals carried across rounds; the final row is an ideal decode."""

    instance_id: str
    decoder: str
    param: str
    p: float
    q: float
    seed: int
    rounds: list[RoundRecord] = field(default_factory=list)
    final_class: str = ""
    final_residual_weight: int = 0
    e_xor_all: int = 0
    f_xor_all: int = 0
    residual_bits: int = 0

    def csv_rows(self) -> list[tuple]:
        """MULTIROUND_CSV_FIELDS rows: one per round, then the final readout."""
        iid, dec_name, param, p, q, seed = (
            self.instance_id, self.decoder, self.param, self.p, self.q, self.seed
        )
        rows = [
            (iid, dec_name, param, p, q, seed, rr.round, rr.e_weight, rr.d_weight,
             rr.d_vertex_support, rr.residual_weight, "", seed)
            for rr in self.rounds
        ]
        rows.append((iid, dec_name, param, p, q, seed, "final", 0, 0, 0,
                     self.final_residual_weight, self.final_class, seed))
        return rows


# Bernoulli draws held per call of ``rng.random``; longer runs are drawn
# in several calls, which give the same numbers as one.
_DRAW_CHUNK = 1 << 16


def _bernoulli_rounds(code: QuantumTannerCode, model: NoiseModel, rng, rounds: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Every round's (e, D) of one trial under Bernoulli data and syndrome
    noise, as packed little-endian bit rows (rounds, bytes): the numbers
    ``sample_errors`` would draw round after round, data before syndrome,
    with a rate of 0 drawing nothing."""
    n, rz = code.n, code.h_z.rows
    width_e = n if model.p > 0.0 and n else 0
    width_d = rz if model.q > 0.0 and rz else 0
    e = np.zeros((rounds, (n + 7) // 8), dtype=np.uint8)
    d = np.zeros((rounds, (rz + 7) // 8), dtype=np.uint8)
    width = width_e + width_d
    if width == 0:
        return e, d
    step = max(1, _DRAW_CHUNK // width)
    for lo in range(0, rounds, step):
        hi = min(rounds, lo + step)
        u = rng.random((hi - lo, width))
        if width_e:
            e[lo:hi] = np.packbits(u[:, :width_e] < model.p, axis=1, bitorder="little")
        if width_d:
            d[lo:hi] = np.packbits(u[:, width_e:] < model.q, axis=1, bitorder="little")
    return e, d


def _round_errors(code: QuantumTannerCode, model: NoiseModel,
                  rngs: Sequence[np.random.Generator], rounds: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(e, D) of every trial as (trials, n) and (trials, H_Z rows) bit
    rows, round after round, each trial drawing from its own stream as
    ``sample_errors`` does.  Bernoulli noise is drawn for all rounds up
    front; the other models call ``sample_errors`` once per round."""
    n, rz = code.n, code.h_z.rows
    if model.data_kind == "bernoulli" and model.syn_kind == "bernoulli":
        draws = [_bernoulli_rounds(code, model, rng, rounds) for rng in rngs]
        e_packed = np.stack([e for e, _ in draws], axis=1)  # (rounds, trials, bytes)
        d_packed = np.stack([d for _, d in draws], axis=1)
        del draws
        for i in range(rounds):
            yield (np.unpackbits(e_packed[i], axis=1, count=n, bitorder="little"),
                   np.unpackbits(d_packed[i], axis=1, count=rz, bitorder="little"))
        return
    prev_data = [0] * len(rngs)
    for _ in range(rounds):
        pairs = [sample_errors(code, model, rng, prev_data=prev)
                 for rng, prev in zip(rngs, prev_data)]
        prev_data = [e.bits for e, _ in pairs]
        yield gf2.to_bit_rows(prev_data, n), gf2.to_bit_rows([d.bits for _, d in pairs], rz)


def run_multiround(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfg: DecoderConfig,
    rounds: int,
    rngs: Sequence[np.random.Generator],
    instance_id: str = "",
    seeds: Optional[Sequence[int]] = None,
    final_eps: Fraction = Fraction(1, 2),
) -> list[MultiRoundRecord]:
    """The multi-round protocol for a batch of trials run in lockstep:
    rounds cycles of (new error, noisy syndrome, decode) with the
    residual fed forward, then one noiseless sequential decode as the
    final readout.  Trial i draws from ``rngs[i]`` and is recorded with
    seed ``seeds[i]`` (default i); its record does not depend on the
    other trials of the batch.

    Each round is one array step over all trials: the errors come from
    ``_round_errors``, the syndromes are one product with H_Zᵀ, and
    ``DecoderConfig.decode_lockstep`` decodes them all.  The readout is
    scalar, once per trial.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    seeds = list(range(len(rngs)) if seeds is None else seeds)
    if len(seeds) != len(rngs):
        raise ValueError(f"{len(seeds)} seeds for {len(rngs)} trials")
    trials, n, rz = len(rngs), code.n, code.h_z.rows
    if trials == 0:
        return []
    nv1, r1 = len(code.v1_vertices), code.r1
    residual = np.zeros((trials, n), dtype=np.uint8)
    e_xor_all = np.zeros_like(residual)
    f_xor_all = np.zeros_like(residual)
    stats = np.zeros((rounds, 4, trials), dtype=np.int64)
    for i, (e, d) in enumerate(_round_errors(code, model, rngs, rounds)):
        syn = tanner.syndrome_rows_z(code, residual ^ e) ^ d
        f = cfg.decode_lockstep(code, syn)
        residual ^= e ^ f
        e_xor_all ^= e
        f_xor_all ^= f
        stats[i, 0] = e.sum(axis=1)
        stats[i, 1] = d.sum(axis=1)
        stats[i, 2] = d.reshape(trials, nv1, r1).any(axis=2).sum(axis=1)
        stats[i, 3] = residual.sum(axis=1)
    p, q = model.pq_labels()
    per_trial = stats.transpose(2, 0, 1).tolist()  # [trial][round][stat]
    records = []
    for seed, res, e_all, f_all, trial_stats in zip(
        seeds, gf2.from_bit_rows(residual), gf2.from_bit_rows(e_xor_all),
        gf2.from_bit_rows(f_xor_all), per_trial,
    ):
        ideal = BitVector(rz, tanner.syndrome_bits_z(code, res))
        f_final = dec.sequential_decode(code, ideal, final_eps)
        final_residual = BitVector(n, res ^ f_final.bits)
        records.append(MultiRoundRecord(
            instance_id=instance_id, decoder=cfg.kind, param=cfg.param, p=p, q=q, seed=seed,
            rounds=[RoundRecord(i, *row) for i, row in enumerate(trial_stats, start=1)],
            final_class=tanner.classify_residual(code, final_residual),
            final_residual_weight=final_residual.weight(),
            e_xor_all=e_all,
            f_xor_all=f_all ^ f_final.bits,
            residual_bits=final_residual.bits,
        ))
    return records


def sweep_stream_id(point_idx: int, trial_idx: int) -> int:
    """Stream of one (grid point, trial): the point above 20 trial bits."""
    if not 0 <= trial_idx < SWEEP_TRIAL_LIMIT:
        raise ValueError(f"sweep trial index {trial_idx} outside [0, 2^20)")
    if point_idx < 0:
        raise ValueError(f"sweep point index {point_idx} is negative")
    return (point_idx << 20) | trial_idx


def run_sweep_trial(
    code: QuantumTannerCode,
    model: NoiseModel,
    cfgs: Sequence[DecoderConfig],
    point_idx: int,
    trial_idx: int,
    master_seed: int,
    instance_id: str = "",
    record_timing: bool = False,
) -> list[TrialRecord]:
    """One (grid point, trial) of a sweep: errors are sampled once on the
    trial's own stream and decoded by every config, so decoder
    comparisons are paired on the seed column."""
    stream = sweep_stream_id(point_idx, trial_idx)
    rng = make_rng(master_seed, stream)
    e, d = sample_errors(code, model, rng)
    return [
        run_single_shot_trial(
            code,
            model,
            cfg,
            rng,
            instance_id=instance_id,
            seed=stream,
            record_timing=record_timing,
            presampled=(e, d),
        )
        for cfg in cfgs
    ]


def run_sweep(
    code: QuantumTannerCode,
    models: Sequence[NoiseModel],
    cfgs: Sequence[DecoderConfig],
    trials: int,
    master_seed: int,
    instance_id: str = "",
    record_timing: bool = False,
) -> list[TrialRecord]:
    """All (grid point, trial, decoder) records, single process, in
    ``run_sweep_trial`` order."""
    return [
        rec
        for pi, model in enumerate(models)
        for ti in range(trials)
        for rec in run_sweep_trial(
            code, model, cfgs, pi, ti, master_seed, instance_id, record_timing
        )
    ]


def wilson_interval(failures: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) + z * z / (4 * trials)) / trials) ** 0.5 / denom
    return max(0.0, center - half), min(1.0, center + half)


def aggregate_records(records: Iterable[TrialRecord]) -> list[PointRow]:
    """Per (instance, point, decoder) summary with Wilson 95% interval on
    the logical-failure frequency."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.instance_id, r.p, r.q, r.decoder, r.param), []).append(r)
    rows = []
    for (iid, p, q, dec_name, param), rs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        n = len(rs)
        fails = sum(1 for r in rs if r.failure_class == tanner.LOGICAL)
        lo, hi = wilson_interval(fails, n)
        rows.append(PointRow(
            iid, dec_name, param, p, q, n, fails, fails / n, lo, hi,
            sum(r.residual_weight for r in rs) / n, sum(r.ms for r in rs) / n,
        ))
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


def estimate_threshold(
    code: QuantumTannerCode,
    cfg: DecoderConfig,
    trials: int = 100,
    master_seed: int = 0,
    lo: float = 0.0,
    hi: float = 0.5,
    iters: int = 8,
    instance_id: str = "",
) -> float:
    """Bisect the bernoulli p = q level where the not-corrected frequency
    crosses 1/2; a coarse, reproducible operating-point estimate.

    Iteration ``it``, trial ``ti`` draws stream (it << 24) | ti, so
    ``trials`` must lie in [1, 2^24).
    """
    if not 1 <= trials < 1 << 24:
        raise ValueError(f"threshold trials must be in [1, 2^24), got {trials}")
    for it in range(iters):
        mid = (lo + hi) / 2
        model = NoiseModel(data_kind="bernoulli", p=mid, syn_kind="bernoulli", q=mid)
        fails = 0
        for ti in range(trials):
            rng = make_rng(master_seed, (it << 24) | ti)
            rec = run_single_shot_trial(code, model, cfg, rng, instance_id=instance_id)
            if rec.failure_class != tanner.CORRECTED:
                fails += 1
        if fails / trials < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def write_csv(path, fieldnames: Sequence[str], rows: Iterable[Sequence],
              header_comments: Sequence[str] = ()) -> None:
    """CSV with '\\n' line endings and optional '#' comment header lines,
    byte-stable for fixed inputs; each row holds its values in
    ``fieldnames`` order."""
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
