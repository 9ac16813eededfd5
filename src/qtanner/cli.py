"""Command-line front end.

Experiments are described by JSON configs (archivable, ~15 knobs); a few
flags override the common ones.  ``load_config`` parses and checks a
config once into an ``Experiment``, which every command and worker
reads.  Every CSV embeds the config hash, the RNG algorithm name and the
master seed as '#' comment lines, so output is reproducible byte for
byte regardless of worker count.

Exit codes: 0 success, 2 config/validation error, 3 oracle budget refusal.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import cayley, codes, decoder, noise, tanner
from .errors import BudgetError, QTannerError
from .gf2 import BitVector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

REFERENCE_INSTANCE = {
    "group": {"kind": "cyclic", "m": 13},
    "a_gens": [1, 12, 5, 8],
    "b_gens": [1, 12, 5, 8],
    "local_codes": {"kind": "named", "a": "rep", "b": "par"},
    "side": "X",
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


CONFIG_DEFAULTS = {
    "instance": REFERENCE_INSTANCE,
    "decoders": [{"kind": "sequential"}],
    "noise": {},
    "grid": [],
    "trials": 10,
    "rounds": 1,
    "seed": 0,
    "record_timing": False,
    "output": None,  # each command names its own file
    "eps": "1/2",
    "delta": "1/20",
    "k_iters": None,  # ceil(log2 n) of the built code
}
INSTANCE_KEYS = ("group", "a_gens", "b_gens", "local_codes", "side")
GROUP_KEYS = {"cyclic": ("kind", "m"), "dihedral": ("kind", "m"), "table": ("kind", "mul")}
LOCAL_CODE_KEYS = {
    "named": ("kind", "a", "b"),
    "random": ("kind", "dim_a", "dim_b", "seed"),
    "explicit": ("kind", "a", "b"),
}
SIDES = ("X", "Z")


def _check_instance(inst) -> None:
    """Reject an instance spec with an unknown key or kind at any level,
    a count or group element that is not a whole number, or a side other
    than X or Z."""
    noise.check_keys(inst, INSTANCE_KEYS, "instance")
    for key in ("a_gens", "b_gens"):
        gens = inst.get(key)
        if not isinstance(gens, list):
            raise ValueError(f"instance {key} must be a list of group elements, got {gens!r}")
        for g in gens:
            noise.whole(g, f"instance {key} element")
    group = inst.get("group")
    if noise.check_kind(group, GROUP_KEYS, "instance.group") != "table":
        noise.whole(group.get("m"), "instance.group.m")
    lc = inst.get("local_codes", REFERENCE_INSTANCE["local_codes"])
    if not isinstance(lc, str):
        kind = noise.check_kind(lc, LOCAL_CODE_KEYS, "instance.local_codes", default="named")
        for which in ("a", "b"):
            if kind == "random":
                noise.whole(lc.get(f"dim_{which}"), f"instance.local_codes.dim_{which}")
            if kind == "explicit":
                where = f"instance.local_codes.{which}"
                noise.check_keys(lc.get(which), ("n", "gen"), where)
                noise.whole(lc[which].get("n"), f"{where}.n")
        if "seed" in lc:
            noise.whole(lc["seed"], "instance.local_codes.seed")
    side = inst.get("side", REFERENCE_INSTANCE["side"])
    if side not in SIDES:
        raise ValueError(f"instance side must be one of {list(SIDES)}, got {side!r}")


@dataclass(frozen=True)
class Experiment:
    """A config parsed and checked once; every command and worker reads
    these fields instead of the JSON.

    ``raw`` is the config as loaded with the ``--seed``/``--trials``
    overrides applied: ``config_hash`` hashes it into CSV headers and
    ``build_instance`` builds the instance from it.  ``models`` are the
    base ``noise`` model at each grid point (just ``noise`` without a
    grid); ``eps``, ``delta`` and ``k_iters`` feed only ``inspect``.
    ``load_config`` builds it.
    """

    raw: dict
    decoders: tuple[noise.DecoderConfig, ...]
    noise: noise.NoiseModel
    models: tuple[noise.NoiseModel, ...]
    trials: int
    rounds: int
    seed: int
    record_timing: bool
    output: Optional[str]
    eps: Fraction
    delta: Fraction
    k_iters: Optional[int]


def load_config(
    path: Optional[str],
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    trial_limit: int = noise.STREAM_LIMIT,
) -> Experiment:
    """The experiment of the config at ``path`` (all defaults for none).

    ``seed`` and ``trials``, when given, replace the config's before it
    is checked and hashed.  Every key and value is checked (ValueError on
    the first bad one) and ``CONFIG_DEFAULTS`` fill in the rest.  The
    seed and trial count must give every trial an RNG stream of its own:
    seeds lie in [0, 2^64), trial counts in [0, ``trial_limit``).
    """
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
    noise.check_keys(raw, CONFIG_DEFAULTS, "config")
    for key, value in (("seed", seed), ("trials", trials)):
        if value is not None:
            raw[key] = value
    cfg = {**CONFIG_DEFAULTS, **raw}
    _check_instance(cfg["instance"])
    if not isinstance(cfg["decoders"], list) or not cfg["decoders"]:
        raise ValueError(f"decoders must be a non-empty list, got {cfg['decoders']!r}")
    grid = cfg["grid"] or []
    if not isinstance(grid, list):
        raise ValueError(f"grid must be a list of points, got {grid!r}")
    trials = noise.whole(cfg["trials"], "trials")
    if not 0 <= trials < trial_limit:
        raise ValueError(f"trials must be in [0, {trial_limit}), got {trials}")
    rounds = noise.whole(cfg["rounds"], "rounds")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    seed = noise.whole(cfg["seed"], "seed")
    noise.check_seed(seed)
    if not isinstance(cfg["record_timing"], bool):
        raise ValueError(f"record_timing must be true or false, got {cfg['record_timing']!r}")
    if cfg["output"] is not None and not isinstance(cfg["output"], str):
        raise ValueError(f"output must be a file name, got {cfg['output']!r}")
    base = noise.NoiseModel.from_json(cfg["noise"])
    k_iters = cfg["k_iters"]
    return Experiment(
        raw=raw,
        decoders=tuple(noise.DecoderConfig.from_json(d) for d in cfg["decoders"]),
        noise=base,
        models=tuple(base.at_grid_point(pt) for pt in grid) or (base,),
        trials=trials,
        rounds=rounds,
        seed=seed,
        record_timing=cfg["record_timing"],
        output=cfg["output"],
        eps=decoder.checked_eps(noise.fraction(cfg["eps"], "eps")),
        delta=noise.fraction(cfg["delta"], "delta"),
        k_iters=None if k_iters is None else noise.whole(k_iters, "k_iters"),
    )


_NAMED_CODES = {
    "rep": codes.repetition_code,
    "par": codes.parity_code,
    "full": codes.full_space,
    "zero": codes.zero_code,
}


def _local_code(spec, delta: int, rng_seed: int, which: str) -> codes.LinearCode:
    if isinstance(spec, str):
        spec = {"kind": "named", which: spec}
    kind = spec.get("kind", "named")
    if kind == "named":
        name = spec[which]
        if name not in _NAMED_CODES:
            raise ValueError(f"unknown named code {name!r}; have {sorted(_NAMED_CODES)}")
        return _NAMED_CODES[name](delta)
    if kind == "random":
        dim = int(spec[f"dim_{which}"])
        rng = noise.make_rng(int(spec.get("seed", rng_seed)), 0 if which == "a" else 1)
        return codes.sample_random_code(delta, dim, rng)
    return codes.LinearCode.from_json(spec[which])


def build_instance(cfg: dict) -> tuple[tanner.QuantumTannerCode, str]:
    """The code of a config's instance (checked by ``load_config``) and
    its id, the head of the instance spec's hash."""
    inst = cfg.get("instance", CONFIG_DEFAULTS["instance"])
    gspec = inst["group"]
    group = cayley.build_group(
        gspec["kind"], m=int(gspec.get("m", 0)), table=gspec.get("mul")
    )
    cx = cayley.build_complex(group, inst["a_gens"], inst["b_gens"])
    lc = inst.get("local_codes", REFERENCE_INSTANCE["local_codes"])
    seed = cfg.get("seed", CONFIG_DEFAULTS["seed"])
    ca = _local_code(lc, cx.delta, seed, "a")
    cb = _local_code(lc, cx.delta, seed, "b")
    code = tanner.build_tanner_code(cx, ca, cb)
    if inst.get("side", REFERENCE_INSTANCE["side"]) == "Z":
        code = code.z_side()
    return code, config_hash(inst)[:12]


def _print_summary(code: tanner.QuantumTannerCode, iid: str, with_kappa: bool) -> None:
    cx = code.complex
    k, bound = tanner.code_dimension(code)
    print(f"instance {iid}: group {cx.group.name}, delta {cx.delta}")
    print(
        f"  |V| = {cx.num_vertices}, |Q| = n = {code.n}, "
        f"|E_A| = {cx.num_a_edges}, |E_B| = {cx.num_b_edges}"
    )
    print(f"  checks: {code.h_x.rows} X rows, {code.h_z.rows} Z rows")
    print(f"  k = {k} (counting lower bound {bound:g})")
    for which in ("A", "B"):
        lam2, flag = cx.second_eigenvalue(which)
        print(f"  lambda2[{which}] = {lam2:.6f} (ramanujan: {flag})")
    hist = tanner.check_weight_histogram(code)
    for side in ("X", "Z"):
        pretty = ", ".join(f"w{w}: {c}" for w, c in sorted(hist[side].items()))
        print(f"  {side}-check weights: {pretty or 'none'}")
    if with_kappa:
        try:
            kap = tanner.instance_kappa(code)
            print(f"  kappa = {kap} ({float(kap):.6f})")
        except BudgetError as exc:
            print(f"  kappa: refused ({exc})")


def cmd_build(args) -> int:
    exp = load_config(args.config)
    code, iid = build_instance(exp.raw)
    _print_summary(code, iid, with_kappa=not args.skip_kappa)
    return EXIT_OK


def cmd_inspect(args) -> int:
    exp = load_config(args.config)
    code, iid = build_instance(exp.raw)
    _print_summary(code, iid, with_kappa=False)
    k_iters = exp.k_iters if exp.k_iters is not None else math.ceil(math.log2(max(code.n, 2)))
    report = tanner.theory_report(code, float(exp.eps), float(exp.delta), k_iters)
    print("theory report:")
    for key, val in report.as_dict().items():
        print(f"  {key} = {val}")
    w, _ = tanner.random_logical_search(code, noise.make_rng(exp.seed, 0), tries=200)
    print(f"  distance upper bound (randomized logical search) = {w}")
    return EXIT_OK


def cmd_expansion(args) -> int:
    exp = load_config(args.config)
    code, iid = build_instance(exp.raw)
    k1 = codes.product_expansion_kappa(code.local_a, code.local_b)
    k2 = codes.product_expansion_kappa(code.local_a.dual(), code.local_b.dual())
    print(f"instance {iid}")
    print(f"  kappa(C_A boxplus C_B)           = {k1} ({float(k1):.6f})")
    print(f"  kappa(C_A^perp boxplus C_B^perp) = {k2} ({float(k2):.6f})")
    return EXIT_OK


def cmd_decode_one(args) -> int:
    exp = load_config(args.config)
    code, iid = build_instance(exp.raw)
    explicit = args.error is not None or args.syndrome_error is not None
    if explicit:
        # explicit inputs zero out whatever is not given
        if args.error is not None and len(args.error) != code.n:
            print(
                f"error bitstring length {len(args.error)} != n = {code.n}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        if args.syndrome_error is not None and len(args.syndrome_error) != code.h_z.rows:
            print(
                f"syndrome bitstring length {len(args.syndrome_error)} != "
                f"{code.h_z.rows} checks",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        e = (
            BitVector.from_string(args.error)
            if args.error is not None
            else BitVector(code.n, 0)
        )
        d = (
            BitVector.from_string(args.syndrome_error)
            if args.syndrome_error is not None
            else BitVector(code.h_z.rows, 0)
        )
    else:
        e, d = noise.sample_errors(code, exp.noise, noise.make_rng(exp.seed, 0))
    rec, state = noise.decode_trial(
        code,
        exp.noise,
        exp.decoders[0],
        e,
        d,
        instance_id=iid,
        seed=0,
        record_timing=exp.record_timing,
    )
    print(json.dumps(rec.as_dict(), sort_keys=True))
    if args.step_log:
        with open(args.step_log, "w") as fh:
            for step in state.steps:
                fh.write(json.dumps(step.as_dict(), sort_keys=True) + "\n")
    return EXIT_OK


def _csv_header(exp: Experiment) -> list[str]:
    return [
        f"config_hash={config_hash(exp.raw)}",
        f"rng={noise.RNG_ALGORITHM}",
        f"seed={exp.seed}",
    ]


_WORKER: dict = {}


def _init_worker(exp: Experiment) -> None:
    """Build the instance once per process; tasks only index into
    ``_WORKER``."""
    code, iid = build_instance(exp.raw)
    _WORKER.update(exp=exp, code=code, iid=iid)


def _sweep_task(task: tuple[int, int]) -> list[noise.TrialRecord]:
    pi, ti = task
    exp = _WORKER["exp"]
    return noise.run_sweep_trial(
        _WORKER["code"],
        exp.models[pi],
        exp.decoders,
        pi,
        ti,
        exp.seed,
        instance_id=_WORKER["iid"],
        record_timing=exp.record_timing,
    )


def _multiround_task(task: tuple[int, int]) -> list[noise.MultiRoundRecord]:
    """Trials [lo, hi) as one lockstep batch."""
    trial_ids = range(*task)
    exp = _WORKER["exp"]
    return noise.run_multiround(
        _WORKER["code"],
        exp.noise,
        exp.decoders[0],
        exp.rounds,
        [noise.make_rng(exp.seed, ti) for ti in trial_ids],
        instance_id=_WORKER["iid"],
        seeds=trial_ids,
    )


def _trial_chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """[0, trials) cut into min(workers, trials) contiguous chunks whose
    sizes differ by at most one (one empty chunk for no trials)."""
    parts = max(1, min(workers, trials))
    bounds = [trials * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_pool(exp: Experiment, tasks, task_fn, workers: int) -> list:
    # initialising here first also reports build errors before any worker
    # process starts
    _init_worker(exp)
    if workers <= 1:
        return [task_fn(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(exp,)
    ) as pool:
        return list(pool.map(task_fn, tasks))


def cmd_sweep(args) -> int:
    exp = load_config(args.config, args.seed, args.trials, noise.SWEEP_TRIAL_LIMIT)
    tasks = [(pi, ti) for pi in range(len(exp.models)) for ti in range(exp.trials)]
    results = _run_pool(exp, tasks, _sweep_task, args.workers)
    records = [rec for group in results for rec in group]
    out = args.output or exp.output or "sweep.csv"
    if args.per_trial:
        noise.write_csv(
            out, noise.TRIAL_CSV_FIELDS, (r.csv_row() for r in records), _csv_header(exp)
        )
    else:
        noise.write_csv(
            out, noise.POINT_CSV_FIELDS, noise.aggregate_records(records), _csv_header(exp)
        )
    print(
        f"wrote {out}: {len(records)} trial records, {len(exp.models)} points", file=sys.stderr
    )
    return EXIT_OK


def cmd_multiround(args) -> int:
    exp = load_config(args.config, args.seed, args.trials)
    chunks = _run_pool(
        exp, _trial_chunks(exp.trials, args.workers), _multiround_task, args.workers
    )
    results = [rec for chunk in chunks for rec in chunk]
    rows = [row for rec in results for row in rec.csv_rows()]
    out = args.output or exp.output or "multiround.csv"
    noise.write_csv(out, noise.MULTIROUND_CSV_FIELDS, rows, _csv_header(exp))
    slope, lo, hi = noise.ols_slope_ci(
        [rr.round for rec in results for rr in rec.rounds],
        [rr.residual_weight for rec in results for rr in rec.rounds],
    )
    n_corr = sum(1 for r in results if r.final_class == tanner.CORRECTED)
    print(
        f"wrote {out}: {exp.trials} trials x {exp.rounds} rounds; residual slope "
        f"{slope:.6g} [{lo:.6g}, {hi:.6g}]; final corrected {n_corr}/{exp.trials}",
        file=sys.stderr,
    )
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qtanner",
        description="Quantum Tanner code construction, decoding and noise experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("-c", "--config", help="JSON config path (defaults to the reference instance)")
        p.set_defaults(fn=fn)
        return p

    p = add("build", cmd_build, help="build an instance and print its summary")
    p.add_argument("--skip-kappa", action="store_true", help="skip the kappa oracle")
    add("inspect", cmd_inspect, help="build summary plus the theory report")
    add("expansion", cmd_expansion, help="product-expansion kappa of the local codes")
    p = add("decode-one", cmd_decode_one, help="decode a single error and print the record")
    p.add_argument("--error", help="explicit data-error bitstring of length n")
    p.add_argument(
        "--syndrome-error",
        help="explicit syndrome-flip bitstring over the Z-check rows",
    )
    p.add_argument("--step-log", help="write the decomposition step log as JSON lines")
    for name, fn in (("sweep", cmd_sweep), ("multiround", cmd_multiround)):
        p = add(name, fn, help=f"run the {name} experiment and write CSV")
        p.add_argument("-o", "--output", help="output CSV path")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        if name == "sweep":
            p.add_argument("--per-trial", action="store_true", help="one CSV row per trial")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (QTannerError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
