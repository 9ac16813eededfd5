"""Command-line front end.

Experiments are described by JSON configs (archivable, ~15 knobs); a few
flags override the common ones.  Every CSV embeds the config hash, the
RNG algorithm name and the master seed as '#' comment lines, so output
is reproducible byte for byte regardless of worker count.

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
from fractions import Fraction
from typing import Optional

from . import cayley, codes, noise, tanner
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


CONFIG_KEYS = (
    "instance", "decoders", "noise", "grid", "trials", "rounds", "seed",
    "record_timing", "output", "eps", "delta", "k_iters",
)
GRID_KEYS = ("p", "q", "w", "s")


def load_config(path: Optional[str]) -> dict:
    """The config at ``path`` ({} for none), rejected with ValueError if
    it has an unknown key or its noise models or decoders do not parse."""
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    noise.check_keys(cfg, CONFIG_KEYS, "config")
    _models(cfg)
    _decoders(cfg)
    return cfg


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
    if kind == "explicit":
        return codes.LinearCode.from_json(spec[which])
    raise ValueError(f"unknown local code kind {kind!r}")


def build_instance(cfg: dict) -> tuple[tanner.QuantumTannerCode, str]:
    inst = cfg.get("instance", REFERENCE_INSTANCE)
    gspec = inst["group"]
    group = cayley.build_group(
        gspec["kind"], m=int(gspec.get("m", 0)), table=gspec.get("mul")
    )
    cx = cayley.build_complex(group, inst["a_gens"], inst["b_gens"])
    lc = inst.get("local_codes", {"kind": "named", "a": "rep", "b": "par"})
    seed = int(cfg.get("seed", 0))
    ca = _local_code(lc, cx.delta, seed, "a")
    cb = _local_code(lc, cx.delta, seed, "b")
    code = tanner.build_tanner_code(cx, ca, cb)
    if inst.get("side", "X") == "Z":
        code = code.z_side()
    return code, config_hash(inst)[:12]


def _decoders(cfg: dict) -> list[noise.DecoderConfig]:
    specs = cfg.get("decoders", [{"kind": "sequential", "eps": "1/2"}])
    return [noise.DecoderConfig.from_json(s) for s in specs]


def _models(cfg: dict) -> list[noise.NoiseModel]:
    base = noise.NoiseModel.from_json(cfg.get("noise", {}))
    grid = cfg.get("grid")
    if not grid:
        return [base]
    out = []
    for pt in grid:
        noise.check_keys(pt, GRID_KEYS, "grid point")
        obj = base.to_json()
        if "p" in pt:
            obj["data"]["p"] = pt["p"]
        if "w" in pt:
            obj["data"].update(kind="adversarial", w=pt["w"])
        if "q" in pt:
            obj["syndrome"]["q"] = pt["q"]
        if "s" in pt:
            obj["syndrome"].update(kind="adversarial", s=pt["s"])
        out.append(noise.NoiseModel.from_json(obj))
    return out


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
    cfg = load_config(args.config)
    code, iid = build_instance(cfg)
    _print_summary(code, iid, with_kappa=not args.skip_kappa)
    return EXIT_OK


def cmd_inspect(args) -> int:
    cfg = load_config(args.config)
    code, iid = build_instance(cfg)
    _print_summary(code, iid, with_kappa=False)
    eps = float(Fraction(str(cfg.get("eps", "1/2"))))
    delta = float(Fraction(str(cfg.get("delta", "1/20"))))
    k_iters = int(cfg.get("k_iters", math.ceil(math.log2(max(code.n, 2)))))
    report = tanner.theory_report(code, eps, delta, k_iters)
    print("theory report:")
    for key, val in report.as_dict().items():
        print(f"  {key} = {val}")
    w, _ = tanner.random_logical_search(
        code, noise.make_rng(int(cfg.get("seed", 0)), 0), tries=200
    )
    print(f"  distance upper bound (randomized logical search) = {w}")
    return EXIT_OK


def cmd_expansion(args) -> int:
    cfg = load_config(args.config)
    code, iid = build_instance(cfg)
    k1 = codes.product_expansion_kappa(code.local_a, code.local_b)
    k2 = codes.product_expansion_kappa(code.local_a.dual(), code.local_b.dual())
    print(f"instance {iid}")
    print(f"  kappa(C_A boxplus C_B)           = {k1} ({float(k1):.6f})")
    print(f"  kappa(C_A^perp boxplus C_B^perp) = {k2} ({float(k2):.6f})")
    return EXIT_OK


def cmd_decode_one(args) -> int:
    cfg = load_config(args.config)
    code, iid = build_instance(cfg)
    model = noise.NoiseModel.from_json(cfg.get("noise", {}))
    dec_cfg = _decoders(cfg)[0]
    master = int(cfg.get("seed", 0))
    rng = noise.make_rng(master, 0)
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
        e, d = noise.sample_errors(code, model, rng)
    rec, state = noise.decode_trial(
        code,
        model,
        dec_cfg,
        e,
        d,
        instance_id=iid,
        seed=0,
        record_timing=bool(cfg.get("record_timing", False)),
    )
    print(json.dumps(rec.as_dict(), sort_keys=True))
    if args.step_log:
        with open(args.step_log, "w") as fh:
            for step in state.steps:
                fh.write(json.dumps(step.as_dict(), sort_keys=True) + "\n")
    return EXIT_OK


def _csv_header(cfg: dict) -> list[str]:
    return [
        f"config_hash={config_hash(cfg)}",
        f"rng={noise.RNG_ALGORITHM}",
        f"seed={int(cfg.get('seed', 0))}",
    ]


_WORKER: dict = {}


def _init_worker(cfg_json: str) -> None:
    """Build the instance and parse the config once per process; tasks
    only index into ``_WORKER``."""
    cfg = json.loads(cfg_json)
    code, iid = build_instance(cfg)
    _WORKER.update(
        code=code,
        iid=iid,
        seed=int(cfg.get("seed", 0)),
        record_timing=bool(cfg.get("record_timing", False)),
        models=_models(cfg),
        decoders=_decoders(cfg),
        noise=noise.NoiseModel.from_json(cfg.get("noise", {})),
        rounds=int(cfg.get("rounds", 1)),
    )


def _sweep_task(task: tuple[int, int]) -> list[noise.TrialRecord]:
    pi, ti = task
    return noise.run_sweep_trial(
        _WORKER["code"],
        _WORKER["models"][pi],
        _WORKER["decoders"],
        pi,
        ti,
        _WORKER["seed"],
        instance_id=_WORKER["iid"],
        record_timing=_WORKER["record_timing"],
    )


def _multiround_task(task: tuple[int, int]) -> list[noise.MultiRoundRecord]:
    """Trials [lo, hi) as one lockstep batch."""
    trial_ids = range(*task)
    return noise.run_multiround(
        _WORKER["code"],
        _WORKER["noise"],
        _WORKER["decoders"][0],
        _WORKER["rounds"],
        [noise.make_rng(_WORKER["seed"], ti) for ti in trial_ids],
        instance_id=_WORKER["iid"],
        seeds=trial_ids,
    )


def _trial_chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """[0, trials) cut into min(workers, trials) contiguous chunks whose
    sizes differ by at most one (one empty chunk for no trials)."""
    parts = max(1, min(workers, trials))
    bounds = [trials * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _checked_trials(cfg: dict, limit: int) -> int:
    """The config's trial count, checked with its seed before any trial
    runs: every trial must get a stream of its own."""
    noise.check_seed(int(cfg.get("seed", 0)))
    trials = int(cfg.get("trials", 10))
    if not 0 <= trials < limit:
        raise ValueError(f"trials must be in [0, {limit}), got {trials}")
    return trials


def _run_pool(cfg: dict, tasks, task_fn, workers: int) -> list:
    # initialising here first also reports config and build errors before
    # any worker process starts
    _init_worker(canonical_json(cfg))
    if workers <= 1:
        return [task_fn(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(canonical_json(cfg),)
    ) as pool:
        return list(pool.map(task_fn, tasks))


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    models = _models(cfg)
    trials = _checked_trials(cfg, noise.SWEEP_TRIAL_LIMIT)
    tasks = [(pi, ti) for pi in range(len(models)) for ti in range(trials)]
    results = _run_pool(cfg, tasks, _sweep_task, args.workers)
    records = [rec for group in results for rec in group]
    out = args.output or cfg.get("output", "sweep.csv")
    if args.per_trial:
        noise.write_csv(
            out, noise.TRIAL_CSV_FIELDS, (r.csv_row() for r in records), _csv_header(cfg)
        )
    else:
        noise.write_csv(
            out, noise.POINT_CSV_FIELDS, noise.aggregate_records(records), _csv_header(cfg)
        )
    print(f"wrote {out}: {len(records)} trial records, {len(models)} points", file=sys.stderr)
    return EXIT_OK


def cmd_multiround(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    rounds = int(cfg.get("rounds", 1))
    if rounds < 1:
        print(f"rounds must be >= 1, got {rounds}", file=sys.stderr)
        return EXIT_CONFIG
    trials = _checked_trials(cfg, noise.STREAM_LIMIT)
    chunks = _run_pool(cfg, _trial_chunks(trials, args.workers), _multiround_task, args.workers)
    results = [rec for chunk in chunks for rec in chunk]
    rows = [row for rec in results for row in rec.csv_rows()]
    out = args.output or cfg.get("output", "multiround.csv")
    noise.write_csv(out, noise.MULTIROUND_CSV_FIELDS, rows, _csv_header(cfg))
    slope, lo, hi = noise.ols_slope_ci(
        [rr.round for rec in results for rr in rec.rounds],
        [rr.residual_weight for rec in results for rr in rec.rounds],
    )
    n_corr = sum(1 for r in results if r.final_class == tanner.CORRECTED)
    print(
        f"wrote {out}: {trials} trials x {rounds} rounds; residual slope "
        f"{slope:.6g} [{lo:.6g}, {hi:.6g}]; final corrected {n_corr}/{trials}",
        file=sys.stderr,
    )
    return EXIT_OK


def _apply_overrides(cfg: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        cfg["trials"] = args.trials


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
