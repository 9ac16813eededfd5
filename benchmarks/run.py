"""qtanner benchmark: decodes per second, set-up time and peak memory.

Each workload runs the user-facing ``qtanner sweep`` / ``qtanner
multiround`` path in-process through ``qtanner.cli.main`` with
``--workers 1`` and the workload seed passed only as ``--seed``.  One
call of ``cli.main`` is one job of fixed size (the config's trials and
rounds); a run repeats the job until ``--seconds`` have passed and
reports medians over the jobs.  Every job's CSV is checked: its
structure against the config, its bytes against the other jobs of the
run, and, at the default seed, its sha256 against a pinned digest.

Usage (from the repository root):

    python3 benchmarks/run.py --workload ref-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --all                # every workload, one fresh process each

``--trace 0`` reports the end-to-end metrics:

- ``decodes_per_s``: noisy decodes (sweep: trial records; multiround:
  trials x rounds, without the final ideal readout) per second of the
  ``cli.main`` call, median over the run's jobs.  Seconds are counted at
  the nominal machine speed of ``speed.py``, because on a shared host
  the raw rate drifts by a third within a minute; the raw median is in
  the detail line.
- ``setup_s``: median over repeated fresh ``cli.build_instance`` plus
  ``decoder.get_cache``, at nominal machine speed.
- ``peak_rss_mb``: peak RSS of a fresh process (``peak_rss.py``) that
  runs one checked job.

``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of ``tracer.py`` plus the tracing overhead (traced
over untraced median wall time, minus 1).  The last line of standard
output is the result as JSON; the line before it holds the seed, the
per-job figures and the provenance.

The ``--workers > 1`` process pool (``cli._run_pool``) is deliberately
not measured: on a small shared machine its wall-clock scaling measures
the scheduler, not the program.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 1
CLASSES = ("corrected", "detected", "logical")
SETUP_BUDGET_S = 1.5
SETUP_MIN_REPS = 7
SETUP_MAX_REPS = 301

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "multiround"
    config: str  # relative to the repository root
    flags: tuple[str, ...]
    pinned_sha256: str  # CSV digest at DEFAULT_SEED and full size


# The sweep writes one row per trial record, so the check covers every
# decode and the CSV ``seed`` column is the trace id of the traced run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ref-sweep",
            "sweep",
            "configs/reference.json",
            ("--per-trial",),
            "a7353b1f42bb0c50e150f0427f81717d44a93c0d621e53157b8f078275a0543f",
        ),
        Workload(
            "z8-multiround",
            "multiround",
            "configs/z8_rep3.json",
            (),
            "b74cb22ef47e53fe67c658f7c289d0cabf2f9efaeaf2e06bd78b9a3a074980f6",
        ),
        Workload(
            "ref-multiround",
            "multiround",
            "benchmarks/configs/ref_multiround.json",
            (),
            "14be484147da19465fb7c6e35ba346c7c23d16a3f6c7d0eac87362e3dfd6809e",
        ),
    )
}

# the smoke size used by the benchmark's own tests; no pinned digest applies
TINY = {"trials": 2, "rounds": 3}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


class CheckError(Exception):
    """A job's output is wrong; the job counts as failed."""


LAYER_MODULES = ("cli", "noise", "decoder", "tanner", "gf2")


def import_program() -> dict:
    """Import qtanner's layer modules from this checkout's ``src``, never
    from elsewhere; returns them by short name."""
    src = ROOT / "src"
    if not (src / "qtanner" / "cli.py").is_file():
        raise SetupError(f"program source not found: {src / 'qtanner'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {k: importlib.import_module(f"qtanner.{k}") for k in LAYER_MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"qtanner was imported from {where}, not from {src}")
    return mods


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_config(workload: Workload, tiny: bool) -> dict:
    path = ROOT / workload.config
    if not path.is_file():
        raise SetupError(f"workload config not found: {path}")
    with open(path) as fh:
        cfg = json.load(fh)
    if tiny:
        cfg.update(TINY)
    return cfg


# ---------------------------------------------------------------- output check


def _decoder_labels(cfg: dict) -> list[tuple[str, str]]:
    out = []
    for spec in cfg.get("decoders", [{"kind": "sequential", "eps": "1/2"}]):
        if spec["kind"] == "sequential":
            out.append(("sequential", f"eps={Fraction(spec.get('eps', '1/2'))}"))
        else:
            out.append(("parallel", f"k={int(spec.get('k', 1))}"))
    return out


def _expect(cond: bool, what: str, row_no: int) -> None:
    if not cond:
        raise CheckError(f"CSV row {row_no}: {what}")


def check_csv(path, command: str, cfg: dict, seed: int) -> int:
    """Validate a job's CSV against its config and seed; returns the
    number of noisy decodes it records."""
    canon = json.dumps(dict(cfg, seed=seed), sort_keys=True, separators=(",", ":"))
    want_header = [
        f"# config_hash={hashlib.sha256(canon.encode()).hexdigest()}",
        "# rng=philox4x64",
        f"# seed={seed}",
    ]
    with open(path, newline="") as fh:
        header = [fh.readline().rstrip("\n") for _ in want_header]
        if header != want_header:
            raise CheckError(f"CSV header {header} != {want_header}")
        rows = csv.DictReader(fh)
        if command == "sweep":
            return _check_sweep_rows(rows, cfg)
        return _check_multiround_rows(rows, cfg)


def _check_common(row: dict, row_no: int, decoder: tuple[str, str], p: float, q: float) -> None:
    _expect((row["decoder"], row["param"]) == decoder, f"decoder {row['decoder']} {row['param']}", row_no)
    _expect(float(row["p"]) == p and float(row["q"]) == q, f"p, q = {row['p']}, {row['q']}", row_no)
    for key in ("e_weight", "d_weight", "d_vertex_support", "residual_weight"):
        _expect(int(row[key]) >= 0, f"{key} = {row[key]}", row_no)


def _check_sweep_rows(rows, cfg: dict) -> int:
    decoders = _decoder_labels(cfg)
    noise = cfg.get("noise", {})
    grid = cfg.get("grid") or [{}]
    trials = int(cfg["trials"])
    it = iter(rows)
    n = 0
    for pi, point in enumerate(grid):
        p = float(point.get("p", noise["data"]["p"]))
        q = float(point.get("q", noise["syndrome"]["q"]))
        for ti in range(trials):
            paired = None
            for dec in decoders:
                row = next(it, None)
                n += 1
                _expect(row is not None, "missing", n)
                _check_common(row, n, dec, p, q)
                _expect(int(row["seed"]) == (pi << 20) | ti, f"seed {row['seed']}", n)
                _expect(row["failure_class"] in CLASSES, f"class {row['failure_class']!r}", n)
                _expect(
                    0 <= int(row["residual_reduced_proxy"]) <= int(row["residual_weight"]),
                    "reduced weight above residual weight",
                    n,
                )
                _expect(float(row["ms"]) == 0.0, "timing recorded", n)
                sample = (row["e_weight"], row["d_weight"], row["d_vertex_support"])
                _expect(paired in (None, sample), "decoders not paired on one sample", n)
                paired = sample
    _expect(next(it, None) is None, "extra rows", n + 1)
    return n


def _check_multiround_rows(rows, cfg: dict) -> int:
    dec = _decoder_labels(cfg)[0]
    noise = cfg["noise"]
    p, q = float(noise["data"]["p"]), float(noise["syndrome"]["q"])
    trials, rounds = int(cfg["trials"]), int(cfg["rounds"])
    it = iter(rows)
    n = 0
    for ti in range(trials):
        for r in [str(i) for i in range(1, rounds + 1)] + ["final"]:
            row = next(it, None)
            n += 1
            _expect(row is not None, "missing", n)
            _check_common(row, n, dec, p, q)
            _expect(row["trial"] == row["seed"] == str(ti), f"trial {row['trial']}", n)
            _expect(row["round"] == r, f"round {row['round']} (want {r})", n)
            want = CLASSES if r == "final" else ("",)
            _expect(row["failure_class"] in want, f"class {row['failure_class']!r}", n)
    _expect(next(it, None) is None, "extra rows", n + 1)
    return trials * rounds


# ---------------------------------------------------------------- measuring


@dataclass
class Job:
    wall_s: float  # the cli.main call, as timed
    busy_s: float  # the same without probe time, at nominal machine speed
    decodes: int


class Runner:
    """Runs one workload's job repeatedly and checks every output."""

    def __init__(self, prog: dict, workload: Workload, seed: int, tiny: bool, out_dir: Path):
        self.prog = prog
        self.workload = workload
        self.seed = seed
        self.cfg = load_config(workload, tiny)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = ROOT / workload.config
        if tiny:
            cfg_path = out_dir / f"{workload.name}-tiny-{os.getpid()}.json"
            cfg_path.write_text(json.dumps(self.cfg))
        self.cfg_path = cfg_path
        self.tiny = tiny
        self.csv_path = out_dir / f"{workload.name}-{os.getpid()}.csv"
        self.spans_path = out_dir / f"{workload.name}.spans.csv"
        self.argv = [
            workload.command, "-c", str(cfg_path), *workload.flags,
            "--workers", "1", "--seed", str(seed), "-o", str(self.csv_path),
        ]
        self.want_sha = workload.pinned_sha256 if seed == DEFAULT_SEED and not tiny else None
        self.attempted = 0
        self.failures: list[str] = []  # one message per failed job

    def cleanup(self) -> None:
        for path in (self.csv_path, self.cfg_path if self.tiny else None):
            if path is not None:
                path.unlink(missing_ok=True)

    def _attempt(self, fn):
        """Run one job; a wrong output or a crash in the program fails
        the job (recorded, result None), not the run."""
        self.attempted += 1
        try:
            return fn()
        except CheckError as exc:
            self.failures.append(str(exc))
        except Exception:
            self.failures.append(traceback.format_exc())
        return None

    def _check_output(self, rc: int, stderr: str) -> int:
        """Raise CheckError unless the job succeeded and wrote the expected
        CSV; returns the number of noisy decodes it records."""
        if rc != 0:
            raise CheckError(f"cli.main returned {rc}: {stderr.strip()}")
        sha = sha256_file(self.csv_path)
        if self.want_sha is None:
            self.want_sha = sha
        elif sha != self.want_sha:
            raise CheckError(f"CSV sha256 {sha} != expected {self.want_sha}")
        return check_csv(self.csv_path, self.workload.command, self.cfg, self.seed)

    def job(self, tracer: tracing.Tracer | None = None, probe: SpeedProbe | None = None) -> Job | None:
        """One checked ``cli.main`` call in this process."""
        return self._attempt(lambda: self._job(tracer, probe))

    def _job(self, tracer, probe) -> Job:
        cli = self.prog["cli"]
        gc.collect()
        if tracer is None and tracer_leftovers(self.prog):
            raise CheckError(f"untraced job sees wrappers: {tracer_leftovers(self.prog)}")
        err = io.StringIO()
        installed = tracer.installed() if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stderr(err), installed:
            t0 = time.perf_counter()
            rc = cli.main(self.argv)
            t1 = time.perf_counter()
        wall = t1 - t0
        busy = probe.nominal_seconds(t0, t1) if probe is not None else wall
        if tracer is not None and tracer_leftovers(self.prog):
            raise CheckError(f"wrappers left after traced job: {tracer_leftovers(self.prog)}")
        return Job(wall, busy, self._check_output(rc, err.getvalue()))

    def peak_rss_mb(self) -> float | None:
        """Peak RSS of a fresh process that runs one checked job."""
        return self._attempt(self._peak_rss_mb)

    def _peak_rss_mb(self) -> float:
        src = ROOT / "src"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(src), *self.argv],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise CheckError(f"peak-RSS process exited with {proc.returncode}: {proc.stderr[-4000:]}")
        info = json.loads(proc.stdout.splitlines()[-1])
        if src.resolve() not in Path(info["imported_from"]).resolve().parents:
            raise CheckError(f"peak-RSS process imported qtanner from {info['imported_from']}")
        self._check_output(info["rc"], proc.stderr)
        return info["peak_rss_kb"] / 1024.0

    def setup_s(self, probe: SpeedProbe) -> float:
        """Median time of a fresh build plus local codeword cache, at
        nominal machine speed."""
        cli, decoder = self.prog["cli"], self.prog["decoder"]
        cfg = dict(self.cfg, seed=self.seed)
        times: list[float] = []
        deadline = time.perf_counter() + SETUP_BUDGET_S
        while len(times) < SETUP_MIN_REPS or (
            time.perf_counter() < deadline and len(times) < SETUP_MAX_REPS
        ):
            t0 = time.perf_counter()
            code, _ = cli.build_instance(cfg)
            decoder.get_cache(code)
            times.append(probe.nominal_seconds(t0, time.perf_counter()))
            del code
        return statistics.median(times)


def tracer_leftovers(prog: dict) -> list[str]:
    return tracing.Tracer(prog).wrapped_names()


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run jobs for ``seconds``; returns (metrics, per-job detail)."""
    if trace:
        return _measure_traced(runner, seconds)
    peak = runner.peak_rss_mb()
    jobs: list[Job] = []
    with SpeedProbe() as probe:
        setup = runner.setup_s(probe)
        before = runner.attempted
        start = time.perf_counter()
        while runner.attempted == before or time.perf_counter() - start < seconds:
            job = runner.job(probe=probe)
            if job is not None:
                jobs.append(job)
    rates = [j.decodes / j.busy_s for j in jobs]
    detail = {
        "jobs": len(jobs),
        "decodes_per_job": jobs[0].decodes if jobs else 0,
        "csv_sha256": runner.want_sha,
        "decodes_per_s_quartiles": _quartiles(rates),
        "wall_decodes_per_s_median": statistics.median(j.decodes / j.wall_s for j in jobs) if jobs else 0,
        "probe_median_s": probe.median_probe_s(),
        "probe_samples": len(probe.samples),
        "wall_s": [j.wall_s for j in jobs],
    }
    metrics = {
        "decodes_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak or 0.0, "MB"),
    }
    return metrics, detail


def _measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced jobs; per-layer metrics from the
    traced ones, overhead from the two medians of wall time."""
    walls: list[float] = []
    traced_walls: list[float] = []
    stats = tracing.LayerStats()
    start = time.perf_counter()
    while runner.attempted == 0 or time.perf_counter() - start < seconds:
        job = runner.job()
        if job is not None:
            walls.append(job.wall_s)
        tr = tracing.Tracer(runner.prog)
        tjob = runner.job(tracer=tr)
        if tjob is None:
            continue
        if not stats.add(tr):
            runner.failures.append("traced counts differ between identical jobs")
            continue
        if stats.jobs == 1:
            tr.write_spans(runner.spans_path)
        traced_walls.append(tjob.wall_s)
    detail = {"jobs": len(walls), "traced_jobs": stats.jobs, "csv_sha256": runner.want_sha}
    units = dict(per_layer_units())
    values = dict.fromkeys(units, 0.0)
    if walls and traced_walls:
        values |= stats.metrics()
        values["trace.overhead_share"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        detail["spans_file"] = str(runner.spans_path)
    return {name: (values[name], units[name]) for name in units}, detail


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.us_p50", "us"),
                (f"{name}.us_p99", "us"), (f"{name}.self_share", "ratio")]
    for name in tracing.COUNTERS:
        out.append((name, "ratio" if name.endswith("_ratio") else "count"))
    out.append(("trace.overhead_share", "ratio"))
    return out


# ---------------------------------------------------------------- provenance


def provenance(load_at_start: tuple) -> dict:
    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    is_repo = (ROOT / ".git").exists()
    commit = git("rev-parse", "HEAD") if is_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if is_repo else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qtanner").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(load_at_start),
        "config_sha256": {
            w.name: sha256_file(ROOT / w.config) for w in WORKLOADS.values()
        },
    }


# ---------------------------------------------------------------- entry points


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path = OUT_DIR) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail line)."""
    load = os.getloadavg()
    prog = import_program()
    runner = Runner(prog, WORKLOADS[name], seed, tiny, out_dir)
    try:
        metrics, detail = measure(runner, seconds, trace)
    finally:
        runner.cleanup()
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "detail": detail,
        "failures": runner.failures,
        "provenance": provenance(load),
    }
    return result, info


def run_all(seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    """Each workload in a fresh process, so each peak RSS is its own."""
    results = {}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: benchmark process failed with exit code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        results[name] = {"result": result, "seed": seed, "provenance": info["provenance"],
                         "failures": info["failures"]}
        for metric, mv in result["metrics"].items():
            rows.append((name, metric, mv["value"], mv["unit"]))
        rows.append((name, "failed/attempted", f"{result['failed']}/{result['attempted']}", "jobs"))
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<15} {metric:<{width}} {shown:>14} {unit}")
    ok = all(r["result"]["correct"] for r in results.values())
    print(json.dumps(results, sort_keys=True))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload, one process each")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help=f"smoke size {TINY} for the benchmark's own tests (no pinned digest)")
    args = ap.parse_args(argv)
    try:
        if args.all:
            import_program()
            return run_all(args.seed, args.seconds, bool(args.trace), args.tiny)
        result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    for msg in info["failures"]:
        print(f"failed job: {msg}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
