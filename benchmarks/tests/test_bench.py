"""Tests of the benchmark itself, at tiny trial and round counts.

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

EXACT = tuple(f"{n}.calls" for n in tracing.SPAN_NAMES) + tracing.COUNTERS


def _exact(result: dict) -> dict:
    return {k: result["metrics"][k]["value"] for k in EXACT}


@pytest.fixture
def prog():
    return bench.import_program()


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_exact_counts_repeat_across_runs(workload, tmp_path):
    first, _ = bench.run_workload(workload, 5, 0, trace=True, tiny=True, out_dir=tmp_path)
    second, _ = bench.run_workload(workload, 5, 0, trace=True, tiny=True, out_dir=tmp_path)
    assert first["correct"] and second["correct"]
    assert _exact(first) == _exact(second)
    assert first["metrics"]["decoder.decodes"]["value"] > 0
    assert first["metrics"]["cli.main.calls"]["value"] == 1


def test_wrappers_removed_after_traced_run(prog, tmp_path):
    originals = {name: getattr(mod, attr) for name, mod, attr in tracing.Tracer(prog).targets()}
    result, _ = bench.run_workload("z8-multiround", 2, 0, trace=True, tiny=True, out_dir=tmp_path)
    assert result["correct"]
    for name, mod, attr in tracing.Tracer(prog).targets():
        assert getattr(mod, attr) is originals[name], name
    assert bench.tracer_leftovers(prog) == []

    runner = bench.Runner(prog, bench.WORKLOADS["z8-multiround"], 2, True, tmp_path)
    tr = tracing.Tracer(prog)
    assert runner.job(tr) is not None
    n_spans = len(tr.spans)
    assert n_spans > 0
    assert runner.job() is not None
    assert len(tr.spans) == n_spans  # the untraced job recorded nothing
    assert runner.failures == []


def test_untraced_job_refuses_to_run_wrapped(prog, tmp_path):
    runner = bench.Runner(prog, bench.WORKLOADS["z8-multiround"], 2, True, tmp_path)
    with tracing.Tracer(prog).installed():
        assert runner.job() is None
    assert "sees wrappers" in runner.failures[0]


def test_trace_id_is_csv_seed_column(prog, tmp_path):
    runner = bench.Runner(prog, bench.WORKLOADS["ref-sweep"], 4, True, tmp_path)
    tr = tracing.Tracer(prog)
    assert runner.job(tr) is not None
    with open(runner.csv_path) as fh:
        seeds = {int(r["seed"]) for r in csv.DictReader(ln for ln in fh if not ln.startswith("#"))}
    trial_ids = {s.trace_id for s in tr.spans if s.name == "noise.run_single_shot_trial"}
    assert trial_ids == seeds
    assert {s.trace_id for s in tr.spans if s.name in tracing.UNSCOPED} == {None}


def test_output_check_rejects_wrong_csv(prog, tmp_path):
    runner = bench.Runner(prog, bench.WORKLOADS["z8-multiround"], 3, True, tmp_path)
    assert runner.job() is not None
    lines = runner.csv_path.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace(",1,", ",2,", 1)  # first data row: round 1 -> 2
    runner.csv_path.write_text("".join(lines))
    with pytest.raises(bench.CheckError):
        bench.check_csv(runner.csv_path, "multiround", runner.cfg, 3)

    pinned = bench.Runner(prog, bench.WORKLOADS["z8-multiround"], 3, True, tmp_path)
    pinned.want_sha = "0" * 64
    assert pinned.job() is None
    assert "sha256" in pinned.failures[0]


def test_one_command_prints_every_metric_per_workload():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--all", "--tiny", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            assert any(ln.split()[:2] == [w["name"], m["name"]] and ln.split()[-1] == m["unit"]
                       for ln in lines), (w["name"], m["name"])
    summary = json.loads(lines[-1])
    assert all(summary[w["name"]]["result"]["failed"] == 0 for w in spec["workloads"])


def test_spec_matches_benchmark():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"decodes_per_s", "setup_s", "peak_rss_mb"}


def test_ref_multiround_config_only_reorders_decoders():
    ref = json.loads((BENCH_DIR.parent / "configs" / "reference.json").read_text())
    own = json.loads((BENCH_DIR / "configs" / "ref_multiround.json").read_text())
    assert own["decoders"] == ref["decoders"][::-1]
    assert dict(own, decoders=None) == dict(ref, decoders=None)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ref-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nominal_seconds_removes_probes_and_rescales():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_S
    # probes at 0 (nominal speed), 1.0 (half speed) and 2.0 (nominal again)
    probe.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, nominal)]
    # [0.5, 1.0] runs at the speed of the probe at 0, [1.0 + probe, 1.5] at half speed
    assert probe.nominal_seconds(0.5, 1.5) == pytest.approx(0.5 + (0.5 - 2 * nominal) / 2)
    # an interval with no probe inside is scaled by the last probe before it
    assert probe.nominal_seconds(1.2, 1.4) == pytest.approx(0.1)
