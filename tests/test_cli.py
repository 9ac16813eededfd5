"""End-to-end CLI behavior: configs, exit codes, CSV determinism."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qtanner import cli, decoder, noise, tanner

import scalar_decoder

ROOT = Path(__file__).resolve().parents[1]

Z8_INSTANCE = {
    "group": {"kind": "cyclic", "m": 8},
    "a_gens": [1, 7, 4],
    "b_gens": [1, 7, 4],
    "local_codes": {"kind": "named", "a": "rep", "b": "rep"},
}


def _no_pool(*args, **kwargs):
    raise AssertionError("trials ran")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"instance": Z8_INSTANCE, "seed": 3, "trials": 5}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestBuild:
    def test_default_reference_instance(self, capsys):
        assert cli.main(["build", "--skip-kappa"]) == 0
        out = capsys.readouterr().out
        assert "n = 208" in out
        assert "lambda2" in out

    def test_idempotent_summaries(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["build", "-c", cfg]) == 0
        first = capsys.readouterr().out
        assert cli.main(["build", "-c", cfg]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "kappa" in first

    def test_non_generating_set_exits_2(self, tmp_path, capsys):
        inst = dict(Z8_INSTANCE, a_gens=[2, 6, 4], b_gens=[2, 6, 4])
        cfg = write_config(tmp_path, instance=inst)
        assert cli.main(["build", "-c", cfg]) == 2
        assert "size 4" in capsys.readouterr().err

    def test_missing_config_exits_2(self):
        assert cli.main(["build", "-c", "/nonexistent.json"]) == 2


class TestInspect:
    def test_theory_report_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, delta="1/20")
        assert cli.main(["inspect", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "theory report:" in out
        assert "beta" in out and "alpha_k" in out
        assert "distance upper bound" in out


class TestExpansion:
    def test_kappa_both_sides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["expansion", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "kappa(C_A boxplus C_B)" in out

    def test_budget_refusal_exits_3(self, tmp_path):
        inst = {
            "group": {"kind": "cyclic", "m": 12},
            "a_gens": [1, 11, 2, 10, 6],
            "b_gens": [1, 11, 2, 10, 6],
            "local_codes": {"kind": "named", "a": "rep", "b": "par"},
        }
        cfg = write_config(tmp_path, instance=inst)
        assert cli.main(["expansion", "-c", cfg]) == 3


class TestDecodeOne:
    def test_explicit_zero_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["decode-one", "-c", cfg, "--error", "0" * 72]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["failure_class"] == "corrected"
        assert rec["residual_weight"] == 0

    def test_explicit_single_error_corrected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        err = "1" + "0" * 71
        assert cli.main(["decode-one", "-c", cfg, "--error", err]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["failure_class"] == "corrected"

    def test_length_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["decode-one", "-c", cfg, "--error", "101"]) == 2
        assert cli.main(["decode-one", "-c", cfg, "--syndrome-error", "1"]) == 2

    def test_explicit_syndrome_flip_residual_within_one_view(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        # Z8/rep3 instance has 4 checks per V1 vertex; flip one check bit
        n_checks = 2 * 8 * 4
        flip = "1" + "0" * (n_checks - 1)
        assert cli.main(["decode-one", "-c", cfg, "--syndrome-error", flip]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["e_weight"] == 0
        assert rec["d_weight"] == 1
        assert rec["residual_weight"] <= 9  # delta^2

    @pytest.mark.parametrize("noise_obj", [
        {"data": {"kind": "bernoulli", "p": 0.05}, "syndrome": {"kind": "bernoulli", "q": 0.05}},
        {"data": {"kind": "adversarial", "w": 3, "persistence": 0.5},
         "syndrome": {"kind": "vertex_bounded", "t": 2}},
    ], ids=["bernoulli", "adversarial"])
    def test_drawn_sample_is_stream_0_of_the_seed(self, tmp_path, capsys, noise_obj):
        # without --error, the printed record is the first decoder's
        # single-shot trial on stream 0 of the config's seed
        cfg = write_config(tmp_path, noise=noise_obj,
                           decoders=[{"kind": "parallel", "k": 2}, {"kind": "sequential"}])
        assert cli.main(["decode-one", "-c", cfg]) == 0
        exp = cli.load_config(cfg)
        code, iid = cli.build_instance(exp.raw)
        [rec] = noise.run_single_shot_trial(code, exp.noise, exp.decoders[:1], exp.seed, 0, iid)
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(rec._asdict()))
        assert rec.e_weight + rec.d_weight > 0 and rec.param == "k=2"

    def test_step_log_written(self, tmp_path):
        cfg = write_config(
            tmp_path,
            noise={"data": {"kind": "adversarial", "w": 6}, "syndrome": {}},
            decoders=[{"kind": "sequential", "eps": "1/2"}],
        )
        log = tmp_path / "steps.jsonl"
        assert cli.main(["decode-one", "-c", cfg, "--step-log", str(log)]) == 0
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        for entry in lines:
            assert set(entry) == {"step", "vertex", "class", "|x|", "before", "after"}
            assert entry["after"] < entry["before"]

    def test_step_log_decodes_once(self, tmp_path, monkeypatch):
        # the printed record and the step log come from one decode
        calls = []
        real = decoder.initial_mismatch

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(decoder, "initial_mismatch", counting)
        cfg = write_config(
            tmp_path, noise={"data": {"kind": "adversarial", "w": 6}, "syndrome": {}}
        )
        log = tmp_path / "steps.jsonl"
        assert cli.main(["decode-one", "-c", cfg, "--step-log", str(log)]) == 0
        assert len(calls) == 1

    # a weight-7 Z8/rep_3 error both decoders remove in four steps: two
    # V00 steps in one class step, and vertex 1 stepped again later
    PINNED_ERROR = [9, 15, 39, 54, 60, 61, 68]
    PINNED_STEPS = (
        '{"after": 7, "before": 9, "class": 0, "step": 0, "vertex": 1, "|x|": 4}\n'
        '{"after": 5, "before": 7, "class": 0, "step": 1, "vertex": 6, "|x|": 4}\n'
        '{"after": 3, "before": 5, "class": 2, "step": 2, "vertex": 21, "|x|": 4}\n'
        '{"after": 0, "before": 3, "class": 0, "step": 3, "vertex": 1, "|x|": 3}\n'
    )

    @pytest.mark.parametrize("spec, param", [
        ({"kind": "sequential", "eps": "1/2"}, "eps=1/2"),
        ({"kind": "parallel", "k": 4}, "k=4"),
    ])
    def test_record_and_step_log_pinned(self, tmp_path, capsys, spec, param):
        cfg = write_config(tmp_path, decoders=[spec])
        error = "".join("1" if q in self.PINNED_ERROR else "0" for q in range(72))
        log = tmp_path / "steps.jsonl"
        assert cli.main(["decode-one", "-c", cfg, "--error", error, "--step-log", str(log)]) == 0
        assert capsys.readouterr().out == (
            '{"d_vertex_support": 0, "d_weight": 0, "decoder": "%s", "e_weight": 7, '
            '"failure_class": "corrected", "instance_id": "079c97a1baa3", "ms": 0.0, '
            '"p": 0.0, "param": "%s", "q": 0.0, "residual_reduced_proxy": 0, '
            '"residual_weight": 0, "seed": 0}\n' % (spec["kind"], param))
        assert log.read_text() == self.PINNED_STEPS


class TestSweep:
    def test_csv_written_and_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            noise={"data": {"kind": "bernoulli", "p": 0.02},
                   "syndrome": {"kind": "bernoulli", "q": 0.01}},
            decoders=[{"kind": "sequential", "eps": "1/2"},
                      {"kind": "parallel", "k": 3}],
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "-c", cfg, "-o", str(out1), "--workers", "1"]) == 0
        assert cli.main(["sweep", "-c", cfg, "-o", str(out2), "--workers", "1"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text().splitlines()
        assert text[0].startswith("# config_hash=")
        assert text[1] == "# rng=philox4x64"

    def test_worker_count_division_invariant(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trials=4,
            noise={"data": {"kind": "bernoulli", "p": 0.02}, "syndrome": {}},
        )
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert cli.main(["sweep", "-c", cfg, "-o", str(out1), "--workers", "1"]) == 0
        assert cli.main(["sweep", "-c", cfg, "-o", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # per-trial rows: 7 trials in uneven chunks (2, 2, 3) at each of 2 points
        cfg = write_config(
            tmp_path,
            name="pt.json",
            trials=7,
            grid=[{"p": 0.01, "q": 0.005}, {"p": 0.03, "q": 0.01}],
            decoders=[{"kind": "sequential", "eps": "1/2"}, {"kind": "parallel", "k": 2}],
        )
        out1, out3 = tmp_path / "pt1.csv", tmp_path / "pt3.csv"
        for out, workers in ((out1, "1"), (out3, "3")):
            assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", workers,
                             "--per-trial"]) == 0
        assert out1.read_bytes() == out3.read_bytes()
        assert len(out1.read_text().splitlines()) == 4 + 2 * 7 * 2

    def test_bad_decoder_spec_exits_2_before_workers_start(self, tmp_path):
        cfg = write_config(tmp_path, decoders=[{"kind": "bogus"}])
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", "2"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--trials", str(1 << 20)], "trials must be in"), (["--seed", "-1"], "seed -1")],
    )
    def test_stream_overflow_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                      flags, message):
        monkeypatch.setattr(cli, "_run_pool", _no_pool)
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", "1", *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_per_trial_rows_paired_on_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trials=3,
            noise={"data": {"kind": "bernoulli", "p": 0.02}, "syndrome": {}},
            decoders=[{"kind": "sequential", "eps": "1/2"},
                      {"kind": "parallel", "k": 2}],
        )
        out = tmp_path / "t.csv"
        assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", "1",
                         "--per-trial"]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        header, data = rows[0], rows[1:]
        seed_col = header.index("seed")
        dec_col = header.index("decoder")
        seq = [r[seed_col] for r in data if r[dec_col] == "sequential"]
        par = [r[seed_col] for r in data if r[dec_col] == "parallel"]
        assert seq == par and len(seq) == 3

    def test_record_timing_fills_only_the_ms_column(self, tmp_path):
        spec = dict(
            trials=4,
            grid=[{"p": 0.01, "q": 0.01}, {"p": 0.03, "q": 0.01}],
            decoders=[{"kind": "sequential", "eps": "1/2"}, {"kind": "parallel", "k": 2}],
        )
        tables = {}
        for timing in (False, True):
            cfg = write_config(tmp_path, name=f"t{timing}.json", record_timing=timing, **spec)
            out = tmp_path / f"t{timing}.csv"
            assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", "1",
                             "--per-trial"]) == 0
            lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            tables[timing] = [l.split(",") for l in lines[1:]]
        ms = lines[0].split(",").index("ms")
        timed, untimed = tables[True], tables[False]
        assert len(timed) == len(untimed) == 2 * 4 * 2
        assert all(float(r[ms]) > 0 for r in timed)
        assert all(float(r[ms]) == 0 for r in untimed)
        assert [r[:ms] + r[ms + 1:] for r in timed] == [r[:ms] + r[ms + 1:] for r in untimed]
        # each point is its own timed block: one ms per (point, decoder),
        # which can differ between the points
        by_point = {}
        for r in timed:
            by_point.setdefault((r[1], r[3]), set()).add(r[ms])
        assert len(by_point) == 2 * 2 and all(len(v) == 1 for v in by_point.values())
        assert len({by_point["sequential", p].pop() for p in ("0.01", "0.03")}) == 2

    def test_grid_points(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trials=2,
            grid=[{"p": 0.0, "q": 0.0}, {"p": 0.05, "q": 0.01}],
        )
        out = tmp_path / "g.csv"
        assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", "1"]) == 0
        data = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and l and not l.startswith("instance_id")]
        assert len(data) == 2  # one aggregate row per grid point


# seed-1 multiround CSV digests and stderr summaries on the shipped
# configs and on two Z8 configs with persistent adversarial data noise,
# one with vertex-bounded and one with adversarial syndrome noise (their
# p and q columns read 2.0): a refactor of the multi-round path must
# keep them byte for byte.  The full-size Z8 run (200 trials) is the
# benchmark's z8-multiround digest.
Z8_ADVERSARIAL_MULTIROUND = dict(
    rounds=30,
    decoders=[{"kind": "parallel", "k": 4}],
    noise={"data": {"kind": "adversarial", "w": 2, "persistence": 0.5},
           "syndrome": {"kind": "vertex_bounded", "t": 2}},
)
Z8_MULTIROUND_CONFIGS = {
    "z8_adversarial": Z8_ADVERSARIAL_MULTIROUND,
    "z8_adversarial_syndrome": dict(
        Z8_ADVERSARIAL_MULTIROUND,
        noise={"data": {"kind": "adversarial", "w": 2, "persistence": 0.5},
               "syndrome": {"kind": "adversarial", "s": 2}}),
}
MULTIROUND_PINS = [
    ("configs/z8_rep3.json", 200,
     "b74cb22ef47e53fe67c658f7c289d0cabf2f9efaeaf2e06bd78b9a3a074980f6",
     "200 trials x 100 rounds; residual slope 0.00721728 [0.00629265, 0.00814191]; "
     "final corrected 187/200"),
    ("configs/z8_rep3.json", 8,
     "7d371d58d164d74f65d21ec16f7adbd574f6e8ffe5908d0c90eb024c9aa498a6",
     "8 trials x 100 rounds; residual slope 0.000405041 [-0.000581474, 0.00139156]; "
     "final corrected 8/8"),
    ("benchmarks/configs/ref_multiround.json", 4,
     "ac01bd14c8fc4d44c9ace689c23d6db3831f2237edf4edd732ed3371d514ff0f",
     "4 trials x 50 rounds; residual slope 0.742017 [0.672747, 0.811286]; "
     "final corrected 0/4"),
    # the benchmark's own job and pin: its readout moves some trials
    ("benchmarks/configs/ref_multiround.json", 200,
     "14be484147da19465fb7c6e35ba346c7c23d16a3f6c7d0eac87362e3dfd6809e",
     "200 trials x 50 rounds; residual slope 0.65826 [0.649331, 0.667189]; "
     "final corrected 0/200"),
    ("z8_adversarial", 40,
     "83d8515e67f8c1c6f6cd57fface424631b9f832c009288bab648c0cd7a5d2ac0",
     "40 trials x 30 rounds; residual slope 0.596657 [0.543761, 0.649554]; "
     "final corrected 8/40"),
    ("z8_adversarial_syndrome", 40,
     "5a0fb07717d9085fd8f85dd7aebea871436b8d9342039a15ce3cd3a1276b403b",
     "40 trials x 30 rounds; residual slope 0.447414 [0.404233, 0.490595]; "
     "final corrected 15/40"),
]


class TestMultiround:
    def test_m1_reduces_to_single_shot_plus_final(self, tmp_path):
        cfg = write_config(tmp_path, rounds=1, trials=2)
        out = tmp_path / "m.csv"
        assert cli.main(["multiround", "-c", cfg, "-o", str(out), "--workers", "1"]) == 0
        data = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("instance_id")]
        assert len(data) == 2 * 2  # per trial: one round row + one final row
        assert sum(1 for l in data if ",final," in l) == 2

    def test_zero_noise_all_residuals_zero(self, tmp_path):
        cfg = write_config(tmp_path, rounds=20, trials=3)
        out = tmp_path / "z.csv"
        assert cli.main(["multiround", "-c", cfg, "-o", str(out), "--workers", "1"]) == 0
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("instance_id"):
                continue
            fields = line.split(",")
            assert fields[10] == "0"  # residual_weight column

    def test_rounds_below_one_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, rounds=0)
        assert cli.main(["multiround", "-c", cfg, "--workers", "1",
                         "-o", str(tmp_path / "x.csv")]) == 2

    def test_negative_seed_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_run_pool", _no_pool)
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, rounds=2)
        assert cli.main(["multiround", "-c", cfg, "-o", str(out), "--workers", "1",
                         "--seed", "-1"]) == 2
        assert "seed -1" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_count_division_invariant(self, tmp_path):
        # 7 trials over 2 workers: two lockstep batches of 3 and 4 trials
        cfg = write_config(tmp_path, rounds=6, trials=7,
                           noise={"data": {"kind": "bernoulli", "p": 0.02},
                                  "syndrome": {"kind": "bernoulli", "q": 0.01}},
                           decoders=[{"kind": "parallel", "k": 3}])
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert cli.main(["multiround", "-c", cfg, "-o", str(out1), "--workers", "1"]) == 0
        assert cli.main(["multiround", "-c", cfg, "-o", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        trials = {l.split(",")[5] for l in out1.read_text().splitlines()[4:]}
        assert trials == {str(t) for t in range(7)}

    def test_slope_summary_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=5, trials=2,
                           noise={"data": {"kind": "bernoulli", "p": 0.01},
                                  "syndrome": {"kind": "bernoulli", "q": 0.01}})
        out = tmp_path / "s.csv"
        assert cli.main(["multiround", "-c", cfg, "-o", str(out), "--workers", "1"]) == 0
        err = capsys.readouterr().err
        assert "residual slope" in err and "final corrected" in err

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("config, trials, digest, summary", MULTIROUND_PINS)
    def test_csv_and_summary_pinned(self, tmp_path, capsys, workers, config, trials, digest,
                                    summary):
        if config in Z8_MULTIROUND_CONFIGS:
            path = write_config(tmp_path, **Z8_MULTIROUND_CONFIGS[config])
        else:
            path = str(ROOT / config)
        out = tmp_path / "m.csv"
        assert cli.main(["multiround", "-c", path, "-o", str(out), "--seed", "1",
                         "--trials", str(trials), "--workers", str(workers)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().err == f"wrote {out}: {summary}\n"


@pytest.mark.parametrize("command", ["multiround", "sweep"])
@pytest.mark.parametrize("trials, workers, pools", [(1, 3, []), (2, 8, [2]), (7, 2, [2]),
                                                    (0, 4, []), (5, 1, [])])
def test_pool_has_no_more_workers_than_chunks(tmp_path, monkeypatch, command, trials, workers,
                                              pools):
    # each pool process builds the instance: no more of them than chunks,
    # and none for one chunk (trials 0 still make one, empty, chunk)
    opened = []

    class RecordingPool:
        """Runs the tasks in this process, recording the pool size asked for."""

        def __init__(self, max_workers, initializer, initargs):
            opened.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path, rounds=2, trials=trials)
    assert cli.main([command, "-c", cfg, "-o", str(tmp_path / "p.csv"),
                     "--workers", str(workers)]) == 0
    assert opened == pools


# seed-1 `sweep --per-trial` CSV digests and stderr summaries: the
# reference config at full size (the benchmark's ref-sweep digest) and a
# Z8 config with adversarial and vertex-bounded noise; sweeping trial
# blocks in lockstep must keep them byte for byte
Z8_ADVERSARIAL_SWEEP = dict(
    trials=60,
    decoders=[{"kind": "sequential", "eps": "1/2"}, {"kind": "sequential", "eps": "1/3"},
              {"kind": "parallel", "k": 4}],
    noise={"data": {"kind": "adversarial", "w": 2, "persistence": 0.5},
           "syndrome": {"kind": "vertex_bounded", "t": 2}},
    grid=[{"w": 1}, {"w": 3}, {"w": 2, "s": 2}],
)
SWEEP_PINS = [
    ("reference", "a7353b1f42bb0c50e150f0427f81717d44a93c0d621e53157b8f078275a0543f",
     "1600 trial records, 4 points"),
    ("z8_adversarial", "dd5b14b1e242e743b366a83655be3e36ed963c2dd5c45c80150a656e2d3c2acd",
     "540 trial records, 3 points"),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("config, digest, summary", SWEEP_PINS)
def test_sweep_csv_and_summary_pinned(tmp_path, capsys, workers, config, digest, summary):
    if config == "reference":
        path = str(ROOT / "configs" / "reference.json")
    else:
        path = write_config(tmp_path, **Z8_ADVERSARIAL_SWEEP)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "-c", path, "--per-trial", "-o", str(out), "--seed", "1",
                     "--workers", str(workers)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().err == f"wrote {out}: {summary}\n"


# seed-1 aggregate `sweep` CSV digests (no --per-trial) of the two
# configs above, computed before the aggregate rows were summed from
# columns instead of records
SWEEP_AGGREGATE_PINS = [
    ("reference", "87cf151fdcc5e4501d92b64c5d8038c5de637d9b77d160a3c934617febe17532",
     "1600 trial records, 4 points"),
    ("z8_adversarial", "b02d740a3b25a1fb111d5c1d07c90f05b2369ac7f370fc74c96fee63ec857da8",
     "540 trial records, 3 points"),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("config, digest, summary", SWEEP_AGGREGATE_PINS)
def test_sweep_aggregate_csv_pinned(tmp_path, capsys, workers, config, digest, summary):
    if config == "reference":
        path = str(ROOT / "configs" / "reference.json")
    else:
        path = write_config(tmp_path, **Z8_ADVERSARIAL_SWEEP)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "-c", path, "-o", str(out), "--seed", "1",
                     "--workers", str(workers)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().err == f"wrote {out}: {summary}\n"


@pytest.mark.parametrize("flags, fields", [([], noise.POINT_CSV_FIELDS),
                                           (["--per-trial"], noise.TRIAL_CSV_FIELDS)])
def test_sweep_without_trials_writes_only_the_header(tmp_path, capsys, flags, fields):
    out = tmp_path / "e.csv"
    assert cli.main(["sweep", "-c", str(ROOT / "configs" / "reference.json"), *flags,
                     "-o", str(out), "--trials", "0", "--workers", "2"]) == 0
    lines = out.read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == [",".join(fields)]
    assert capsys.readouterr().err == f"wrote {out}: 0 trial records, 4 points\n"


def test_multiround_without_trials_writes_only_the_header(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert cli.main(["multiround", "-c", str(ROOT / "configs" / "reference.json"),
                     "-o", str(out), "--trials", "0", "--workers", "2"]) == 0
    lines = out.read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == [
        ",".join(noise.MULTIROUND_CSV_FIELDS)]
    assert capsys.readouterr().err == (f"wrote {out}: 0 trials x 50 rounds; residual slope "
                                       "0 [0, 0]; final corrected 0/0\n")


def test_reference_sweep_never_eliminates_h_x(tmp_path):
    # every seed-1 reference residual is zero or has a syndrome, so
    # classifying them needs no echelon form of H_X
    assert cli.main(["sweep", "-c", str(ROOT / "configs" / "reference.json"), "--per-trial",
                     "-o", str(tmp_path / "s.csv"), "--seed", "1", "--workers", "1"]) == 0
    assert "echelon_x" not in cli._WORKER["code"].__dict__


def test_trial_chunks_are_contiguous_and_balanced():
    assert cli._trial_chunks(7, 2) == [(0, 3), (3, 7)]
    assert cli._trial_chunks(2, 4) == [(0, 1), (1, 2)]
    assert cli._trial_chunks(5, 1) == [(0, 5)]
    assert cli._trial_chunks(0, 3) == [(0, 0)]


BAD_CONFIGS = [
    ({"noise": {"data": {"kind": "bernoulli", "p": 1.5}, "syndrome": {}}}, "noise p = 1.5"),
    ({"noise": {"data": {}, "syndrome": {"kind": "bernoulli", "q": -0.2}}}, "noise q = -0.2"),
    ({"trails": 50}, "'trails'"),
    ({"noise": {"data": {"kind": "bernoulli", "pp": 0.1}}}, "'pp'"),
    ({"noise": {"syndrome": {"kind": "bernoulli", "qq": 0.1}}}, "'qq'"),
    ({"noise": {"data": {"kind": "adversarial", "w": 2, "persistence": 1.5}}},
     "persistence = 1.5"),
    ({"noise": {"data": {"kind": "adversarial", "w": -1}}}, "noise w = -1"),
    ({"noise": {"data": {"kind": "adversarial", "w": 2.5}}}, "noise w = 2.5 is not a whole"),
    ({"noise": {"syndrome": {"kind": "adversarial", "s": -2}}}, "noise s = -2"),
    ({"noise": {"syndrome": {"kind": "vertex_bounded", "t": -1}}}, "noise t = -1"),
    ({"grid": [{"p": 0.01, "q": 1.01}]}, "noise q = 1.01"),
    ({"grid": [{"p": 0.01, "qq": 0.1}]}, "'qq'"),
    ({"decoders": [{"kind": "parallel", "k": 0}]}, "iteration count must be >= 1"),
    ({"decoders": [{"kind": "sequential", "eps": "3/2"}]}, "eps must be in (0, 1)"),
    # counts are whole numbers, not truncated; flags are booleans
    ({"trials": 2.7}, "trials = 2.7 is not a whole number"),
    ({"rounds": -0.5}, "rounds = -0.5 is not a whole number"),
    ({"seed": 2.5}, "seed = 2.5 is not a whole number"),
    ({"decoders": [{"kind": "parallel", "k": 2.9}]}, "decoder k = 2.9 is not a whole number"),
    ({"k_iters": 2.5}, "k_iters = 2.5 is not a whole number"),
    ({"record_timing": "no"}, "record_timing must be true or false"),
    ({"noise": {"data": {"kind": "bernoulli", "p": None}}}, "noise p = None is not a number"),
    # every nested object is checked against its kind's keys
    ({"decoders": [{"kind": "sequential", "epsilon": 0.3}]}, "'epsilon'"),
    ({"decoders": [{"kind": "parallel", "eps": "1/2"}]}, "'eps'"),
    ({"decoders": []}, "decoders must be a non-empty list"),
    ({"instance": dict(Z8_INSTANCE, side="z")}, "side must be one of"),
    ({"instance": dict(Z8_INSTANCE, a_gens=[1, 7, 4.7])}, "a_gens element = 4.7"),
    ({"instance": dict(Z8_INSTANCE, group={"kind": "cyclic", "m": 8.5})},
     "instance.group.m = 8.5"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "random", "dim_a": 1.5, "dim_b": 1})},
     "dim_a = 1.5"),
    ({"instance": dict(Z8_INSTANCE, b_gens=4)}, "b_gens must be a list"),
    ({"instance": dict(Z8_INSTANCE, sides="Z")}, "'sides'"),
    ({"instance": dict(Z8_INSTANCE, group={"kind": "cyclic", "m": 8, "order": 8})},
     "'order'"),
    ({"instance": dict(Z8_INSTANCE, group={"kind": "cyclc", "m": 8})}, "no kind in"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "named", "a": "rep", "b": "rep",
                                                 "c": "par"})}, "'c'"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "random", "dim_a": 1, "dim_b": 1,
                                                 "seeds": 3})}, "'seeds'"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "explicit",
                                                 "a": {"n": 3, "gen": ["111"], "k": 1},
                                                 "b": {"n": 3, "gen": ["111"]}})}, "'k'"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "explicit",
                                                 "a": {"n": 3.9, "gen": ["111"]},
                                                 "b": {"n": 3, "gen": ["111"]}})},
     "local_codes.a.n = 3.9"),
    # generator rows are bit strings of one length, a group table a square list of rows
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "explicit", "a": {"n": 3, "gen": [111]},
                                                 "b": {"n": 3, "gen": ["111"]}})},
     "instance.local_codes.a.gen must be a list of bit strings"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "explicit", "a": {"n": 3, "gen": ["111"]},
                                                 "b": {"n": 3, "gen": ["111", "1"]}})},
     "instance.local_codes.b.gen must be a list of bit strings of one length"),
    ({"instance": dict(Z8_INSTANCE, group={"kind": "table", "mul": 5})},
     "instance.group.mul is not a square table"),
    ({"instance": dict(Z8_INSTANCE, group={"kind": "table", "mul": [1, 2]})},
     "instance.group.mul is not a square table"),
    ({"instance": dict(Z8_INSTANCE, local_codes={"kind": "explicit", "a": {"n": 3, "gen": ["111"]},
                                                 "b": {"n": 3, "gen": ["121"]}})},
     "instance.local_codes.b.gen: invalid bit character '2'"),
    ({"instance": dict(Z8_INSTANCE, group={"kind": "table", "mul": [[0, 1], [1, "a"]]})},
     "instance.group.mul entry = 'a' is not a whole number"),
    # inspect's parameters are checked by every command
    ({"eps": "3/2"}, "eps must be in (0, 1)"),
    ({"delta": "1/0"}, "delta = '1/0' is not a number"),
    ({"output": 3}, "output must be a file name"),
    ({"grid": {"p": 0.01}}, "grid must be a list"),
    # each noise object takes only its kind's keys, and a grid point sets a
    # side's rate (bernoulli only) or its weight, not both
    ({"noise": {"syndrome": {"kind": "vertex_bounded", "t": 1, "s": 4}}}, "'s'"),
    ({"noise": {"data": {"kind": "bernoulli", "p": 0.01, "w": 2}}}, "'w'"),
    ({"noise": {"data": {"kind": "adversarial", "w": 2, "p": 0.01}}}, "'p'"),
    ({"noise": {"syndrome": {"kind": "adversarial", "s": 1, "q": 0.01}}}, "'q'"),
    ({"grid": [{"p": 0.01, "w": 2}]}, "sets both p and w"),
    ({"grid": [{"q": 0.01, "s": 2}]}, "sets both q and s"),
    ({"noise": {"data": {"kind": "adversarial", "w": 2}}, "grid": [{"p": 0.01}]},
     "sets rate p on adversarial data noise"),
    ({"noise": {"syndrome": {"kind": "vertex_bounded", "t": 1}}, "grid": [{"q": 0.01}]},
     "sets rate q on vertex_bounded syndrome noise"),
]


@pytest.mark.parametrize("command", ["sweep", "multiround"])
@pytest.mark.parametrize("overrides, message", BAD_CONFIGS)
def test_invalid_config_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, command,
                                                 overrides, message):
    monkeypatch.setattr(cli, "_run_pool", _no_pool)
    cfg = write_config(tmp_path, **{"rounds": 2, **overrides})
    out = tmp_path / "x.csv"
    assert cli.main([command, "-c", cfg, "-o", str(out), "--workers", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "multiround"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_1_exit_2_before_any_trial(tmp_path, monkeypatch, capsys, command,
                                                 workers):
    monkeypatch.setattr(cli, "_run_pool", _no_pool)
    cfg = write_config(tmp_path, rounds=2)
    out = tmp_path / "x.csv"
    assert cli.main([command, "-c", cfg, "-o", str(out), "--workers", workers]) == 2
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_config_hash_is_canonical(tmp_path):
    a = cli.config_hash({"b": 1, "a": [2, 3]})
    b = cli.config_hash({"a": [2, 3], "b": 1})
    assert a == b and len(a) == 64


def test_z_side_instance_runs_end_to_end(tmp_path, capsys):
    # side "Z" decodes Z errors through the role-swapped code; par_3 locals
    # put the favorable local structure on that side
    inst = dict(Z8_INSTANCE, local_codes={"kind": "named", "a": "par", "b": "par"},
                side="Z")
    cfg = write_config(
        tmp_path,
        instance=inst,
        trials=20,
        noise={"data": {"kind": "adversarial", "w": 1}, "syndrome": {}},
    )
    out = tmp_path / "z.csv"
    assert cli.main(["sweep", "-c", cfg, "-o", str(out), "--workers", "1",
                     "--per-trial"]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    cls = header.index("failure_class")
    assert all(r[cls] == "corrected" for r in data)


def test_z_side_instance_is_built_once(monkeypatch, z_side):
    # a "side": "Z" config builds the Z-side code alone, not its X side first
    inst = dict(Z8_INSTANCE, local_codes={"kind": "named", "a": "rep", "b": "par"})
    built, init = [], tanner.QuantumTannerCode.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("flip_roles", False))
        init(self, *args, **kwargs)

    monkeypatch.setattr(tanner.QuantumTannerCode, "__init__", counted)
    code, _ = cli.build_instance({"instance": dict(inst, side="Z")})
    assert built == [True]
    want = z_side(cli.build_instance({"instance": inst})[0])
    assert (code.h_x, code.h_z, code.k) == (want.h_x, want.h_z, want.k)


RANDOM_Z13_INSTANCE = {
    "group": {"kind": "cyclic", "m": 13},
    "a_gens": [1, 12, 5, 8],
    "b_gens": [1, 12, 5, 8],
    "local_codes": {"kind": "random", "dim_a": 1, "dim_b": 3, "seed": 5},
}


def test_random_local_codes_config(tmp_path, capsys):
    cfg = write_config(tmp_path, instance=RANDOM_Z13_INSTANCE)
    assert cli.main(["build", "-c", cfg, "--skip-kappa"]) == 0
    out = capsys.readouterr().out
    assert "n = 208" in out


def test_master_seed_of_random_local_codes_is_in_the_instance_id():
    # a random local code without a seed of its own is drawn from the
    # master seed: two master seeds build two codes, which get two ids,
    # each the id of its seed written into the local codes
    inst = dict(RANDOM_Z13_INSTANCE, local_codes={"kind": "random", "dim_a": 1, "dim_b": 3})
    built = [cli.build_instance({"instance": inst, "seed": seed}) for seed in (1, 2)]
    assert [code.k for code, _ in built] == [58, 82]
    assert [iid for _, iid in built] == [
        cli.config_hash(dict(inst, local_codes=dict(inst["local_codes"], seed=seed)))[:12]
        for seed in (1, 2)
    ]
    assert built[0][1] != built[1][1]
    # an explicit local seed keeps the id of its spec, whatever the master seed
    ids = {cli.build_instance({"instance": RANDOM_Z13_INSTANCE, "seed": seed})[1]
           for seed in (1, 2)}
    assert ids == {cli.config_hash(RANDOM_Z13_INSTANCE)[:12]} == {"3e9865ecbb6f"}


def test_explicit_local_codes_config(tmp_path, capsys):
    inst = dict(
        Z8_INSTANCE,
        local_codes={
            "kind": "explicit",
            "a": {"n": 3, "gen": ["111"]},
            "b": {"n": 3, "gen": ["111"]},
        },
    )
    cfg = write_config(tmp_path, instance=inst)
    assert cli.main(["build", "-c", cfg, "--skip-kappa"]) == 0
    assert "n = 72" in capsys.readouterr().out


@pytest.mark.parametrize("instance, message", [
    (dict(Z8_INSTANCE, group={"kind": "cyclic", "m": 8.5}), "instance.group.m = 8.5"),
    (dict(Z8_INSTANCE, a_gens=[1, 7, 4.7]), "generator = 4.7"),
    (dict(Z8_INSTANCE, local_codes={"kind": "random", "dim_a": 1.5, "dim_b": 1}),
     "instance.local_codes.dim_a = 1.5"),
    (dict(Z8_INSTANCE, local_codes={"kind": "random", "dim_a": 1, "dim_b": 1, "seed": 2.5}),
     "instance.local_codes.seed = 2.5"),
    (dict(Z8_INSTANCE, local_codes={"kind": "explicit", "a": {"n": 3.9, "gen": ["111"]},
                                    "b": {"n": 3, "gen": ["111"]}}), "code length n = 3.9"),
])
def test_build_instance_refuses_fractional_counts(instance, message):
    # build_instance is also called on configs that load_config never saw
    with pytest.raises(ValueError, match=message):
        cli.build_instance({"instance": instance})


def test_build_instance_reads_integral_floats_as_counts():
    inst = dict(Z8_INSTANCE, group={"kind": "cyclic", "m": 8.0}, a_gens=[1.0, 7.0, 4.0])
    code, _ = cli.build_instance({"instance": inst})
    assert code.n == 72


def test_build_instance_reads_table_entries_as_whole_numbers():
    # a JSON table may spell its entries as floats: integral ones are read
    # as elements, a fractional one is refused, never truncated
    def build(mul):
        return cli.build_instance({"instance": dict(Z8_INSTANCE, group={"kind": "table",
                                                                       "mul": mul})})[0]

    table = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    as_floats = [[float(x) for x in row] for row in table]
    code, ref = build(as_floats), build(table)
    assert code.h_x == ref.h_x and code.h_z == ref.h_z
    as_floats[2][3] = 5.5
    with pytest.raises(ValueError, match="table entry = 5.5 is not a whole number"):
        build(as_floats)


SHIPPED_CONFIGS = sorted(ROOT.glob("configs/*.json")) + sorted(
    ROOT.glob("benchmarks/configs/*.json")
)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    raw = json.loads(path.read_text())
    exp = cli.load_config(str(path))
    assert exp.raw == raw
    # each decoder is read as written: its CSV label repeats the config's value
    assert [(d.kind, d.param) for d in exp.decoders] == [
        (d["kind"], f"eps={d['eps']}" if d["kind"] == "sequential" else f"k={d['k']}")
        for d in raw["decoders"]
    ]
    assert exp.noise == noise.NoiseModel.from_json(raw["noise"])
    assert len(exp.models) == len(raw.get("grid", [None]))
    assert (exp.trials, exp.rounds, exp.seed) == (raw["trials"], raw["rounds"], raw["seed"])
    assert exp.record_timing is False and exp.output == raw["output"]


def instance_digest(raw):
    """sha256 of what set-up builds for the config ``raw``: the rows of
    H_X and H_Z, the cache's codewords and weights in scan order, and
    every local view, view mask and face's corners."""
    code, _ = cli.build_instance(raw)
    cache = decoder.get_cache(code)
    views = scalar_decoder.tables(cache)
    digest = hashlib.sha256()
    for name, rows in (
        ("h_x", code.h_x.data), ("h_z", code.h_z.data), ("masks", cache.masks.tolist()),
        ("weights", cache.weights.tolist()), ("views", views.views),
        ("view_masks", views.view_masks), ("face_vertices", views.face_vertices),
    ):
        for row in rows:
            line = " ".join(map(str, map(int, row))) if hasattr(row, "__len__") else int(row)
            digest.update(f"{name} {line}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("reference.json", "bea94e44feaa40526c3215737362d60ec68fdbca5f7034cb96b61cdc3416e9bc"),
    ("z8_rep3.json", "ea811aac8ca615012c50199f61cf5501f1fdc31e82e172eeb5d0e9a3aa02e7bb"),
    ("random_z13", "2cb3bf6905c07ac9bd926d4a9f6d72c46fa0a7490b12065d5a0d1d73d0af9748"),
])
def test_built_instance_pinned(name, digest):
    # any reordering of checks, codewords, views or corners changes it, and
    # so does any change to the rng draws or the matrix of a random local code
    if name == "random_z13":
        raw = {"instance": RANDOM_Z13_INSTANCE}
    else:
        raw = cli.load_config(str(ROOT / "configs" / name)).raw
    assert instance_digest(raw) == digest


@pytest.mark.parametrize("command, name, digest", [
    ("build", "reference.json", "3105bbdb74fa4ee99d751c91428acf7c72800e620136a44805aed2253d670a34"),
    ("inspect", "reference.json",
     "552d696ec3d9cb7a968f5e685ba599eda0d26761da6414a37f10051a7007ece8"),
    ("build", "z8_rep3.json", "2b1d31703b8a48cdf773f236ee99cf5f874ce765f9118544a21a5f437e2e2ee4"),
    ("inspect", "z8_rep3.json",
     "0762c5a1ba2edb792a821db5da6b63e47152e2fd01e2e17a86f092ee10b9c9c2"),
])
def test_summary_stdout_pinned(capsys, command, name, digest):
    # the local checks set H_Z, k and kappa, and the kernel row order of
    # H_Z sets the randomized distance bound that inspect prints
    assert cli.main([command, "-c", str(ROOT / "configs" / name)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_missing_config_takes_the_defaults():
    exp = cli.load_config(None)
    assert exp.raw == {}
    assert exp.decoders == (noise.DecoderConfig("sequential"),)
    assert exp.models == (exp.noise,) and exp.noise == noise.NoiseModel()
    assert (exp.trials, exp.rounds, exp.seed, exp.record_timing, exp.output) == (
        10, 1, 0, False, None)
    assert (exp.eps, exp.delta, exp.k_iters) == (Fraction(1, 2), Fraction(1, 20), None)


def test_overrides_hash_like_the_overridden_config():
    # CSV headers hash the config with --seed/--trials written into it;
    # the pinned digest is the header of `sweep -c configs/reference.json
    # --seed 5 --trials 12`
    path = ROOT / "configs" / "reference.json"
    exp = cli.load_config(str(path), seed=5, trials=12)
    want = dict(json.loads(path.read_text()), seed=5, trials=12)
    assert cli.config_hash(exp.raw) == cli.config_hash(want)
    assert cli.config_hash(exp.raw) == (
        "9366e9466a66d09f6a960d52f3782447fef28ce4b596770d35c08456ef07b855"
    )
    assert (exp.seed, exp.trials) == (5, 12)


D4_REFLECTIONS = [4, 5, 6]  # r^i s is encoded i + 4 in dihedral(4)


@pytest.mark.parametrize(
    "instance",
    [
        {"group": {"kind": "dihedral", "m": 4}, "a_gens": D4_REFLECTIONS,
         "b_gens": D4_REFLECTIONS, "local_codes": {"kind": "named", "a": "rep", "b": "par"}},
        {"group": {"kind": "table", "mul": [[(i + j) % 8 for j in range(8)] for i in range(8)]},
         "a_gens": [1, 7, 4], "b_gens": [1, 7, 4], "local_codes": "rep"},
        dict(Z8_INSTANCE, local_codes="par", side="Z"),
        {"group": {"kind": "cyclic", "m": 8}, "a_gens": [1, 7, 4], "b_gens": [1, 7, 4]},
    ],
    ids=["dihedral", "table-shorthand", "shorthand-z-side", "default-local-codes"],
)
def test_readme_schema_variants_parse_and_build(tmp_path, capsys, instance):
    # every variant has 8 group elements and delta 3: n = 8 * 9
    cfg = write_config(tmp_path, instance=instance)
    assert cli.main(["build", "-c", cfg, "--skip-kappa"]) == 0
    assert "n = 72" in capsys.readouterr().out
