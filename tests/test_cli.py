"""End-to-end CLI behavior: configs, exit codes, CSV determinism."""

import json

import pytest

from qtanner import cli, decoder

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
]


@pytest.mark.parametrize("command", ["sweep", "multiround"])
@pytest.mark.parametrize("overrides, message", BAD_CONFIGS)
def test_invalid_config_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, command,
                                                 overrides, message):
    monkeypatch.setattr(cli, "_run_pool", _no_pool)
    cfg = write_config(tmp_path, rounds=2, **overrides)
    out = tmp_path / "x.csv"
    assert cli.main([command, "-c", cfg, "-o", str(out), "--workers", "1"]) == 2
    assert message in capsys.readouterr().err
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


def test_random_local_codes_config(tmp_path, capsys):
    inst = {
        "group": {"kind": "cyclic", "m": 13},
        "a_gens": [1, 12, 5, 8],
        "b_gens": [1, 12, 5, 8],
        "local_codes": {"kind": "random", "dim_a": 1, "dim_b": 3, "seed": 5},
    }
    cfg = write_config(tmp_path, instance=inst)
    assert cli.main(["build", "-c", cfg, "--skip-kappa"]) == 0
    out = capsys.readouterr().out
    assert "n = 208" in out


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
