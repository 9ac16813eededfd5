"""Noise models, trial records, multi-round protocol, sweeps, statistics."""

import math
from fractions import Fraction

import pytest

from qtanner import decoder, noise
from qtanner.gf2 import BitVector
from qtanner.noise import DecoderConfig, NoiseModel, make_rng


class TestRng:
    def test_streams_are_independent_and_reproducible(self):
        a1 = make_rng(5, 0).integers(0, 1 << 30, size=4)
        a2 = make_rng(5, 0).integers(0, 1 << 30, size=4)
        b = make_rng(5, 1).integers(0, 1 << 30, size=4)
        assert list(a1) == list(a2)
        assert list(a1) != list(b)

    def test_master_seed_changes_stream(self):
        assert list(make_rng(5, 0).integers(0, 100, size=8)) != list(
            make_rng(6, 0).integers(0, 100, size=8)
        )

    @pytest.mark.parametrize(
        "seed, stream", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)]
    )
    def test_key_halves_outside_64_bits_rejected(self, seed, stream):
        # -1 used to alias 2^64 - 1 (the halves were masked to 64 bits)
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            make_rng(seed, stream)

    def test_key_halves_at_the_limits_accepted(self):
        top = (1 << 64) - 1
        assert make_rng(top, top).integers(0, 2) in (0, 1)

    def test_sweep_trial_index_outside_20_bits_rejected(self):
        # (1, 0) and (0, 2^20) used to pack to the same stream
        assert noise.sweep_stream_id(1, 0) == 1 << 20
        assert noise.sweep_stream_id(0, (1 << 20) - 1) == (1 << 20) - 1
        for ti in (-1, 1 << 20):
            with pytest.raises(ValueError, match="trial index"):
                noise.sweep_stream_id(0, ti)
        with pytest.raises(ValueError, match="point index"):
            noise.sweep_stream_id(-1, 0)


class TestSampleErrors:
    def test_bernoulli_zero(self, ref_code):
        model = NoiseModel()
        e, d = noise.sample_errors(ref_code, model, make_rng(1, 0))
        assert e.bits == 0 and d.bits == 0

    def test_adversarial_exact_weight(self, ref_code):
        model = NoiseModel(data_kind="adversarial", w=5)
        for t in range(20):
            e, _ = noise.sample_errors(ref_code, model, make_rng(2, t))
            assert e.weight() == 5

    def test_adversarial_weight_over_n_rejected(self, ref_code):
        model = NoiseModel(data_kind="adversarial", w=ref_code.n + 1)
        with pytest.raises(ValueError):
            noise.sample_errors(ref_code, model, make_rng(3, 0))

    def test_vertex_bounded_support(self, ref_code):
        model = NoiseModel(syn_kind="vertex_bounded", t=2)
        for t in range(30):
            _, d = noise.sample_errors(ref_code, model, make_rng(4, t))
            assert noise.vertex_support_size(ref_code, d) <= 2
            assert d.weight() >= 1

    def test_persistence_carries_support(self, ref_code):
        model = NoiseModel(data_kind="adversarial", w=8, persistence=0.5)
        rng = make_rng(5, 0)
        e1, _ = noise.sample_errors(ref_code, model, rng)
        e2, _ = noise.sample_errors(ref_code, model, rng, prev_data=e1.bits)
        carried = (e1.bits & e2.bits).bit_count()
        assert carried >= 4  # floor(0.5 * 8) kept by construction
        assert e2.weight() == 8

    @pytest.mark.parametrize("w, kept", [(1, 0), (4, 2)])
    def test_persistence_keeps_floor_of_its_share(self, ref_code, w, kept):
        # floor(persistence * w) old faces are kept, so persistence < 1/w
        # keeps none; fresh faces can land on old ones by chance, so the
        # least overlap over many rounds is the kept count
        model = NoiseModel(data_kind="adversarial", w=w, persistence=0.5)
        overlaps = []
        for t in range(100):
            rng = make_rng(8, t)
            e1, _ = noise.sample_errors(ref_code, model, rng)
            e2, _ = noise.sample_errors(ref_code, model, rng, prev_data=e1.bits)
            overlaps.append((e1.bits & e2.bits).bit_count())
        assert min(overlaps) == kept

    def test_bernoulli_rate(self, ref_code):
        model = NoiseModel(p=0.05)
        total = 0
        for t in range(200):
            e, _ = noise.sample_errors(ref_code, model, make_rng(6, t))
            total += e.weight()
        mean = total / 200
        assert 0.03 * ref_code.n < mean < 0.07 * ref_code.n


class TestVertexSupport:
    def test_zero(self, ref_code):
        assert noise.vertex_support_size(ref_code, BitVector(ref_code.h_z.rows, 0)) == 0

    def test_single_bit(self, ref_code):
        assert noise.vertex_support_size(ref_code, BitVector(ref_code.h_z.rows, 1)) == 1

    def test_sandwich_inequality(self, ref_code):
        model = NoiseModel(syn_kind="bernoulli", q=0.1)
        r = ref_code.r1
        for t in range(30):
            _, d = noise.sample_errors(ref_code, model, make_rng(7, t))
            v = noise.vertex_support_size(ref_code, d)
            assert d.weight() / r <= v <= d.weight()


class TestSingleShotTrial:
    def test_zero_noise_record(self, ref_code):
        rec = noise.run_single_shot_trial(
            ref_code, NoiseModel(), DecoderConfig("sequential"), make_rng(8, 0)
        )
        assert rec.e_weight == rec.d_weight == rec.residual_weight == 0
        assert rec.failure_class == "corrected"
        assert rec.ms == 0.0

    def test_record_consistency(self, ref_code):
        model = NoiseModel(p=0.01, q=0.01)
        for t in range(20):
            rng = make_rng(9, t)
            e, d = noise.sample_errors(ref_code, model, rng)
            rec = noise.run_single_shot_trial(
                ref_code,
                model,
                DecoderConfig("parallel", k=3),
                rng,
                seed=t,
                presampled=(e, d),
            )
            assert rec.e_weight == e.weight()
            assert rec.d_weight == d.weight()
            assert rec.residual_weight >= 0
            assert rec.residual_reduced_proxy <= rec.residual_weight
            assert rec.failure_class in ("corrected", "detected", "logical")

    def test_no_logical_without_noise_support(self, ref_code):
        # |e| = 0 and |D|_V = 0 forces the all-zero record
        rec = noise.run_single_shot_trial(
            ref_code, NoiseModel(), DecoderConfig("sequential"), make_rng(10, 0)
        )
        assert rec.failure_class != "logical"

    def test_syndrome_only_residual_tracks_vertex_support(self, ref_code):
        # e = 0 ensemble: residual weight is bounded by a fitted multiple of
        # delta^2 |D|_V and grows with the vertex support
        model = NoiseModel(syn_kind="bernoulli", q=0.012)
        cfg = DecoderConfig("sequential")
        d2 = ref_code.delta**2
        by_support: dict[int, list[int]] = {}
        beta_hat = 0.0
        for t in range(400):
            rec = noise.run_single_shot_trial(ref_code, model, cfg, make_rng(15, t))
            assert rec.e_weight == 0
            if rec.d_vertex_support == 0:
                assert rec.residual_weight == 0
                continue
            by_support.setdefault(rec.d_vertex_support, []).append(rec.residual_weight)
            beta_hat = max(beta_hat, rec.residual_weight / (d2 * rec.d_vertex_support))
        means = {s: sum(v) / len(v) for s, v in by_support.items() if len(v) >= 20}
        assert beta_hat <= 1.0  # every residual within beta_hat * delta^2 |D|_V
        keys = sorted(means)
        assert len(keys) >= 2
        assert means[keys[-1]] > means[keys[0]]  # correlates with |D|_V


class TestMultiround:
    def test_zero_noise_all_rounds_clean(self, ref_code):
        [rec] = noise.run_multiround(
            ref_code, NoiseModel(), DecoderConfig("parallel", k=2), 10, [make_rng(11, 0)]
        )
        assert all(r.residual_weight == 0 for r in rec.rounds)
        assert rec.final_class == "corrected"
        assert rec.final_residual_weight == 0

    def test_round_count_and_validation(self, ref_code):
        [rec] = noise.run_multiround(
            ref_code, NoiseModel(), DecoderConfig("sequential"), 5, [make_rng(12, 0)]
        )
        assert [r.round for r in rec.rounds] == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            noise.run_multiround(
                ref_code, NoiseModel(), DecoderConfig("sequential"), 0, [make_rng(12, 1)]
            )

    def test_telescoping_xor_identity(self, unique_code):
        # final residual = sum of all errors + sum of all corrections
        model = NoiseModel(p=0.01, q=0.01)
        records = noise.run_multiround(
            unique_code,
            model,
            DecoderConfig("parallel", k=2),
            20,
            [make_rng(13, t) for t in range(10)],
        )
        for rec in records:
            assert rec.residual_bits == rec.e_xor_all ^ rec.f_xor_all

    def test_stable_on_unique_instance(self, unique_code):
        model = NoiseModel(p=0.002, q=0.002)
        records = noise.run_multiround(
            unique_code, model, DecoderConfig("parallel", k=4), 50,
            [make_rng(14, t) for t in range(30)],
        )
        ok = sum(rec.final_class == "corrected" for rec in records)
        assert ok >= 27


class TestSweep:
    def test_zero_point_failure_free(self, ref_code):
        records = noise.run_sweep(
            ref_code, [NoiseModel()], [DecoderConfig("sequential")], 10, master_seed=3
        )
        assert len(records) == 10
        rows = noise.aggregate_records(records)
        assert len(rows) == 1
        assert rows[0].failures == 0 and rows[0].failure_freq == 0.0

    def test_paired_decoders_share_seeds(self, ref_code):
        cfgs = [DecoderConfig("sequential"), DecoderConfig("parallel", k=4)]
        records = noise.run_sweep(
            ref_code, [NoiseModel(p=0.01, q=0.0)], cfgs, 8, master_seed=4
        )
        seq = [r for r in records if r.decoder == "sequential"]
        par = [r for r in records if r.decoder == "parallel"]
        assert [r.seed for r in seq] == [r.seed for r in par]
        assert [r.e_weight for r in seq] == [r.e_weight for r in par]

    def test_monotone_failure_in_p(self, unique_code):
        models = [NoiseModel(p=p, q=0.0) for p in (0.0, 0.03, 0.15)]
        records = noise.run_sweep(
            unique_code, models, [DecoderConfig("sequential")], 60, master_seed=5
        )
        rows = noise.aggregate_records(records)
        rows.sort(key=lambda r: r.p)
        not_corrected = []
        by_p = {}
        for r in records:
            by_p.setdefault(r.p, []).append(r)
        for p in sorted(by_p):
            frac = sum(1 for r in by_p[p] if r.failure_class != "corrected") / len(by_p[p])
            not_corrected.append(frac)
        assert not_corrected == sorted(not_corrected)

    def test_reproducible_records(self, ref_code):
        kw = dict(models=[NoiseModel(p=0.02, q=0.01)], trials=6, master_seed=9)
        a = noise.run_sweep(ref_code, cfgs=[DecoderConfig("sequential")], **kw)
        b = noise.run_sweep(ref_code, cfgs=[DecoderConfig("sequential")], **kw)
        assert [r.csv_row() for r in a] == [r.csv_row() for r in b]


class TestStatistics:
    def test_wilson_interval_basics(self):
        lo, hi = noise.wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = noise.wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert noise.wilson_interval(0, 0) == (0.0, 1.0)

    def test_ols_slope_recovers_trend(self):
        xs = list(range(50))
        ys = [2.0 * x + 1.0 for x in xs]
        slope, lo, hi = noise.ols_slope_ci(xs, ys)
        assert slope == pytest.approx(2.0)
        assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)

    def test_ols_flat_series(self):
        slope, lo, hi = noise.ols_slope_ci(list(range(20)), [3.0] * 20)
        assert slope == 0.0 and lo == 0.0 and hi == 0.0

    def test_ols_degenerate_inputs(self):
        assert noise.ols_slope_ci([1, 1], [2, 3]) == (0.0, 0.0, 0.0)


class TestThresholdEstimate:
    def test_bisection_bounds_and_determinism(self, unique_code):
        cfg = DecoderConfig("sequential")
        a = noise.estimate_threshold(unique_code, cfg, trials=40, master_seed=7, iters=5)
        b = noise.estimate_threshold(unique_code, cfg, trials=40, master_seed=7, iters=5)
        assert a == b
        assert 0.0 < a < 0.5


    def test_trials_at_or_above_stream_packing_limit_rejected(self, unique_code):
        # streams (it << 24) | ti would collide across iterations; iters=0
        # keeps a missing check from running 2^24 trials
        cfg = DecoderConfig("parallel", k=2)
        for trials in (1 << 24, 0):
            with pytest.raises(ValueError, match="threshold trials"):
                noise.estimate_threshold(unique_code, cfg, trials=trials, iters=0)


class TestSerialization:
    def test_noise_model_round_trip(self):
        m = NoiseModel(data_kind="adversarial", w=4, persistence=0.25,
                       syn_kind="vertex_bounded", t=2)
        assert NoiseModel.from_json(m.to_json()) == m

    def test_decoder_config_round_trip(self):
        for cfg in (DecoderConfig("sequential", eps=Fraction(1, 3)),
                    DecoderConfig("parallel", k=6)):
            assert DecoderConfig.from_json(cfg.to_json()) == cfg

    def test_float_eps_read_as_its_decimal_literal(self, ref_code):
        # Fraction(0.3) is the binary double 5404319552844595/2^54, whose
        # theta = 1 - eps lifts ceil(theta * 10) from 7 to 8 faces
        cfg = DecoderConfig.from_json({"kind": "sequential", "eps": 0.3})
        assert cfg.eps == Fraction(3, 10)
        assert cfg.param == "eps=3/10"
        cache = decoder.get_cache(ref_code)
        thresholds = cache.scan_table(1 - cfg.eps).thresholds
        assert set(thresholds[cache.weights == 10].tolist()) == {7}

    def test_csv_writer_stable_bytes(self, tmp_path):
        rows = [(1, "x"), (2, "y")]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        noise.write_csv(p1, ["a", "b"], rows, ["h=1"])
        noise.write_csv(p2, ["a", "b"], rows, ["h=1"])
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == "# h=1\na,b\n1,x\n2,y\n"
