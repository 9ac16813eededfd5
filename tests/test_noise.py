"""Noise models, trial records, multi-round protocol, sweeps, statistics."""

import csv
import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qtanner import decoder, gf2, noise
from qtanner.errors import whole
from qtanner.noise import DecoderConfig, NoiseModel, make_rng

from oracles import aggregate_rows, int_sample_errors, multiround_rows, trial_block_rows
from threshold import estimate_threshold


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


class DrawLog:
    """A Generator that records the size of each ``choice`` draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def choice(self, a, size, replace):
        self.sizes.append(size)
        return self.rng.choice(a, size=size, replace=replace)


def two_rounds(code, model, rng, monkeypatch):
    """The data error rows of one trial's first two rounds, drawn by
    ``_round_errors`` from ``rng`` in place of the re-keyed generator."""
    monkeypatch.setattr(noise, "rekeyed_rng", lambda master_seed, stream: rng)
    return [e[0] for e, _ in noise._round_errors(code, model, 0, [0], 2)]


def vertex_support(code, d):
    """|D|_V of one (1, H_Z rows) syndrome error row."""
    return int(noise._vertex_support_rows(decoder.get_cache(code), d)[0])


class TestSampleErrors:
    def test_bernoulli_zero(self, ref_code):
        model = NoiseModel()
        e, d = noise.sample_errors(ref_code, model, 1, 0)
        assert e.shape == (1, ref_code.n) and d.shape == (1, ref_code.h_z.rows)
        assert not e.any() and not d.any()

    def test_adversarial_exact_weight(self, ref_code):
        model = NoiseModel(data_kind="adversarial", w=5)
        for t in range(20):
            e, _ = noise.sample_errors(ref_code, model, 2, t)
            assert e.sum() == 5

    def test_adversarial_weight_over_n_rejected(self, ref_code):
        model = NoiseModel(data_kind="adversarial", w=ref_code.n + 1)
        with pytest.raises(ValueError):
            noise.sample_errors(ref_code, model, 3, 0)

    def test_vertex_bounded_support(self, ref_code):
        model = NoiseModel(syn_kind="vertex_bounded", t=2)
        for t in range(30):
            _, d = noise.sample_errors(ref_code, model, 4, t)
            assert vertex_support(ref_code, d) <= 2
            assert d.sum() >= 1

    def test_persistence_carries_support(self, ref_code, monkeypatch):
        model = NoiseModel(data_kind="adversarial", w=8, persistence=0.5)
        e1, e2 = two_rounds(ref_code, model, make_rng(5, 0), monkeypatch)
        carried = int((e1 & e2).sum())
        assert carried >= 4  # floor(0.5 * 8) kept by construction
        assert e2.sum() == 8

    @pytest.mark.parametrize("w, persistence, kept", [(1, 0.5, 0), (4, 0.5, 2), (100, 0.29, 29)],
                             ids=["1-0", "4-2", "100-29"])
    def test_persistence_keeps_floor_of_its_share(self, ref_code, w, persistence, kept,
                                                  monkeypatch):
        # floor(persistence * w) old faces are kept, so persistence < 1/w
        # keeps none, and persistence is read as its decimal literal:
        # 0.29 * 100 is 28.999999999999996 as a double, yet 29 faces are
        # kept.  Fresh faces can land on old ones by chance, so the kept
        # count is read off the draw of fresh faces, w - kept of them.
        model = NoiseModel(data_kind="adversarial", w=w, persistence=persistence)
        for t in range(20):
            rng = DrawLog(make_rng(8, t))
            e1, e2 = two_rounds(ref_code, model, rng, monkeypatch)
            assert rng.sizes[-1] == w - kept
            assert e2.sum() == w
            assert (e1 & e2).sum() >= kept

    def test_bernoulli_rate(self, ref_code):
        model = NoiseModel(p=0.05)
        total = 0
        for t in range(200):
            e, _ = noise.sample_errors(ref_code, model, 6, t)
            total += int(e.sum())
        mean = total / 200
        assert 0.03 * ref_code.n < mean < 0.07 * ref_code.n


# Data and syndrome noise of every kind, for the draw-for-draw check of
# ``_round_errors`` against the int sampler; the adversarial weights are
# cut to what the code has (z5_code has no H_Z rows).
DATA_NOISE = {
    "bernoulli": dict(p=0.05),
    **{f"persistence-{x}": dict(data_kind="adversarial", persistence=x)
       for x in (0.0, 0.29, 0.5, 1.0)},
}
SYNDROME_NOISE = {
    "bernoulli": dict(q=0.05),
    "adversarial": dict(syn_kind="adversarial"),
    "vertex_bounded": dict(syn_kind="vertex_bounded", t=2),
}


def assert_draws_like_int_sampler(code, model, rounds, monkeypatch, streams=(0, 7, 1 << 40)):
    """``_round_errors`` gives, round by round, the (e, D) rows the int
    sampler draws on each trial's stream, and leaves each trial's
    generator where the int sampler leaves it."""
    seed = 31
    want, left = [], []
    for stream in streams:
        rng, prev, rows = make_rng(seed, stream), 0, []
        for _ in range(rounds):
            e, d = int_sample_errors(code, model, rng, prev_data=prev)
            prev = e.bits
            rows.append((e.bits, d.bits))
        want.append(rows)
        left.append(rng.random(2).tolist())
    got = list(noise._round_errors(code, model, seed, list(streams), rounds))
    assert len(got) == rounds
    for i, (e, d) in enumerate(got):
        assert e.shape == (len(streams), code.n) and d.shape == (len(streams), code.h_z.rows)
        assert list(zip(gf2.from_bit_rows(e), gf2.from_bit_rows(d))) == [w[i] for w in want]
    made = []
    monkeypatch.setattr(noise, "rekeyed_rng",
                        lambda master_seed, stream: made.append(make_rng(master_seed, stream))
                        or made[-1])
    list(noise._round_errors(code, model, seed, list(streams), rounds))
    assert [rng.random(2).tolist() for rng in made] == left


class TestRoundErrors:
    @pytest.mark.parametrize("rounds", [1, 6])
    @pytest.mark.parametrize("syn", list(SYNDROME_NOISE))
    @pytest.mark.parametrize("data", list(DATA_NOISE))
    @pytest.mark.parametrize("fixture", ["ref_code", "unique_code", "z5_code"])
    def test_draws_like_int_sampler(self, fixture, data, syn, rounds, request, monkeypatch):
        code = request.getfixturevalue(fixture)
        model = NoiseModel(**DATA_NOISE[data], **SYNDROME_NOISE[syn])
        if model.data_kind == "adversarial":
            model = replace(model, w=min(100, code.n // 2))  # ref_code: 0.29 keeps 29
        if model.syn_kind == "adversarial":
            model = replace(model, s=min(3, code.h_z.rows))
        assert_draws_like_int_sampler(code, model, rounds, monkeypatch)

    @pytest.mark.parametrize("w, persistence", [("n", 1.0), (0, 0.5)], ids=["w=n", "w=0"])
    def test_weight_extremes(self, unique_code, w, persistence, monkeypatch):
        w = unique_code.n if w == "n" else w
        model = NoiseModel(data_kind="adversarial", w=w, persistence=persistence,
                           syn_kind="adversarial", s=unique_code.h_z.rows)
        assert_draws_like_int_sampler(unique_code, model, 5, monkeypatch)

    def test_weight_over_n_rejected(self, unique_code):
        for model in (NoiseModel(data_kind="adversarial", w=unique_code.n + 1),
                      NoiseModel(syn_kind="adversarial", s=unique_code.h_z.rows + 1)):
            with pytest.raises(ValueError, match="exceeds"):
                int_sample_errors(unique_code, model, make_rng(1, 0))
            with pytest.raises(ValueError, match="exceeds"):
                next(noise._round_errors(unique_code, model, 1, [0], 3))

    @pytest.mark.parametrize("seed, bad, message", [
        (1, -1, "stream id -1"), (1, 1 << 64, "stream id 18446744073709551616"),
        (-1, 3, "seed -1"), (1 << 64, 3, "seed 18446744073709551616"),
    ])
    @pytest.mark.parametrize("data", ["bernoulli", "persistence-0.5"])
    def test_keys_checked_before_any_draw(self, unique_code, data, seed, bad, message,
                                          monkeypatch):
        # the bad key sits among valid ones, after trials that could draw
        keyed = []
        monkeypatch.setattr(noise, "rekeyed_rng", lambda *key: keyed.append(key))
        model = NoiseModel(**DATA_NOISE[data], q=0.05)
        with pytest.raises(ValueError, match=message):
            next(noise._round_errors(unique_code, model, seed, [0, 5, bad, 7], 2))
        assert keyed == []

    @pytest.mark.parametrize("model", [NoiseModel(p=0.3, q=0.3), NoiseModel(q=0.3),
                                       NoiseModel(p=0.3), NoiseModel()],
                             ids=["p,q", "p=0", "q=0", "p=q=0"])
    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("fixture", ["ref_code", "z5_code"])
    def test_bernoulli_shapes_and_zero_sides(self, fixture, trials, model, request):
        # ref_code: n = 208 and 78 H_Z rows, a partial last byte; z5_code:
        # no H_Z rows.  A side at rate 0 is all zero, the other is not.
        code, rounds = request.getfixturevalue(fixture), 4
        n, rz = code.n, code.h_z.rows
        rngs = (make_rng(2, s) for s in range(trials))
        e, d = noise._bernoulli_rounds(code, model, rngs, trials, rounds)
        assert e.shape == (trials, rounds, (n + 7) // 8)
        assert d.shape == (trials, rounds, (rz + 7) // 8)
        got = list(noise._round_errors(code, model, 2, range(trials), rounds))
        assert len(got) == rounds
        assert {(e.shape, d.shape) for e, d in got} == {((trials, n), (trials, rz))}
        for rate, side in ((model.p, [e for e, _ in got]), (model.q, [d for _, d in got])):
            assert np.any(side) == bool(rate and trials and side[0].shape[1])


class TestVertexSupport:
    def test_zero(self, ref_code):
        assert vertex_support(ref_code, gf2.to_bit_rows([0], ref_code.h_z.rows)) == 0

    def test_single_bit(self, ref_code):
        assert vertex_support(ref_code, gf2.to_bit_rows([1], ref_code.h_z.rows)) == 1

    def test_sandwich_inequality(self, ref_code):
        model = NoiseModel(syn_kind="bernoulli", q=0.1)
        r = ref_code.r1
        for t in range(30):
            _, d = noise.sample_errors(ref_code, model, 7, t)
            v = vertex_support(ref_code, d)
            assert d.sum() / r <= v <= d.sum()


class TestSingleShotTrial:
    def test_zero_noise_record(self, ref_code):
        [rec] = noise.run_single_shot_trial(
            ref_code, NoiseModel(), [DecoderConfig("sequential")], 8, 0
        )
        assert rec.e_weight == rec.d_weight == rec.residual_weight == 0
        assert rec.failure_class == "corrected"
        assert rec.ms == 0.0

    def test_record_consistency(self, ref_code):
        model = NoiseModel(p=0.01, q=0.01)
        for t in range(20):
            e, d = noise.sample_errors(ref_code, model, 9, t)
            [rec] = noise.run_single_shot_trial(
                ref_code, model, [DecoderConfig("parallel", k=3)], 9, t
            )
            assert rec.e_weight == e.sum()
            assert rec.d_weight == d.sum()
            assert rec.residual_weight >= 0
            assert rec.residual_reduced_proxy <= rec.residual_weight
            assert rec.failure_class in ("corrected", "detected", "logical")

    def test_one_sample_decoded_by_every_decoder(self, ref_code):
        # the paired records equal one-decoder trials on the same stream
        model = NoiseModel(p=0.01, q=0.01)
        cfgs = [DecoderConfig("sequential"), DecoderConfig("parallel", k=3)]
        for t in range(10):
            paired = noise.run_single_shot_trial(ref_code, model, cfgs, 16, t)
            alone = [rec for cfg in cfgs for rec in
                     noise.run_single_shot_trial(ref_code, model, [cfg], 16, t)]
            assert paired == alone
            assert [r.decoder for r in paired] == ["sequential", "parallel"]

    def test_seed_column_is_the_stream_drawn(self, ref_code):
        # a record's seed names the stream its sample came from: the
        # single-shot step on the rows drawn from stream t of seed 107
        # gives the same records
        model = NoiseModel(p=0.01, q=0.01)
        cfgs = [DecoderConfig("sequential"), DecoderConfig("parallel", k=3)]
        heads = [("", cfg.kind, cfg.param, *model.pq_labels()) for cfg in cfgs]
        weights = set()
        for t in (0, 1, 2, 3, 1 << 40):
            records = noise.run_single_shot_trial(ref_code, model, cfgs, 107, t)
            e, d = noise.sample_errors(ref_code, model, 107, t)
            stats, classes, _ = noise.single_shot_step(ref_code, decoder.get_cache(ref_code),
                                                       cfgs, e, d, [0.0, 0.0])
            block = noise.TrialBlock(heads, [t], stats, classes, [0.0, 0.0])
            assert [tuple(rec) for rec in records] == trial_block_rows(block)
            assert [rec.seed for rec in records] == [t, t]
            weights.add((int(e.sum()), int(d.sum())))
        assert len(weights) > 1  # the streams draw different samples

    def test_no_logical_without_noise_support(self, ref_code):
        # |e| = 0 and |D|_V = 0 forces the all-zero record
        [rec] = noise.run_single_shot_trial(
            ref_code, NoiseModel(), [DecoderConfig("sequential")], 10, 0
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
            [rec] = noise.run_single_shot_trial(ref_code, model, [cfg], 15, t)
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
        batch = noise.run_multiround(
            ref_code, NoiseModel(), DecoderConfig("parallel", k=2), 10, 11, [0]
        )
        assert not batch.stats[..., 3].any()
        assert batch.final_classes == ["corrected"]
        assert batch.final_weights == [0]

    def test_round_count_and_validation(self, ref_code):
        batch = noise.run_multiround(
            ref_code, NoiseModel(), DecoderConfig("sequential"), 5, 12, [0]
        )
        assert [row[6] for row in multiround_rows(batch)] == [1, 2, 3, 4, 5, "final"]
        assert noise.MULTIROUND_CSV_FIELDS[5:7] == ["trial", "round"]
        assert noise.MULTIROUND_CSV_FIELDS[7:11] == list(noise.ROUND_STATS)
        with pytest.raises(ValueError):
            noise.run_multiround(
                ref_code, NoiseModel(), DecoderConfig("sequential"), 0, 12, [1]
            )

    def test_stable_on_unique_instance(self, unique_code):
        model = NoiseModel(p=0.002, q=0.002)
        batch = noise.run_multiround(
            unique_code, model, DecoderConfig("parallel", k=4), 50, 14, range(30),
        )
        assert batch.final_classes.count("corrected") >= 27

    def test_seed_column_is_the_stream_drawn(self, unique_code):
        # each trial of a batch gives exactly the rows of its stream run
        # alone, its trial and seed columns holding that stream id
        model, cfg = NoiseModel(p=0.02, q=0.02), DecoderConfig("parallel", k=2)
        streams = [5, 7, 9]
        rows = multiround_rows(noise.run_multiround(unique_code, model, cfg, 16, 16, streams))
        alone = {s: multiround_rows(noise.run_multiround(unique_code, model, cfg, 16, 16, [s]))
                 for s in streams}
        for s in streams:
            assert [row for row in rows if row[5] == s] == alone[s]
            assert {(row[5], row[-1]) for row in alone[s]} == {(s, s)}
        assert len(rows) == 3 * 17
        # the streams draw different noise
        assert len({tuple(row[7:9] for row in alone[s]) for s in streams}) == 3

    @pytest.mark.parametrize("instance_id", ['a,"b', "x%dy"])
    def test_csv_equals_csv_writer_of_the_rows(self, unique_code, tmp_path, instance_id):
        # the head needs quoting (or holds a % a line template would
        # read), and p = 1e-05 is written by repr.  The hand-built batch
        # has weights past its round count, of up to three digits, so the
        # digits table must reach max(stats, rounds), not the rounds.
        run = noise.run_multiround(
            unique_code, NoiseModel(p=1e-05, q=0.02), DecoderConfig("parallel", k=2), 4,
            16, [5, 7, 9], instance_id=instance_id,
        )
        stats = np.array([[[0, 3, 2, 1], [9, 10, 11, 120], [208, 99, 100, 7]],
                          [[1, 0, 0, 0], [0, 0, 0, 0], [4, 5, 6, 999]]])
        built = noise.RoundBatch((instance_id, "sequential", "eps=1/2", 0.5, 1e-05),
                                 [3, 1 << 40], stats, [17, 0], ["logical", "corrected"])
        for batch, lines in ((run, 2 + 3 * 5), (built, 2 + 2 * 4)):
            want = io.StringIO()
            csv.writer(want, lineterminator="\n").writerows(
                [noise.MULTIROUND_CSV_FIELDS, *multiround_rows(batch)])
            path = tmp_path / "m.csv"
            noise.write_csv(path, noise.MULTIROUND_CSV_FIELDS, batch.csv_chunks(), ["h=1"])
            assert path.read_text() == "# h=1\n" + want.getvalue()
            assert len(path.read_text().splitlines()) == lines


def sweep_points(code, models, cfgs, trials, master_seed):
    """Every (grid point, trial, decoder) record of one sweep block,
    point by point."""
    return [noise.TrialRecord(*row)
            for block in noise.run_sweep(code, models, cfgs, range(trials), master_seed)
            for row in trial_block_rows(block)]


class TestSweep:
    def test_zero_point_failure_free(self, ref_code):
        blocks = noise.run_sweep(ref_code, [NoiseModel()], [DecoderConfig("sequential")],
                                 range(10), 3)
        assert [b.stats.shape for b in blocks] == [(10, 1, 5)]
        rows = noise.aggregate_points(blocks)
        assert len(rows) == 1
        assert rows[0].failures == 0 and rows[0].failure_freq == 0.0

    def test_paired_decoders_share_seeds(self, ref_code):
        cfgs = [DecoderConfig("sequential"), DecoderConfig("parallel", k=4)]
        records = sweep_points(
            ref_code, [NoiseModel(p=0.01, q=0.0)], cfgs, 8, master_seed=4
        )
        seq = [r for r in records if r.decoder == "sequential"]
        par = [r for r in records if r.decoder == "parallel"]
        assert [r.seed for r in seq] == [r.seed for r in par]
        assert [r.e_weight for r in seq] == [r.e_weight for r in par]

    def test_monotone_failure_in_p(self, unique_code):
        models = [NoiseModel(p=p, q=0.0) for p in (0.0, 0.03, 0.15)]
        records = sweep_points(
            unique_code, models, [DecoderConfig("sequential")], 60, master_seed=5
        )
        by_p = {}
        for r in records:
            by_p.setdefault(r.p, []).append(r)
        not_corrected = [sum(1 for r in by_p[p] if r.failure_class != "corrected") / len(by_p[p])
                         for p in sorted(by_p)]
        assert not_corrected == sorted(not_corrected)

    def test_reproducible_records(self, ref_code):
        kw = dict(models=[NoiseModel(p=0.02, q=0.01)], trials=6, master_seed=9)
        a = sweep_points(ref_code, cfgs=[DecoderConfig("sequential")], **kw)
        b = sweep_points(ref_code, cfgs=[DecoderConfig("sequential")], **kw)
        assert a == b

    def test_aggregate_equals_record_oracle(self, unique_code):
        # the column sums equal the record-by-record oracle: the blocks
        # of one point's chunks add up, and so do points 0 and 2, whose
        # p and q columns are equal; an empty chunk adds no row
        models = [NoiseModel(p=0.1, q=0.02), NoiseModel(p=0.05), NoiseModel(p=0.1, q=0.02)]
        cfgs = [DecoderConfig("sequential"), DecoderConfig("parallel", k=1)]
        blocks = [block for chunk in (range(0, 7), range(7, 7), range(7, 30))
                  for block in noise.run_sweep(unique_code, models, cfgs, chunk, 11,
                                               instance_id="x,%y")]
        records = [noise.TrialRecord(*row) for block in blocks for row in trial_block_rows(block)]
        rows = noise.aggregate_points(blocks)
        assert rows == aggregate_rows(records)
        assert [(r.p, r.q, r.trials) for r in rows[::2]] == [(0.05, 0.0, 30), (0.1, 0.02, 60)]
        assert sum(r.failures for r in rows) > 0  # failures are counted
        assert noise.aggregate_points(noise.run_sweep(unique_code, models, cfgs, [], 11)) == []


def records_text(blocks):
    return "".join(text for block in blocks for text in block.csv_chunks())


class TestTrialBlockCsv:
    """A block's CSV lines are the lines ``csv_text`` writes for the
    block's (trial, decoder) records."""

    CFGS = [DecoderConfig("sequential", eps=Fraction(1, 3)), DecoderConfig("parallel", k=2)]

    @pytest.mark.parametrize("instance_id", ['a,"b', "x%dy,%s"])
    @pytest.mark.parametrize("timing", [False, True])
    def test_lines_equal_csv_text_of_the_records(self, unique_code, instance_id, timing):
        # the head needs quoting or holds a % the template must not read,
        # p = 1e-05 and q = 0.30000000000000004 are written by repr, and
        # timed ms are nonzero floats
        models = [NoiseModel(p=1e-05, q=0.1 + 0.2), NoiseModel(p=0.02, q=0.01)]
        blocks = noise.run_sweep(unique_code, models, self.CFGS, range(5), 6,
                                 instance_id=instance_id, record_timing=timing)
        for block in blocks:
            records = [noise.TrialRecord(*row) for row in trial_block_rows(block)]
            assert "".join(block.csv_chunks()) == noise.csv_text(records)
            assert all((rec.ms > 0) == timing for rec in records)
        assert noise.csv_text([[instance_id]])[:-1] + ",sequential," in records_text(blocks)
        assert ",1e-05,0.30000000000000004," in records_text(blocks[:1])

    def test_csv_chunks_split_trials_without_changing_text(self, unique_code, monkeypatch):
        [block] = noise.run_sweep(unique_code, [NoiseModel(p=0.02)], self.CFGS, range(5), 6)
        text = noise.csv_text(noise.TrialRecord(*row) for row in trial_block_rows(block))
        monkeypatch.setattr(noise, "_CSV_CHUNK_TRIALS", 2)
        chunks = list(block.csv_chunks())
        assert [c.count("\n") for c in chunks] == [4, 4, 2]
        assert "".join(chunks) == text


@pytest.mark.parametrize("value, expected", [
    (3, 3), (3.0, 3), (np.int64(3), 3), (np.uint8(3), 3), (np.float32(3.0), 3), (-2.0, -2),
])
def test_whole_accepts_integral_values(value, expected):
    got = whole(value, "count")
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [2.7, -0.5, True, np.True_, "3", None, float("inf"),
                                   float("nan")])
def test_whole_refuses_other_values(value):
    with pytest.raises(ValueError, match=r"count = .* is not a whole number"):
        whole(value, "count")


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
        a = estimate_threshold(unique_code, cfg, trials=40, master_seed=7, iters=5)
        b = estimate_threshold(unique_code, cfg, trials=40, master_seed=7, iters=5)
        assert a == b
        assert 0.0 < a < 0.5

    @pytest.mark.parametrize("cfg", [DecoderConfig("sequential"), DecoderConfig("parallel", k=2)])
    @pytest.mark.parametrize("iters, value", [(5, 0.0234375), (12, 0.02020263671875)])
    def test_pinned_values(self, unique_code, cfg, iters, value):
        # the per-trial scalar loop gave these before trials ran in blocks
        assert estimate_threshold(unique_code, cfg, trials=40, master_seed=7, iters=iters) == value


    def test_trials_at_or_above_stream_packing_limit_rejected(self, unique_code):
        # streams (it << 24) | ti would collide across iterations; iters=0
        # keeps a missing check from running 2^24 trials
        cfg = DecoderConfig("parallel", k=2)
        for trials in (1 << 24, 0):
            with pytest.raises(ValueError, match="threshold trials"):
                estimate_threshold(unique_code, cfg, trials=trials, iters=0)


class TestSerialization:
    def test_noise_model_round_trip(self):
        m = NoiseModel(data_kind="adversarial", w=4, persistence=0.25,
                       syn_kind="vertex_bounded", t=2)
        assert NoiseModel.from_json(m.to_json()) == m

    def test_noise_json_has_each_kinds_keys_only(self):
        m = NoiseModel(syn_kind="vertex_bounded", t=1)
        assert m.to_json() == {"data": {"kind": "bernoulli", "p": 0.0},
                               "syndrome": {"kind": "vertex_bounded", "t": 1}}
        assert m.pq_labels() == (0.0, 1.0)
        # a parameter of another kind used to be kept, and s was written as q
        with pytest.raises(ValueError, match="noise s does not apply to vertex_bounded"):
            NoiseModel(syn_kind="vertex_bounded", t=1, s=4)
        with pytest.raises(ValueError, match="noise p does not apply to adversarial"):
            NoiseModel(data_kind="adversarial", w=2, p=0.01)

    def test_grid_weight_switches_its_side_to_adversarial(self):
        base = NoiseModel(data_kind="adversarial", w=2, persistence=0.5,
                          syn_kind="vertex_bounded", t=1)
        assert base.at_grid_point({"w": 3, "s": 2}) == NoiseModel(
            data_kind="adversarial", w=3, persistence=0.5, syn_kind="adversarial", s=2)
        assert NoiseModel(p=0.01, q=0.02).at_grid_point({"w": 3, "q": 0.03}) == NoiseModel(
            data_kind="adversarial", w=3, q=0.03)

    def test_decoder_config_from_json(self):
        assert (DecoderConfig.from_json({"kind": "sequential", "eps": "1/3"})
                == DecoderConfig("sequential", eps=Fraction(1, 3)))
        assert DecoderConfig.from_json({"kind": "parallel", "k": 6}) == DecoderConfig("parallel", k=6)

    def test_float_eps_read_as_its_decimal_literal(self, ref_code):
        # Fraction(0.3) is the binary double 5404319552844595/2^54, whose
        # theta = 1 - eps lifts ceil(theta * 10) from 7 to 8 faces
        cfg = DecoderConfig.from_json({"kind": "sequential", "eps": 0.3})
        assert cfg.eps == Fraction(3, 10)
        assert cfg.param == "eps=3/10"
        cache = decoder.get_cache(ref_code)
        _, thresholds = cache.scan_table(1 - cfg.eps)[0].f.args
        assert set(thresholds[cache.weights == 10].tolist()) == {7}

    def test_csv_writer_stable_bytes(self, tmp_path):
        rows = [(1, "x"), (2, "y")]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        noise.write_csv(p1, ["a", "b"], [noise.csv_text(rows)], ["h=1"])
        noise.write_csv(p2, ["a", "b"], [noise.csv_text(rows)], ["h=1"])
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == "# h=1\na,b\n1,x\n2,y\n"
