"""Lockstep decoders, multi-round runs and sweep blocks against the
scalar path.

The lockstep decoders are checked row by row, step by step, against the
Python-int decoders of ``scalar_decoder``.  ``noise.run_multiround``
runs a batch of trials one round at a time as numpy arrays.  Its
reference here is a per-trial loop: the int sampler
``oracles.int_sample_errors`` -> the syndrome oracle
``oracles.np_mat_vec_gf2`` -> the scalar decoder of each config, the
residual fed forward, then one ideal sequential readout, with |D|_V
from ``oracles.vertex_support``.  Every column, round by round and the
final readout's residual weight and class, must match trial by trial.
``noise.run_sweep`` decodes the single-shot trials of every grid point
as one lockstep block; each (trial, decoder) row of its columns must
equal the record built the same way from the trial's own ``make_rng``
stream, with the reduced weight from ``oracles.greedy_reduce``.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qtanner import cayley, codes, decoder, gf2, noise, tanner
from qtanner.gf2 import BitVector
from qtanner.noise import DecoderConfig, NoiseModel, TrialRecord, make_rng

import scalar_decoder
from oracles import (greedy_reduce, int_sample_errors, np_mat_vec_gf2, trial_block_rows,
                     vertex_support)
from scalar_decoder import step_columns


def scalar_multiround(code, model, cfg, rounds, rng):
    """One trial of the multi-round protocol, decoded one round at a
    time: its (|e|, |D|, |D|_V, residual weight) per round, and the
    readout's residual weight and class."""
    rz = code.h_z.rows
    residual = prev = 0
    stats = []
    for _ in range(rounds):
        e, d = int_sample_errors(code, model, rng, prev_data=prev)
        prev = e.bits
        syn = BitVector(rz, np_mat_vec_gf2(code.h_z, residual ^ e.bits) ^ d.bits)
        residual ^= e.bits ^ scalar_decoder.decode(cfg, code, syn)[0].bits
        stats.append([e.weight(), d.weight(), vertex_support(code, d), residual.bit_count()])
    ideal = BitVector(rz, np_mat_vec_gf2(code.h_z, residual))
    f_final = scalar_decoder.sequential_decode(code, ideal, Fraction(1, 2))
    final = BitVector(code.n, residual ^ f_final.bits)
    return stats, final.weight(), tanner.classify_residual(code, final)


@pytest.fixture(scope="module")
def z8_z_side(z_side):
    """The Z side of Z8 with par_3 locals (rep_3 on the decoded side)."""
    cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
    return z_side(tanner.QuantumTannerCode(cx, codes.parity_code(3), codes.parity_code(3)))


BERNOULLI = NoiseModel(p=0.01, q=0.01)
ADVERSARIAL = NoiseModel(data_kind="adversarial", w=3, persistence=0.67,
                         syn_kind="vertex_bounded", t=2)

# (code fixture, decoder, noise, trials, rounds): 13,800 (trial, round) decodes
CASES = [
    ("ref_code", DecoderConfig("parallel", k=8), NoiseModel(p=0.004, q=0.004), 40, 50),
    ("ref_code", DecoderConfig("sequential"), NoiseModel(p=0.004, q=0.004), 20, 25),
    ("ref_code", DecoderConfig("parallel", k=2),
     NoiseModel(data_kind="adversarial", w=4, persistence=0.5, syn_kind="adversarial", s=2),
     20, 25),
    ("unique_code", DecoderConfig("parallel", k=1), BERNOULLI, 40, 50),
    ("unique_code", DecoderConfig("parallel", k=8), ADVERSARIAL, 40, 50),
    ("unique_code", DecoderConfig("sequential", eps=Fraction(1, 3)), BERNOULLI, 40, 50),
    ("unique_code", DecoderConfig("sequential"), ADVERSARIAL, 20, 50),
    ("unique_code", DecoderConfig("parallel", k=2), NoiseModel(q=0.02), 20, 20),
    ("unique_code", DecoderConfig("parallel", k=2), NoiseModel(p=0.02), 20, 20),
    ("z8_z_side", DecoderConfig("parallel", k=4), BERNOULLI, 20, 50),
    ("rep5_code", DecoderConfig("parallel", k=4), NoiseModel(p=0.01, q=0.01), 20, 50),
    ("rep5_code", DecoderConfig("sequential"), ADVERSARIAL, 10, 20),
    ("z5_code", DecoderConfig("parallel", k=2), NoiseModel(p=0.05), 20, 20),
    ("z5_code", DecoderConfig("sequential"), NoiseModel(data_kind="adversarial", w=2), 20, 20),
    # role-flipped: the vertex-order views packer differs from the sweep order
    ("z8_z_side", DecoderConfig("sequential"), BERNOULLI, 20, 50),
]


@pytest.mark.parametrize("fixture, cfg, model, trials, rounds", CASES)
def test_lockstep_equals_scalar_loop(fixture, cfg, model, trials, rounds, request):
    code = request.getfixturevalue(fixture)
    seed = 500 + CASES.index((fixture, cfg, model, trials, rounds))
    batch = noise.run_multiround(code, model, cfg, rounds, seed, range(100, 100 + trials),
                                 instance_id="x")
    assert batch.head == ("x", cfg.kind, cfg.param, *model.pq_labels())
    assert batch.stats.shape == (trials, rounds, 4)
    assert batch.seeds == list(range(100, 100 + trials))
    moved = read_out = 0
    for t in range(trials):
        stats, weight, cls = scalar_multiround(code, model, cfg, rounds, make_rng(seed, 100 + t))
        got = batch.stats[t].tolist()
        assert (got, batch.final_weights[t], batch.final_classes[t]) == (stats, weight, cls), \
            f"trial {t}"
        moved += any(e_w or d_w for e_w, d_w, _, _ in got)
        read_out += batch.final_weights[t] != batch.stats[t, -1, 3]
    assert moved > 0  # the noise is not vacuous
    if model.q or model.syn_kind != "bernoulli":
        # syndrome noise leaves the readout work: some readout changes its
        # trial's residual, so the comparison covers codewords it applies
        assert read_out > 0


@pytest.mark.parametrize("model", [BERNOULLI, ADVERSARIAL], ids=["bernoulli", "adversarial"])
def test_empty_batch(unique_code, model):
    batch = noise.run_multiround(unique_code, model, DecoderConfig("parallel", k=1), 3, 1, [])
    assert batch.stats.shape == (0, 3, 4)
    assert batch.seeds == batch.final_weights == batch.final_classes == []
    assert list(batch.csv_chunks()) == []


def sampled_syndromes(code, trials=120):
    """Noisy syndromes at data rates 0, 0.01, 0.02 and 0.03 in turn."""
    rng = make_rng(77, 0)
    rows = []
    for t in range(trials):
        e, d = int_sample_errors(code, NoiseModel(p=0.01 * (t % 4), q=0.01), rng)
        rows.append(np_mat_vec_gf2(code.h_z, e.bits) ^ d.bits)
    return rows


def crafted_syndrome(code, faces, flips):
    """The syndrome of the error on ``faces`` with the bits ``flips`` flipped."""
    return np_mat_vec_gf2(code.h_z, sum(1 << q for q in faces)) ^ sum(1 << i for i in flips)


BATCHES = ["sampled", "empty", "zero", "repeated"]


def syndrome_batches(code):
    """The sampled syndromes and three edge batches: no rows, all-zero
    rows (no nonzero word anywhere), and one syndrome the parallel
    decoder removes codewords from, repeated in every row (so one slot
    hits in every row of a class step)."""
    rz = code.h_z.rows
    sampled = sampled_syndromes(code)
    busy = next((s for s in sampled if scalar_decoder.parallel_decode(
        code, BitVector(rz, s), 1, return_state=True)[1].steps), 0)
    if rz:  # z5_code has no H_Z rows, so every syndrome is empty
        assert busy
    return {"sampled": sampled, "empty": [], "zero": [0] * 16, "repeated": [busy] * 16}


def row_steps(steps, rows):
    """Each row's (vertex, class, codeword, |Ẑ| before, |Ẑ| after) steps
    in the order taken, read from the columns of a lockstep ``Steps``."""
    columns = steps.columns()
    out = [[] for _ in range(rows)]
    names = ("row", "vertex", "class", "codeword", "before", "after")
    for row, *step in zip(*(columns[name].tolist() for name in names)):
        out[row].append(tuple(step))
    return out


class TestLockstepDecoders:
    """One lockstep decode of many syndromes equals the scalar decoder
    on each, step by step, for every iteration count and both
    schedules."""

    @pytest.fixture(scope="class")
    def syndromes(self, ref_code):
        return sampled_syndromes(ref_code)

    # z8_z_side swaps the raw V01 and V10 classes (flip_roles); z5_code
    # has no local checks (every Ẑ is 0); the 25-bit views of rep5_code
    # take two packer slices
    @pytest.fixture(scope="class",
                    params=["ref_code", "unique_code", "z8_z_side", "z5_code", "rep5_code"])
    def batches(self, request):
        code = request.getfixturevalue(request.param)
        return code, syndrome_batches(code)

    @staticmethod
    def lockstep(code, syndromes, decompose, *args):
        """(f̂ rows, Ẑ rows, ``Steps``) of one lockstep decode."""
        cache = decoder.get_cache(code)
        zhat, f = decoder.lockstep_initial_mismatch(
            cache, gf2.to_bit_rows(syndromes, code.h_z.rows))
        steps = decompose(cache, zhat, f, *args)
        return gf2.from_bit_rows(f), gf2.from_bit_rows(zhat), steps

    @staticmethod
    def assert_steps_equal_scalar(got, scalar, rows):
        """f̂, final Ẑ and every row's steps equal the scalar decoder's
        (its (f̂, state) of each row in ``scalar``)."""
        f, zhat, steps = got
        assert f == [fs.bits for fs, _ in scalar]
        assert zhat == [state.zhat for _, state in scalar]
        assert row_steps(steps, rows) == [step_columns(state) for _, state in scalar]

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_parallel(self, batches, k, batch):
        code, syndromes = batches[0], batches[1][batch]
        rz = code.h_z.rows
        got = DecoderConfig("parallel", k=k).decode_lockstep(decoder.get_cache(code),
                                                             gf2.to_bit_rows(syndromes, rz))
        scalar = [scalar_decoder.parallel_decode(code, BitVector(rz, s), k, return_state=True)
                  for s in syndromes]
        assert gf2.from_bit_rows(got) == [f.bits for f, _ in scalar]
        self.assert_steps_equal_scalar(
            self.lockstep(code, syndromes, decoder.lockstep_parallel_decomposition, k),
            scalar, len(syndromes))

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    def test_sequential(self, batches, eps, batch):
        code, syndromes = batches[0], batches[1][batch]
        rz = code.h_z.rows
        got = DecoderConfig("sequential", eps=eps).decode_lockstep(
            decoder.get_cache(code), gf2.to_bit_rows(syndromes, rz)
        )
        scalar = [scalar_decoder.sequential_decode(code, BitVector(rz, s), eps, return_state=True)
                  for s in syndromes]
        assert gf2.from_bit_rows(got) == [f.bits for f, _ in scalar]
        self.assert_steps_equal_scalar(
            self.lockstep(code, syndromes, decoder.lockstep_sequential_decomposition, eps),
            scalar, len(syndromes))
        if rz and batch == "sampled":  # the FIFO removed codewords: the comparison is not vacuous
            assert any(state.steps for _, state in scalar)

    def fifo_sequential(self, code, syndromes, eps, monkeypatch):
        """(Ẑ rows, the Ẑ rows every pass of the FIFO scanned, ``Steps``) of
        one lockstep sequential decode; checks f̂, Ẑ and the steps against
        the scalar decoder row by row."""
        scanned = []
        first_hits = decoder._first_hits

        def counted(cache, table, zhat):
            scanned.append(gf2.from_bit_rows(zhat))
            return first_hits(cache, table, zhat)

        monkeypatch.setattr(decoder, "_first_hits", counted)
        got = self.lockstep(code, syndromes, decoder.lockstep_sequential_decomposition, eps)
        monkeypatch.undo()
        rz = code.h_z.rows
        self.assert_steps_equal_scalar(got, [
            scalar_decoder.sequential_decode(code, BitVector(rz, s), eps, return_state=True)
            for s in syndromes], len(syndromes))
        return got[1], scanned, got[2]

    @staticmethod
    def first_hit(code, zhat, theta):
        """(queued vertices, position of the first that finds a codeword)."""
        masks = scalar_decoder.tables(decoder.get_cache(code)).view_masks
        queued = [v for v, m in enumerate(masks) if m & zhat]
        hits = [i for i, v in enumerate(queued)
                if scalar_decoder.find_reducing_codeword(code, zhat, v, theta) is not None]
        return queued, hits[0] if hits else None

    def test_row_without_hit_is_not_drained(self, unique_code, monkeypatch):
        eps = Fraction(1, 3)
        stuck = crafted_syndrome(unique_code, [1], [61])
        # decodes right only if a vertex popped before its first hit is queued again
        moving = crafted_syndrome(unique_code, [6, 11, 17, 42, 54, 55], [])
        z0 = [scalar_decoder.initial_mismatch(unique_code, BitVector(unique_code.h_z.rows, s)).zhat
              for s in (stuck, moving)]
        queued, hit = self.first_hit(unique_code, z0[0], 1 - eps)
        assert queued and hit is None  # Ẑ meets views, but no codeword passes θ = 2/3
        assert self.first_hit(unique_code, z0[0], Fraction(1, 2))[1] is not None  # one passes 1/2
        zhat, scanned, steps = self.fifo_sequential(unique_code, [stuck, moving], eps, monkeypatch)
        assert zhat[0] == z0[0]
        # the stuck row is never stepped, and only the first pass scans it
        assert set(steps.columns()["row"].tolist()) == {1}
        assert scanned[0] == z0 and len(scanned) > 1
        assert all(len(rows) == 1 for rows in scanned[1:])

    def test_late_first_hit_decodes_as_scalar(self, unique_code, monkeypatch):
        eps = Fraction(2, 3)
        syndrome = crafted_syndrome(unique_code, [3, 22], [28])
        z0 = scalar_decoder.initial_mismatch(unique_code,
                                             BitVector(unique_code.h_z.rows, syndrome)).zhat
        queued, hit = self.first_hit(unique_code, z0, 1 - eps)
        assert hit is not None and hit > 0  # the first queued vertex finds nothing
        assert self.first_hit(unique_code, z0, Fraction(1, 2))[1] != hit  # θ matters here
        _, scanned, steps = self.fifo_sequential(unique_code, [syndrome], eps, monkeypatch)
        # the row's first step is at its first hit, on the initial Ẑ
        assert scanned[0] == [z0]
        assert steps.columns()["vertex"][0] == queued[hit]

    @staticmethod
    def parallel_lockstep(code, syndromes, k, monkeypatch):
        """(Ẑ rows, row count of every class packer call) of one lockstep
        parallel decode; checks f̂ against ``parallel_decode`` row by row."""
        cache, rz = decoder.get_cache(code), code.h_z.rows
        packed = []
        monkeypatch.setattr(cache, "packers", [
            lambda z, packer=packer: packed.append(len(z)) or packer(z)
            for packer in cache.packers])
        zhat, f = decoder.lockstep_initial_mismatch(cache, gf2.to_bit_rows(syndromes, rz))
        decoder.lockstep_parallel_decomposition(cache, zhat, f, k)
        monkeypatch.undo()
        want = [scalar_decoder.parallel_decode(code, BitVector(rz, s), k).bits
                for s in syndromes]
        assert gf2.from_bit_rows(f) == want
        return gf2.from_bit_rows(zhat), packed

    @staticmethod
    def hit_classes(code, zhat):
        """The sweep class of every vertex that finds a codeword in Ẑ at
        θ = 1/2, in sweep order."""
        order = decoder.get_cache(code).sweep_order
        return [i * 4 // len(order) for i, v in enumerate(order)
                if scalar_decoder.find_reducing_codeword(code, zhat, v, Fraction(1, 2))
                is not None]

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_parallel_row_without_hit_skips_the_class_steps(self, unique_code, k, monkeypatch):
        code = unique_code
        syndrome = crafted_syndrome(code, [5, 33], [])
        z0 = scalar_decoder.initial_mismatch(code, BitVector(code.h_z.rows, syndrome)).zhat
        floor = decoder.get_cache(code).scan_table(Fraction(1, 2))[1]
        # at or above the floor, so only the first-hit test can leave it out
        assert z0.bit_count() >= floor and self.hit_classes(code, z0) == []
        zhat, packed = self.parallel_lockstep(code, [syndrome], k, monkeypatch)
        assert zhat == [z0] and packed == []

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_parallel_row_with_hits_only_in_v11(self, unique_code, k, monkeypatch):
        code = unique_code
        syndrome = crafted_syndrome(code, [0, 26, 51], [])
        z0 = scalar_decoder.initial_mismatch(code, BitVector(code.h_z.rows, syndrome)).zhat
        # the V00 step finds nothing in the test's scans, V01 and V10 nothing in theirs
        assert set(self.hit_classes(code, z0)) == {3}
        zhat, packed = self.parallel_lockstep(code, [syndrome], k, monkeypatch)
        assert zhat != [z0] and packed[:3] == [1, 1, 1]

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_parallel_row_without_hit_in_sweep_2(self, unique_code, k, monkeypatch):
        code, rz = unique_code, unique_code.h_z.rows
        syndrome = crafted_syndrome(code, [14, 61], [41])
        _, swept = scalar_decoder.parallel_decode(code, BitVector(rz, syndrome), 1,
                                                  return_state=True)
        floor = decoder.get_cache(code).scan_table(Fraction(1, 2))[1]
        # sweep 1 removes codewords and leaves Ẑ at or above the floor, with no hit
        assert swept.steps and swept.zhat.bit_count() >= floor
        assert self.hit_classes(code, swept.zhat) == []
        zhat, packed = self.parallel_lockstep(code, [syndrome], k, monkeypatch)
        # the V01, V10 and V11 steps of sweep 1 (V00 reads the test's scans), no more
        assert zhat == [swept.zhat] and packed == [1, 1, 1]

    def test_view_words_hold_every_class_packer(self, batches):
        """The first-hit test's words, one per vertex in vertex order,
        hold each class packer's words at the columns of the class's
        vertices in sweep order (so the V00 step can read its scans from
        the test)."""
        cache = decoder.get_cache(batches[0])
        rows = (np.random.default_rng(9).random((40, cache.code.n)) < 0.5).astype(np.uint8)
        words = cache.view_words(rows)
        size = len(cache.sweep_order) // 4
        assert words.shape == (40, 4 * size) and words.any()
        for c, packer in enumerate(cache.packers):
            columns = cache.sweep_order[c * size:(c + 1) * size]
            np.testing.assert_array_equal(words[:, columns], packer(rows))

    @pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    def test_fifo_stop_equals_unbounded_fifo(self, batches, eps, unique_code):
        """The scalar and the lockstep FIFO, which both stop below the hit
        floor, end with the Ẑ, f̂ and steps of the scalar FIFO run to its
        end, on the sampled batch and the crafted syndromes above."""
        code, syndromes = batches[0], list(batches[1]["sampled"])
        if code is unique_code:
            syndromes += [crafted_syndrome(code, [1], [61]), crafted_syndrome(code, [3, 22], [28]),
                          crafted_syndrome(code, [6, 11, 17, 42, 54, 55], [])]
        stopped = 0
        unbounded = [unbounded_sequential(code, s, eps) for s in syndromes]
        for s, (want_f, want) in zip(syndromes, unbounded):
            f, state = scalar_decoder.sequential_decode(code, BitVector(code.h_z.rows, s), eps,
                                                        return_state=True)
            assert (f, state.zhat, state.steps) == (want_f, want.zhat, want.steps)
            stopped += bool(state.worklist)
        if code.h_z.rows:  # the stop rule left queued vertices unpopped
            assert stopped
        self.assert_steps_equal_scalar(
            self.lockstep(code, syndromes, decoder.lockstep_sequential_decomposition, eps),
            unbounded, len(syndromes))

    @pytest.mark.parametrize("batch", BATCHES)
    def test_initial_mismatch(self, batches, batch):
        code, syndromes = batches[0], batches[1][batch]
        rz = code.h_z.rows
        zhat, eps01 = decoder.lockstep_initial_mismatch(
            decoder.get_cache(code), gf2.to_bit_rows(syndromes, rz)
        )
        assert zhat.shape == eps01.shape == (len(syndromes), code.n)
        states = [scalar_decoder.initial_mismatch(code, BitVector(rz, s)) for s in syndromes]
        assert gf2.from_bit_rows(zhat) == [st.zhat for st in states]
        assert gf2.from_bit_rows(eps01) == [st.eps01_sum for st in states]

    @pytest.mark.parametrize("slots", [1, 2])
    def test_word_cache_collisions(self, batches, slots, monkeypatch):
        """Every lockstep step with word caches of one or two slots, where
        distinct words keep evicting each other, against the scalar
        decoders."""
        code, syndromes = batches
        monkeypatch.setattr(gf2.WordCache, "SLOTS", slots)
        monkeypatch.setattr(code, "_decoder_cache", None)  # a fresh cache, built with them
        cache, rz = decoder.get_cache(code), code.h_z.rows
        for batch in BATCHES:
            rows = gf2.to_bit_rows(syndromes[batch], rz)
            zhat, eps01 = decoder.lockstep_initial_mismatch(cache, rows)
            states = [scalar_decoder.initial_mismatch(code, BitVector(rz, s))
                      for s in syndromes[batch]]
            assert gf2.from_bit_rows(zhat) == [st.zhat for st in states]
            assert gf2.from_bit_rows(eps01) == [st.eps01_sum for st in states]
            for cfg in (DecoderConfig("parallel", k=1), DecoderConfig("parallel", k=2),
                        DecoderConfig("parallel", k=8), DecoderConfig("sequential"),
                        DecoderConfig("sequential", eps=Fraction(1, 3))):
                got = gf2.from_bit_rows(cfg.decode_lockstep(cache, rows))
                assert got == [scalar_decoder.decode(cfg, code, BitVector(rz, s))[0].bits
                               for s in syndromes[batch]]
        word_caches = [table for table, _ in cache._scan_tables.values()]
        if "leaders" in vars(cache):  # a cached_property: only there once built
            word_caches.append(cache.leaders)
        assert word_caches and {c.keys.size for c in word_caches} == {slots}

    @pytest.mark.parametrize("fixture", ["ref_code", "unique_code"])
    def test_scalar_and_array_lookups_share_one_memo(self, fixture, request, monkeypatch):
        """Lockstep decodes, then scalar decodes of the same syndromes, on a
        fresh cache: every coset leader and every scan at each θ is
        computed once across both paths, kept in its word cache's memo,
        and the scalar decodes find all of them there."""
        code = request.getfixturevalue(fixture)
        leaders, scans = [], []
        leader, scan = decoder._coset_leader_uncached, decoder._scan_uncached
        monkeypatch.setattr(decoder, "_coset_leader_uncached",
                            lambda cache, s: leaders.append(s) or leader(cache, s))
        monkeypatch.setattr(decoder, "_scan_uncached", lambda cache, thresholds, zloc: (
            scans.append((id(thresholds), zloc)) or scan(cache, thresholds, zloc)))
        monkeypatch.setattr(code, "_decoder_cache", None)  # a fresh cache, built with them
        cache, rz = decoder.get_cache(code), code.h_z.rows
        syndromes = sampled_syndromes(code)
        cfgs = [DecoderConfig("parallel", k=8), DecoderConfig("sequential")]
        rows = gf2.to_bit_rows(syndromes, rz)
        lockstep = [gf2.from_bit_rows(cfg.decode_lockstep(cache, rows)) for cfg in cfgs]
        asked = len(leaders), len(scans)
        assert asked[0] > 1 and asked[1] > 2  # more than the word 0 of each cache
        scalar = [[scalar_decoder.decode(cfg, code, BitVector(rz, s))[0].bits for s in syndromes]
                  for cfg in cfgs]
        assert lockstep == scalar
        assert (len(leaders), len(scans)) == asked
        assert len(leaders) == len(set(leaders)) and len(scans) == len(set(scans))
        assert set(leaders) == set(cache.leaders.memo)
        tables = {id(table.f.args[1]): table for table, _ in cache._scan_tables.values()}
        assert set(scans) == {(key, w) for key, table in tables.items() for w in table.memo}

    @pytest.mark.parametrize("batch", BATCHES)
    def test_vertex_support_rows(self, batches, batch):
        code, syndromes = batches[0], batches[1][batch]
        rz = code.h_z.rows
        got = noise._vertex_support_rows(decoder.get_cache(code), gf2.to_bit_rows(syndromes, rz))
        assert got.tolist() == [vertex_support(code, s) for s in syndromes]

    def test_syndrome_rows(self, ref_code):
        rng = np.random.default_rng(3)
        rows = (rng.random((50, ref_code.n)) < 0.1).astype(np.uint8)
        got = gf2.from_bit_rows(tanner.syndrome_rows_z(ref_code, rows))
        assert got == [np_mat_vec_gf2(ref_code.h_z, e) for e in gf2.from_bit_rows(rows)]

    def test_iteration_count_validated(self, ref_code, syndromes):
        cache = decoder.get_cache(ref_code)
        zhat, f = decoder.lockstep_initial_mismatch(
            cache, gf2.to_bit_rows(syndromes[:2], ref_code.h_z.rows)
        )
        with pytest.raises(ValueError, match="iteration count"):
            decoder.lockstep_parallel_decomposition(cache, zhat, f, 0)

    def test_eps_validated(self, ref_code, syndromes):
        cache = decoder.get_cache(ref_code)
        zhat, f = decoder.lockstep_initial_mismatch(
            cache, gf2.to_bit_rows(syndromes[:2], ref_code.h_z.rows)
        )
        with pytest.raises(ValueError, match="eps must be in"):
            decoder.lockstep_sequential_decomposition(cache, zhat, f, Fraction(1))


# Sweep blocks: ``run_sweep`` draws every trial of a block on its own
# stream under its point's noise, decodes the rows of all points in
# lockstep with one shared initial mismatch per slice and computes the
# columns as arrays.  Its reference is the per-trial scalar path:
# ``oracles.int_sample_errors`` on ``make_rng``, the oracle syndrome,
# each decoder's scalar decode, and the columns from the
# oracles.

SWEEP_DECODERS = [DecoderConfig("sequential"), DecoderConfig("sequential", eps=Fraction(1, 3)),
                  DecoderConfig("parallel", k=1), DecoderConfig("parallel", k=8)]

SWEEP_NOISE = {
    "bernoulli": NoiseModel(p=0.02, q=0.01),
    "zero": NoiseModel(),
    "adversarial": NoiseModel(data_kind="adversarial", w=3, persistence=0.5,
                              syn_kind="adversarial", s=2),
    "vertex_bounded": NoiseModel(p=0.01, syn_kind="vertex_bounded", t=2),
}


def scalar_sweep(code, model, point_idx, trial_ids, seed):
    """The records of trials ``trial_ids`` of point ``point_idx``, one
    per (trial, decoder), each trial decoded on its own stream."""
    p, q = model.pq_labels()
    records = []
    for t in trial_ids:
        stream = noise.sweep_stream_id(point_idx, t)
        e, d = int_sample_errors(code, model, make_rng(seed, stream))
        syn = BitVector(code.h_z.rows, np_mat_vec_gf2(code.h_z, e.bits) ^ d.bits)
        for cfg in SWEEP_DECODERS:
            residual = BitVector(code.n, e.bits ^ scalar_decoder.decode(cfg, code, syn)[0].bits)
            records.append(TrialRecord(
                "", cfg.kind, cfg.param, p, q, e.weight(), d.weight(), vertex_support(code, d),
                residual.weight(), greedy_reduce(code.h_x.data, residual.bits).bit_count(),
                tanner.classify_residual(code, residual), stream, 0.0))
    return records


def unbounded_sequential(code, syndrome, eps):
    """The scalar ``sequential_decode`` of a syndrome int with the FIFO
    run to its end: pop until Ẑ is 0 or the queue is empty, with no stop
    at the hit floor.  The reference for that stop rule, which the scalar
    ``_drain`` and the lockstep FIFO both apply; returns (f̂, state)."""
    state = scalar_decoder.initial_mismatch(code, BitVector(code.h_z.rows, syndrome))
    cache = decoder.get_cache(code)
    table, _ = cache.scan_table(1 - eps)
    corners = scalar_decoder.tables(cache).face_vertices
    work = state.worklist
    while state.zhat and work:
        v = work.popleft()
        state.in_queue[v] = 0
        changed = scalar_decoder._step(state, cache, table, v)
        requeue = {u for q in range(code.n) if changed >> q & 1 for u in corners[q]}
        for u in sorted(requeue):
            if not state.in_queue[u]:
                work.append(u)
                state.in_queue[u] = 1
    return scalar_decoder._finish(state), state


@pytest.mark.parametrize("kind", list(SWEEP_NOISE))
@pytest.mark.parametrize("fixture", ["ref_code", "unique_code", "rep5_code", "z8_z_side",
                                     "z5_code"])
def test_sweep_blocks_equal_scalar_trials(fixture, kind, request, monkeypatch):
    # one block holds a point of every noise kind, ``kind`` first
    code = request.getfixturevalue(fixture)
    kinds = list(SWEEP_NOISE)
    kinds = kinds[kinds.index(kind):] + kinds[:kinds.index(kind)]
    models = [replace(SWEEP_NOISE[k], s=min(SWEEP_NOISE[k].s, code.h_z.rows))  # z5: no H_Z
              for k in kinds]
    seed, trials = 40 + len(kind), 11
    want = [scalar_sweep(code, model, pi, range(trials), seed)
            for pi, model in enumerate(models)]

    def sweep(chunks):
        """Each point's records over the chunks, in trial order."""
        blocks = [noise.run_sweep(code, models, SWEEP_DECODERS, chunk, seed) for chunk in chunks]
        return [[rec for chunk in blocks for rec in trial_block_rows(chunk[pi])]
                for pi in range(len(models))]

    assert sweep([range(trials)]) == want
    assert sweep([range(0, 1), range(1, 5), range(5, trials)]) == want
    assert sweep([[t] for t in range(trials)]) == want
    monkeypatch.setattr(noise, "_SLICE_TRIALS", 3)  # slices straddle the point boundaries
    assert sweep([range(0, 4), range(4, trials)]) == want
    assert sweep([range(trials)]) == want
    if kind != "zero":  # the noise of the leading point is not vacuous
        assert any(r.e_weight or r.d_weight for r in want[0])
    for records in want:
        assert {r.decoder + r.param for r in records} == {c.kind + c.param
                                                          for c in SWEEP_DECODERS}


def test_sweep_block_timing_fills_only_ms(unique_code):
    models = [SWEEP_NOISE["bernoulli"], SWEEP_NOISE["adversarial"]]
    plain = noise.run_sweep(unique_code, models, SWEEP_DECODERS, range(6), 3)
    timed = noise.run_sweep(unique_code, models, SWEEP_DECODERS, range(6), 3,
                            record_timing=True)
    for a, b in zip(plain, timed, strict=True):
        assert (a.heads, a.seeds, a.stats.tolist(), a.classes.tolist()) == \
            (b.heads, b.seeds, b.stats.tolist(), b.classes.tolist())
        assert a.ms == [0.0] * len(SWEEP_DECODERS)
        assert all(ms > 0 for ms in b.ms)
    empty = noise.run_sweep(unique_code, models, SWEEP_DECODERS, [], 3, record_timing=True)
    assert [(b.stats.shape, b.ms) for b in empty] == [((0, 4, 5), [0.0] * 4)] * 2


def test_greedy_reduced_weights_equal_scalar(ref_code, unique_code, z5_code):
    rng = np.random.default_rng(5)
    for code in (ref_code, unique_code, z5_code):
        rows = (rng.random((60, code.n)) < rng.random((60, 1)) * 0.3).astype(np.uint8)
        got = tanner.greedy_reduce_rows(code, rows)[1]
        assert got.tolist() == [greedy_reduce(code.h_x.data, bits).bit_count()
                                for bits in gf2.from_bit_rows(rows)]


class TestRekeyedRng:
    """The shared re-keyed generator draws what a fresh ``make_rng``
    draws, whatever the previous stream left in its buffers."""

    KEYS = [(0, 0), (1, 5), (7, 1 << 20), ((1 << 64) - 1, (1 << 64) - 1), (123, (1 << 63) + 9)]

    @staticmethod
    def draws(rng):
        return (rng.integers(0, 10, size=3).tolist(), rng.random(5).tolist(),
                rng.choice(40, size=6, replace=False).tolist(),
                rng.integers(1, 1 << 12), rng.random(3).tolist())

    @pytest.mark.parametrize("seed, stream", KEYS)
    def test_same_draws_as_make_rng(self, seed, stream):
        # leave a half-used 32-bit buffer and a partly used Philox buffer
        prev = noise.rekeyed_rng(3, 4)
        prev.integers(0, 10)
        prev.random(1)
        assert prev.bit_generator.state["has_uint32"] == 1
        assert self.draws(noise.rekeyed_rng(seed, stream)) == self.draws(make_rng(seed, stream))

    def test_key_layout(self):
        seed, stream = 5, 7
        philox = np.random.Generator(np.random.Philox(key=(seed << 64) | stream))
        assert philox.random(4).tolist() == noise.rekeyed_rng(seed, stream).random(4).tolist()

    @pytest.mark.parametrize("seed, stream, message", [
        (-1, 0, "seed -1"), (1 << 64, 0, "seed"), (0, -1, "stream id -1"),
        (0, 1 << 64, "stream id"),
    ])
    def test_out_of_range_keys_raise(self, seed, stream, message):
        for make in (make_rng, noise.rekeyed_rng):
            with pytest.raises(ValueError, match=message):
                make(seed, stream)
