"""Lockstep multi-round decoding against the scalar decoders.

``noise.run_multiround`` runs a batch of trials one round at a time as
numpy arrays.  Its reference here is the per-trial loop it replaced:
``sample_errors`` -> ``syndrome_bits_z`` -> ``DecoderConfig.decode``,
the residual fed forward, then one ideal sequential readout.  Every
CSV row, round by round and the final readout's residual weight and
class, must match trial by trial.
"""

from fractions import Fraction

import numpy as np
import pytest

from qtanner import cayley, codes, decoder, gf2, noise, tanner
from qtanner.gf2 import BitVector
from qtanner.noise import DecoderConfig, NoiseModel, make_rng


def scalar_multiround(code, model, cfg, rounds, rng, instance_id, seed):
    """The ``RoundRow`` list of one trial of the multi-round protocol,
    decoded one round at a time."""
    rz = code.h_z.rows
    head = (instance_id, cfg.kind, cfg.param, *model.pq_labels(), seed)
    residual = prev = 0
    rows = []
    for i in range(1, rounds + 1):
        e, d = noise.sample_errors(code, model, rng, prev_data=prev)
        prev = e.bits
        syn = BitVector(rz, tanner.syndrome_bits_z(code, residual ^ e.bits) ^ d.bits)
        residual ^= e.bits ^ cfg.decode(code, syn).bits
        rows.append(noise.RoundRow(*head, i, e.weight(), d.weight(),
                                   noise.vertex_support_size(code, d), residual.bit_count(),
                                   "", seed))
    ideal = BitVector(rz, tanner.syndrome_bits_z(code, residual))
    f_final = decoder.sequential_decode(code, ideal, Fraction(1, 2))
    final = BitVector(code.n, residual ^ f_final.bits)
    rows.append(noise.RoundRow(*head, "final", 0, 0, 0, final.weight(),
                               tanner.classify_residual(code, final), seed))
    return rows


@pytest.fixture(scope="module")
def z8_z_side():
    """The Z side of Z8 with par_3 locals (rep_3 on the decoded side)."""
    cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
    return tanner.build_tanner_code(cx, codes.parity_code(3), codes.parity_code(3)).z_side()


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
]


@pytest.mark.parametrize("fixture, cfg, model, trials, rounds", CASES)
def test_lockstep_equals_scalar_loop(fixture, cfg, model, trials, rounds, request):
    code = request.getfixturevalue(fixture)
    seed = 500 + CASES.index((fixture, cfg, model, trials, rounds))
    rows = noise.run_multiround(
        code, model, cfg, rounds, [make_rng(seed, t) for t in range(trials)],
        instance_id="x", seeds=range(100, 100 + trials),
    )
    assert len(rows) == trials * (rounds + 1)
    assert [r.trial for r in rows if r.round == "final"] == list(range(100, 100 + trials))
    moved = 0
    for t in range(trials):
        got = rows[t * (rounds + 1):(t + 1) * (rounds + 1)]
        want = scalar_multiround(code, model, cfg, rounds, make_rng(seed, t), "x", 100 + t)
        assert got == want, f"trial {t}"
        moved += any(r.e_weight or r.d_weight for r in got)
    assert moved > 0  # the noise is not vacuous


def test_empty_batch_and_seed_count(unique_code):
    cfg = DecoderConfig("parallel", k=1)
    assert noise.run_multiround(unique_code, BERNOULLI, cfg, 3, []) == []
    with pytest.raises(ValueError, match="seeds"):
        noise.run_multiround(unique_code, BERNOULLI, cfg, 3, [make_rng(1, 0)], seeds=[0, 1])


class TestLockstepDecoders:
    """One lockstep decode of many syndromes equals the scalar decoder
    on each, for every iteration count and both schedules."""

    @pytest.fixture(scope="class")
    def syndromes(self, ref_code):
        rng = make_rng(77, 0)
        rows = []
        for t in range(120):
            e, d = noise.sample_errors(ref_code, NoiseModel(p=0.01 * (t % 4), q=0.01), rng)
            rows.append(tanner.syndrome_bits_z(ref_code, e.bits) ^ d.bits)
        return rows

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_parallel(self, ref_code, syndromes, k):
        got = decoder.parallel_decode_lockstep(
            ref_code, gf2.to_bit_rows(syndromes, ref_code.h_z.rows), k
        )
        want = [decoder.parallel_decode(ref_code, BitVector(ref_code.h_z.rows, s), k).bits
                for s in syndromes]
        assert gf2.from_bit_rows(got) == want

    def test_sequential(self, ref_code, syndromes):
        got = decoder.sequential_decode_lockstep(
            ref_code, gf2.to_bit_rows(syndromes, ref_code.h_z.rows), Fraction(1, 2)
        )
        want = [decoder.sequential_decode(ref_code, BitVector(ref_code.h_z.rows, s)).bits
                for s in syndromes]
        assert gf2.from_bit_rows(got) == want

    def test_initial_mismatch(self, ref_code, syndromes):
        cache = decoder.get_cache(ref_code)
        zhat, eps01 = decoder.lockstep_initial_mismatch(
            cache, gf2.to_bit_rows(syndromes, ref_code.h_z.rows)
        )
        states = [decoder.initial_mismatch(ref_code, BitVector(ref_code.h_z.rows, s))
                  for s in syndromes]
        assert gf2.from_bit_rows(zhat) == [st.zhat for st in states]
        assert gf2.from_bit_rows(eps01) == [st.eps01_sum for st in states]

    def test_syndrome_rows(self, ref_code):
        rng = np.random.default_rng(3)
        rows = (rng.random((50, ref_code.n)) < 0.1).astype(np.uint8)
        got = gf2.from_bit_rows(tanner.syndrome_rows_z(ref_code, rows))
        assert got == [tanner.syndrome_bits_z(ref_code, e) for e in gf2.from_bit_rows(rows)]

    def test_iteration_count_validated(self, ref_code, syndromes):
        with pytest.raises(ValueError, match="iteration count"):
            decoder.parallel_decode_lockstep(
                ref_code, gf2.to_bit_rows(syndromes[:2], ref_code.h_z.rows), 0
            )
