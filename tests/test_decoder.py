"""Mismatch-decomposition decoders: local corrections, candidate search,
sequential and parallel decomposition, and the full decode pipelines.

The search, the initial mismatch and the two decompositions are tested
on the Python-int reference ``scalar_decoder``, which test_lockstep
checks the package's lockstep decoder against step by step; the full
decoders run through the package's one-row views."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import math
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtanner import cayley, codes, decoder, gf2, noise, tanner
from qtanner.decoder import get_cache
from qtanner.errors import BudgetError, LocalCacheError
from qtanner.gf2 import BitVector
from qtanner.noise import DecoderConfig, make_rng
from qtanner.tanner import syndrome_bits_z

import scalar_decoder
from oracles import coset_leader_table, exhaustive_min_cr, extract, np_mat_vec_gf2
from scalar_decoder import (
    MismatchState,
    coset_leader,
    find_reducing_codeword,
    initial_mismatch,
    parallel_mismatch_decomposition,
    scatter,
    sequential_mismatch_decomposition,
    tables,
)


class TestAsFraction:
    def test_decimal_float_is_exact(self):
        assert decoder.as_fraction(0.1) == Fraction(1, 10)
        assert decoder.as_fraction(0.5) == Fraction(1, 2)

    def test_string_and_fraction_pass_through(self):
        assert decoder.as_fraction("1/3") == Fraction(1, 3)
        assert decoder.as_fraction(Fraction(2, 7)) == Fraction(2, 7)


def random_error(code, weight, rng):
    bits = 0
    for p in rng.choice(code.n, size=weight, replace=False):
        bits |= 1 << int(p)
    return bits


def noiseless_syndrome(code, e_bits):
    return BitVector(code.h_z.rows, syndrome_bits_z(code, e_bits))


def decode_class(code, e_bits, f):
    return tanner.classify_residual(code, BitVector(code.n, e_bits ^ f.bits))


def sequential_decode(code, syn, eps=Fraction(1, 2)):
    """f̂ of the package's sequential decoder (a one-row lockstep decode)."""
    f, _ = decoder.sequential_decode(code, syn, eps)
    return BitVector(code.n, gf2.from_bit_rows(f)[0])


def parallel_decode(code, syn, k):
    """f̂ of the package's parallel decoder (a one-row lockstep decode)."""
    f, _ = decoder.parallel_decode(code, syn, k)
    return BitVector(code.n, gf2.from_bit_rows(f)[0])


class TestLocalCodewordCache:
    def test_discarded_code_is_freed_without_cyclic_collection(self):
        # the cache keeps the complex, not the code that holds the cache:
        # a code whose cache has decoded rows is freed as soon as it is
        # dropped, with the cyclic collector off
        enabled = gc.isenabled()
        gc.disable()
        try:
            cx = cayley.build_complex(cayley.build_group("cyclic", 8), [1, 7, 4], [1, 7, 4])
            code = tanner.QuantumTannerCode(cx, codes.repetition_code(3),
                                            codes.repetition_code(3))
            cfgs = [DecoderConfig("sequential"), DecoderConfig("parallel", k=2)]
            [block] = noise.run_sweep(code, [noise.NoiseModel(p=0.05, q=0.02)], cfgs,
                                      range(8), 1)
            assert block.stats[:, :, 0].any()  # some rows were decoded
            ref = weakref.ref(code)
            del code
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_masks_are_codewords_sorted_by_weight(self, ref_code):
        cache = get_cache(ref_code)
        dt = ref_code.x_correction_code
        assert len(cache.masks) == (1 << dt.dim) - 1
        weights = list(cache.weights)
        assert weights == sorted(weights, reverse=True)
        for m in cache.masks[:50]:
            assert not np_mat_vec_gf2(dt.pchk, int(m))

    # κ of the code's X side, and of the code where both sides are in budget
    @pytest.mark.parametrize("name, x_kappa, kappa", [
        ("ref_code", Fraction(1, 4), Fraction(1, 4)),
        ("unique_code", Fraction(5, 9), Fraction(1, 3)),
        ("rep3_par3_code", Fraction(1, 3), Fraction(1, 3)),
        ("rep5_code", Fraction(13, 25), None),
    ])
    def test_masks_in_the_lexsort_order(self, name, x_kappa, kappa, request):
        # the order the cache once built with one lexsort of every
        # codeword: weight descending, lex key ascending within a weight
        code = request.getfixturevalue(name)
        cache = get_cache(code)
        masks = cache.dt.codewords()
        w = np.bitwise_count(masks).astype(np.int64)
        want = masks[np.lexsort((gf2.lex_keys(masks, cache.n), cache.n - w))]
        assert np.array_equal(cache.masks, want)
        assert np.array_equal(cache.weights, np.bitwise_count(want).astype(np.int64))
        assert cache.dt.kappa == x_kappa
        if kappa is not None:
            assert code.kappa == kappa

    def test_cached_split_matches_min_cr_oracle(self, ref_code):
        # the independent column-assignment search, not dt.split, the
        # routine the cache calls
        cache = decoder.LocalCodewordCache(ref_code)
        dt = ref_code.x_correction_code
        rng = make_rng(21, 0)
        for i in rng.choice(len(cache.masks), size=25, replace=False):
            i = int(i)
            x = int(cache.masks[i])
            _, c, r = exhaustive_min_cr(dt, x)
            assert cache.split_many([i]) == [(c, r)]
            assert c ^ r == x
        assert cache.split_many([i])[0] is cache.splits[i]

    # sha256 over (mask, weight, c, r) of every cached codeword in cache
    # order, recorded from the table-walk implementation this replaced
    PINNED_SPLITS = {
        "rep4_par4": (8191, "5d6b8f546228222deb9b388a307c3d681933459bd1a19f98e0e7985f3360489a"),
        "rep3_rep3": (31, "951bfd32b25b12cff55008f4dbecb166120f406eca37effafd9ccabd6ff7f49a"),
        "rep5_rep5": (511, "29f61379e3ec1ba6523feca53afb24430d7c088d15b4d473f42d074b6dea95f4"),
        "rep6_rep6": (2047, "892213531f03557d28074e1850503f4f654a05fc5b0e9372c80d95a75617225e"),
        "rep7_rep7": (8191, "5f4a52ff6ea98ac2440a25339596dad9c559517935b99928b6d312aa0e5bdad0"),
        "par4_rep4": (8191, "7cd89653160c4c2faf467c4404816afa878bd554219e8a44ac6d2a7fbe15c53a"),
    }

    @pytest.mark.parametrize("pair", sorted(PINNED_SPLITS))
    def test_masks_weights_and_splits_pinned(self, pair, ref_code, unique_code, rep5_code,
                                            z_side):
        codes_by_pair = {
            "rep4_par4": lambda: ref_code,
            "rep3_rep3": lambda: unique_code,
            "rep5_rep5": lambda: rep5_code,
            "rep6_rep6": lambda: rep_code(12, [1, 11, 2, 10, 3, 9]),
            "rep7_rep7": lambda: rep_code(14, [1, 13, 2, 12, 3, 11, 7]),
            "par4_rep4": lambda: z_side(ref_code),
        }
        cache = decoder.LocalCodewordCache(codes_by_pair[pair]())
        _, c, r = cache.dt.split(cache.masks)
        digest = hashlib.sha256()
        for row in zip(cache.masks.tolist(), cache.weights.tolist(), c.tolist(), r.tolist()):
            digest.update("{} {} {} {}\n".format(*row).encode())
        assert (len(cache.masks), digest.hexdigest()) == self.PINNED_SPLITS[pair]

    def test_set_up_splits_nothing_and_decodes_split_what_they_apply(self, monkeypatch):
        calls = []
        split = codes.DualTensorCode.split

        def counted(dt, xs):
            calls.append(len(xs))
            return split(dt, xs)

        monkeypatch.setattr(codes.DualTensorCode, "split", counted)
        # a fresh copy of the reference instance, so no memo is shared
        cx = cayley.build_complex(cayley.build_group("cyclic", 13), [1, 12, 5, 8], [1, 12, 5, 8])
        code = tanner.QuantumTannerCode(cx, codes.repetition_code(4), codes.parity_code(4))
        cache = get_cache(code)
        assert calls == [] and cache.splits == {}
        rng = make_rng(23, 0)
        syndromes = [noiseless_syndrome(code, random_error(code, 12, rng)) for _ in range(6)]
        rows = gf2.to_bit_rows([s.bits for s in syndromes], code.h_z.rows)
        DecoderConfig("parallel", k=4).decode_lockstep(cache, rows)
        split_in_lockstep = set(cache.splits)
        applied = set()
        for s in syndromes:
            _, steps = decoder.parallel_decode(code, s, 4)
            applied.update(steps.columns()["codeword"].tolist())
        # lockstep splits only what it removes at V00 and V11, where f̂
        # takes a single part of the codeword
        assert split_in_lockstep and split_in_lockstep <= applied
        for s in syndromes:
            _, state = scalar_decoder.sequential_decode(code, s, return_state=True)
            applied.update(step.codeword for step in state.steps)
        # the scalar steps split every codeword they apply
        assert set(cache.splits) == applied
        assert sum(calls) == len(applied)  # each codeword split once

    def test_budget_refusal(self):
        g = cayley.build_group("cyclic", 5)
        cx = cayley.build_complex(g, [1, 2, 3, 4], [1, 2, 3, 4])
        # full-space locals make C_A boxplus C_B the whole 16-bit space
        code = tanner.QuantumTannerCode(cx, codes.full_space(4), codes.full_space(4))
        assert code.h_z.rows == 0
        # dim 16 is within budget; push over it with a 5x5 grid (dim 21)
        g5 = cayley.build_group("cyclic", 12)
        cx5 = cayley.build_complex(g5, [1, 11, 2, 10, 6], [1, 11, 2, 10, 6])
        big = tanner.QuantumTannerCode(cx5, codes.repetition_code(5), codes.parity_code(5))
        with pytest.raises(BudgetError):
            get_cache(big)

    def test_missing_codewords_raise(self, ref_code, monkeypatch):
        # a claimed dimension the kernel of the local checks cannot reach
        dt = ref_code.x_correction_code
        too_big = dataclasses.replace(dt, dim=dt.dim + 1)
        monkeypatch.setattr(ref_code, "x_correction_code", too_big)
        with pytest.raises(LocalCacheError, match="nonzero codewords"):
            decoder.LocalCodewordCache(ref_code)

    @staticmethod
    def build_views_from(code, view_table):
        """``_build_views`` of ``code`` with its complex's view table
        replaced by ``view_table``."""
        cx = copy.copy(code.complex)
        cx.view_table = view_table
        stub = types.SimpleNamespace(
            complex=cx, v0_vertices=code.v0_vertices, v1_vertices=code.v1_vertices
        )
        cache = decoder.LocalCodewordCache.__new__(decoder.LocalCodewordCache)
        cache._build_views(stub)

    def test_overlapping_same_class_views_raise(self, ref_code):
        # every vertex given the view of vertex 0
        cx = ref_code.complex
        table = np.repeat(cx.view_table[:1], cx.num_vertices, axis=0)
        with pytest.raises(LocalCacheError, match="overlaps"):
            self.build_views_from(ref_code, table)

    def test_face_outside_the_complex_raises(self, ref_code):
        # the first V01 vertex lists face f as f - num_faces (which numpy
        # indexing would wrap to f) or as f + num_faces (past the faces):
        # no class repeats a face, and the range check names both
        code = ref_code
        v, faces = code.v1_vertices[0], code.complex.num_faces
        for shift in (-faces, faces):
            table = code.complex.view_table.copy()
            table[v, 0] += shift
            with pytest.raises(LocalCacheError, match=(
                    rf"view of vertex {v} holds face {table[v, 0]}, outside the complex")):
                self.build_views_from(code, table)

    def test_views_that_miss_a_face_raise(self, ref_code):
        # every view loses its last face: no class repeats a face, but no
        # class covers all of them
        table = ref_code.complex.view_table[:, :-1]
        with pytest.raises(LocalCacheError, match="do not cover the faces"):
            self.build_views_from(ref_code, table)

    def test_sweep_class_out_of_vertex_order_raises(self, ref_code):
        # V00 lists its first two vertices swapped: the class still
        # partitions the faces, but it is no longer one slice of vertex ids
        cx = ref_code.complex
        v0 = list(ref_code.v0_vertices)
        v0[0], v0[1] = v0[1], v0[0]
        stub = types.SimpleNamespace(
            complex=cx, v0_vertices=v0, v1_vertices=ref_code.v1_vertices)
        cache = decoder.LocalCodewordCache.__new__(decoder.LocalCodewordCache)
        with pytest.raises(LocalCacheError, match="not a run of consecutive vertex ids"):
            cache._build_views(stub)

    def test_face_repeated_within_one_view_raises(self, ref_code):
        # vertex 0 (the first of sweep class V00) lists its first face
        # twice: no two views of the class meet, but one face is missing
        table = ref_code.complex.view_table.copy()
        table[0, 1] = table[0, 0]
        with pytest.raises(LocalCacheError,
                           match="view of vertex 0 overlaps another view of class 0"):
            self.build_views_from(ref_code, table)


def rep_code(m, gens):
    """Cyclic group Z_m with generators gens on both sides, rep_Δ locals."""
    cx = cayley.build_complex(cayley.build_group("cyclic", m), gens, gens)
    delta = len(gens)
    return tanner.QuantumTannerCode(
        cx, codes.repetition_code(delta), codes.repetition_code(delta)
    )


def local_syndrome_of(dt, y):
    """Syndrome of local pattern y under H_A ⊗ H_B, one check at a time."""
    return sum(((row & y).bit_count() & 1) << i for i, row in enumerate(dt.pchk.data))


@pytest.fixture(scope="module")
def rep5_oracle(rep5_code):
    dt = rep5_code.x_correction_code
    return coset_leader_table(dt.pchk.data, dt.n)


class TestEchelonSolve:
    """``dt.echelon.solve`` of each unit syndrome, from one elimination
    of [H_A ⊗ H_B | I], and the coset leaders solved from it, on the
    reference, Z8/rep_3, Z₁₂/rep_5 and Z₁₄/rep_7 instances."""

    @staticmethod
    def instance(name, request):
        if name == "z14_rep7":
            return rep_code(14, [1, 13, 2, 12, 3, 11, 7])
        return request.getfixturevalue(name)

    @pytest.mark.parametrize("name", ["ref_code", "unique_code", "rep5_code", "z14_rep7"])
    def test_unit_solves_have_unit_syndromes_and_leaders_match_oracle(self, name, request):
        code = self.instance(name, request)
        dt = code.x_correction_code
        cache = get_cache(code)
        r = dt.pchk.rows
        solves = [dt.echelon.solve(BitVector(r, 1 << i)).bits for i in range(r)]
        assert [local_syndrome_of(dt, y) for y in solves] == [1 << i for i in range(r)]
        # every error of weight <= 2 and 100 random ones of weight 3
        rng = np.random.default_rng(5)
        errors = [sum(1 << p for p in ps) for w in range(3)
                  for ps in itertools.combinations(range(dt.n), w)]
        errors += [sum(1 << int(p) for p in rng.choice(dt.n, 3, replace=False))
                   for _ in range(100)]
        syndromes = sorted({local_syndrome_of(dt, e) for e in errors})
        if r <= 4:
            syndromes = list(range(1 << r))
        oracle = coset_leader_table(dt.pchk.data, dt.n, syndromes)
        assert [coset_leader(cache, s) for s in syndromes] == [oracle[s] for s in syndromes]

    @pytest.mark.parametrize("plant, named", [
        # check 3 the sum of checks 1 and 2
        (lambda rows: rows[:3] + [rows[1] ^ rows[2]] + rows[3:], 1),
        # check 3 the sum of checks 0 and 2
        (lambda rows: rows[:3] + [rows[0] ^ rows[2]] + rows[3:], 0),
        # two independent relations, {2, 3, 4} and {3, 5}
        (lambda rows: rows + [rows[2] ^ rows[3], rows[3]], 2),
    ])
    def test_dependent_local_check_is_named(self, unique_code, monkeypatch, plant, named):
        # H_A ⊗ H_B (4 checks) with planted dependent checks: the same
        # kernel, so the same codewords, but syndrome 1 << named is out
        # of reach, and no lower unit syndrome is
        dt = unique_code.x_correction_code
        rows = plant(dt.pchk.data)
        pchk = gf2.BitMatrix(len(rows), dt.n, rows)
        # a fresh dt, so a fresh echelon of the planted checks
        monkeypatch.setattr(unique_code, "x_correction_code", dataclasses.replace(dt, pchk=pchk))
        with pytest.raises(LocalCacheError, match=f"local check {named} depends on the other"):
            decoder.LocalCodewordCache(unique_code)


class TestLocalMinCorrection:
    """Coset leaders of local syndromes (the memo ``cache.leaders``), lifted
    to global faces as the scalar ``initial_mismatch`` does."""

    def test_zero_syndrome(self, ref_code):
        v = ref_code.v1_vertices[0]
        view = ref_code.complex.view_table[v].tolist()
        assert scatter(coset_leader(get_cache(ref_code), 0), view) == 0
        # at once, reading no cache: every leader word cache asks it at build,
        # and a scan of the reference's 8,191 codewords would cost memory
        assert decoder._coset_leader_uncached(None, 0) == 0

    def test_weight1_unique_when_columns_distinct(self, unique_code):
        # local checks have distinct columns: each single-face error is
        # returned exactly
        cache = get_cache(unique_code)
        for v in unique_code.v1_vertices[:4]:
            view = tables(cache).views[v]
            for p in range(len(view)):
                s = 0
                for i, row in enumerate(unique_code.z_check_basis.data):
                    s |= ((row >> p) & 1) << i
                assert scatter(coset_leader(cache, s), view) == 1 << view[p]

    def test_matches_exhaustive_local_scan(self, ref_code):
        cache = get_cache(ref_code)
        v = ref_code.v1_vertices[3]
        view = tables(cache).views[v]
        rows = ref_code.z_check_basis.data
        for s in range(1 << ref_code.r1):
            got = scatter(coset_leader(cache, s), view)
            # exhaustive 2^(delta^2) scan for the minimum achievable weight
            best = min(
                y.bit_count()
                for y in range(1 << 16)
                if all(((r & y).bit_count() & 1) == ((s >> i) & 1) for i, r in enumerate(rows))
            )
            got_local = sum(1 for q in view if (got >> q) & 1)
            assert got_local == got.bit_count() == best

    @pytest.mark.parametrize("fixture", ["rep3_par3_code", "unique_code", "ref_code"])
    def test_every_syndrome_matches_enumeration_oracle(self, fixture, request):
        # rep_3/par_3, rep_3/rep_3 and rep_4/par_4: equal leaders, so equal
        # tie-breaks, on every syndrome
        code = request.getfixturevalue(fixture)
        dt = code.x_correction_code
        cache = get_cache(code)
        oracle = coset_leader_table(dt.pchk.data, dt.n)
        assert len(oracle) == 1 << dt.pchk.rows
        for s, y in oracle.items():
            assert coset_leader(cache, s) == y
            assert cache.leaders.memo[s] == y

    @given(s=st.integers(0, (1 << 16) - 1))
    def test_rep5_syndromes_match_enumeration_oracle(self, rep5_code, rep5_oracle, s):
        assert coset_leader(get_cache(rep5_code), s) == rep5_oracle[s]

    def test_rep6_errors_within_radius_are_their_own_leaders(self):
        # r = 25 local checks: 2^25 syndromes, found one at a time
        code = rep_code(7, [1, 6, 2, 5, 3, 4])
        dt = code.x_correction_code
        cache = get_cache(code)
        assert dt.pchk.rows == 25
        d = int(cache.weights.min())
        t_loc = (d - 1) // 2
        assert (d, t_loc) == (6, 2)  # d(rep_6 ⊞ rep_6) = d(rep_6)
        for w in range(t_loc + 1):
            for positions in itertools.combinations(range(dt.n), w):
                e = sum(1 << p for p in positions)
                assert coset_leader(cache, local_syndrome_of(dt, e)) == e
        # weight 3 = d/2 inside one local row or column ties with the rest
        # of that row or column; the leader is the oracle's
        lines = [list(range(6)), list(range(0, 36, 6))]
        errors = [
            sum(1 << p for p in positions)
            for line in lines
            for positions in itertools.combinations(line, 3)
        ]
        syndromes = [local_syndrome_of(dt, e) for e in errors]
        oracle = coset_leader_table(dt.pchk.data, dt.n, syndromes)
        for s in syndromes:
            assert coset_leader(cache, s) == oracle[s]


class TestInitialMismatch:
    def test_zero_syndrome(self, ref_code):
        state = initial_mismatch(ref_code, BitVector(ref_code.h_z.rows, 0))
        assert state.zhat == 0 and state.eps01_sum == 0
        assert len(state.worklist) == 0

    def test_aligned_single_face_cancels(self, ref_code):
        # face 0 sits at local position 0 of both V1 views, where the
        # leaders are exact, so the two corrections agree and cancel
        state = initial_mismatch(ref_code, noiseless_syndrome(ref_code, 1))
        assert state.zhat == 0
        assert state.eps01_sum == 1

    def test_every_single_face_cancels_with_unique_leaders(self, unique_code):
        for q in range(unique_code.n):
            state = initial_mismatch(unique_code, noiseless_syndrome(unique_code, 1 << q))
            assert state.zhat == 0
            assert state.eps01_sum == 1 << q

    def test_mismatch_bound_and_worklist(self, ref_code):
        cache = get_cache(ref_code)
        rng = make_rng(23, 0)
        for _ in range(50):
            e = random_error(ref_code, 4, rng)
            state = initial_mismatch(ref_code, noiseless_syndrome(ref_code, e))
            assert state.zhat.bit_count() <= 4 * e.bit_count()
            queued = set(state.worklist)
            for v in range(ref_code.complex.num_vertices):
                intersects = bool(tables(cache).view_masks[v] & state.zhat)
                assert (v in queued) == intersects


class TestFindReducingCodeword:
    def test_absent_when_view_disjoint(self, ref_code):
        state = initial_mismatch(ref_code, noiseless_syndrome(ref_code, 1 << 5))
        v_far = ref_code.v1_vertices[-1]
        assert find_reducing_codeword(ref_code, 0, v_far, Fraction(1, 2)) is None

    def test_fully_contained_codeword_qualifies(self, ref_code):
        cache = get_cache(ref_code)
        v = ref_code.v0_vertices[0]
        x_local = int(cache.masks[0])  # heaviest codeword
        zhat = scatter(x_local, tables(cache).views[v])
        got = find_reducing_codeword(ref_code, zhat, v, Fraction(1, 1))
        assert got is not None
        x, c, r = got
        assert x == x_local
        assert c ^ r == x

    def test_matches_exhaustive_scan(self, ref_code):
        cache = get_cache(ref_code)
        rng = make_rng(27, 0)
        theta = Fraction(1, 2)
        for t in range(40):
            zhat = random_error(ref_code, 6, rng)
            v = int(rng.integers(0, ref_code.complex.num_vertices))
            got = find_reducing_codeword(ref_code, zhat, v, theta)
            zloc = extract(zhat, tables(cache).views[v])
            best = None
            for i in range(len(cache.masks)):
                x = int(cache.masks[i])
                w = int(cache.weights[i])
                red = 2 * (x & zloc).bit_count() - w
                if red >= -((-theta.numerator * w) // theta.denominator):
                    best = (x, *exhaustive_min_cr(ref_code.x_correction_code, x)[1:])
                    break
            assert got == best


class TestSequentialDecomposition:
    def test_zero_mismatch(self, ref_code):
        state = initial_mismatch(ref_code, BitVector(ref_code.h_z.rows, 0))
        accs = sequential_mismatch_decomposition(state)
        assert all(a.bits == 0 for a in accs)
        assert state.steps == []

    def test_single_planted_codeword_clears_in_one_step(self, ref_code):
        cache = get_cache(ref_code)
        v = 0  # first vertex in FIFO seed order, so it is scanned first
        x_local = int(cache.masks[0])  # heaviest, so the scan picks it first
        zhat = scatter(x_local, tables(cache).views[v])
        state = MismatchState.seeded(ref_code, zhat)
        sequential_mismatch_decomposition(state, Fraction(1, 2))
        assert state.zhat == 0
        assert len(state.steps) >= 1
        assert state.steps[0].x_weight == x_local.bit_count()

    def test_conservation_and_monotonicity(self, ref_code):
        rng = make_rng(29, 0)
        eps = Fraction(1, 2)
        for _ in range(60):
            e = random_error(ref_code, 5, rng)
            state = initial_mismatch(ref_code, noiseless_syndrome(ref_code, e))
            c0, c1, r0, r1 = sequential_mismatch_decomposition(state, eps)
            total = c0.bits ^ c1.bits ^ r0.bits ^ r1.bits
            assert state.zhat == state.initial_zhat ^ total
            prev = state.initial_zhat.bit_count()
            for step in state.steps:
                assert step.weight_before == prev
                drop = step.weight_before - step.weight_after
                need = -((-eps.numerator * step.x_weight) // eps.denominator)
                # threshold is ceil((1-eps)|x|) with eps = 1/2 here
                assert drop >= (step.x_weight + 1) // 2
                assert drop >= 1
                prev = step.weight_after


class TestParallelDecomposition:
    def test_zero(self, ref_code):
        state = initial_mismatch(ref_code, BitVector(ref_code.h_z.rows, 0))
        accs = parallel_mismatch_decomposition(state, 3)
        assert all(a.bits == 0 for a in accs)

    def test_single_codeword_cleared_in_first_sweep(self, ref_code):
        cache = get_cache(ref_code)
        v = ref_code.v0_vertices[5]
        x_local = int(cache.masks[0])
        zhat = scatter(x_local, tables(cache).views[v])
        state = MismatchState.seeded(ref_code, zhat)
        parallel_mismatch_decomposition(state, 1)
        assert state.zhat == 0

    def test_class_sweep_masks_disjoint(self, ref_code):
        rng = make_rng(31, 0)
        for _ in range(20):
            e = random_error(ref_code, 6, rng)
            state = initial_mismatch(ref_code, noiseless_syndrome(ref_code, e))
            parallel_mismatch_decomposition(state, 8)
            # per (sweep-ish) class, the applied vertices must be distinct
            seen = {}
            for step in state.steps:
                seen.setdefault(step.vertex_class, []).append(step.vertex)
            order = ref_code.complex.group.order
            for cls, vs in seen.items():
                # repeated visits to one vertex across sweeps are fine; a
                # class sweep itself touches disjoint views by construction
                for v in vs:
                    assert (v // order) ^ ref_code.flip_roles == cls

    def test_per_step_drop_threshold(self, ref_code):
        rng = make_rng(37, 0)
        for _ in range(30):
            e = random_error(ref_code, 6, rng)
            state = initial_mismatch(ref_code, noiseless_syndrome(ref_code, e))
            parallel_mismatch_decomposition(state, 4)
            for step in state.steps:
                drop = step.weight_before - step.weight_after
                assert drop >= (step.x_weight + 1) // 2


class TestSequentialDecode:
    def test_zero_syndrome(self, ref_code):
        f = sequential_decode(ref_code, BitVector(ref_code.h_z.rows, 0))
        assert f.bits == 0

    def test_all_single_faces_corrected_on_unique_instance(self, unique_code):
        for q in range(unique_code.n):
            f = sequential_decode(unique_code, noiseless_syndrome(unique_code, 1 << q))
            assert f.bits == 1 << q

    def test_separated_aligned_faces_on_reference(self, ref_code):
        # faces (g, a, b0) with distinct well-separated g decode exactly;
        # face (g, a, b) is (g·Δ + a)·Δ + b
        d = ref_code.complex.delta
        e = 0
        for g in (0, 3, 6):
            e |= 1 << (g * d + 0) * d + 0
        f = sequential_decode(ref_code, noiseless_syndrome(ref_code, e))
        assert decode_class(ref_code, e, f) == "corrected"

    def test_stabilizer_error_gives_zero_syndrome(self, ref_code):
        e = ref_code.h_x.data[7]
        syn = noiseless_syndrome(ref_code, e)
        assert syn.bits == 0
        f = sequential_decode(ref_code, syn)
        assert f.bits == 0
        assert decode_class(ref_code, e, f) == "corrected"

    def test_random_small_errors_on_unique_instance(self, unique_code):
        rng = make_rng(41, 0)
        ok = 0
        for _ in range(200):
            e = random_error(unique_code, 2, rng)
            f = sequential_decode(unique_code, noiseless_syndrome(unique_code, e))
            ok += decode_class(unique_code, e, f) == "corrected"
        assert ok >= 190  # 99% measured; allow slack for ensemble wobble

    def test_syndrome_only_residual_bounded(self, ref_code):
        # e = 0, one corrupted check block: residual stays within one view
        rng = make_rng(43, 0)
        for t in range(50):
            pos = int(rng.integers(0, len(ref_code.v1_vertices)))
            pattern = int(rng.integers(1, 1 << ref_code.r1))
            d = pattern << (pos * ref_code.r1)
            f = sequential_decode(ref_code, BitVector(ref_code.h_z.rows, d))
            assert f.weight() <= ref_code.delta**2

    def test_determinism(self, ref_code):
        rng = make_rng(47, 0)
        e = random_error(ref_code, 5, rng)
        syn = noiseless_syndrome(ref_code, e)
        assert sequential_decode(ref_code, syn) == sequential_decode(ref_code, syn)

    def test_eps_range_validated(self, ref_code):
        with pytest.raises(ValueError):
            sequential_decode(ref_code, BitVector(ref_code.h_z.rows, 0), eps=1)


class TestParallelDecode:
    def test_zero_syndrome_any_k(self, ref_code):
        for k in (1, 4):
            assert parallel_decode(ref_code, BitVector(ref_code.h_z.rows, 0), k).bits == 0

    def test_k_must_be_positive(self, ref_code):
        with pytest.raises(ValueError):
            parallel_decode(ref_code, BitVector(ref_code.h_z.rows, 0), 0)

    def test_success_rate_non_decreasing_in_k(self, unique_code):
        rng = make_rng(53, 0)
        errors = [random_error(unique_code, 3, rng) for _ in range(150)]
        ok = {}
        for k in (1, 2):
            ok[k] = sum(
                decode_class(
                    unique_code,
                    e,
                    parallel_decode(unique_code, noiseless_syndrome(unique_code, e), k),
                )
                == "corrected"
                for e in errors
            )
        assert ok[2] >= ok[1]

    def test_matches_sequential_success_set_at_log_n(self, unique_code):
        import math

        k = math.ceil(math.log2(unique_code.n))
        rng = make_rng(59, 0)
        for _ in range(120):
            e = random_error(unique_code, 3, rng)
            syn = noiseless_syndrome(unique_code, e)
            cs = decode_class(unique_code, e, sequential_decode(unique_code, syn))
            cp = decode_class(unique_code, e, parallel_decode(unique_code, syn, k))
            assert (cs == "corrected") == (cp == "corrected")

    def test_determinism(self, ref_code):
        rng = make_rng(61, 0)
        e = random_error(ref_code, 6, rng)
        syn = noiseless_syndrome(ref_code, e)
        assert parallel_decode(ref_code, syn, 5) == parallel_decode(ref_code, syn, 5)


class TestDegenerateInstance:
    def test_decode_with_empty_check_matrix(self, z5_code):
        # no Z checks at all: the syndrome is empty and f is always zero
        assert z5_code.h_z.rows == 0
        f = sequential_decode(z5_code, BitVector(0, 0))
        assert f.bits == 0
        f = parallel_decode(z5_code, BitVector(0, 0), 3)
        assert f.bits == 0


class TestZSideDecoding:
    # par_3 locals put the favorable (unique-leader) side on the Z checks,
    # so Z errors decode exactly through the swapped code
    @pytest.fixture(scope="class")
    def z_code(self, z_side):
        import qtanner.cayley as cayley

        g = cayley.build_group("cyclic", 8)
        cx = cayley.build_complex(g, [1, 7, 4], [1, 7, 4])
        code = tanner.QuantumTannerCode(cx, codes.parity_code(3), codes.parity_code(3))
        z_code = z_side(code)
        assert z_code.h_z == code.h_x and z_code.h_x == code.h_z
        return z_code

    def test_z_errors_decode_via_swapped_code(self, z_code):
        for q in range(z_code.n):
            f = sequential_decode(z_code, noiseless_syndrome(z_code, 1 << q))
            assert decode_class(z_code, 1 << q, f) == "corrected"

    def test_parallel_decodes_every_single_face(self, z_code):
        for q in range(z_code.n):
            f = parallel_decode(z_code, noiseless_syndrome(z_code, 1 << q), 4)
            assert decode_class(z_code, 1 << q, f) == "corrected"

    def test_parallel_sweep_runs_effective_classes_in_order(self, z_code):
        # one sweep visits V00, V01, V10, V11 (effective classes, which the
        # role swap relabels), each class in group order
        rng = make_rng(67, 0)
        seen = set()
        for _ in range(100):
            e = random_error(z_code, 6, rng)
            _, steps = decoder.parallel_decode(z_code, noiseless_syndrome(z_code, e), 1)
            columns = steps.columns()
            visits = list(zip(columns["class"].tolist(), columns["vertex"].tolist()))
            assert visits == sorted(set(visits))
            seen.update(cls for cls, _ in visits)
        assert seen == {0, 1, 2, 3}


THETAS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)]


@pytest.fixture(scope="session", params=["ref_code", "unique_code"])
def any_code(request):
    return request.getfixturevalue(request.param)


def fresh_copy(code):
    """The same code with empty lazy caches (no local cache, no memos)."""
    return tanner.QuantumTannerCode(code.complex, code.local_a, code.local_b)


class TestMemoizedSearch:
    @given(data=st.data())
    def test_memoized_scan_matches_uncached(self, any_code, data):
        cache = get_cache(any_code)
        theta = data.draw(st.sampled_from(THETAS))
        zloc = data.draw(st.integers(0, (1 << any_code.delta**2) - 1))
        thresholds = np.array(
            [-((-theta.numerator * int(w)) // theta.denominator) for w in cache.weights],
            dtype=np.int64,
        )
        want = decoder._scan_uncached(cache, thresholds, zloc)
        table, _ = cache.scan_table(theta)
        assert table.get(zloc) == want
        assert table.memo[zloc] == want
        assert table.get(zloc) == want

    @given(data=st.data())
    def test_sparse_gather_matches_extract(self, any_code, data):
        cache = get_cache(any_code)
        n = any_code.n
        zhat = data.draw(
            st.one_of(
                st.integers(0, (1 << n) - 1),
                st.sets(st.integers(0, n - 1), max_size=12).map(
                    lambda faces: sum(1 << q for q in faces)
                ),
            )
        )
        v = data.draw(st.integers(0, any_code.complex.num_vertices - 1))
        got = scalar_decoder._gather(zhat & tables(cache).view_masks[v], cache.n)
        assert got == extract(zhat, tables(cache).views[v])

    @settings(max_examples=6)
    @given(data=st.data())
    def test_memos_isolated_across_thresholds(self, any_code, data):
        n, rz = any_code.n, any_code.h_z.rows
        e = sum(1 << q for q in data.draw(st.sets(st.integers(0, n - 1), max_size=8)))
        flips = sum(1 << i for i in data.draw(st.sets(st.integers(0, rz - 1), max_size=4)))
        syn = BitVector(rz, syndrome_bits_z(any_code, e) ^ flips)
        runs = [
            lambda c: sequential_decode(c, syn, Fraction(1, 3)),
            lambda c: sequential_decode(c, syn, Fraction(1, 2)),
            lambda c: parallel_decode(c, syn, 4),
        ]
        for run in runs:
            assert run(any_code) == run(fresh_copy(any_code))


def passing_weight(w, theta):
    """The least |Ẑ| in which a codeword of weight w can clear ceil(θw):
    ceil((w + ceil(θw)) / 2), by exact rationals."""
    return math.ceil(Fraction(w + math.ceil(theta * w), 2))


class TestHitFloor:
    """h_min(θ), the floor of ``scan_table``: no vertex finds a codeword at
    threshold θ in any Ẑ lighter than it, and some Ẑ of its weight has a
    hit."""

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("fixture", ["ref_code", "unique_code", "rep5_code", "z5_code"])
    def test_floor_is_the_least_passing_weight(self, fixture, theta, request):
        code = request.getfixturevalue(fixture)
        cache = get_cache(code)
        _, floor = cache.scan_table(theta)
        weights = [int(x).bit_count() for x in cache.masks]
        assert floor == min(passing_weight(w, theta) for w in weights)
        views, vertices = tables(cache).views, range(code.complex.num_vertices)
        rng = np.random.default_rng([7, THETAS.index(theta)])
        for w in range(floor):  # random supports, and supports inside one view
            for _ in range(6):
                view = views[int(rng.integers(len(views)))]
                for faces in (rng.choice(code.n, size=w, replace=False),
                              rng.choice(view, size=min(w, len(view)), replace=False)):
                    zhat = sum(1 << int(q) for q in faces)
                    assert all(find_reducing_codeword(code, zhat, v, theta) is None
                               for v in vertices)
        # the first floor bits of a codeword attaining the minimum, at v
        x = int(cache.masks[[passing_weight(w, theta) for w in weights].index(floor)])
        v = int(rng.integers(len(views)))
        support = [p for p in range(cache.n) if x >> p & 1][:floor]
        zhat = sum(1 << views[v][p] for p in support)
        assert zhat.bit_count() == floor
        assert find_reducing_codeword(code, zhat, v, theta) is not None

    def test_no_codeword_no_hit(self):
        """Zero local codes leave C_A ⊞ C_B empty: the floor is n + 1, and
        both schedules keep the initial mismatch, scalar and lockstep."""
        cx = cayley.build_complex(cayley.build_group("cyclic", 3), [1, 2], [1, 2])
        code = tanner.QuantumTannerCode(cx, codes.zero_code(2), codes.zero_code(2))
        cache, rz = get_cache(code), code.h_z.rows
        assert len(cache.masks) == 0
        assert {cache.scan_table(theta)[1] for theta in THETAS} == {code.n + 1}
        syndromes = [0, 5, (1 << rz) - 1, 1 << (rz - 1)]
        for cfg, one_row in ((DecoderConfig("sequential"), decoder.sequential_decode),
                             (DecoderConfig("parallel", k=3),
                              lambda code, syn: decoder.parallel_decode(code, syn, 3))):
            got = gf2.from_bit_rows(cfg.decode_lockstep(cache, gf2.to_bit_rows(syndromes, rz)))
            for s, f in zip(syndromes, got):
                want, steps = one_row(code, BitVector(rz, s))
                [want] = gf2.from_bit_rows(want)
                assert (f, steps.columns()["row"].tolist()) == (want, [])
                assert want == initial_mismatch(code, BitVector(rz, s)).eps01_sum
