"""Independent test oracles.

Everything here re-derives results from first principles with code paths
disjoint from the library: the paper's local-view and face-corner
formulas read off the group table, numpy-based elimination, dense integer
products for syndromes and commutation, ambient-space enumeration for
product expansion, direct column-assignment search for minimal
decompositions, weight-ordered enumeration for coset leaders, a
row-by-row greedy stabilizer reduction, block-by-block vertex supports,
string-reversed lex keys, a Python-int noise sampler that the library's bit-row sampler must match
draw for draw, and the record-by-record sweep aggregate that the
library's column sums must match.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from qtanner import gf2
from qtanner.errors import DimensionMismatchError


def _dense(mat):
    """A packed-row matrix as a dense (rows, cols) uint8 array: each row's
    little-endian bytes, unpacked."""
    nbytes = (mat.cols + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(nbytes, "little") for row in mat.data),
                           dtype=np.uint8).reshape(mat.rows, nbytes)
    return np.unpackbits(packed, axis=1, count=mat.cols, bitorder="little")


def _rank_dense(m):
    """GF(2) rank of a dense 0/1 array, eliminated in place."""
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r, col]), None)
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def np_commutator_gf2(a, b):
    """a·bᵀ over GF(2) as a dense 0/1 array, by one integer product of
    the dense matrices: the commutation oracle (H_X·H_Zᵀ = 0 for a CSS
    code, G·Hᵀ = 0 for a classical one)."""
    return (_dense(a).astype(np.int64) @ _dense(b).T.astype(np.int64)) % 2


def np_mat_vec_gf2(mat, v):
    """M·v over GF(2) as a packed int (bit i is <row i, v>), by one
    integer product of the dense matrix with the 0/1 column of ``v`` (a
    ``BitVector`` or a packed int): the syndrome oracle. A ``BitVector``
    of the wrong length is refused rather than truncated."""
    if isinstance(v, int):
        bits = v & ((1 << mat.cols) - 1)
    elif v.n != mat.cols:
        raise DimensionMismatchError(mat.cols, v.n)
    else:
        bits = v.bits
    col = np.unpackbits(np.frombuffer(bits.to_bytes((mat.cols + 7) // 8, "little"), np.uint8),
                        count=mat.cols, bitorder="little")
    out = (_dense(mat).astype(np.int64) @ col.astype(np.int64)) % 2
    return int.from_bytes(np.packbits(out.astype(np.uint8), bitorder="little").tobytes(), "little")


def np_rank_gf2(mat):
    """GF(2) rank by elimination on a dense numpy array."""
    return _rank_dense(_dense(mat))


def same_subspace(code_a, code_b):
    """True iff two linear codes have the same length and the same
    generator row space: stacking the generators adds no numpy rank."""
    if code_a.n != code_b.n:
        return False
    ga, gb = _dense(code_a.gen), _dense(code_b.gen)
    stacked = _rank_dense(np.vstack([ga, gb]))
    return _rank_dense(ga) == _rank_dense(gb) == stacked


def span(basis):
    """Yield all 2^len(basis) XOR combinations of independent rows
    (Gray-code order, starts at 0)."""
    x = 0
    yield x
    for i in range(1, 1 << len(basis)):
        x ^= basis[(i & -i).bit_length() - 1]
        yield x


def local_view(mul, inv, a_gens, b_gens, cls, h):
    """Faces of the view of vertex h of class cls (0b00, 0b01, 0b10,
    0b11), entry (a, b) at position a·Δ + b: face (g, a, b), index
    (g·Δ + a)·Δ + b, whose defining element g is h, a⁻¹h, hb⁻¹ or
    a⁻¹hb⁻¹ by class, straight from the group table."""
    d = len(a_gens)
    view = []
    for ai, a in enumerate(a_gens):
        for bi, b in enumerate(b_gens):
            g = {
                0b00: h,
                0b01: mul[inv[a]][h],
                0b10: mul[h][inv[b]],
                0b11: mul[mul[inv[a]][h]][inv[b]],
            }[cls]
            view.append((g * d + ai) * d + bi)
    return view


def face_corners(mul, a_gens, b_gens, q):
    """Vertex ids (class·|G| + element) of the corners of face q = (g, a,
    b): g in class 00, ag in 01, gb in 10 and agb in 11."""
    d, order = len(a_gens), len(mul)
    g, ab = divmod(q, d * d)
    a, b = a_gens[ab // d], b_gens[ab % d]
    return [g, order + mul[a][g], 2 * order + mul[g][b], 3 * order + mul[mul[a][g]][b]]


def codeword_bits(code):
    """All 2^dim codewords of a linear code as packed ints, the span of
    its (independent) generator rows."""
    return list(span(code.gen.data))


def extract(global_bits, view):
    """Local pattern of ``global_bits`` on ``view``, one view bit at a
    time (reference for the decoder's sparse gather)."""
    out = 0
    for p, q in enumerate(view):
        out |= ((global_bits >> q) & 1) << p
    return out


def local_syndrome(code, sigma, v1_pos):
    """The block of a Z-check syndrome (``BitVector`` or int) on the
    v1_pos-th V1 vertex: its r1 bits."""
    bits = sigma if isinstance(sigma, int) else sigma.bits
    return (bits >> (v1_pos * code.r1)) & ((1 << code.r1) - 1)


def vertex_support(code, d):
    """|D|_V: the number of V1 vertices whose block of the syndrome error
    D (``BitVector`` or int) is nonzero, block by block."""
    return sum(1 for pos in range(len(code.v1_vertices)) if local_syndrome(code, d, pos))


def greedy_reduce(rows, bits):
    """``bits`` reduced greedily by the packed ``rows`` (the rows of H_X):
    XOR in the first row of largest positive weight drop, one row at a
    time, until no row drops the weight."""
    w = bits.bit_count()
    while w:
        best_drop, best_row = 0, None
        for row in rows:
            drop = w - (bits ^ row).bit_count()
            if drop > best_drop:
                best_drop, best_row = drop, row
        if best_row is None:
            break
        bits ^= best_row
        w -= best_drop
    return bits


def lex_key(bits, length):
    """The key of 'lexicographically smallest on bit index' (bit 0
    compared first, a clear bit before a set one): the ``length``-bit
    string of ``bits`` reversed, read as a binary number."""
    return int(format(bits & ((1 << length) - 1), f"0{length}b")[::-1], 2)


def _bernoulli_bits(n, prob, rng):
    """A packed int whose bit i is set when the i-th of n uniforms is below
    ``prob`` (no uniforms drawn at rate 0 or length 0)."""
    if prob <= 0.0 or n == 0:
        return 0
    return sum(1 << int(i) for i in np.nonzero(rng.random(n) < prob)[0])


def _exact_weight_bits(n, w, rng, keep_from=0, persistence=0.0):
    """A packed int of exact weight w over n positions: ⌊persistence·w⌋
    bits of ``keep_from`` kept (persistence read as its decimal literal),
    the rest drawn from an explicit list of the other positions."""
    if w > n:
        raise ValueError(f"adversarial weight {w} exceeds {n} positions")
    if w == 0:
        return 0
    kept = []
    if keep_from and persistence > 0.0:
        prev = [i for i in range(keep_from.bit_length()) if (keep_from >> i) & 1]
        n_keep = min(int(Fraction(repr(persistence)) * w), len(prev), w)
        if n_keep:
            kept = [prev[int(i)] for i in rng.choice(len(prev), size=n_keep, replace=False)]
    remaining = [i for i in range(n) if i not in set(kept)]
    fresh = [remaining[int(i)] for i in rng.choice(len(remaining), size=w - len(kept),
                                                   replace=False)]
    return sum(1 << i for i in kept + fresh)


def int_sample_errors(code, model, rng, prev_data=0):
    """(e, D) as ``BitVector``s, drawn one side and one bit set at a time
    with Python ints: the draw-for-draw reference of the library's
    sampler.  ``prev_data`` is the trial's previous data error, which
    persistent adversarial noise keeps faces of."""
    if model.data_kind == "bernoulli":
        e = _bernoulli_bits(code.n, model.p, rng)
    else:
        e = _exact_weight_bits(code.n, model.w, rng, prev_data, model.persistence)
    rz = code.h_z.rows
    if model.syn_kind == "bernoulli":
        d = _bernoulli_bits(rz, model.q, rng)
    elif model.syn_kind == "adversarial":
        d = _exact_weight_bits(rz, model.s, rng)
    else:  # vertex_bounded
        d = 0
        if rz and code.r1 and model.t:
            n_v = len(code.v1_vertices)
            hit = rng.choice(n_v, size=min(model.t, n_v), replace=False)
            for pos in sorted(int(x) for x in hit):
                d |= int(rng.integers(1, 1 << code.r1)) << (pos * code.r1)
    return gf2.BitVector(code.n, e), gf2.BitVector(rz, d)


def multiround_rows(batch):
    """The CSV rows a multi-round batch stands for, one tuple of
    MULTIROUND_CSV_FIELDS values per (trial, round) and per readout,
    built field by field from the batch's columns."""
    rows = []
    for t, seed in enumerate(batch.seeds):
        for i, stats in enumerate(batch.stats[t].tolist(), start=1):
            rows.append((*batch.head, seed, i, *stats, "", seed))
        rows.append((*batch.head, seed, "final", 0, 0, 0, batch.final_weights[t],
                     batch.final_classes[t], seed))
    return rows


def trial_block_rows(block):
    """The per-trial CSV rows a sweep block stands for, one tuple of
    TRIAL_CSV_FIELDS values per (trial, decoder), trial by trial, built
    field by field from the block's columns."""
    return [(*head, *block.stats[t, j].tolist(), block.classes[t, j], seed, block.ms[j])
            for t, seed in enumerate(block.seeds) for j, head in enumerate(block.heads)]


def _wilson(failures, trials, z=1.959964):
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) + z * z / (4 * trials)) / trials) ** 0.5 / denom
    return max(0.0, center - half), min(1.0, center + half)


def aggregate_rows(records):
    """The aggregate CSV rows (POINT_CSV_FIELDS tuples) of per-trial
    records, summed record by record: one row per (instance, p, q,
    decoder, param), sorted by the text of that key, with the Wilson 95%
    interval of the logical-failure frequency."""
    groups = {}
    for r in records:
        groups.setdefault((r.instance_id, r.p, r.q, r.decoder, r.param), []).append(r)
    rows = []
    for (iid, p, q, dec_name, param), rs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        n = len(rs)
        fails = sum(1 for r in rs if r.failure_class == "logical")
        lo, hi = _wilson(fails, n)
        rows.append((iid, dec_name, param, p, q, n, fails, fails / n, lo, hi,
                     sum(r.residual_weight for r in rs) / n, sum(r.ms for r in rs) / n))
    return rows


def local_dual_tensor_distance(h_a, h_b):
    """Minimum weight of a nonzero vector of ker(H_A ⊗ H_B), the local
    code C_A ⊞ C_B, by scanning all 2^(n_A·n_B) vectors with numpy
    (the Kronecker product is numpy's, not the library's); inf if the
    kernel is zero."""
    h = np.kron(_dense(h_a), _dense(h_b))
    n = h.shape[1]
    xs = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    in_kernel = ~((xs @ h.T) % 2).any(axis=1)
    if not in_kernel.any():
        return math.inf
    return int(xs[in_kernel].sum(axis=1).min())


def independent_kappa(ca, cb):
    """Product-expansion constant by full ambient-space enumeration.

    Membership is tested by direct inner products against every element
    of C_A^perp x C_B^perp; decompositions scan every c in the ambient
    space with per-column membership checks.
    """
    na, nb = ca.n, cb.n
    n = na * nb
    ca_words = set(codeword_bits(ca))
    cb_words = set(codeword_bits(cb))

    def column(x, b):
        return sum(((x >> (a * nb + b)) & 1) << a for a in range(na))

    def row(x, a):
        return (x >> (a * nb)) & ((1 << nb) - 1)

    def in_code(x):
        for u in codeword_bits(ca.dual()):
            for w in codeword_bits(cb.dual()):
                uw = 0
                for a in range(na):
                    if (u >> a) & 1:
                        for b in range(nb):
                            if (w >> b) & 1:
                                uw |= 1 << (a * nb + b)
                if (uw & x).bit_count() % 2:
                    return False
        return True

    kappa = None
    for x in range(1, 1 << n):
        if not in_code(x):
            continue
        best = None
        for c in range(1 << n):
            if any(column(c, b) not in ca_words for b in range(nb)):
                continue
            r = x ^ c
            if any(row(r, a) not in cb_words for a in range(na)):
                continue
            ncols = sum(1 for b in range(nb) if column(c, b))
            nrows = sum(1 for a in range(na) if row(r, a))
            cost = Fraction(ncols, na) + Fraction(nrows, nb)
            if best is None or cost < best:
                best = cost
        ratio = Fraction(x.bit_count(), n) / best
        if kappa is None or ratio < kappa:
            kappa = ratio
    return kappa


def exhaustive_min_cr(dt, x):
    """Minimum (c, r) split by iterating all |C_A|^|B| column assignments."""
    na, nb = dt.na, dt.nb
    ca_words = sorted(codeword_bits(dt.code_a))
    cb_words = set(codeword_bits(dt.code_b))
    best = None
    for assignment in itertools.product(ca_words, repeat=nb):
        c = 0
        for b, u in enumerate(assignment):
            for a in range(na):
                if (u >> a) & 1:
                    c |= 1 << (a * nb + b)
        r = x ^ c
        if any((r >> (a * nb)) & ((1 << nb) - 1) not in cb_words for a in range(na)):
            continue
        ncols = sum(1 for u in assignment if u)
        nrows = sum(1 for a in range(na) if (r >> (a * nb)) & ((1 << nb) - 1))
        key = (ncols + nrows, lex_key(c, dt.n))
        if best is None or key < best[0]:
            best = (key, c, r)
    return best


def coset_leader_weights_by_scan(pchk_rows, n_bits, r):
    """Minimum achievable weight per syndrome via a full 2^n scan."""
    best = {}
    for y in range(1 << n_bits):
        s = 0
        for i, row in enumerate(pchk_rows):
            s |= ((row & y).bit_count() & 1) << i
        w = y.bit_count()
        if s not in best or w < best[s]:
            best[s] = w
    assert len(best) == 1 << r
    return best


def coset_leader_table(pchk_rows, n_bits, syndromes=None):
    """Minimum-weight vector per syndrome of the checks ``pchk_rows``.

    Enumerates vectors in nondecreasing weight, positions in
    ``itertools.combinations`` order within a weight, and keeps the
    first vector reached for each syndrome, until every syndrome in
    ``syndromes`` (default: all 2^r) has one.  Keys and values are
    packed bits.
    """
    r = len(pchk_rows)
    col_syndrome = [
        sum(((row >> p) & 1) << i for i, row in enumerate(pchk_rows)) for p in range(n_bits)
    ]
    wanted = set(range(1 << r)) if syndromes is None else set(syndromes)
    table = {}
    for w in range(n_bits + 1):
        for positions in itertools.combinations(range(n_bits), w):
            s = 0
            y = 0
            for p in positions:
                s ^= col_syndrome[p]
                y |= 1 << p
            if s not in table:
                table[s] = y
                wanted.discard(s)
                if not wanted:
                    return table
    raise ValueError(f"syndromes {sorted(wanted)} are not reachable")
