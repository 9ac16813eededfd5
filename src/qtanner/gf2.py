"""Dense GF(2) vectors and matrices packed into Python integers.

A vector of length n is stored as one int whose bit i is coordinate i,
so XOR/AND give word-parallel row operations and ``int.bit_count`` gives
the Hamming weight.  Elimination always pivots on the leftmost nonzero
column (lowest bit index) and swaps rows to the lowest free index, so
every routine here is deterministic; ``Echelon``, one elimination of
[M | I], is the only one, and rank, membership, the kernel and
solutions are all read from it.

Batches of vectors, as the lockstep decoder handles them, are numpy
``uint8`` arrays with one 0/1 entry per coordinate and one row per
vector; ``to_bit_rows`` and ``from_bit_rows`` convert between the two
forms, ``row_weights`` counts each row's weight, and
``WordPacker``/``unpack_words`` hold patterns of at most 64 bits as one
``uint64`` each; ``span_words`` and ``lex_keys`` are the span, already
in lexicographic order, and the order keys of such words.  A
``WordCache`` is the one memo of a function of such words: a call
reads a whole array at once, as a lockstep step does, and ``get``
reads one word, as the call does for each word it misses.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError


def span_words(m: BitMatrix) -> np.ndarray:
    """The 2^rank words of the row space of ``m`` (at most 64 columns)
    as uint64, in ascending ``lex_keys`` order, so 0 first.

    They are spanned from the rows of one ``Echelon`` of ``m``, highest
    pivot first: element i combines the rows at the set bits of i, and
    its top bit picks the row of lowest pivot.  Each row has its pivot
    as its lowest set bit and is the only row with that bit set.  So
    where two indices differ, the highest differing bit names the lowest
    pivot p whose coefficients differ; the two words agree below bit p,
    and only the larger index has bit p.  Index order is key order."""
    out = np.zeros(1, dtype=np.uint64)
    for row in reversed(Echelon(m).rows):
        out = np.concatenate([out, out ^ np.uint64(row)])
    return out


# each byte value with its 8 bits reversed
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def lex_keys(words: np.ndarray, length: int) -> np.ndarray:
    """The order key for 'lexicographically smallest on bit index' of
    every uint64 word of ``length`` bits, 1 ≤ length ≤ 64: keys compare
    bit 0 first, then bit 1, ..., a clear bit before a set one.  Each
    word's bits are reversed (every byte through a 256-entry table, then
    the byte order), then shifted down to ``length`` bits, so integer
    order is that order."""
    x = np.ascontiguousarray(words, dtype=np.uint64)
    reversed_words = _REVERSED_BYTES.take(x.view(np.uint8)).view(np.uint64).byteswap()
    return reversed_words >> np.uint64(64 - length)


def to_bit_rows(values: Sequence[int], n: int) -> np.ndarray:
    """(len(values), n) 0/1 array; row i holds the bits of ``values[i]``."""
    nbytes = (n + 7) // 8
    buf = b"".join(v.to_bytes(nbytes, "little") for v in values)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def row_weights(rows: np.ndarray) -> np.ndarray:
    """The weight of every row of a 0/1 array, summed in the least
    unsigned dtype that holds the row length, so no sum can wrap."""
    return rows.sum(axis=1, dtype=np.min_scalar_type(rows.shape[1]))


def from_bit_rows(rows: np.ndarray) -> list[int]:
    """The packed int of each row of a 0/1 array (inverse of ``to_bit_rows``)."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class WordPacker:
    """Packs chosen columns of 0/1 rows into words of ``width`` ≤ 64 bits:
    word j of a row has bit p = column ``cols[j·width + p]``.

    A call is one float32 product per 24-bit slice of the words with a
    matrix of powers of two; every partial sum is an integer below 2^24,
    which float32 holds exactly, so the products are exact.  float32 like
    the syndrome products, so a process pages in one BLAS kernel, not two.
    """

    def __init__(self, cols: Sequence[int], width: int, n: int):
        if not 0 < width <= 64:
            raise ValueError(f"word width {width} outside [1, 64]")
        cols = np.asarray(cols, dtype=np.intp)
        word, bit = np.divmod(np.arange(len(cols)), width)
        self.slices = []
        for lo in range(0, width, 24):
            mat = np.zeros((n, len(cols) // width), dtype=np.float32)
            sel = (bit >= lo) & (bit < lo + 24)
            mat[cols[sel], word[sel]] = np.exp2(bit[sel] - lo)
            self.slices.append((np.uint64(lo), mat))

    def __call__(self, rows: np.ndarray, words: slice = slice(None)) -> np.ndarray:
        """(trials, words) uint64 for a (trials, n) 0/1 array: the words
        ``words`` selects, a column slice of every matrix (a view, so
        nothing is copied).  The sums go to uint64 through int32, which
        holds them exactly and converts faster; the first slice, at shift
        0, is the start of the words."""
        x = rows.astype(np.float32)
        (_, first), *rest = self.slices
        out = (x @ first[:, words]).astype(np.int32).astype(np.uint64)
        for shift, mat in rest:
            out |= (x @ mat[:, words]).astype(np.int32).astype(np.uint64) << shift
        return out


class WordCache:
    """The memo of ``f``, a function from words of at most 64 bits to
    integers, for looking up one word or whole arrays of words.

    ``memo`` maps every word asked so far to its value, and ``get`` reads
    one word through it.  In front of it, for arrays, is a direct-mapped
    cache: a key array and a value array of ``SLOTS`` entries (a power of
    two); word w lives in the slot given by the top bits of w·M mod 2^64,
    M the first multiplier of splitmix64.  (Not the golden ratio's
    ⌊2^64/φ⌋: it puts words that differ by a Fibonacci number in one
    slot, and the two views the reference instance looks up most, 0x1010
    and 0x8001, differ by F₂₃ = 28657.)  Keys start at 0 and values at
    ``get(0)``, so every slot holds a true entry from the start and no
    sentinel key is needed.  An array lookup is one hash, two ``take``s
    and one compare; only the missed words go through ``np.unique`` to
    ``get``, once per distinct word, and are stored, replacing whatever
    shared their slot.  So ``memo`` is the one source of truth.
    """

    SLOTS = 1 << 12
    _MULTIPLIER = np.uint64(0xBF58476D1CE4E5B9)

    def __init__(self, f: Callable[[int], int], dtype=np.int64):
        self.f = f
        self.memo: dict[int, int] = {}
        self._shift = np.uint64(65 - self.SLOTS.bit_length())
        self.keys = np.zeros(self.SLOTS, dtype=np.uint64)
        self.values = np.full(self.SLOTS, self.get(0), dtype=dtype)

    def get(self, word: int) -> int:
        """``f(word)``, computed on first use and kept in ``memo``."""
        value = self.memo.get(word)
        if value is None:
            value = self.memo[word] = self.f(word)
        return value

    def __call__(self, words: np.ndarray) -> np.ndarray:
        """``f`` of every uint64 word, as an array of ``words``' shape."""
        slot = self._slots(words)
        values = self.values.take(slot)
        miss = self.keys.take(slot) != words
        if miss.any():
            missed = words[miss]
            distinct, inverse = np.unique(missed, return_inverse=True)
            found = np.array([self.get(w) for w in distinct.tolist()], dtype=self.values.dtype)
            values[miss] = found[inverse]
            # one word per slot, so the keys and values written agree
            at, first = np.unique(self._slots(distinct), return_index=True)
            self.keys[at], self.values[at] = distinct[first], found[first]
        return values

    def _slots(self, words: np.ndarray) -> np.ndarray:
        # below SLOTS after the shift, so the int64 view (numpy's index type) is exact
        return ((words * self._MULTIPLIER) >> self._shift).view(np.int64)


def unpack_words(words: np.ndarray, m: int) -> np.ndarray:
    """Bits 0..m-1 of each uint64 as a new last axis."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8")[..., None].view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=m, bitorder="little")


class BitVector:
    """Immutable bit vector; bit i of ``bits`` is coordinate i."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if bits >> n:
            raise ValueError(f"bits extend past length {n}")
        self.n = n
        self.bits = bits

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse '0101...' where character i is coordinate i."""
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(len(s), bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if other.n != self.n:
            raise DimensionMismatchError(self.n, other.n)
        return BitVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))


class BitMatrix:
    """Row-major GF(2) matrix; each row is an int bitset of width ``cols``."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[list[int]] = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [0] * rows
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        for r in data:
            if r >> cols:
                raise ValueError(f"row bits extend past {cols} columns")
        self.data = data

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BitMatrix":
        """Rows given as '0101...' strings, all of one length."""
        rows = list(rows)
        if not rows:
            raise ValueError("cannot infer column count of an empty matrix")
        if not all(isinstance(s, str) for s in rows):
            raise ValueError(f"matrix rows must be bit strings, got {rows!r}")
        if len({len(s) for s in rows}) > 1:
            raise ValueError(f"matrix rows have unequal lengths: {rows!r}")
        vecs = [BitVector.from_string(s) for s in rows]
        return cls(len(vecs), vecs[0].n, [v.bits for v in vecs])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _rref(rows: list[int], limit: int) -> tuple[list[int], list[int]]:
    """In-place reduced row echelon form over the columns below
    ``limit``; returns (rows, pivot column list).  Column c pivots on the
    first unpivoted row with bit c: no such row has a lower bit left."""
    pivots: list[int] = []
    for col in range(limit):
        mask, pivot_row = 1 << col, len(pivots)
        idx = next((i for i in range(pivot_row, len(rows)) if rows[i] & mask), None)
        if idx is None:
            continue
        rows[pivot_row], rows[idx] = rows[idx], rows[pivot_row]
        piv = rows[pivot_row]
        for i, r in enumerate(rows):
            if r & mask and i != pivot_row:
                rows[i] = r ^ piv
        pivots.append(col)
    return rows, pivots


class Echelon:
    """One elimination of [M | I]: M's reduced row echelon form, and for
    each resulting row the set t of rows of M it sums (bit i of t is row
    i).  Rank, membership, the kernel and solutions are all read from
    it.  ``solve`` of the unit vector e_i is a right-inverse row, or None
    exactly when some relation has bit i (row i depends on the others).

    The t bits lie past M's columns, so the elimination stops after M's
    pivots, found as an elimination of M alone finds them.  Row p of
    ``rows`` has pivot ``pivots[p]`` and sums the rows ``combos[p]``; the
    rows left read 0 | t, and their t (``relations``) span {t : tM = 0}.

    Every RREF row has its pivot as its lowest set bit and is the only
    row with that bit set, so each nonzero rowspace element has a pivot
    as its lowest set bit; ``contains`` relies on this to stop early.
    """

    __slots__ = ("shape", "rows", "pivots", "combos", "relations", "_row_of_pivot")

    def __init__(self, m: BitMatrix):
        self.shape = m.rows, m.cols
        rows, pivots = _rref([row | 1 << (m.cols + i) for i, row in enumerate(m.data)], m.cols)
        mask = (1 << m.cols) - 1
        self.rows = [r & mask for r in rows[: len(pivots)]]
        self.pivots = pivots
        self.combos = [r >> m.cols for r in rows[: len(pivots)]]
        self.relations = [r >> m.cols for r in rows[len(pivots):]]
        self._row_of_pivot = dict(zip(pivots, self.rows))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, bits: int) -> bool:
        """True iff ``bits`` is a GF(2) combination of the matrix rows."""
        row_of_pivot = self._row_of_pivot
        while bits:
            row = row_of_pivot.get((bits & -bits).bit_length() - 1)
            if row is None:
                return False
            bits ^= row
        return True

    def kernel(self) -> BitMatrix:
        """Basis of {x : Mx = 0}, one row per free column in column
        order, cols - rank rows."""
        cols = self.shape[1]
        pivot_set = set(self.pivots)
        basis = [sum((1 << p for r, p in zip(self.rows, self.pivots) if r >> f & 1), 1 << f)
                 for f in range(cols) if f not in pivot_set]
        return BitMatrix(len(basis), cols, basis)

    def solve(self, b: BitVector) -> Optional[BitVector]:
        """The x with Mx = b that is 0 off the pivot columns, or None if
        some relation t has t·b odd (the system is inconsistent)."""
        if b.n != self.shape[0]:
            raise DimensionMismatchError(self.shape[0], b.n)
        if any((t & b.bits).bit_count() & 1 for t in self.relations):
            return None
        x = sum(1 << p for t, p in zip(self.combos, self.pivots) if (t & b.bits).bit_count() & 1)
        return BitVector(self.shape[1], x)


def rowspace_contains(m: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of M."""
    if v.n != m.cols:
        raise DimensionMismatchError(m.cols, v.n)
    return Echelon(m).contains(v.bits)


def kronecker(ma: BitMatrix, mb: BitMatrix) -> BitMatrix:
    """Kronecker product with (outer, inner) index order.

    Row (i,k) maps to i*mb.rows + k, column (j,l) to j*mb.cols + l; this
    convention is fixed project-wide (CSS commutation depends on it).
    """
    out = []
    for ra in ma.data:
        for rb in mb.data:
            bits = 0
            r = ra
            while r:
                lsb = r & -r
                j = lsb.bit_length() - 1
                bits |= rb << (j * mb.cols)
                r ^= lsb
            out.append(bits)
    return BitMatrix(ma.rows * mb.rows, ma.cols * mb.cols, out)
