"""One-time polynomial MAC over GF(2^s) and a keyed distinct-index sampler.

The MAC hashes the message blocks through a polynomial in a secret field
point and masks with a second secret element; forging a second valid
(message, tag) pair after seeing one succeeds for at most L of the 2**s
field points, so the scheme is (L/2**s)-secure for L-block messages.
The polynomial is evaluated by Horner's rule, each multiplication by the
point done through per-key 4-bit window tables (Shoup, CRYPTO 1996) that are
built once per key; the bit-loop ``gf_mul`` is the reference they are tested
against.  ``MacKeys`` holds one key per row of a block of trials, and
``mac_sign_rows`` tags a block's messages together: for s <= 64 the tables of
every row are built with a fixed number of array steps and each Horner step
is a few array operations over the rows.  A long message, of at least
16 + rows // 3 blocks, is split into r ~ sqrt(L/2) interleaved lanes, each a
polynomial in a**r (as GHASH implementations split theirs over powers of H):
every lane of every row steps together, through tables of a**r built once
per block of keys, and r steps in a fold the lanes into the tag, about
L/r + r sequential steps instead of L.  s = 128, and blocks of one or two
rows, sign row by row with ``mac_sign``.

The sampler is a keyed uniform without-replacement draw.  A key seeds a
SplitMix64 word stream (Steele, Lea and Flood, OOPSLA 2014), and the k
positions are a function of the words: the k lowest-ranked of n words
where n <= 4k, otherwise the first k distinct of the words mapped to
[0, n) with rejection.  ``sample_indices_rows`` draws a whole block's rows
in array operations, and ``sample_indices`` is its one-row case.  The map is
a deterministic stand-in for a keyed uniform draw, not a cryptographic PRF.
For any [0,1]-valued function with mean >= mu, the mean over k sampled
positions falls below mu - theta with probability at most
exp(-2*k*theta**2) (Hoeffding's bound, which holds without replacement), so
it is a (mu, theta, exp(-2*k*theta**2)) averaging sampler with distinct
samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "MacKey",
    "MacKeys",
    "SamplerKey",
    "IndexSet",
    "FIELD_POLYNOMIALS",
    "gf_mul",
    "mac_sign",
    "mac_sign_rows",
    "mac_sign_rows_from",
    "mac_difference_rows",
    "mac_verify",
    "mac_forgery_bound",
    "random_field_elements",
    "encode_response_claim",
    "sample_indices",
    "sample_indices_rows",
    "sampler_key_rows",
    "random_index_rows",
    "sampler_guarantee",
    "SAMPLER_STREAM_VERSION",
]

#: Low-weight irreducible polynomials over GF(2) (standard tables), including
#: the x**s term.  Keys are the supported tag sizes.
FIELD_POLYNOMIALS: dict[int, int] = {
    8: 0x11B,  # x^8 + x^4 + x^3 + x + 1
    16: 0x1002B,  # x^16 + x^5 + x^3 + x + 1
    32: 0x10000008D,  # x^32 + x^7 + x^3 + x^2 + 1
    64: 0x1000000000000001B,  # x^64 + x^4 + x^3 + x + 1
    128: (1 << 128) | 0x87,  # x^128 + x^7 + x^2 + x + 1
}

#: Bit width of the message-length prefix prepended before blocking.
_LENGTH_PREFIX_BITS = 64

#: Fixed-point scale for distance claims inside MAC inputs (2**-20 m steps).
_CLAIM_SCALE_BITS = 20
#: Width of the fixed-point claim appended to the response in a MAC input.
CLAIM_BITS = 64

#: Version of the sampler's key -> positions map, recorded in pi3 transcripts.
#: 1 kept the first k entries of a keyed permutation of all n positions;
#: 2 was the generator's O(k) choice(n, k, replace=False), seeded per row;
#: 3 is SplitMix64 seeded by a mix of the key, its words ranked (n <= 4k)
#: or mapped to positions, first k distinct kept (``_ordered_subsets``),
#: for every row of a block at once.  3 also draws the index-random
#: intruder's positions by that map from words of its own generator
#: (``random_index_rows``), where 2 called ``rng.choice`` per row.
SAMPLER_STREAM_VERSION = 3


def gf_mul(a: int, b: int, field_bits: int) -> int:
    """Product of two elements of GF(2^field_bits)."""
    poly = FIELD_POLYNOMIALS[field_bits]
    top = 1 << field_bits
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return r


@dataclass(frozen=True)
class MacKey:
    """One-time key: two uniform field elements (point a, mask b)."""

    field_bits: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.field_bits not in FIELD_POLYNOMIALS:
            raise ValueError(
                f"unsupported tag size {self.field_bits}; "
                f"supported: {sorted(FIELD_POLYNOMIALS)}"
            )
        lim = 1 << self.field_bits
        if not (0 <= self.a < lim and 0 <= self.b < lim):
            raise ValueError("key elements out of field range")

    @classmethod
    def generate(cls, rng: np.random.Generator, field_bits: int = 64) -> "MacKey":
        nbytes = field_bits // 8
        a = int.from_bytes(rng.bytes(nbytes), "big")
        b = int.from_bytes(rng.bytes(nbytes), "big")
        return cls(field_bits, a, b)

    @cached_property
    def window_tables(self) -> tuple[tuple[int, ...], ...]:
        """Multiplication by the point a, one 16-entry table per 4-bit window.

        Entry [j][v] is a * (v * x**(4j)) in GF(2^s), so a * m is the XOR of
        [j][(m >> 4j) & 15] over the s/4 windows.  Built on first use from the
        s shift-and-reduce products a * x**t and cached on the key (outside
        the compared fields), so signing and verifying share one build.
        """
        poly = FIELD_POLYNOMIALS[self.field_bits]
        top = 1 << self.field_bits
        a = self.a
        a_xt = []
        for _ in range(self.field_bits):
            a_xt.append(a)
            a <<= 1
            if a & top:
                a ^= poly
        tables = []
        for j in range(0, self.field_bits, 4):
            p0, p1, p2, p3 = a_xt[j : j + 4]
            p01 = p0 ^ p1
            p23 = p2 ^ p3
            tables.append((
                0, p0, p1, p01,
                p2, p2 ^ p0, p2 ^ p1, p2 ^ p01,
                p3, p3 ^ p0, p3 ^ p1, p3 ^ p01,
                p23, p23 ^ p0, p23 ^ p1, p23 ^ p01,
            ))
        return tuple(tables)


def _to_blocks(message_bits: np.ndarray, field_bits: int) -> list[int]:
    """Length-prefix, zero-pad to a block multiple, and split into field elements.

    The prefix is whole bytes, so the packed message follows it directly and
    the padding is whole zero bytes.  Blocks of up to 64 bits convert in one
    big-endian array view.
    """
    bits = np.asarray(message_bits, dtype=np.uint8).ravel()
    step = field_bits // 8
    raw = len(bits).to_bytes(_LENGTH_PREFIX_BITS // 8, "big") + np.packbits(bits).tobytes()
    raw += bytes(-len(raw) % step)
    if step <= 8:
        return np.frombuffer(raw, dtype=f">u{step}").tolist()
    return [int.from_bytes(raw[i : i + step], "big") for i in range(0, len(raw), step)]


def mac_sign(key: MacKey, message_bits: np.ndarray) -> int:
    """Tag b + sum_i m_i * a**(L-i+1) over GF(2^s), as an integer below 2**s.

    Horner's rule; each multiplication by a costs s/4 lookups in the key's
    window tables instead of gf_mul's s shift-and-reduce steps.
    """
    tables = key.window_tables
    acc = 0
    for blk in _to_blocks(message_bits, key.field_bits):
        v = acc ^ blk
        acc = 0
        for table in tables:
            acc ^= table[v & 15]
            v >>= 4
    return acc ^ key.b


def mac_verify(key: MacKey, message_bits: np.ndarray, tag: int | None) -> bool:
    """True iff tag equals mac_sign(key, message_bits); out-of-range tags are false."""
    if tag is None or not 0 <= tag < (1 << key.field_bits):
        return False
    return tag == mac_sign(key, message_bits)


def element_bytes(field_bits: int) -> int:
    """Bytes of ``rng.bytes`` one uniform field element takes: ``rng.bytes``
    draws whole 4-byte words, so s/8 bytes rounded up to 4."""
    return max(field_bits // 8, 4)


def field_elements(raw: bytes, count: int, field_bits: int) -> np.ndarray:
    """The ``count`` elements of GF(2^field_bits) that ``count`` successive
    ``int.from_bytes(rng.bytes(field_bits // 8), "big")`` calls draw, from the
    bytes one ``rng.bytes(count * element_bytes(field_bits))`` call draws:
    uint64 for field_bits <= 64, Python ints (object) above."""
    nbytes = field_bits // 8
    words = np.frombuffer(raw, dtype=np.uint8).reshape(count, element_bytes(field_bits))
    words = np.ascontiguousarray(words[:, :nbytes])
    if field_bits <= 64:
        return words.view(f">u{nbytes}")[:, 0].astype(np.uint64)
    return np.array([int.from_bytes(w.tobytes(), "big") for w in words], dtype=object)


def random_field_elements(rng: np.random.Generator, count: int,
                          field_bits: int) -> np.ndarray:
    """``count`` uniform field elements, drawn as ``count`` successive
    ``int.from_bytes(rng.bytes(field_bits // 8), "big")`` calls draw them."""
    return field_elements(rng.bytes(count * element_bytes(field_bits)), count, field_bits)


@dataclass(frozen=True, eq=False)
class MacKeys:
    """One one-time key per row of a block: points ``a`` and masks ``b``, as
    uint64 arrays for s <= 64 and object arrays of ints for s = 128."""

    field_bits: int
    a: np.ndarray
    b: np.ndarray

    @staticmethod
    def draw_bytes(rows: int, field_bits: int) -> int:
        """Bytes of ``rng.bytes`` that ``rows`` keys take."""
        return 2 * rows * element_bytes(field_bits)

    @classmethod
    def from_bytes(cls, raw: bytes, rows: int, field_bits: int = 64) -> "MacKeys":
        """``rows`` keys from ``draw_bytes(rows, field_bits)`` bytes of ``rng.bytes``,
        the keys ``rows`` successive ``MacKey.generate`` calls draw."""
        if field_bits not in FIELD_POLYNOMIALS:
            raise ValueError(f"unsupported tag size {field_bits}; "
                             f"supported: {sorted(FIELD_POLYNOMIALS)}")
        ab = field_elements(raw, 2 * rows, field_bits).reshape(rows, 2)
        return cls(field_bits, ab[:, 0], ab[:, 1])

    @classmethod
    def generate(cls, rng: np.random.Generator, rows: int, field_bits: int = 64) -> "MacKeys":
        """``rows`` keys, drawn as ``rows`` successive ``MacKey.generate`` calls draw them."""
        return cls.from_bytes(rng.bytes(cls.draw_bytes(rows, field_bits)), rows, field_bits)

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, i: int) -> MacKey:
        return self._row_keys[i]

    @cached_property
    def _row_keys(self) -> list[MacKey]:
        """Each row's MacKey, made once so its scalar tables are built once."""
        return [MacKey(self.field_bits, a, b) for a, b in zip(self.a.tolist(), self.b.tolist())]

    @cached_property
    def window_tables(self) -> np.ndarray:
        """(16, s/4, rows) uint64 for s <= 64, window-major: entry [v, j, i]
        is ``self[i].window_tables[j][v]``, so a Horner step gathers one
        (s/4, rows) array of entries and XOR-reduces it over the windows
        (see ``_window_tables``)."""
        return _window_tables(self.a, self.field_bits)

    def power_tables(self, r: int) -> np.ndarray:
        """The window tables of each row's a**r, laid out as ``window_tables``.

        a**r is r - 1 multiplications by a through ``window_tables``.  Built on
        first use for each r and cached on the keys, so that a block's sign
        and its check build them once.
        """
        if r not in self._power_tables:
            power = _horner(self.window_tables, self.a.view(np.int64),
                            np.zeros((r - 1, len(self)), dtype=np.int64))
            self._power_tables[r] = _window_tables(power.view(np.uint64), self.field_bits)
        return self._power_tables[r]

    @cached_property
    def _power_tables(self) -> dict[int, np.ndarray]:
        return {}


def _window_tables(points: np.ndarray, field_bits: int) -> np.ndarray:
    """(16, s/4, rows) uint64: entry [v, j, i] is points[i] * (v * x**(4j)).

    p * x**(4j) is linear in p: it is the XOR over the bytes u_w of p of the
    constant (u_w * x**(8w)) * x**(4j) from ``_byte_products``, so one gather
    and one reduction give every row's s/4 of them, and a shift with a carry
    lookup multiplies those by x, x**2 and x**3.  The entries are filled by
    doubling: entries 2**b to 2**(b+1) - 1 are entries 0 to 2**b - 1 XOR
    p * x**(4j + b), one XOR of contiguous (s/4, rows) slabs.
    """
    s = field_bits
    rows = len(points)
    products, carries = _byte_products(s)
    digits = points.astype("<u8").view(np.uint8).reshape(rows, 8)[:, : s // 8]
    # p_x[j, i] is row i's p * x**(4j), and p_xb[b - 1] its p * x**(4j + b).
    p_x = np.ascontiguousarray(np.bitwise_xor.reduce(
        products.take(digits + _BYTE_OFFSETS[: s // 8], axis=0), axis=1).T)
    p_xb = (p_x << _WINDOW_SHIFTS) & np.uint64((1 << s) - 1)
    p_xb ^= carries.take(p_x >> (np.uint64(s) - _WINDOW_SHIFTS))
    entries = np.empty((16, s // 4, rows), dtype=np.uint64)
    entries[0] = 0
    entries[1] = p_x
    for b in range(1, 4):
        np.bitwise_xor(entries[: 1 << b], p_xb[b - 1], out=entries[1 << b: 2 << b])
    return entries


#: Row offset of byte w in ``_byte_products``.
_BYTE_OFFSETS = 256 * np.arange(8)
#: The shifts b = 1, 2, 3 within a window, on a leading axis.
_WINDOW_SHIFTS = np.arange(1, 4, dtype=np.uint64)[:, None, None]


@functools.lru_cache(maxsize=None)
def _byte_products(field_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only uint64 constants ``MacKeys.window_tables`` builds from.

    ``products`` is (s/8 * 256, s/4): row 256*w + u holds (u * x**(8w)) *
    x**(4j) for the s/4 windows j, so a key's a * x**(4j) are the XOR of one
    row per byte of a.  Entry [w, u, j] is the XOR of x**(8w + b + 4j) over
    the bits b of u, built one bit of u at a time.  ``carries`` holds u * x**s
    for u < 8, the reduction of the bits a shift by b < 4 carries past
    x**(s-1): a * x**b is (a << b) mod x**s XOR carries[a >> (s - b)].
    """
    s = field_bits
    poly, top = FIELD_POLYNOMIALS[s], 1 << s
    powers, v = [], 1
    for _ in range(2 * s - 1):
        powers.append(v)
        v <<= 1
        if v & top:
            v ^= poly
    x_m = np.array(powers, dtype=np.uint64)
    products = np.zeros((s // 8, 256, s // 4), dtype=np.uint64)
    for w in range(s // 8):
        for b in range(8):  # entries with bit b set: those without it, plus x**(8w+b+4j)
            products[w, 1 << b: 2 << b] = products[w, : 1 << b] ^ x_m[8 * w + b: 8 * w + b + s: 4]
    carries = np.zeros(8, dtype=np.uint64)
    for b in range(3):
        carries[1 << b: 2 << b] = carries[: 1 << b] ^ x_m[s + b]
    products = products.reshape(-1, s // 4)
    products.flags.writeable = carries.flags.writeable = False
    return products, carries


def _to_block_rows(messages: np.ndarray, field_bits: int) -> np.ndarray:
    """(rows, L) uint64: row i is ``_to_blocks(messages[i], field_bits)``, field_bits <= 64."""
    rows, bits = messages.shape
    step = field_bits // 8
    packed = np.packbits(messages, axis=1)
    head = _LENGTH_PREFIX_BITS // 8
    width = head + packed.shape[1]
    raw = np.zeros((rows, width + -width % step), dtype=np.uint8)
    raw[:, :head] = np.frombuffer(bits.to_bytes(head, "big"), dtype=np.uint8)
    raw[:, head:width] = packed
    return raw.view(f">u{step}").astype(np.uint64)


def _horner(tables: np.ndarray, acc: np.ndarray, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """acc after the Horner steps acc = (acc ^ blk) * p, one per blk in
    ``blocks``, p each row's point whose (16, s/4, rows) window tables are
    ``tables``; acc and every blk are int64 arrays of shape (..., rows), so a
    step multiplies every lane of every row at once."""
    windows, rows = tables.shape[1:]
    # int64 throughout, so take reads the indices without a cast; the sign
    # bits an arithmetic shift brings in lie above the nibble that is kept.
    flat = tables.ravel().view(np.int64)
    # Flat entry v * stride + [j, i] is row i's window j at value v.
    stride = windows * rows
    lanes = (1,) * (acc.ndim - 1)
    base = np.arange(stride, dtype=np.int64).reshape(windows, *lanes, rows)
    shifts = np.arange(0, 4 * windows, 4, dtype=np.int64).reshape(windows, *lanes, 1)
    for blk in blocks:
        v = (acc ^ blk) >> shifts
        v &= 15
        v *= stride
        v += base
        acc = np.bitwise_xor.reduce(flat.take(v), axis=0)
    return acc


def _lane_min_blocks(rows: int) -> int:
    """Fewest blocks a message of a ``rows``-row block needs to be signed in
    lanes.  Lanes save sequential steps, a few microseconds each whatever
    the rows, but build a**r's tables, fold the lanes and gather r times the
    entries a step, whose cost grows with the rows.  Timed against one step
    a block (a block's build and two signs), lanes broke even near 14 blocks
    at 3 rows, 21-22 at 25-40 rows, 34 at 78 rows and 55 at 120; the rule
    sits at or above each, so lanes are never the slower path there."""
    return 16 + rows // 3


def _lane_count(blocks: int) -> int:
    """The lanes r a message of ``blocks`` blocks is signed in: about
    sqrt(blocks / 2), 5 at 55 blocks.  A sign takes ceil(blocks / r) - 1 + r
    sequential steps, fewest near r = sqrt(blocks), but a step over r lanes
    gathers r times the entries.  At 55 blocks and 3 to 78 rows, r = 5 to 8
    timed within noise of each other, r = 4 up to 8% slower and r = 3 6-22%
    slower."""
    return round(math.sqrt(blocks / 2))


def mac_sign_rows(keys: MacKeys, messages: np.ndarray) -> np.ndarray:
    """Tags of a block: entry i is ``mac_sign(keys[i], messages[i])`` for the
    (rows, bits) message array; uint64 for s <= 64, object ints for s = 128."""
    rows = len(keys)
    messages = np.asarray(messages, dtype=np.uint8).reshape(rows, -1)
    s = keys.field_bits
    # Blocks of one row (every single-trial call) and of two sign with the
    # scalar tables: an array step costs a few microseconds however few the
    # rows, so below three rows the arrays are slower.  The exception, two
    # rows of messages over about 30 blocks, which lanes sign faster (3398
    # bits: 278 against 374 us for a block's build and two signs), is left
    # to this one rule.  From three rows up the arrays are faster
    # (BENCH_mac.json, BENCH_mac_lanes.json).
    if s > 64 or rows <= 2:
        return np.array([mac_sign(keys[i], messages[i]) for i in range(rows)],
                        dtype=np.uint64 if s <= 64 else object)
    return _polynomial_rows(keys, _to_block_rows(messages, s).view(np.int64)) ^ keys.b


def mac_sign_rows_from(keys: MacKeys, messages: np.ndarray, signed: np.ndarray,
                       tags: np.ndarray) -> np.ndarray:
    """``mac_sign_rows(keys, messages)``, found from the ``tags`` that
    ``mac_sign_rows`` gave the block's ``signed`` messages: those tags XOR
    ``mac_difference_rows``, or a full sign where that is None."""
    difference = mac_difference_rows(keys, messages, signed)
    if difference is None:
        return mac_sign_rows(keys, messages)
    # Zero on every row for a byte-equal message, the only case at s = 128,
    # whose object tags take no uint64 XOR.
    return tags ^ difference if difference.any() else tags


def mac_difference_rows(keys: MacKeys, messages: np.ndarray,
                        signed: np.ndarray) -> Optional[np.ndarray]:
    """(rows,) uint64: each row's tag of ``messages`` XOR its tag of
    ``signed`` under ``keys``, found without either tag; None where this
    does not find it.

    A tag is b + sum_i m_i a**(L-i+1), linear in the blocks m_i, so between
    two messages of one length tag(m') = tag(m) XOR the same sum over the
    blocks of m XOR m', which Horner's rule takes from their first non-zero
    block.  A byte-equal message is the empty sum, zero on every row; one
    that differs only in its claim, in the last blocks, costs a step for
    each of them.  None for a message of another length, and for differing
    messages in blocks of one or two rows and at s = 128, which sign row by
    row (Wegman and Carter, JCSS 22(3), 1981, for the linearity).
    """
    rows, s = len(keys), keys.field_bits
    messages = np.asarray(messages, dtype=np.uint8).reshape(rows, -1)
    signed = signed.reshape(rows, -1)
    if messages.shape != signed.shape:
        return None
    diff = messages != signed
    if not diff.any():
        return np.zeros(rows, dtype=np.uint64)
    if s > 64 or rows <= 2:
        return None
    # Block j holds message bits s*j - 64 .. s*(j+1) - 65, after the 64-bit
    # length prefix, and s divides 64, so the blocks from the first that
    # differs are the packed message bits from a whole byte on.
    first = int(diff.any(axis=0).argmax())
    start = (first + _LENGTH_PREFIX_BITS) // s * s - _LENGTH_PREFIX_BITS
    packed = np.packbits(diff[:, start:], axis=1)
    step = s // 8
    raw = np.zeros((rows, packed.shape[1] + -packed.shape[1] % step), dtype=np.uint8)
    raw[:, : packed.shape[1]] = packed
    blocks = raw.view(f">u{step}").astype(np.uint64).view(np.int64)
    return _polynomial_rows(keys, blocks)


def _polynomial_rows(keys: MacKeys, blocks: np.ndarray) -> np.ndarray:
    """(rows,) uint64: each row's sum_j blocks[i, j] * a**(L-j) over its L
    blocks, with a the row's key point (s <= 64): its tag before the mask b."""
    rows, length = blocks.shape
    acc = np.zeros(rows, dtype=np.int64)
    if length < _lane_min_blocks(rows):
        # One Horner step a block, all rows at once.
        return _horner(keys.window_tables, acc, blocks.T).view(np.uint64)
    # Interleaved lanes: sum_i m_i a**(L - i) over blocks i = 0 .. L - 1,
    # front-padded with zero blocks (which leave it unchanged) to m r, is the
    # sum over the lanes c < r of a**(r - c) times lane c's polynomial in
    # A = a**r, whose coefficients are blocks c, c + r, c + 2r, ...  Every
    # lane of every row takes its m - 1 Horner steps in A together, and r
    # Horner steps in a fold the lanes into the tag: m - 1 + r sequential
    # steps, not L.
    r = _lane_count(length)
    m = -(-length // r)
    lanes = np.zeros((m, r, rows), dtype=np.int64)
    lanes.reshape(m * r, rows)[m * r - length:] = blocks.T
    lane_acc = _horner(keys.power_tables(r), np.zeros((r, rows), dtype=np.int64), lanes[:-1])
    return _horner(keys.window_tables, acc, lane_acc ^ lanes[-1]).view(np.uint64)


def mac_forgery_bound(message_bit_len: int, field_bits: int) -> float:
    """Forgery probability bound L / 2**s for a message of the given bit length."""
    blocks = math.ceil((_LENGTH_PREFIX_BITS + message_bit_len) / field_bits)
    return blocks / 2.0**field_bits


def encode_response_claim(response_bits: np.ndarray, d_c: float) -> np.ndarray:
    """Injective MAC input: response bits followed by the claim in CLAIM_BITS-bit
    fixed point; a (rows, k) block of responses gives one input per row."""
    scaled = round(d_c * (1 << _CLAIM_SCALE_BITS))
    if not 0 < scaled < (1 << CLAIM_BITS):
        raise ValueError(f"claim {d_c} m not representable in {CLAIM_BITS}-bit fixed point")
    claim_bits = np.unpackbits(
        np.frombuffer(scaled.to_bytes(CLAIM_BITS // 8, "big"), dtype=np.uint8))
    response = np.asarray(response_bits, dtype=np.uint8)
    if response.ndim < 2:
        return np.concatenate([response.ravel(), claim_bits])
    out = np.empty(response.shape[:-1] + (response.shape[-1] + CLAIM_BITS,), dtype=np.uint8)
    out[..., : response.shape[-1]] = response
    out[..., response.shape[-1]:] = claim_bits
    return out


#: Bytes of a sampler key that a session draws: the key's two 64-bit words.
SAMPLER_KEY_BYTES = 16

_U64 = (1 << 64) - 1
#: SplitMix64's increment (the odd integer nearest 2**64 over the golden
#: ratio) and its finaliser's multipliers (Steele, Lea and Flood, OOPSLA 2014).
_GAMMA_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1_U64, _MIX2_U64 = np.uint64(_MIX1), np.uint64(_MIX2)
_SHIFTS = tuple(np.uint64(b) for b in (30, 27, 31))
#: (j + 1) gamma mod 2**64 for j < 4096: the counter steps of a stream's
#: first words, made once (a longer stream computes its own).
_STEPS = np.arange(1, 4097, dtype=np.uint64) * _GAMMA_U64
_STEPS.flags.writeable = False

#: A row of n <= _DENSE_RATIO * k positions ranks all n of its words; a
#: sparser row maps words to positions and keeps the first k distinct.
#: Set by timing both regimes on one and on 67 rows.
_DENSE_RATIO = 4

#: Most rows whose stream seeds are mixed in Python ints, which is faster
#: than the array operations of two ``_fmix64`` below about ten rows.
_SCALAR_SEED_ROWS = 8

#: A single row of the sparse regime finds its repeated draws in an n-array
#: where n <= _BITMAP_RATIO * draws, and by sorting them above that; set by
#: timing both at n/k from 5 to 160.
_BITMAP_RATIO = 16


@dataclass(frozen=True)
class SamplerKey:
    """Uniform seed for the index sampler: 1 to SAMPLER_KEY_BYTES bytes."""

    seed: bytes

    def __post_init__(self) -> None:
        if not 0 < len(self.seed) <= SAMPLER_KEY_BYTES:
            raise ValueError(f"sampler seed must be 1 to {SAMPLER_KEY_BYTES} bytes, "
                             f"got {len(self.seed)}")

    @classmethod
    def generate(cls, rng: np.random.Generator, bits: int = 128) -> "SamplerKey":
        if bits % 8 != 0 or not 0 < bits <= 8 * SAMPLER_KEY_BYTES:
            raise ValueError(f"seed length must be a multiple of 8 in "
                             f"[8, {8 * SAMPLER_KEY_BYTES}], got {bits}")
        return cls(bytes(rng.bytes(bits // 8)))

    @property
    def words(self) -> tuple[int, int]:
        """(hi, lo): the seed read as a big-endian integer, split into its
        upper and lower 64 bits."""
        value = int.from_bytes(self.seed, "big")
        return value >> 64, value & _U64


def sampler_key_rows(raw: bytes) -> np.ndarray:
    """(rows, 2) uint64 (hi, lo) keys from ``rng.bytes`` output: row i is
    ``SamplerKey(raw[16 i: 16 i + 16]).words``, the key the i-th of
    successive ``SamplerKey.generate`` calls draws."""
    return np.frombuffer(raw, dtype=">u8").reshape(-1, 2).astype(np.uint64)


@dataclass(frozen=True, eq=False)
class IndexSet:
    """k distinct positions in [0, n), in draw order."""

    indices: np.ndarray
    n: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("index out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("indices must be distinct")

    @classmethod
    def _distinct(cls, indices: np.ndarray, n: int) -> "IndexSet":
        """Wrap int64 positions already known to be distinct and in [0, n),
        skipping the O(k log k) check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "indices", indices)
        object.__setattr__(obj, "n", n)
        return obj

    @property
    def k(self) -> int:
        return int(self.indices.size)

    def as_set(self) -> frozenset[int]:
        return frozenset(int(i) for i in self.indices)


def _fmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection of 64-bit words, in place on a
    uint64 array."""
    s30, s27, s31 = _SHIFTS
    tmp = np.right_shift(z, s30)
    z ^= tmp
    z *= _MIX1_U64
    np.right_shift(z, s27, out=tmp)
    z ^= tmp
    z *= _MIX2_U64
    np.right_shift(z, s31, out=tmp)
    z ^= tmp
    return z


def _fmix64_int(z: int) -> int:
    """``_fmix64`` of one word, in Python ints."""
    z = (z ^ (z >> 30)) * _MIX1 & _U64
    z = (z ^ (z >> 27)) * _MIX2 & _U64
    return z ^ (z >> 31)


def _stream_seed(hi: int, lo: int) -> int:
    """The 64-bit SplitMix64 seed of key (hi, lo): fmix64(fmix64(hi) ^ lo)."""
    return _fmix64_int(_fmix64_int(hi) ^ lo)


def _keyed_words(seeds: np.ndarray, ids: Optional[np.ndarray], start: int,
                 stop: int) -> np.ndarray:
    """(rows, stop - start) uint64: words start .. stop - 1 of the streams of
    ``seeds[ids]`` (every seed where ``ids`` is None).  Word j of seed s is
    fmix64(s + (j + 1) gamma) mod 2**64, SplitMix64's j-th output, which is
    a bijection of j."""
    if ids is not None:
        seeds = seeds[ids]
    if stop <= _STEPS.size:
        steps = _STEPS[start:stop]
    else:
        steps = np.arange(start + 1, stop + 1, dtype=np.uint64)
        steps *= _GAMMA_U64
    return _fmix64(steps + seeds[:, None])


def _positions(words: np.ndarray, n: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(rows, d) int64 draws in [0, n) from (rows, m) words, and which of
    them are accepted (None: every one).

    For n < 2**32 each word gives two 32-bit values, its low half then its
    high half; above, each word is one 64-bit value.  A value x below the
    largest multiple of n in its range is accepted as x mod n, which is
    exactly uniform; the rest are rejected.
    """
    bits = 32 if n < 1 << 32 else 64
    values = words.astype("<u8", copy=False).view(f"<u{bits // 8}")
    pos = (values % values.dtype.type(n)).astype(np.int64)
    limit = (1 << bits) // n * n
    return pos, (values < limit if limit < 1 << bits and values.max() >= limit else None)


def _rank_draws(pos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the (rows, d) draws ``pos`` in [-1, n) sorted by (value,
    draw index): the sorted values and their draw indices."""
    d = pos.shape[1]
    order = np.arange(d)
    if n <= 1 << 32:
        # One sort of the pairs packed into one int64 each.
        bits = (d - 1).bit_length()
        packed = pos << bits
        packed |= order
        packed.sort(axis=1)
        return packed >> bits, packed & ((1 << bits) - 1)
    order = np.lexsort((np.broadcast_to(order, pos.shape), pos), axis=1)
    return np.take_along_axis(pos, order, axis=1), order


def _first_words(n: int, k: int) -> tuple[int, float]:
    """(m, accept): the words a row of the sparse regime draws before any
    top-up, and the share of draws accepted (see ``_positions``).  The m
    words cover the expected draws, as k distinct of n take under
    k + k**2/n accepted ones, with a margin of 4 sqrt(k) draws."""
    per_word, bits = (2, 32) if n < 1 << 32 else (1, 64)
    accept = n * ((1 << bits) // n) / 2**bits
    return math.ceil(((k + k * k / n) / accept + 4 * math.sqrt(k)) / per_word), accept


def _ordered_subsets(words: Callable[[Optional[np.ndarray], int, int], np.ndarray],
                     rows: int, n: int, k: int) -> np.ndarray:
    """(rows, k) int64: each row's uniform ordered k-subset of [0, n), in
    draw order, from its word stream.

    ``words(ids, start, stop)`` gives words start .. stop - 1 of rows ``ids``
    (of every row where ``ids`` is None) as a (rows, stop - start) uint64
    array.  Where n <= _DENSE_RATIO * k the positions are the k whose words
    rank lowest, in rank order: position j ranks by word j with its low b
    bits replaced by j, b the bit length of n - 1, so that one sort of the
    packed words ranks them.  Otherwise the words map to draws (see
    ``_positions``) and a row keeps its first k distinct accepted draws; a
    row left short takes its next words until it has k.  Over uniform words
    either is a uniform ordered k-subset (the dense one up to ties in the
    top 64 - b bits, at most n**2 2**(b - 65) a row).
    """
    if k == 0:
        return np.empty((rows, 0), dtype=np.int64)
    if n <= _DENSE_RATIO * k:
        low = (n - 1).bit_length()
        ranks = words(None, 0, n)
        ranks &= np.uint64(_U64 ^ ((1 << low) - 1))
        ranks |= np.arange(n, dtype=np.uint64)
        if k < n:
            ranks = np.partition(ranks, k - 1, axis=1)[:, :k]
        ranks.sort(axis=1)
        ranks &= np.uint64((1 << low) - 1)
        return ranks.view(np.int64)
    m, accept = _first_words(n, k)
    pos, ok = _positions(words(None, 0, m), n)
    if rows == 1:
        # One row, where an array operation costs about as much as on a
        # block: take the accepted draws by a mask, then check the first k
        # for repeats where under half a repeat is expected, or else find
        # each position's first draw in an n-array where n is within
        # _BITMAP_RATIO draws.  A row left short takes the block path.
        accepted = pos[0] if ok is None else pos[0][ok[0]]
        if accepted.size >= k:
            if k * k < n:
                ranked = np.sort(accepted[:k])
                if (ranked[1:] != ranked[:-1]).all():
                    return accepted[None, :k]
            elif n <= _BITMAP_RATIO * accepted.size:
                order = np.arange(accepted.size, dtype=np.int32)
                first = np.full(n, accepted.size, dtype=np.int32)
                np.minimum.at(first, accepted, order)
                distinct = accepted[first[accepted] == order]
                if distinct.size >= k:
                    return distinct[None, :k]
    if ok is not None:
        np.putmask(pos, ~ok, -1)
    clean = np.zeros(rows, dtype=bool)
    if k * (1 - accept) + k * k / (2 * n) < 0.5:
        # Under half a rejected or repeated draw expected: most rows' first
        # k draws are accepted and distinct, and those need no sieve.
        head = np.sort(pos[:, :k], axis=1)
        clean = (head[:, 0] >= 0) & (head[:, 1:] != head[:, :-1]).all(axis=1)
        if clean.all():
            return pos[:, :k]
    out = np.empty((rows, k), dtype=np.int64)
    out[clean] = pos[clean, :k]
    ids, pos = np.flatnonzero(~clean), pos[~clean]
    while True:
        # The draw indices of each row's first distinct accepted draws, in
        # draw order, padded with d.
        d = pos.shape[1]
        ranked, order = _rank_draws(pos, n)
        first = ranked >= 0
        first[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
        order = np.where(first, order, d)
        order.sort(axis=1)
        order = order[:, :k]
        full = order[:, -1] < d
        out[ids[full]] = np.take_along_axis(pos[full], order[full], axis=1)
        if full.all():
            return out
        ids, pos = ids[~full], pos[~full]
        more, ok = _positions(words(ids, m, 2 * m), n)
        if ok is not None:
            np.putmask(more, ~ok, -1)
        pos = np.concatenate([pos, more], axis=1)
        m *= 2


def _check_sample(n: int, k: int) -> None:
    if k > n:
        raise ValueError(f"cannot draw {k} distinct positions from {n}")
    if k < 0 or n < 1:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")


def sample_indices_rows(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """(rows, k) int64: row r is ``sample_indices(key_r, n, k).indices`` for
    the (rows, 2) uint64 (hi, lo) keys (see ``SamplerKey.words`` and
    ``sampler_key_rows``).  Every row is drawn by the same array operations,
    in O(rows * k) words and memory at any n."""
    _check_sample(n, k)
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    if len(keys) <= _SCALAR_SEED_ROWS:
        seeds = np.array([_stream_seed(hi, lo) for hi, lo in keys.tolist()], dtype=np.uint64)
    else:
        seeds = _fmix64(_fmix64(keys[:, 0].copy()) ^ keys[:, 1])
    return _ordered_subsets(functools.partial(_keyed_words, seeds), len(keys), n, k)


def random_index_rows(rng: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray:
    """(rows, k) int64: uniform ordered k-subsets of [0, n), in draw order,
    by the map of ``sample_indices_rows`` from uint64 words that ``rng``
    draws (a row's words in one call, a short row's top-up in another)."""
    _check_sample(n, k)

    def words(ids: Optional[np.ndarray], start: int, stop: int) -> np.ndarray:
        count = rows if ids is None else len(ids)
        return rng.integers(0, 1 << 64, size=(count, stop - start), dtype=np.uint64)

    return _ordered_subsets(words, rows, n, k)


def sample_indices(key: SamplerKey, n: int, k: int) -> IndexSet:
    """k distinct positions, uniform without replacement, determined by the key.

    The key (hi, lo) seeds SplitMix64 with fmix64(fmix64(hi) ^ lo), and the
    positions are a function of its output words (see ``_ordered_subsets``):
    the k of the first n words that rank lowest where n <= 4k, otherwise
    the first k distinct of the words mapped to [0, n).  Time and memory
    are O(k) at any n.  The map is a deterministic stand-in for a keyed
    uniform draw, not a cryptographic PRF.  This is the one-row case of
    ``sample_indices_rows``, without its array of keys.
    """
    _check_sample(n, k)
    seeds = np.array([_stream_seed(*key.words)], dtype=np.uint64)
    return IndexSet._distinct(
        _ordered_subsets(functools.partial(_keyed_words, seeds), 1, n, k)[0], n)


def sampler_guarantee(k: int, theta: float) -> float:
    """Failure probability exp(-2*k*theta**2) certified by the keyed sampler."""
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    return math.exp(-2.0 * k * theta * theta)
