"""One-time polynomial MAC over GF(2^s) and a keyed distinct-index sampler.

The MAC hashes the message blocks through a polynomial in a secret field
point and masks with a second secret element; forging a second valid
(message, tag) pair after seeing one succeeds for at most L of the 2**s
field points, so the scheme is (L/2**s)-secure for L-block messages.
The polynomial is evaluated by Horner's rule, each multiplication by the
point done through per-key 4-bit window tables (Shoup, CRYPTO 1996) that are
built once per key; the bit-loop ``gf_mul`` is the reference they are tested
against.

The sampler is a keyed uniform without-replacement draw: Floyd's O(k) draw
(Bentley & Floyd, CACM 1987) from a generator seeded with the key.  For any
[0,1]-valued function with mean >= mu, the mean over k sampled positions
falls below mu - theta with probability at most exp(-2*k*theta**2)
(Hoeffding's bound, which holds without replacement), so it is a
(mu, theta, exp(-2*k*theta**2)) averaging sampler with distinct samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MacKey",
    "SamplerKey",
    "IndexSet",
    "FIELD_POLYNOMIALS",
    "gf_mul",
    "mac_sign",
    "mac_verify",
    "mac_forgery_bound",
    "encode_response_claim",
    "sample_indices",
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
#: 2 is the generator's O(k) choice(n, k, replace=False).
SAMPLER_STREAM_VERSION = 2


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


def mac_forgery_bound(message_bit_len: int, field_bits: int) -> float:
    """Forgery probability bound L / 2**s for a message of the given bit length."""
    blocks = math.ceil((_LENGTH_PREFIX_BITS + message_bit_len) / field_bits)
    return blocks / 2.0**field_bits


def encode_response_claim(response_bits: np.ndarray, d_c: float) -> np.ndarray:
    """Injective MAC input: response bits followed by the claim in CLAIM_BITS-bit fixed point."""
    scaled = round(d_c * (1 << _CLAIM_SCALE_BITS))
    if not 0 < scaled < (1 << CLAIM_BITS):
        raise ValueError(f"claim {d_c} m not representable in {CLAIM_BITS}-bit fixed point")
    claim_bits = np.unpackbits(
        np.frombuffer(scaled.to_bytes(CLAIM_BITS // 8, "big"), dtype=np.uint8))
    return np.concatenate([np.asarray(response_bits, dtype=np.uint8).ravel(), claim_bits])


@dataclass(frozen=True)
class SamplerKey:
    """Uniform seed for the index sampler."""

    seed: bytes

    def __post_init__(self) -> None:
        if len(self.seed) == 0:
            raise ValueError("sampler seed must be non-empty")

    @classmethod
    def generate(cls, rng: np.random.Generator, bits: int = 128) -> "SamplerKey":
        if bits % 8 != 0 or bits <= 0:
            raise ValueError(f"seed length must be a positive multiple of 8, got {bits}")
        return cls(bytes(rng.bytes(bits // 8)))


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


def sample_indices(key: SamplerKey, n: int, k: int) -> IndexSet:
    """k distinct positions, uniform without replacement, determined by the key.

    The seed drives a deterministic generator whose ``choice(n, k,
    replace=False)`` is a uniform ordered k-subset in draw order.  numpy draws
    it with Floyd's hash-set algorithm in O(k) time and memory, except for
    n > 10**4 with k > n/50, where it shuffles the tail of an n-array (O(n),
    which is then O(k) too).  The positions are distinct by construction, so
    the IndexSet skips its distinctness check.
    """
    if k > n:
        raise ValueError(f"cannot draw {k} distinct positions from {n}")
    if k < 0 or n < 1:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    stream = np.random.default_rng(int.from_bytes(key.seed, "big"))
    return IndexSet._distinct(stream.choice(n, size=k, replace=False), n)


def sampler_guarantee(k: int, theta: float) -> float:
    """Failure probability exp(-2*k*theta**2) certified by the keyed sampler."""
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    return math.exp(-2.0 * k * theta * theta)
