"""Verifier/prover engines for the three distance-claim verification protocols.

pi1 is the bare power-adjusted challenge-response protocol, pi2 adds a
one-time MAC over (response, claim), and pi3 replaces the explicit challenge
with positions of a high-rate source output sampled under a shared key, with
every party's retrieval audited against the ceil(lam*n) cap.

The honest prover is a responder policy on a ``Session`` like each attack:
``run_pi1/2/3`` and ``run_protocol`` take ``(cfg, scenario, ch, rng, seed)``.
A session runs a block of trials, one per row; given ``rows`` a policy
returns the block's ``TrialBlock``, and without it the one run's
``Transcript`` (a block of one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .bounds import max_errors
from .channel import (
    ChannelParams,
    attenuate,
    bit_error_prob,
    bit_errors,
    bits_to_hex,
    bpsk_demodulate,
    bpsk_modulate,
    random_bits,
    snr_at_distance,
    transmit_power_for_claim,
)
from .primitives import (
    CLAIM_BITS,
    SAMPLER_KEY_BYTES,
    SAMPLER_STREAM_VERSION,
    MacKey,
    MacKeys,
    SamplerKey,
    encode_response_claim,
    mac_forgery_bound,
    mac_sign_rows,
    mac_sign_rows_from,
    sample_indices_rows,
    sampler_key_rows,
)

if TYPE_CHECKING:
    from .montecarlo import Scenario

__all__ = [
    "ACC",
    "REJ",
    "BrmParams",
    "ProtocolConfig",
    "SessionKeys",
    "Session",
    "Transcript",
    "TrialBlock",
    "RetrievalCapError",
    "ProtocolConfigError",
    "RetrievalAudit",
    "verify_response",
    "brm_source_emit",
    "check_mac_strength",
    "run_pi1",
    "run_pi2",
    "run_pi3",
    "run_protocol",
]

ACC = "Acc"
REJ = "Rej"

PROTOCOLS = ("pi1", "pi2", "pi3")

#: How a trial draws its source and noise: 1 drew all n pi3 source bits and
#: every receiver's n noise samples at session start; 2 draws each pi3
#: position the first time a party reads it, in read order, with the
#: challenge in increasing position order; 3 draws pi1/pi2 the same way, as
#: the n = k case, and every source bit from one uniform double; 4 draws a
#: hard receiver's bit error at each new position from one uniform double
#: (below its error rate: an error) instead of a Gaussian noise sample, and
#: only the soft receiver (the block-majority prover) still draws the noise;
#: 5 draws no source bit for the parity and block-majority digests, which
#: drew every position of a row in position order before the prover read:
#: the prover's reads draw the sampled bits, and a block-majority digest is
#: one uniform double per block holding sampled positions, against the
#: majority's law given the block's sampled bits; 6 takes source bits from
#: raw 64-bit generator words, 64 a word, keeping a word's unread bits for
#: the next read, and a hard receiver's bit errors from 16-bit lanes of raw
#: words (``channel.bit_errors``) in place of one uniform double per bit or
#: error, several times faster with the same law; 7 draws the block-majority
#: prover's errors by ``bit_errors`` after its digests, at the rates its
#: decision on the Gaussian sample 6 drew errs at, and the digests'
#: partition puts its larger blocks first, where 6 rounded ``linspace``; 8
#: draws a bit error from an 8-bit lane of a raw word, eight a word, where 7
#: read a 16-bit lane, four a word, and a tied lane goes down to a 16-bit
#: lane of further words and only then to a double, where 7 drew the double
#: at once: half the generator words per error, with the same law to within
#: 2^-77 where 7 was within 2^-69.
SOURCE_STREAM_VERSION = 8

#: How trials share a generator: 1 gave each trial its own, seeded by
#: (master seed, trial index); 2 runs them in blocks of rows, one generator
#: per block seeded by (master seed, block index), and makes each draw for
#: every row of the block at once: all rows' MAC keys, then all rows' sampler
#: keys, then each read's new positions in row-major order.  A trial's draws
#: therefore depend on its block's rows: on the block rule
#: (``montecarlo.block_rows`` with BLOCK_ROWS and BLOCK_POSITIONS) and, for
#: the last, partial block, on the run's trial count.  The first N trials of
#: a longer run are not an N-trial run, and a dumped trial's seed names its
#: place in the run, not a run of its own.  Changing the block rule changes
#: every result, so it needs a new version; 3 sizes the digest scenarios'
#: blocks by the positions a row reads, as every other scenario's, where 2
#: counted their whole source; 4 lets a block read 2^18 positions, where 3
#: let it read 2^15, so a block at k = 3334 holds 78 rows, not 9, and pays its
#: MAC evaluations and its generator's seeding once for all of them.
TRIAL_STREAM_VERSION = 4

#: Longest source: positions and block keys (row * n + position) are int64.
MAX_SOURCE_BITS = int(np.iinfo(np.int64).max)

#: Longest source whose shared memo is an n-length bit array; a longer one is
#: memoised as sorted positions and bits (a RetrievalAudit), so memory grows
#: with the positions read, not with n.  The array is the faster of the two
#: where n is small and most positions are read.
DENSE_SOURCE_BITS = 1 << 16

#: Length of the one shared key range that blocks sampling every position
#: (k = n) read as their sampled keys: ``montecarlo.block_rows`` holds a
#: block's rows * k within its BLOCK_POSITIONS, 2^18, so the range covers
#: every block it sizes, and a longer block makes a range of its own.
SHARED_KEY_RANGE = 1 << 18


class RetrievalCapError(RuntimeError):
    """A party attempted to retrieve more source positions than the cap allows."""

    def __init__(self, party: str, requested: int, cap: int):
        self.party = party
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"{party} attempted to retrieve {requested} source positions, cap is {cap}"
        )


class ProtocolConfigError(ValueError):
    """Inconsistent protocol configuration."""


@dataclass(frozen=True)
class BrmParams:
    """Bounded-retrieval run parameters: rate, source length, sampler failure."""

    lam: float
    n: int
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.lam < 1:
            raise ValueError(f"retrieval rate must be in (0,1), got {self.lam}")
        if not 1 <= self.n <= MAX_SOURCE_BITS:
            raise ValueError(f"source length must be in [1, {MAX_SOURCE_BITS}], got {self.n}")

    @property
    def retrieval_cap(self) -> int:
        return math.ceil(self.lam * self.n)


@dataclass(frozen=True)
class ProtocolConfig:
    """Concrete protocol parameters (reference power, length, threshold)."""

    protocol: str
    e0: float
    k: int
    beta: float | Fraction
    mac_bits: int = 64
    brm: Optional[BrmParams] = None
    use_mac: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ProtocolConfigError(f"unknown protocol {self.protocol!r}")
        if self.k < 1:
            raise ProtocolConfigError(f"challenge length must be >= 1, got {self.k}")
        if not 0 < float(self.beta) < 1:
            raise ProtocolConfigError(f"threshold rate must be in (0,1), got {self.beta}")
        if not self.e0 > 0:
            raise ProtocolConfigError(f"reference power must be > 0, got {self.e0}")
        if not self.use_mac and self.protocol != "pi3":
            raise ProtocolConfigError(
                f"only pi3 can drop the MAC (pi1 never has one, pi2 always does), "
                f"got {self.protocol}"
            )
        if self.protocol == "pi3":
            if self.brm is None:
                raise ProtocolConfigError("pi3 requires brm parameters")
            # k = lam*n up to rounding: accept either rounding convention.
            # The second test is n == ceil(k/lam), false (not OverflowError) for k/lam = inf.
            ok = (self.k == self.brm.retrieval_cap
                  or self.brm.n - 1 < self.k / self.brm.lam <= self.brm.n)
            if not ok:
                raise ProtocolConfigError(
                    f"k={self.k} inconsistent with lam*n="
                    f"{self.brm.lam * self.brm.n} (n={self.brm.n})"
                )
            if self.k > self.brm.retrieval_cap:
                raise ProtocolConfigError(
                    f"k={self.k} exceeds the retrieval cap {self.brm.retrieval_cap}"
                )


@dataclass(frozen=True)
class SessionKeys:
    """Per-run shared secrets; generated fresh by the engine when omitted."""

    mac_key: Optional[MacKey] = None
    sampler_key: Optional[SamplerKey] = None


@dataclass
class Transcript:
    """Full record of one protocol run."""

    protocol: str
    claim_m: float
    d_real_m: float
    challenge: np.ndarray
    response: np.ndarray
    hamming: int
    verdict: str
    power_w: float
    tag: Optional[int] = None
    mac_ok: Optional[bool] = None
    threshold_ok: Optional[bool] = None
    seed: Optional[int] = None
    scenario: str = "honest"
    noiseless: bool = False
    source_bits: Optional[int] = None
    retrieval_cap: Optional[int] = None
    accesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": "3",
            "protocol": self.protocol,
            "scenario": self.scenario,
            "claim_m": self.claim_m,
            "d_real_m": self.d_real_m,
            "challenge_hex": bits_to_hex(self.challenge),
            "response_hex": bits_to_hex(self.response),
            "k": int(self.challenge.size),
            "hamming": self.hamming,
            "verdict": self.verdict,
            "seed": self.seed,
            "power_w": self.power_w,
            "noiseless": self.noiseless,
            "source_stream": SOURCE_STREAM_VERSION,
            "trial_stream": TRIAL_STREAM_VERSION,
        }
        if self.tag is not None:
            out["tag_hex"] = format(self.tag, "x")
        if self.mac_ok is not None:
            out["mac_ok"] = self.mac_ok
        if self.threshold_ok is not None:
            out["threshold_ok"] = self.threshold_ok
        if self.source_bits is not None:
            out["source_bits"] = self.source_bits
            out["retrieval_cap"] = self.retrieval_cap
            out["accesses"] = dict(self.accesses)
            out["sampler_stream"] = SAMPLER_STREAM_VERSION
        return out


@dataclass
class TrialBlock:
    """The record of a block of runs, one row per trial: a ``Transcript`` for
    each row, held as arrays over the rows where the rows differ."""

    protocol: str
    scenario: str
    claim_m: float
    d_real_m: float
    power_w: float
    noiseless: bool
    challenge: np.ndarray
    response: np.ndarray
    hamming: np.ndarray
    accepted: np.ndarray
    threshold_ok: np.ndarray
    tags: Optional[np.ndarray] = None
    mac_ok: Optional[np.ndarray] = None
    seed: Optional[int] = None  # row i's seed is seed + i
    source_bits: Optional[int] = None
    retrieval_cap: Optional[int] = None
    accesses: dict = field(default_factory=dict)  # party -> positions read per row

    def transcript(self, i: int) -> Transcript:
        """Row i's transcript."""
        return Transcript(
            protocol=self.protocol,
            claim_m=self.claim_m,
            d_real_m=self.d_real_m,
            challenge=self.challenge[i],
            response=self.response[i],
            hamming=int(self.hamming[i]),
            verdict=ACC if self.accepted[i] else REJ,
            power_w=self.power_w,
            tag=None if self.tags is None else int(self.tags[i]),
            mac_ok=None if self.mac_ok is None else bool(self.mac_ok[i]),
            threshold_ok=bool(self.threshold_ok[i]),
            seed=None if self.seed is None else self.seed + i,
            scenario=self.scenario,
            noiseless=self.noiseless,
            source_bits=self.source_bits,
            retrieval_cap=self.retrieval_cap,
            accesses={party: int(count[i]) for party, count in self.accesses.items()},
        )


#: What a responder policy returns: a Transcript for one run, else a TrialBlock.
Outcome = Union[Transcript, TrialBlock]


class RetrievalAudit:
    """One party's audited view of an n-position source, drawn as it is read,
    on each of ``rows`` rows of a block.

    A position p of row r has the key r * n + p; on one row keys are
    positions.  The view holds the sorted distinct keys the party has read
    and their values.  A read counts, per row, the positions new to the
    party and, before anything is drawn, raises RetrievalCapError if the
    party would then hold more than ``cap`` of them on some row.  Otherwise
    ``fill`` gives the new keys' values, asked for in increasing key order,
    and they are merged in.  Re-reads are free: the values are held.  A read
    may return the held values array itself (always so for a re-read of the
    held keys array), so callers must not modify what a read returns.
    """

    def __init__(self, fill: Callable[[np.ndarray], np.ndarray], n: int, cap: int,
                 party: str, rows: int = 1):
        self._fill = fill
        self.n = int(n)
        self.cap = int(cap)
        self.party = party
        self.rows = int(rows)
        self._keys = _NO_POSITIONS
        self._vals = _NO_POSITIONS
        self._counts = np.zeros(self.rows, dtype=np.int64)
        # Row r's keys are [r * n, (r + 1) * n); rows * n fits in int64.
        self._row_bounds = np.arange(self.rows + 1, dtype=np.int64) * self.n

    def read(self, indices: np.ndarray, checked: bool = False) -> np.ndarray:
        """The values at the keys ``indices``, in their shape: any order,
        repeats allowed, unless ``checked`` says they are sorted, distinct and
        in range (as the session's own sampled positions are), when only the
        cap is checked."""
        return self._get(np.asarray(indices, dtype=np.int64), checked)

    @property
    def accessed(self) -> int:
        """Positions held, over all rows."""
        return int(self._keys.size)

    @property
    def accessed_per_row(self) -> np.ndarray:
        """Positions held on each row."""
        return self._counts

    def _get(self, idx: np.ndarray, checked: bool) -> np.ndarray:
        keys = self._keys
        if idx is keys:
            return self._vals
        flat = idx if idx.ndim == 1 else idx.ravel()
        at = new = flat  # with nothing held, every key is new
        if keys.size:
            at = keys.searchsorted(flat)
            new = flat[keys.take(at, mode="clip") != flat]
        if new.size:
            if not checked:
                if not _sorted_distinct(new):
                    new = np.unique(new)
                if new[0] < 0 or new[-1] >= self.rows * self.n:
                    raise IndexError(f"{self.party} read outside positions [0, {self.n})")
            self._count(new)
            self._merge(new)
            if new is flat:  # nothing was held, and the read was sorted and distinct
                return self._vals if idx.ndim == 1 else self._vals.reshape(idx.shape)
            at = self._keys.searchsorted(flat)
        return self._vals[at].reshape(idx.shape)

    def _count(self, new: np.ndarray) -> None:
        """Add sorted distinct ``new`` to the per-row counts, refusing a row past the cap."""
        if self.rows == 1:
            counts = self._counts + new.size
        else:
            cut = new.searchsorted(self._row_bounds)
            counts = self._counts + (cut[1:] - cut[:-1])
        most = int(counts.max())
        if most > self.cap:
            raise RetrievalCapError(self.party, most, self.cap)
        self._counts = counts

    def _merge(self, new: np.ndarray) -> None:
        """Draw sorted distinct ``new`` through ``fill`` and hold them."""
        vals = self._fill(new)
        if self._keys.size:
            merged = np.concatenate((self._keys, new))
            order = merged.argsort(kind="stable")  # merges the two sorted runs
            self._keys = merged[order]
            self._vals = np.concatenate((self._vals, vals))[order]
        else:
            self._keys, self._vals = new, vals


_NO_POSITIONS = np.empty(0, dtype=np.int64)


def _sorted_distinct(idx: np.ndarray) -> bool:
    return not np.count_nonzero(idx[1:] <= idx[:-1])


@functools.cache
def _shared_key_range() -> np.ndarray:
    keys = np.arange(SHARED_KEY_RANGE, dtype=np.int64)
    keys.flags.writeable = False
    return keys


def _key_range(size: int) -> np.ndarray:
    """Keys 0 .. size - 1 in increasing order, read-only: a view of the
    shared range, built on first use, when it is long enough."""
    if size <= SHARED_KEY_RANGE:
        return _shared_key_range()[:size]
    keys = np.arange(size, dtype=np.int64)
    keys.flags.writeable = False
    return keys


def verify_response(m: np.ndarray, m_hat: np.ndarray, beta: float | Fraction) -> str:
    """Acc iff the Hamming distance between response and challenge is <= beta*k."""
    m = np.asarray(m, dtype=np.uint8)
    m_hat = np.asarray(m_hat, dtype=np.uint8)
    if m.shape != m_hat.shape:
        raise ValueError(f"length mismatch: {m.size} vs {m_hat.size}")
    d_h = int(np.count_nonzero(m != m_hat))
    return ACC if d_h <= max_errors(beta, int(m.size)) else REJ


def brm_source_emit(
    e: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform n-bit string O and its modulated transmission at power e."""
    if n < 1:
        raise ValueError(f"source length must be >= 1, got {n}")
    o = random_bits(rng, n)
    return o, bpsk_modulate(o, e)


def check_mac_strength(cfg: ProtocolConfig, eps_fa: float) -> None:
    """Reject configs whose MAC forgery bound L/2**s exceeds the false-accept budget."""
    if cfg.protocol == "pi1" or not cfg.use_mac:
        return
    bound = mac_forgery_bound(cfg.k + CLAIM_BITS, cfg.mac_bits)
    if bound > eps_fa:
        raise ProtocolConfigError(
            f"MAC forgery bound {bound} exceeds eps_fa={eps_fa}; increase mac_bits"
        )


def _source_bits(rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """A draw of the next ``count`` source bits that takes whole words with
    ``random_bits`` and keeps the unread bits of the last one for the next
    draw, so that consecutive draws give the bits one draw of their total
    would."""
    spare = _NO_BITS

    def draw(count: int) -> np.ndarray:
        nonlocal spare
        if count > spare.size:  # whole words: ceil((count - spare) / 64) of them
            bits = random_bits(rng, -((spare.size - count) // 64) * 64)
            spare = np.concatenate((spare, bits)) if spare.size else bits
        bits, spare = spare[:count], spare[count:]
        return bits

    return draw


_NO_BITS = np.empty(0, dtype=np.uint8)


class _SharedSource:
    """The source bits of every row of a session's block, each drawn the
    first time anyone reads its position, in increasing key order
    (row * n + position) within a read.  The bits come from ``random_bits``
    in whole 64-bit words, and the unread bits of the last word are the next
    bits drawn, so consecutive reads draw what one read of their keys would.
    Up to DENSE_SOURCE_BITS positions a row the memo is an int8 array over
    the block's keys with -1 at the keys not drawn yet (None until the first
    read, and the draw itself when that read takes every key), and once
    every key is drawn a read checks for none; above, sorted keys and bits
    (a RetrievalAudit), so memory grows with the positions read.  No party
    reads more than the cap of a row, so a row's whole source is drawn only
    where the cap covers it.  A receiver reads these bits with its own bit
    errors XORed on (``Session.receive``).  It refers to no session or view,
    so the receivers' fills that share it form no reference cycle and a
    finished session is freed at once.
    """

    def __init__(self, rng: np.random.Generator, n: int, rows: int):
        self.size = n * rows
        self._draw = draw = _source_bits(rng)
        self._bits: Optional[np.ndarray] = None
        self._undrawn = self.size
        self._sorted: Optional[RetrievalAudit] = None
        if n > DENSE_SOURCE_BITS:
            self._sorted = RetrievalAudit(lambda keys: draw(keys.size), self.size, self.size,
                                          "source")

    def at(self, keys: np.ndarray) -> np.ndarray:
        """Source bits at sorted distinct keys, drawing those not drawn yet."""
        if self._sorted is not None:
            return self._sorted._get(keys, checked=True)
        if self._bits is None:  # the first read: every key is new
            bits = self._draw(keys.size)
            if keys.size == self.size:  # every key: the draw itself is the memo
                self._bits = bits.view(np.int8)
            else:
                self._bits = np.full(self.size, -1, dtype=np.int8)
                self._bits[keys] = bits
            self._undrawn -= keys.size
            return bits
        # Every key, in order, is the memo itself: no gather (pi1/pi2's check).
        bits = self._bits if keys.size == self.size else self._bits[keys]
        if self._undrawn:
            fresh = bits < 0
            count = np.count_nonzero(fresh)
            if count:
                bits[fresh] = self._bits[keys[fresh]] = self._draw(count)
                self._undrawn -= count
        return bits.view(np.uint8)


class Session:
    """A block of runs as the verifier sees them, one row per trial: keys,
    emission, each party's audited view, verdicts.  A responder policy (the
    honest prover or an attack) receives, reads and signs over the rows;
    ``decide`` builds the record.  Reads, responses and tags carry a leading
    row axis.  Without ``rows`` the session is one run: a block of one row
    whose ``decide`` returns that run's Transcript rather than a TrialBlock.

    The claim, real distance, label and noise setting come from the run's
    ``montecarlo.Scenario``; impersonation overrides the distance (``d_real``).

    It draws from ``rng`` in one fixed order, each draw for every row at
    once: the MAC keys (only when the run authenticates and ``keys`` holds
    none), the sampler keys (pi3), then the emission.  pi1/pi2 are the n = k
    case, with a cap of n and every position sampled, so their sampled keys
    are the block's keys 0 .. rows * n - 1 in order, a read-only view of one
    shared key range (``SHARED_KEY_RANGE``), not an array of their own.
    Nothing more is drawn up front: each party's ``RetrievalAudit`` draws a
    position the first time that party reads it, in read order and
    row-major over the rows, taking the source bit from one shared memo
    (drawn on the first read by anyone) and then the party's own bit errors
    (``receive``); ``challenge`` reads the verifier's bits from that memo.
    For a pi1/pi2 receiver at distance d reading every position of a row,
    the eager reference is ``random_bits(rng, k)`` (ceil(k/64) raw words)
    and then ``bit_errors(rng, k, p)`` with p the bit error rate at d.

    ``sign`` keeps the message it encoded and the tags it made, and
    ``decide`` finds the tags its own encoding of (response, claim) should
    carry from those (``mac_sign_rows_from``): the same tags for a
    byte-equal message, a few Horner steps for a changed claim.  The tag
    under check is never used.
    """

    def __init__(self, cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                 rng: np.random.Generator, seed: Optional[int] = None,
                 keys: Optional[SessionKeys] = None, *, d_real: Optional[float] = None,
                 rows: Optional[int] = None):
        self.cfg, self.ch, self.rng, self.seed = cfg, ch, rng, seed
        self.single = rows is None
        self.rows = 1 if rows is None else int(rows)
        self.d_c, self.kind, self.noiseless = scenario.d_claim, scenario.kind, scenario.noiseless
        self.d_real = scenario.d_real if d_real is None else d_real
        self.bounded = cfg.protocol == "pi3"
        self.authenticated = cfg.protocol != "pi1" and cfg.use_mac
        # One draw of key material for every row: the MAC keys, then the
        # sampler keys, as successive MacKey and SamplerKey draws take them.
        draw_mac = self.authenticated and (keys is None or keys.mac_key is None)
        draw_sampler = self.bounded and (keys is None or keys.sampler_key is None)
        mac_bytes = MacKeys.draw_bytes(self.rows, cfg.mac_bits) if draw_mac else 0
        sampler_bytes = SAMPLER_KEY_BYTES * self.rows if draw_sampler else 0
        raw = rng.bytes(mac_bytes + sampler_bytes) if draw_mac or draw_sampler else b""
        self.mac_keys: Optional[MacKeys] = None
        if self.authenticated:
            self.mac_keys = (MacKeys.from_bytes(raw[:mac_bytes], self.rows, cfg.mac_bits)
                             if draw_mac else MacKeys.repeat(keys.mac_key, self.rows))
        self.sampler_keys: Optional[np.ndarray] = None  # (rows, 2) uint64 (hi, lo)
        if self.bounded:
            self.sampler_keys = (
                sampler_key_rows(raw[mac_bytes:]) if draw_sampler
                else np.tile(np.array(keys.sampler_key.words, dtype=np.uint64), (self.rows, 1)))
        self.power_w = transmit_power_for_claim(self.d_c, cfg.e0, ch)
        self.n, self.cap = self.extent(cfg)
        self._offsets = np.arange(0, self.rows * self.n, self.n, dtype=np.int64)[:, None]
        self._views: dict[str, RetrievalAudit] = {}
        self._sampled: Optional[np.ndarray] = None
        self._source = _SharedSource(rng, self.n, self.rows)
        self._signed: Optional[tuple[np.ndarray, np.ndarray]] = None  # (message, tags)

    @staticmethod
    def extent(cfg: ProtocolConfig) -> tuple[int, int]:
        """(n, cap): source length and retrieval cap; pi1/pi2 emit k readable bits."""
        if cfg.protocol == "pi3":
            return cfg.brm.n, cfg.brm.retrieval_cap
        return cfg.k, cfg.k

    @staticmethod
    def capture_blocked(cfg: ProtocolConfig) -> bool:
        """Whether reading every emitted position exceeds the retrieval cap
        (pi3 with cap < n), so a capture of the whole source is refused."""
        n, cap = Session.extent(cfg)
        return cap < n

    @property
    def sampled(self) -> np.ndarray:
        """(rows, k): each row's challenge positions in increasing order: every
        position when k = n, otherwise derived from the row's sampler key on
        first use."""
        if self._sampled is None:
            k = self.cfg.k
            if k == self.n:
                self._sampled = np.broadcast_to(np.arange(k), (self.rows, k))
            else:
                sampled = sample_indices_rows(self.sampler_keys, self.n, k)
                sampled.sort(axis=1)
                self._sampled = sampled
        return self._sampled

    @functools.cached_property
    def _sampled_keys(self) -> np.ndarray:
        """(rows, k): the block keys of the sampled positions; when k = n,
        every key in order, read-only."""
        if self.cfg.k == self.n:
            return _key_range(self.rows * self.n).reshape(self.rows, self.n)
        return self.keys(self.sampled)

    def challenge(self) -> np.ndarray:
        """(rows, k): each row's source bits at its sampled positions, the
        bits the verifier checks a response against.  Read from the shared
        memo, so the bits a party's read drew first are the ones returned."""
        return self._source.at(self._sampled_keys.ravel()).reshape(self.rows, self.cfg.k)

    def keys(self, positions: np.ndarray) -> np.ndarray:
        """(rows, m) block keys row * n + position of ``positions``, given per
        row as (rows, m) or as (m,) read on every row; sorted distinct
        positions on each row give sorted distinct keys."""
        return np.asarray(positions, dtype=np.int64) + self._offsets

    def receive(self, party: str, at: Optional[float]) -> None:
        """``party``'s reception of the emission at distance ``at`` (None: so
        close that it is error-free, and nothing is drawn), drawn at each
        position when the party first reads it.

        It reads the source bit XOR an independent error of probability
        p = bit_error_prob(snr) at ``at``, drawn for the read's new positions
        by one ``channel.bit_errors`` call after their source bits: the
        binary symmetric channel of the bounds and exact oracles.  p = 0 (an
        SNR whose loss underflows) draws nothing; ``noiseless`` draws nothing
        and maps each bit as the attenuated, demodulated emission does.
        """
        source, power_w, ch, rng = self._source, self.power_w, self.ch, self.rng
        if at is None:
            fill = source.at
        elif self.noiseless:
            # Identity, except that a loss past the float range attenuates
            # both levels to a zero that demodulates to 1.
            table = bpsk_demodulate(attenuate(bpsk_modulate([0, 1], power_w), at, ch))

            def fill(keys: np.ndarray) -> np.ndarray:
                return table.take(source.at(keys))
        else:
            p = bit_error_prob(snr_at_distance(power_w, at, ch))
            if p == 0.0:
                fill = source.at
            else:
                def fill(keys: np.ndarray) -> np.ndarray:
                    bits = source.at(keys)  # may be the memo itself: left as it is
                    errors = bit_errors(rng, keys.size, p)
                    errors ^= bits
                    return errors

        self._views[party] = RetrievalAudit(fill, self.n, self.cap, party, self.rows)

    def read(self, party: str, positions: Optional[np.ndarray] = None,
             where: Optional[np.ndarray] = None) -> np.ndarray:
        """``party``'s received values at ``positions`` (default: the sampled
        ones), given as for ``keys``, in the (rows, m) shape; with ``where``,
        a boolean (rows, m) mask, only at the masked entries, flat in
        row-major order."""
        if positions is None:
            keys, checked = self._sampled_keys, True
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.size and (positions.min() < 0 or positions.max() >= self.n):
                raise IndexError(f"{party} read outside positions [0, {self.n})")
            keys, checked = self.keys(positions), False
        if where is not None:
            keys = keys[where]
        return self._views[party].read(keys, checked)

    def sign(self, response: np.ndarray, claim: float) -> Optional[np.ndarray]:
        """Each row's tag over (response, claim) under its MAC key; None without a MAC."""
        if not self.authenticated:
            return None
        message = encode_response_claim(response, claim)
        tags = mac_sign_rows(self.mac_keys, message)
        # A copy, so that a change to the returned tags cannot reach decide.
        self._signed = message, tags.copy()
        return tags

    def decide(self, response: np.ndarray, tag: Optional[np.ndarray]) -> Outcome:
        """The verifier's check of each row's (response, tag) against its
        challenge and claim: the TrialBlock, or the one run's Transcript."""
        cfg, rows, k = self.cfg, self.rows, self.cfg.k
        # The verifier reads the k sampled positions of its own emission, and
        # ProtocolConfig holds k within the cap.
        challenge = self.challenge()
        response = np.asarray(response, dtype=np.uint8).reshape(rows, k)
        mac_ok = None
        if self.authenticated:
            message = encode_response_claim(response, self.d_c)
            want = (mac_sign_rows(self.mac_keys, message) if self._signed is None
                    else mac_sign_rows_from(self.mac_keys, message, *self._signed))
            mac_ok = (np.zeros(rows, dtype=bool) if tag is None
                      else np.asarray(np.asarray(tag) == want, dtype=bool))
        # Count each row's differing bits a byte at a time: packbits pads a
        # row to whole bytes with zeros, which add nothing.
        hamming = np.bitwise_count(np.packbits(challenge != response, axis=1)).sum(
            axis=1, dtype=np.int64)
        threshold_ok = hamming <= max_errors(cfg.beta, k)
        block = TrialBlock(
            protocol=cfg.protocol,
            scenario=self.kind,
            claim_m=self.d_c,
            d_real_m=self.d_real,
            power_w=self.power_w,
            noiseless=self.noiseless,
            challenge=challenge,
            response=response,
            hamming=hamming,
            accepted=threshold_ok if mac_ok is None else threshold_ok & mac_ok,
            threshold_ok=threshold_ok,
            tags=tag,
            mac_ok=mac_ok,
            seed=self.seed,
            source_bits=self.n if self.bounded else None,
            retrieval_cap=self.cap if self.bounded else None,
            accesses=({"verifier": np.full(rows, k)}
                      | {p: v.accessed_per_row for p, v in self._views.items()}
                      if self.bounded else {}),
        )
        return block.transcript(0) if self.single else block


def _honest_run(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                rng: np.random.Generator, seed: Optional[int],
                keys: Optional[SessionKeys] = None, rows: Optional[int] = None) -> Outcome:
    """The honest prover answers with the bits it receives at the sampled
    positions (its leg to the verifier is error-free) and tags its own claim."""
    s = Session(cfg, scenario, ch, rng, seed, keys, rows=rows)
    s.receive("prover", scenario.d_real)
    response = s.read("prover")
    return s.decide(response, s.sign(response, scenario.d_claim))


def run_pi1(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
            rng: np.random.Generator, seed: Optional[int] = None, *,
            rows: Optional[int] = None) -> Outcome:
    """One run of the bare challenge-response protocol with an honest prover
    (a block of ``rows`` runs when given)."""
    return _honest_run(cfg, scenario, ch, rng, seed, rows=rows)


def run_pi2(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
            rng: np.random.Generator, seed: Optional[int] = None, *,
            keys: Optional[SessionKeys] = None, rows: Optional[int] = None) -> Outcome:
    """As pi1 plus a one-time MAC over (response, claim) on the prover leg.

    With keys=None a fresh key per row is drawn from ``rng`` before the
    challenge; a supplied key serves every row.
    """
    return _honest_run(cfg, scenario, ch, rng, seed, keys, rows)


def run_pi3(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
            rng: np.random.Generator, seed: Optional[int] = None, *,
            keys: Optional[SessionKeys] = None, rows: Optional[int] = None) -> Outcome:
    """One honest run of the bounded-retrieval protocol (a block of ``rows``
    runs when given).

    The verifier triggers the source, both parties sample the same key-derived
    positions, and neither reads more than ceil(lam*n) positions of what it
    observed (enforced by the audit).  The response carries a MAC like pi2
    unless cfg.use_mac is false.
    """
    return _honest_run(cfg, scenario, ch, rng, seed, keys, rows)


def run_protocol(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                 rng: np.random.Generator, seed: Optional[int] = None, *,
                 rows: Optional[int] = None) -> Outcome:
    """Dispatch an honest run (or block of ``rows`` runs) of cfg.protocol."""
    if cfg.protocol == "pi1":
        return run_pi1(cfg, scenario, ch, rng, seed, rows=rows)
    if cfg.protocol == "pi2":
        return run_pi2(cfg, scenario, ch, rng, seed, rows=rows)
    return run_pi3(cfg, scenario, ch, rng, seed, rows=rows)
