"""Verifier/prover engines for the three distance-claim verification protocols.

pi1 is the bare power-adjusted challenge-response protocol, pi2 adds a
one-time MAC over (response, claim), and pi3 replaces the explicit challenge
with positions of a high-rate source output sampled under a shared key, with
every party's retrieval audited against the ceil(lam*n) cap.

The honest prover is a responder policy on a ``Session`` like each attack:
``run_pi1/2/3`` and ``run_protocol`` take ``(cfg, scenario, ch, rng, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .bounds import max_errors
from .channel import (
    ChannelParams,
    bits_to_hex,
    bpsk_demodulate,
    bpsk_modulate,
    propagate,
    random_bits,
    transmit_power_for_claim,
)
from .primitives import (
    CLAIM_BITS,
    SAMPLER_STREAM_VERSION,
    MacKey,
    SamplerKey,
    encode_response_claim,
    mac_forgery_bound,
    mac_sign,
    mac_verify,
    sample_indices,
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
    "RetrievalCapError",
    "ProtocolConfigError",
    "RetrievalAudit",
    "verify_response",
    "brm_source_emit",
    "check_mac_strength",
    "check_whole_source",
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
#: the n = k case, and every source bit from one uniform double.
SOURCE_STREAM_VERSION = 3

#: Longest source whose shared memo is an n-length bit array; a longer one is
#: memoised as sorted positions and bits (a RetrievalAudit), so memory grows
#: with the positions read, not with n.  The array is the faster of the two
#: where n is small and most positions are read.
DENSE_SOURCE_BITS = 1 << 16

#: Longest source a session draws whole (the parity and block-majority
#: digests read all of it); a longer one raises ProtocolConfigError rather
#: than allocating about 11 bytes per position (the int8 memo, a double and
#: two masks per drawn bit).
MAX_WHOLE_SOURCE_BITS = 10**7


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
        if self.n < 1:
            raise ValueError(f"source length must be >= 1, got {self.n}")

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


class RetrievalAudit:
    """One party's audited view of an n-position source, drawn as it is read.

    The view holds the sorted distinct positions the party has read and
    their values.  A read counts the positions new to the party and, before
    anything is drawn, raises RetrievalCapError if the party would then hold
    more than ``cap`` of them.  Otherwise ``fill`` gives the new positions'
    values, asked for in increasing position order, and they are merged in.
    Re-reads are free: the values are held.  A read may return the held
    values array itself (always so for a re-read of the held positions
    array), so callers must not modify what a read returns.
    """

    def __init__(self, fill: Callable[[np.ndarray], np.ndarray], n: int, cap: int,
                 party: str):
        self._fill = fill
        self.n = int(n)
        self.cap = int(cap)
        self.party = party
        self._pos = _NO_POSITIONS
        self._vals = _NO_POSITIONS

    def read(self, indices: np.ndarray, checked: bool = False) -> np.ndarray:
        """The values at ``indices``: any order, repeats allowed, unless
        ``checked`` says they are sorted, distinct and in range (as the
        session's own sampled positions are), when only the cap is checked."""
        return self._get(np.asarray(indices, dtype=np.int64), checked)

    @property
    def accessed(self) -> int:
        return int(self._pos.size)

    def _get(self, idx: np.ndarray, checked: bool) -> np.ndarray:
        pos = self._pos
        if idx is pos:
            return self._vals
        at = new = idx  # with nothing held, every position is new
        if pos.size:
            at = pos.searchsorted(idx)
            new = idx[pos.take(at, mode="clip") != idx]
        if new.size:
            if not checked:
                if not _sorted_distinct(new):
                    new = np.unique(new)
                if new[0] < 0 or new[-1] >= self.n:
                    raise IndexError(f"{self.party} read outside positions [0, {self.n})")
            if pos.size + new.size > self.cap:
                raise RetrievalCapError(self.party, pos.size + new.size, self.cap)
            self._merge(new)
            if idx is self._pos:
                return self._vals
            at = self._pos.searchsorted(idx)
        return self._vals[at]

    def _merge(self, new: np.ndarray) -> None:
        """Draw sorted distinct ``new`` through ``fill`` and hold them."""
        vals = self._fill(new)
        if self._pos.size:
            merged = np.concatenate((self._pos, new))
            order = merged.argsort(kind="stable")  # merges the two sorted runs
            self._pos = merged[order]
            self._vals = np.concatenate((self._vals, vals))[order]
        else:
            self._pos, self._vals = new, vals


_NO_POSITIONS = np.empty(0, dtype=np.int64)


def _sorted_distinct(idx: np.ndarray) -> bool:
    return not np.count_nonzero(idx[1:] <= idx[:-1])


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


def check_whole_source(n: int) -> None:
    """Refuse to draw a whole source longer than MAX_WHOLE_SOURCE_BITS."""
    if n > MAX_WHOLE_SOURCE_BITS:
        raise ProtocolConfigError(
            f"a whole-source digest needs all n={n} source bits, more than "
            f"MAX_WHOLE_SOURCE_BITS={MAX_WHOLE_SOURCE_BITS}"
        )


def check_mac_strength(cfg: ProtocolConfig, eps_fa: float) -> None:
    """Reject configs whose MAC forgery bound L/2**s exceeds the false-accept budget."""
    if cfg.protocol == "pi1" or not cfg.use_mac:
        return
    bound = mac_forgery_bound(cfg.k + CLAIM_BITS, cfg.mac_bits)
    if bound > eps_fa:
        raise ProtocolConfigError(
            f"MAC forgery bound {bound} exceeds eps_fa={eps_fa}; increase mac_bits"
        )


class _SharedSource:
    """One session's n source bits, each drawn with ``random_bits`` the first
    time anyone reads its position, in increasing position order within a
    read.  Up to DENSE_SOURCE_BITS the memo is an int8 array with -1 at the
    positions not drawn yet (None until the first read); above, sorted
    positions and bits (a RetrievalAudit), so memory grows with the positions
    read.  It refers to no session or view, so the receivers' fills that
    share it form no reference cycle and a finished session is freed at once.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng, self.n = rng, n
        self._bits: Optional[np.ndarray] = None
        self._undrawn = n  # positions of the dense memo not drawn yet
        self._sorted: Optional[RetrievalAudit] = None
        if n > DENSE_SOURCE_BITS:
            self._sorted = RetrievalAudit(lambda pos: random_bits(rng, pos.size), n, n,
                                          "source")

    def at(self, positions: np.ndarray) -> np.ndarray:
        """Source bits at sorted distinct positions, drawing those not drawn yet."""
        if self._sorted is not None:
            return self._sorted._get(positions, checked=True)
        if positions.size == self.n:  # every position
            return self.whole()
        if self._bits is None:  # the first read: every position is new
            self._bits = np.full(self.n, -1, dtype=np.int8)
            bits = self._bits[positions] = random_bits(self.rng, positions.size)
            self._undrawn -= positions.size
            return bits
        bits = self._bits[positions]
        fresh = bits < 0
        count = np.count_nonzero(fresh)
        if count:
            bits[fresh] = self._bits[positions[fresh]] = random_bits(self.rng, count)
            self._undrawn -= count
        return bits.view(np.uint8)

    def whole(self) -> np.ndarray:
        """All n bits: O(n), so refused above MAX_WHOLE_SOURCE_BITS.  Read
        before anything is drawn, the draw itself becomes the memo."""
        if self._bits is None:
            check_whole_source(self.n)
            held, self._sorted = self._sorted, None
            if held is None or not held.accessed:
                self._bits = random_bits(self.rng, self.n).view(np.int8)
                self._undrawn = 0
            else:
                self._bits = np.full(self.n, -1, dtype=np.int8)
                self._bits[held._pos] = held._vals
                self._undrawn = self.n - held.accessed
        if self._undrawn:
            self._bits[self._bits < 0] = random_bits(self.rng, self._undrawn)
            self._undrawn = 0
        return self._bits.view(np.uint8)


class Session:
    """One run as the verifier sees it: keys, emission, each party's audited
    view, verdict.  A responder policy (the honest prover or an attack)
    receives, reads and signs; ``decide`` builds the transcript.

    The claim, real distance, label and noise setting come from the run's
    ``montecarlo.Scenario``; impersonation overrides the distance (``d_real``).

    It draws from ``rng`` in one fixed order: the MAC key (only when the run
    authenticates and ``keys`` holds none), the sampler key (pi3), then the
    emission.  pi1/pi2 are the n = k case, with a cap of n and every position
    sampled.  Nothing more is drawn up front: each party's ``RetrievalAudit``
    draws a position the first time that party reads it, in read order,
    taking the source bit from one shared memo (drawn on the first read by
    anyone) and the party's own noise.  ``brm_source_emit`` followed by
    ``propagate`` is the eager reference of a read of every position.
    """

    def __init__(self, cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                 rng: np.random.Generator, seed: Optional[int] = None,
                 keys: Optional[SessionKeys] = None, *, d_real: Optional[float] = None):
        self.cfg, self.ch, self.rng, self.seed = cfg, ch, rng, seed
        self.d_c, self.kind, self.noiseless = scenario.d_claim, scenario.kind, scenario.noiseless
        self.d_real = scenario.d_real if d_real is None else d_real
        self.bounded = cfg.protocol == "pi3"
        self.authenticated = cfg.protocol != "pi1" and cfg.use_mac
        self.mac_key = keys.mac_key if keys else None
        if self.mac_key is None and self.authenticated:
            self.mac_key = MacKey.generate(rng, cfg.mac_bits)
        self.sampler_key = keys.sampler_key if keys else None
        if self.sampler_key is None and self.bounded:
            self.sampler_key = SamplerKey.generate(rng)
        self.power_w = transmit_power_for_claim(self.d_c, cfg.e0, ch)
        self.n, self.cap = self.extent(cfg)
        self._views: dict[str, RetrievalAudit] = {}
        self._sampled: Optional[np.ndarray] = None
        self._source = _SharedSource(rng, self.n)

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
        """The challenge positions in increasing order: every position when
        k = n, otherwise derived from the sampler key on first use."""
        if self._sampled is None:
            if self.cfg.k == self.n:
                self._sampled = np.arange(self.n)
            else:
                self._sampled = np.sort(
                    sample_indices(self.sampler_key, self.n, self.cfg.k).indices)
        return self._sampled

    @property
    def source(self) -> np.ndarray:
        """The whole n-bit source output.  This draws every position no one
        has read yet, in increasing position order: O(n), so it is refused
        above MAX_WHOLE_SOURCE_BITS."""
        return self._source.whole()

    def receive(self, party: str, at: Optional[float]) -> None:
        """``party``'s reception of the emission at distance ``at`` (None: so
        close that it is error-free, and no noise is drawn), drawn at each
        position when the party first reads it."""
        source, power_w, ch, rng, noiseless = (self._source, self.power_w, self.ch,
                                               self.rng, self.noiseless)

        def fill(pos: np.ndarray) -> np.ndarray:
            sig = bpsk_modulate(source.at(pos), power_w)
            if at is None:
                return sig
            return propagate(sig, at, ch, rng, noiseless=noiseless)

        self._views[party] = RetrievalAudit(fill, self.n, self.cap, party)

    def read(self, party: str, positions: Optional[np.ndarray] = None) -> np.ndarray:
        """``party``'s received values at ``positions`` (default: the sampled ones)."""
        if positions is None:
            return self._views[party].read(self.sampled, checked=True)
        return self._views[party].read(positions)

    def sign(self, response: np.ndarray, claim: float) -> Optional[int]:
        """Tag over (response, claim) under the session MAC key; None without a MAC."""
        if not self.authenticated:
            return None
        return mac_sign(self.mac_key, encode_response_claim(response, claim))

    def decide(self, response: np.ndarray, tag: Optional[int]) -> Transcript:
        """The verifier's check of (response, tag) against its challenge and claim."""
        cfg = self.cfg
        # The verifier reads the k sampled positions of its own emission, and
        # ProtocolConfig holds k within the cap.
        m = self._source.at(self.sampled)
        mac_ok = None
        if self.authenticated:
            mac_ok = mac_verify(self.mac_key, encode_response_claim(response, self.d_c), tag)
        threshold_ok = verify_response(m, response, cfg.beta) == ACC
        return Transcript(
            protocol=cfg.protocol,
            claim_m=self.d_c,
            d_real_m=self.d_real,
            challenge=m,
            response=response,
            hamming=int(np.count_nonzero(m != response)),
            verdict=ACC if threshold_ok and mac_ok is not False else REJ,
            power_w=self.power_w,
            tag=tag,
            mac_ok=mac_ok,
            threshold_ok=threshold_ok,
            seed=self.seed,
            scenario=self.kind,
            noiseless=self.noiseless,
            source_bits=self.n if self.bounded else None,
            retrieval_cap=self.cap if self.bounded else None,
            accesses=({"verifier": cfg.k} | {p: v.accessed for p, v in self._views.items()}
                      if self.bounded else {}),
        )


def _honest_run(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                rng: np.random.Generator, seed: Optional[int],
                keys: Optional[SessionKeys] = None) -> Transcript:
    """The honest prover demodulates the sampled positions of its reception
    (its leg to the verifier is error-free) and tags its own claim."""
    s = Session(cfg, scenario, ch, rng, seed, keys)
    s.receive("prover", scenario.d_real)
    response = bpsk_demodulate(s.read("prover"))
    return s.decide(response, s.sign(response, scenario.d_claim))


def run_pi1(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
            rng: np.random.Generator, seed: Optional[int] = None) -> Transcript:
    """One run of the bare challenge-response protocol with an honest prover."""
    return _honest_run(cfg, scenario, ch, rng, seed)


def run_pi2(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
            rng: np.random.Generator, seed: Optional[int] = None, *,
            keys: Optional[SessionKeys] = None) -> Transcript:
    """As pi1 plus a one-time MAC over (response, claim) on the prover leg.

    With keys=None a fresh key is drawn from ``rng`` before the challenge.
    """
    return _honest_run(cfg, scenario, ch, rng, seed, keys)


def run_pi3(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
            rng: np.random.Generator, seed: Optional[int] = None, *,
            keys: Optional[SessionKeys] = None) -> Transcript:
    """One honest run of the bounded-retrieval protocol.

    The verifier triggers the source, both parties sample the same key-derived
    positions, and neither reads more than ceil(lam*n) positions of what it
    observed (enforced by the audit).  The response carries a MAC like pi2
    unless cfg.use_mac is false.
    """
    return _honest_run(cfg, scenario, ch, rng, seed, keys)


def run_protocol(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                 rng: np.random.Generator, seed: Optional[int] = None) -> Transcript:
    """Dispatch an honest run of cfg.protocol."""
    if cfg.protocol == "pi1":
        return run_pi1(cfg, scenario, ch, rng, seed)
    if cfg.protocol == "pi2":
        return run_pi2(cfg, scenario, ch, rng, seed)
    return run_pi3(cfg, scenario, ch, rng, seed)
