"""Verifier/prover engines for the three distance-claim verification protocols.

pi1 is the bare power-adjusted challenge-response protocol, pi2 adds a
one-time MAC over (response, claim), and pi3 replaces the explicit challenge
with positions of a high-rate source output sampled under a shared key, with
every party's retrieval audited against the ceil(lam*n) cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .bounds import max_errors
from .channel import (
    ChannelParams,
    ClaimRangeError,
    PowerLimitError,
    bits_to_hex,
    bpsk_demodulate,
    bpsk_modulate,
    propagate,
    random_bits,
    transmit_power_for_claim,
)
from .primitives import (
    SAMPLER_STREAM_VERSION,
    MacKey,
    SamplerKey,
    encode_response_claim,
    mac_forgery_bound,
    mac_sign,
    mac_verify,
    sample_indices,
)

__all__ = [
    "ACC",
    "REJ",
    "Claim",
    "PartyPlacement",
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
    "run_pi1",
    "run_pi2",
    "run_pi3",
    "run_protocol",
]

ACC = "Acc"
REJ = "Rej"

PROTOCOLS = ("pi1", "pi2", "pi3")


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
class Claim:
    """A claimed distance upper bound in meters."""

    d_c: float

    def __post_init__(self) -> None:
        if not self.d_c > 0:
            raise ClaimRangeError(f"claim must be > 0 m, got {self.d_c}")


@dataclass(frozen=True)
class PartyPlacement:
    """True prover distance."""

    d_r: float

    def __post_init__(self) -> None:
        if not self.d_r > 0:
            raise ValueError(f"prover distance must be > 0 m, got {self.d_r}")


@dataclass(frozen=True)
class BrmParams:
    """Bounded-retrieval run parameters: rate, source length, sampler slack."""

    lam: float
    n: int
    theta: float = 1e-4
    gamma: float = 0.0
    sampler_seed_bits: int = 128

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
            ok = self.k == math.ceil(self.brm.lam * self.brm.n) or self.brm.n == math.ceil(
                self.k / self.brm.lam
            )
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
            "schema_version": "2",
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
        if self.protocol == "pi3":
            out["sampler_stream"] = SAMPLER_STREAM_VERSION
        return out


class RetrievalAudit:
    """Access-counted view of an emitted source string.

    Reading values is allowed only through this wrapper; once a party has
    touched more distinct positions than the cap, the read raises.  Repeated
    reads of an already-retrieved position are free (the bit is stored).
    """

    def __init__(self, values: np.ndarray, cap: int, party: str):
        self._values = values
        self.cap = int(cap)
        self.party = party
        self._seen = np.zeros(len(values), dtype=bool)

    def read(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        self._seen[idx] = True
        count = int(np.count_nonzero(self._seen))
        if count > self.cap:
            raise RetrievalCapError(self.party, count, self.cap)
        return self._values[idx]

    @property
    def accessed(self) -> int:
        return int(np.count_nonzero(self._seen))


def verify_response(
    m: np.ndarray, m_hat: np.ndarray, beta: float | Fraction, k: Optional[int] = None
) -> str:
    """Acc iff the Hamming distance between response and challenge is <= beta*k."""
    m = np.asarray(m, dtype=np.uint8)
    m_hat = np.asarray(m_hat, dtype=np.uint8)
    if m.shape != m_hat.shape:
        raise ValueError(f"length mismatch: {m.size} vs {m_hat.size}")
    if k is not None and k != m.size:
        raise ValueError(f"stated length {k} does not match challenge length {m.size}")
    d_h = int(np.count_nonzero(m != m_hat))
    return ACC if d_h <= max_errors(beta, int(m.size)) else REJ


def brm_source_emit(
    e: float, n: int, rng: np.random.Generator, e_max: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform n-bit string O and its modulated transmission at power e."""
    if e_max is not None and e > e_max:
        raise PowerLimitError(f"source power {e} W exceeds limit {e_max} W")
    if n < 1:
        raise ValueError(f"source length must be >= 1, got {n}")
    o = random_bits(rng, n)
    return o, bpsk_modulate(o, e)


def check_mac_strength(cfg: ProtocolConfig, eps_fa: float) -> None:
    """Reject configs whose MAC forgery bound L/2**s exceeds the false-accept budget."""
    if cfg.protocol == "pi1" or not cfg.use_mac:
        return
    bound = mac_forgery_bound(cfg.k + 64, cfg.mac_bits)
    if bound > eps_fa:
        raise ProtocolConfigError(
            f"MAC forgery bound {bound} exceeds eps_fa={eps_fa}; increase mac_bits"
        )


class Session:
    """One run as the verifier sees it: keys, emission, each party's audited
    view, verdict.  A responder policy (the honest prover or an attack)
    receives, reads and signs; ``decide`` builds the transcript.

    It draws from ``rng`` in one fixed order: the MAC key (only when the run
    authenticates and ``keys`` holds none), the sampler key (pi3), the
    emission through ``brm_source_emit``, then each party's reception in the
    order the parties ask for it.  pi1/pi2 are the n = k case: the emission is
    the challenge itself and every position is sampled, so their parties read
    it whole and no ``RetrievalAudit`` is built.
    """

    def __init__(self, cfg: ProtocolConfig, d_c: float, ch: ChannelParams,
                 rng: np.random.Generator, keys: Optional[SessionKeys] = None, *,
                 d_real: float, scenario: str = "honest", noiseless: bool = False,
                 seed: Optional[int] = None):
        self.cfg, self.d_c, self.ch, self.rng = cfg, d_c, ch, rng
        self.d_real, self.scenario, self.noiseless, self.seed = d_real, scenario, noiseless, seed
        self.bounded = cfg.protocol == "pi3"
        self.authenticated = cfg.protocol != "pi1" and cfg.use_mac
        self.mac_key = keys.mac_key if keys else None
        if self.mac_key is None and self.authenticated:
            self.mac_key = MacKey.generate(rng, cfg.mac_bits)
        self.sampler_key = keys.sampler_key if keys else None
        if self.sampler_key is None and self.bounded:
            self.sampler_key = SamplerKey.generate(rng, cfg.brm.sampler_seed_bits)
        self.power_w = transmit_power_for_claim(d_c, cfg.e0, ch)
        self.n, self.cap = self.extent(cfg)
        self.source, self.signal = brm_source_emit(self.power_w, self.n, rng, e_max=ch.e_max)
        # A RetrievalAudit per party on pi3; the whole reception on pi1/pi2.
        self._views: dict = {}
        if self.bounded:
            self._views["verifier"] = RetrievalAudit(self.source, self.cap, "verifier")
        self._sampled: Optional[np.ndarray] = None

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
        """pi3's challenge positions, drawn from the sampler key on first use."""
        if self._sampled is None:
            self._sampled = sample_indices(self.sampler_key, self.n, self.cfg.k).indices
        return self._sampled

    def receive(self, party: str, at: Optional[float]) -> None:
        """Draw ``party``'s reception of the emission at distance ``at``
        (None: so close that it is error-free, and nothing is drawn)."""
        sig = self.signal
        if at is not None:
            sig = propagate(sig, at, self.ch, self.rng, noiseless=self.noiseless)
        self._views[party] = RetrievalAudit(sig, self.cap, party) if self.bounded else sig

    def read(self, party: str, positions: Optional[np.ndarray] = None) -> np.ndarray:
        """``party``'s received values at ``positions`` (default: the sampled ones)."""
        view = self._views[party]
        if self.bounded:
            return view.read(self.sampled if positions is None else positions)
        return view if positions is None else view[positions]

    def sign(self, response: np.ndarray, claim: float) -> Optional[int]:
        """Tag over (response, claim) under the session MAC key; None without a MAC."""
        if not self.authenticated:
            return None
        return mac_sign(self.mac_key, encode_response_claim(response, claim))

    def decide(self, response: np.ndarray, tag: Optional[int]) -> Transcript:
        """The verifier's check of (response, tag) against its challenge and claim."""
        cfg = self.cfg
        m = self._views["verifier"].read(self.sampled) if self.bounded else self.source
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
            scenario=self.scenario,
            noiseless=self.noiseless,
            source_bits=self.n if self.bounded else None,
            retrieval_cap=self.cap if self.bounded else None,
            accesses={p: v.accessed for p, v in self._views.items()} if self.bounded else {},
        )


def _honest_run(cfg: ProtocolConfig, claim: Claim, placement: PartyPlacement,
                ch: ChannelParams, rng: np.random.Generator, keys: Optional[SessionKeys],
                noiseless: bool, seed: Optional[int]) -> Transcript:
    """The honest prover demodulates the sampled positions of its reception
    (its leg to the verifier is error-free) and tags its own claim."""
    s = Session(cfg, claim.d_c, ch, rng, keys, d_real=placement.d_r,
                noiseless=noiseless, seed=seed)
    s.receive("prover", placement.d_r)
    response = bpsk_demodulate(s.read("prover"))
    return s.decide(response, s.sign(response, claim.d_c))


def run_pi1(
    cfg: ProtocolConfig,
    claim: Claim,
    placement: PartyPlacement,
    ch: ChannelParams,
    rng: np.random.Generator,
    *,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """One run of the bare challenge-response protocol with an honest prover."""
    return _honest_run(cfg, claim, placement, ch, rng, None, noiseless, seed)


def run_pi2(
    cfg: ProtocolConfig,
    claim: Claim,
    placement: PartyPlacement,
    ch: ChannelParams,
    rng: np.random.Generator,
    keys: Optional[SessionKeys] = None,
    *,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """As pi1 plus a one-time MAC over (response, claim) on the prover leg.

    With keys=None a fresh key is drawn from ``rng`` before the challenge.
    """
    return _honest_run(cfg, claim, placement, ch, rng, keys, noiseless, seed)


def run_pi3(
    cfg: ProtocolConfig,
    claim: Claim,
    placement: PartyPlacement,
    ch: ChannelParams,
    rng: np.random.Generator,
    keys: Optional[SessionKeys] = None,
    *,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """One honest run of the bounded-retrieval protocol.

    The verifier triggers the source, both parties sample the same key-derived
    positions, and neither reads more than ceil(lam*n) positions of what it
    observed (enforced by the audit).  The response carries a MAC like pi2
    unless cfg.use_mac is false.
    """
    return _honest_run(cfg, claim, placement, ch, rng, keys, noiseless, seed)


def run_protocol(
    cfg: ProtocolConfig,
    claim: Claim,
    placement: PartyPlacement,
    ch: ChannelParams,
    rng: np.random.Generator,
    keys: Optional[SessionKeys] = None,
    *,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Dispatch an honest run of cfg.protocol."""
    if cfg.protocol == "pi1":
        return run_pi1(cfg, claim, placement, ch, rng, noiseless=noiseless, seed=seed)
    if cfg.protocol == "pi2":
        return run_pi2(cfg, claim, placement, ch, rng, keys, noiseless=noiseless, seed=seed)
    return run_pi3(cfg, claim, placement, ch, rng, keys, noiseless=noiseless, seed=seed)
