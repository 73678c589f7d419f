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
    """True prover distance, plus an optional intruder distance (None = error-free)."""

    d_r: float
    intruder_d: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.d_r > 0:
            raise ValueError(f"prover distance must be > 0 m, got {self.d_r}")
        if self.intruder_d is not None and not self.intruder_d > 0:
            raise ValueError(f"intruder distance must be > 0 m, got {self.intruder_d}")


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


def _mac_leg(
    key: MacKey,
    response: np.ndarray,
    prover_claim: float,
    verifier_claim: float,
) -> tuple[int, bool]:
    """Prover-side tag and verifier-side check, each over its own claim view."""
    tag = mac_sign(key, encode_response_claim(response, prover_claim))
    ok = mac_verify(key, encode_response_claim(response, verifier_claim), tag)
    return tag, ok


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
    e = transmit_power_for_claim(claim.d_c, cfg.e0, ch)
    m = random_bits(rng, cfg.k)
    x = bpsk_modulate(m, e)
    y = propagate(x, placement.d_r, ch, rng, noiseless=noiseless)
    m_hat = bpsk_demodulate(y)  # prover-to-verifier leg is error-free
    verdict = verify_response(m, m_hat, cfg.beta)
    return Transcript(
        protocol=cfg.protocol,
        claim_m=claim.d_c,
        d_real_m=placement.d_r,
        challenge=m,
        response=m_hat,
        hamming=int(np.count_nonzero(m != m_hat)),
        verdict=verdict,
        power_w=e,
        threshold_ok=verdict == ACC,
        seed=seed,
        noiseless=noiseless,
    )


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
    mac_key = keys.mac_key if keys and keys.mac_key else MacKey.generate(rng, cfg.mac_bits)
    e = transmit_power_for_claim(claim.d_c, cfg.e0, ch)
    m = random_bits(rng, cfg.k)
    x = bpsk_modulate(m, e)
    y = propagate(x, placement.d_r, ch, rng, noiseless=noiseless)
    m_hat = bpsk_demodulate(y)
    tag, mac_ok = _mac_leg(mac_key, m_hat, claim.d_c, claim.d_c)
    threshold = verify_response(m, m_hat, cfg.beta)
    verdict = ACC if threshold == ACC and mac_ok else REJ
    return Transcript(
        protocol=cfg.protocol,
        claim_m=claim.d_c,
        d_real_m=placement.d_r,
        challenge=m,
        response=m_hat,
        hamming=int(np.count_nonzero(m != m_hat)),
        verdict=verdict,
        power_w=e,
        tag=tag,
        mac_ok=mac_ok,
        threshold_ok=threshold == ACC,
        seed=seed,
        noiseless=noiseless,
    )


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
    if cfg.brm is None:
        raise ProtocolConfigError("pi3 requires brm parameters")
    brm = cfg.brm
    mac_key = None
    if cfg.use_mac:
        mac_key = keys.mac_key if keys and keys.mac_key else MacKey.generate(rng, cfg.mac_bits)
    sampler_key = (
        keys.sampler_key
        if keys and keys.sampler_key
        else SamplerKey.generate(rng, brm.sampler_seed_bits)
    )
    e = transmit_power_for_claim(claim.d_c, cfg.e0, ch)
    o, x_o = brm_source_emit(e, brm.n, rng, e_max=ch.e_max)
    cap = brm.retrieval_cap
    verifier_view = RetrievalAudit(o, cap, "verifier")
    y_o = propagate(x_o, placement.d_r, ch, rng, noiseless=noiseless)
    prover_view = RetrievalAudit(y_o, cap, "prover")

    idx = sample_indices(sampler_key, brm.n, cfg.k)
    m_hat = bpsk_demodulate(prover_view.read(idx.indices))
    if cfg.use_mac:
        tag, mac_ok = _mac_leg(mac_key, m_hat, claim.d_c, claim.d_c)
    else:
        tag, mac_ok = None, None
    m = verifier_view.read(idx.indices)
    threshold = verify_response(m, m_hat, cfg.beta)
    verdict = ACC if threshold == ACC and (mac_ok is None or mac_ok) else REJ
    return Transcript(
        protocol=cfg.protocol,
        claim_m=claim.d_c,
        d_real_m=placement.d_r,
        challenge=m,
        response=m_hat,
        hamming=int(np.count_nonzero(m != m_hat)),
        verdict=verdict,
        power_w=e,
        tag=tag,
        mac_ok=mac_ok,
        threshold_ok=threshold == ACC,
        seed=seed,
        noiseless=noiseless,
        source_bits=brm.n,
        retrieval_cap=cap,
        accesses={"verifier": verifier_view.accessed, "prover": prover_view.accessed},
    )


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
