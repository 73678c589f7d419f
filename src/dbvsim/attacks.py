"""Attack scenarios: distance fraud, mafia fraud, impersonation, and the
terrorist-fraud family against the bounded-retrieval protocol.

Placements follow the strongest-adversary convention: an intruder distance of
None means reception so close to the verifier that it is error-free.  All
bounded-retrieval parties go through the same access audit as honest runs;
an attack that needs more than the cap raises RetrievalCapError instead of
silently over-retrieving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channel import (
    ChannelParams,
    bpsk_demodulate,
    bpsk_modulate,
    propagate,
    random_bits,
    transmit_power_for_claim,
)
from .primitives import (
    MacKey,
    SamplerKey,
    encode_response_claim,
    mac_sign,
    mac_verify,
    sample_indices,
)
from .protocols import (
    ACC,
    REJ,
    BrmParams,
    Claim,
    PartyPlacement,
    ProtocolConfig,
    ProtocolConfigError,
    RetrievalAudit,
    RetrievalCapError,
    SessionKeys,
    Transcript,
    brm_source_emit,
    run_protocol,
    verify_response,
)

__all__ = [
    "MFA_STRATEGIES",
    "IndexSamplingStrategy",
    "ParitySketchStrategy",
    "BlockMajorityStrategy",
    "RetrievalStrategy",
    "default_strategy_library",
    "attack_dfa",
    "attack_mfa",
    "attack_impersonation",
    "attack_tfa_relay",
    "attack_tfa_sampling",
    "attack_tfa_general",
]

MFA_STRATEGIES = ("replay", "random-tag", "best-guess")


def _random_tag(rng: np.random.Generator, field_bits: int) -> int:
    return int.from_bytes(rng.bytes(field_bits // 8), "big")


def _observed_bits(
    x: np.ndarray,
    at: Optional[float],
    ch: ChannelParams,
    rng: np.random.Generator,
    noiseless: bool,
) -> np.ndarray:
    """Demodulated view of a transmission at the given distance (None = error-free)."""
    if at is None:
        return bpsk_demodulate(x)
    return bpsk_demodulate(propagate(x, at, ch, rng, noiseless=noiseless))


def attack_dfa(
    cfg: ProtocolConfig,
    d_c: float,
    d_r: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    *,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Dishonest prover at d_r claims d_c and answers from its own noisy reception.

    Demodulating the received signal is the response that maximizes the
    per-bit match probability, so mechanically this is an honest run placed
    at d_r; the fraud is in the claim.
    """
    t = run_protocol(
        cfg, Claim(d_c), PartyPlacement(d_r), ch, rng, noiseless=noiseless, seed=seed
    )
    t.scenario = "dfa"
    return t


def attack_mfa(
    cfg: ProtocolConfig,
    honest_d_r: float,
    forged_d_c: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    strategy: str = "best-guess",
    *,
    intruder_d: Optional[float] = None,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Man in the middle forges the claim of an honest prover down to forged_d_c.

    The honest prover claims (and tags, when the protocol authenticates) its
    true distance; the intruder holds no keys.  Strategies:
      replay      forward the prover's response and tag unchanged
      random-tag  forward the prover's response with a uniform tag guess
      best-guess  answer from the intruder's own reception with a uniform tag
    """
    if strategy not in MFA_STRATEGIES:
        raise ValueError(f"unknown mfa strategy {strategy!r}")
    honest_claim = honest_d_r
    e = transmit_power_for_claim(forged_d_c, cfg.e0, ch)

    mac_key = MacKey.generate(rng, cfg.mac_bits) if cfg.protocol != "pi1" else None
    with_mac = cfg.protocol == "pi2" or (cfg.protocol == "pi3" and cfg.use_mac)

    if cfg.protocol == "pi3":
        brm = cfg.brm
        sampler_key = SamplerKey.generate(rng, brm.sampler_seed_bits)
        o, x_o = brm_source_emit(e, brm.n, rng, e_max=ch.e_max)
        cap = brm.retrieval_cap
        verifier_view = RetrievalAudit(o, cap, "verifier")
        y_o = propagate(x_o, honest_d_r, ch, rng, noiseless=noiseless)
        prover_view = RetrievalAudit(y_o, cap, "prover")
        idx = sample_indices(sampler_key, brm.n, cfg.k)
        prover_resp = bpsk_demodulate(prover_view.read(idx.indices))
        if strategy == "best-guess":
            # Keyless intruder cannot locate the sampled positions; it answers
            # with the first k positions it managed to retrieve.
            intr_sig = x_o if intruder_d is None else propagate(
                x_o, intruder_d, ch, rng, noiseless=noiseless
            )
            intr_view = RetrievalAudit(intr_sig, cap, "intruder")
            response = bpsk_demodulate(intr_view.read(np.arange(cfg.k)))
        else:
            response = prover_resp
        m = verifier_view.read(idx.indices)
    else:
        m = random_bits(rng, cfg.k)
        x = bpsk_modulate(m, e)
        y = propagate(x, honest_d_r, ch, rng, noiseless=noiseless)
        prover_resp = bpsk_demodulate(y)
        if strategy == "best-guess":
            response = _observed_bits(x, intruder_d, ch, rng, noiseless)
        else:
            response = prover_resp

    tag = None
    mac_ok = None
    if with_mac:
        if strategy == "replay":
            tag = mac_sign(mac_key, encode_response_claim(prover_resp, honest_claim))
        else:
            tag = _random_tag(rng, cfg.mac_bits)
        mac_ok = mac_verify(mac_key, encode_response_claim(response, forged_d_c), tag)

    threshold = verify_response(m, response, cfg.beta)
    verdict = ACC if threshold == ACC and (mac_ok is None or mac_ok) else REJ
    return Transcript(
        protocol=cfg.protocol,
        claim_m=forged_d_c,
        d_real_m=honest_d_r,
        challenge=m,
        response=response,
        hamming=int(np.count_nonzero(m != response)),
        verdict=verdict,
        power_w=e,
        tag=tag,
        mac_ok=mac_ok,
        threshold_ok=threshold == ACC,
        seed=seed,
        scenario="mfa",
        noiseless=noiseless,
    )


def attack_impersonation(
    cfg: ProtocolConfig,
    d_c: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    *,
    adversary_d: Optional[float] = None,
    leaked_sampler_key: bool = False,
    leaked_mac_key: bool = False,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Keyless adversary initiates with claim d_c while the prover is absent.

    ``adversary_d`` places the adversary's receiver (None = error-free).  The
    leak flags hand it individual session keys, isolating which secret blocks
    the attack.
    """
    e = transmit_power_for_claim(d_c, cfg.e0, ch)
    mac_key = MacKey.generate(rng, cfg.mac_bits) if cfg.protocol != "pi1" else None
    with_mac = cfg.protocol == "pi2" or (cfg.protocol == "pi3" and cfg.use_mac)

    if cfg.protocol == "pi3":
        brm = cfg.brm
        sampler_key = SamplerKey.generate(rng, brm.sampler_seed_bits)
        o, x_o = brm_source_emit(e, brm.n, rng, e_max=ch.e_max)
        cap = brm.retrieval_cap
        verifier_view = RetrievalAudit(o, cap, "verifier")
        adv_sig = x_o if adversary_d is None else propagate(
            x_o, adversary_d, ch, rng, noiseless=noiseless
        )
        adv_view = RetrievalAudit(adv_sig, cap, "adversary")
        idx = sample_indices(sampler_key, brm.n, cfg.k)
        if leaked_sampler_key:
            response = bpsk_demodulate(adv_view.read(idx.indices))
        else:
            response = bpsk_demodulate(adv_view.read(np.arange(cfg.k)))
        m = verifier_view.read(idx.indices)
    else:
        m = random_bits(rng, cfg.k)
        x = bpsk_modulate(m, e)
        response = _observed_bits(x, adversary_d, ch, rng, noiseless)

    tag = None
    mac_ok = None
    if with_mac:
        if leaked_mac_key:
            tag = mac_sign(mac_key, encode_response_claim(response, d_c))
        else:
            tag = _random_tag(rng, cfg.mac_bits)
        mac_ok = mac_verify(mac_key, encode_response_claim(response, d_c), tag)

    threshold = verify_response(m, response, cfg.beta)
    verdict = ACC if threshold == ACC and (mac_ok is None or mac_ok) else REJ
    return Transcript(
        protocol=cfg.protocol,
        claim_m=d_c,
        d_real_m=adversary_d if adversary_d is not None else 0.0,
        challenge=m,
        response=response,
        hamming=int(np.count_nonzero(m != response)),
        verdict=verdict,
        power_w=e,
        tag=tag,
        mac_ok=mac_ok,
        threshold_ok=threshold == ACC,
        seed=seed,
        scenario="impersonation",
        noiseless=noiseless,
    )


def attack_tfa_relay(
    cfg: ProtocolConfig,
    d_c: float,
    d_r: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    *,
    intruder_d: Optional[float] = None,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Universal relay: an intruder near the verifier forwards everything.

    Against pi1/pi2 this succeeds at essentially the honest-at-zero-distance
    rate: the colluding prover holds the keys and the intruder's reception is
    error-free.  Against pi3 the relay must capture the whole source output,
    which the retrieval audit blocks for every cap below n — the attempt
    raises RetrievalCapError.
    """
    e = transmit_power_for_claim(d_c, cfg.e0, ch)
    if cfg.protocol == "pi3":
        brm = cfg.brm
        o, x_o = brm_source_emit(e, brm.n, rng, e_max=ch.e_max)
        intr_sig = x_o if intruder_d is None else propagate(
            x_o, intruder_d, ch, rng, noiseless=noiseless
        )
        intr_view = RetrievalAudit(intr_sig, brm.retrieval_cap, "intruder")
        intr_view.read(np.arange(brm.n))  # raises: cap < n for every lam < 1
        raise AssertionError("unreachable: relay capture must exceed the cap")

    mac_key = MacKey.generate(rng, cfg.mac_bits) if cfg.protocol == "pi2" else None
    m = random_bits(rng, cfg.k)
    x = bpsk_modulate(m, e)
    relayed = _observed_bits(x, intruder_d, ch, rng, noiseless)
    # Colluding prover computes the authenticated response on relayed bits.
    response = relayed
    tag = None
    mac_ok = None
    if mac_key is not None:
        tag = mac_sign(mac_key, encode_response_claim(response, d_c))
        mac_ok = mac_verify(mac_key, encode_response_claim(response, d_c), tag)
    threshold = verify_response(m, response, cfg.beta)
    verdict = ACC if threshold == ACC and (mac_ok is None or mac_ok) else REJ
    return Transcript(
        protocol=cfg.protocol,
        claim_m=d_c,
        d_real_m=d_r,
        challenge=m,
        response=response,
        hamming=int(np.count_nonzero(m != response)),
        verdict=verdict,
        power_w=e,
        tag=tag,
        mac_ok=mac_ok,
        threshold_ok=threshold == ACC,
        seed=seed,
        scenario="tfa-relay",
        noiseless=noiseless,
    )


@dataclass(frozen=True)
class IndexSamplingStrategy:
    """Intruder retrieves the source at a fixed cap-sized index set of its own choice."""

    index_choice: str = "first"  # or "random"

    name = "index-sampling"

    def pick_indices(self, n: int, cap: int, rng: np.random.Generator) -> np.ndarray:
        if self.index_choice == "first":
            return np.arange(cap, dtype=np.int64)
        if self.index_choice == "random":
            # Chosen by the intruder's own coins, independent of the sampler key.
            return rng.choice(n, size=cap, replace=False).astype(np.int64)
        raise ValueError(f"unknown index choice {self.index_choice!r}")


@dataclass(frozen=True)
class ParitySketchStrategy:
    """Digest = XOR parity of each block of a fixed cap-block partition."""

    name = "parity-sketch"


@dataclass(frozen=True)
class BlockMajorityStrategy:
    """Digest = majority bit of each block of a fixed cap-block partition."""

    name = "block-majority"


RetrievalStrategy = Union[IndexSamplingStrategy, ParitySketchStrategy, BlockMajorityStrategy]


def default_strategy_library() -> list[RetrievalStrategy]:
    return [
        IndexSamplingStrategy("first"),
        IndexSamplingStrategy("random"),
        ParitySketchStrategy(),
        BlockMajorityStrategy(),
    ]


def _block_slices(n: int, blocks: int) -> list[slice]:
    bounds = np.linspace(0, n, blocks + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _majority_prior_llr(size: int) -> tuple[float, float]:
    """(llr if digest=1, llr if digest=0) for one bit of a size-m majority block."""
    others = size - 1
    # P(majority reads 1 | this bit = u), other bits uniform: the upper tail of
    # Binomial(others, 1/2) from ceil(size/2) - u.  By the symmetry
    # C(N, t) = C(N, N - t), twice each tail is 2**N plus or minus the central
    # coefficient for even N, and 2**N + 2*C(N, (N-1)/2) or exactly 2**N for
    # odd N; the ratios are exact integer divisions.
    whole = 1 << others
    if others % 2 == 0:
        centre = math.comb(others, others // 2)
        twice1, twice0 = whole + centre, whole - centre
    else:
        twice1, twice0 = whole + 2 * math.comb(others, others // 2), whole
    p1, p0 = twice1 / (2 * whole), twice0 / (2 * whole)
    eps = 1e-300
    llr_if_one = math.log(max(p1, eps)) - math.log(max(p0, eps))
    llr_if_zero = math.log(max(1 - p1, eps)) - math.log(max(1 - p0, eps))
    return llr_if_one, llr_if_zero


def attack_tfa_general(
    cfg: ProtocolConfig,
    d_c: float,
    d_r: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    strategy: RetrievalStrategy,
    *,
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Colluding prover at d_r aided by an error-free intruder that may compute
    any digest of the source output, capped at ceil(lam*n) output bits.

    The prover decodes each sampled position by per-bit maximum likelihood
    from the digest and its own reception, ties broken toward its own
    demodulated bit, then authenticates the response with its real key.
    """
    if cfg.protocol != "pi3":
        raise ProtocolConfigError("terrorist-fraud retrieval attacks target pi3")
    brm = cfg.brm
    cap = brm.retrieval_cap
    mac_key = MacKey.generate(rng, cfg.mac_bits) if cfg.use_mac else None
    sampler_key = SamplerKey.generate(rng, brm.sampler_seed_bits)
    e = transmit_power_for_claim(d_c, cfg.e0, ch)
    o, x_o = brm_source_emit(e, brm.n, rng, e_max=ch.e_max)
    verifier_view = RetrievalAudit(o, cap, "verifier")
    y_o = propagate(x_o, d_r, ch, rng, noiseless=noiseless)
    prover_view = RetrievalAudit(y_o, cap, "prover")
    idx = sample_indices(sampler_key, brm.n, cfg.k)
    sampled = idx.indices

    if isinstance(strategy, IndexSamplingStrategy):
        intr_indices = strategy.pick_indices(brm.n, cap, rng)
        intr_view = RetrievalAudit(o, cap, "intruder")
        known_bits = intr_view.read(intr_indices)
        known = np.full(brm.n, -1, dtype=np.int8)
        known[intr_indices] = known_bits
        known_at_sample = known[sampled]
        need_own = known_at_sample < 0
        response = known_at_sample.astype(np.uint8)
        if need_own.any():
            own = bpsk_demodulate(prover_view.read(sampled[need_own]))
            response[need_own] = own
    else:
        slices = _block_slices(brm.n, cap)
        if isinstance(strategy, ParitySketchStrategy):
            digest = np.array(
                [int(np.bitwise_xor.reduce(o[s])) for s in slices], dtype=np.uint8
            )
        else:
            digest = np.array(
                [int(2 * int(o[s].sum()) >= (s.stop - s.start)) for s in slices],
                dtype=np.uint8,
            )
        if digest.size > cap:
            raise RetrievalCapError("intruder", int(digest.size), cap)
        block_of = np.zeros(brm.n, dtype=np.int64)
        for b, s in enumerate(slices):
            block_of[s] = b
        sizes = np.array([s.stop - s.start for s in slices], dtype=np.int64)

        y_sampled = prover_view.read(sampled)
        own_bits = bpsk_demodulate(y_sampled)
        if isinstance(strategy, ParitySketchStrategy):
            # A block parity carries no per-bit information unless the block
            # is a single position, in which case it reveals the bit exactly.
            response = own_bits.copy()
            singleton = sizes[block_of[sampled]] == 1
            response[singleton] = digest[block_of[sampled][singleton]]
        else:
            amp = math.sqrt(e) / math.sqrt(ch.xi * d_r**ch.alpha)
            if noiseless:
                response = own_bits.copy()
            else:
                # Per-sample noise variance is sigma/2 (see channel.propagate).
                llr_chan = 4.0 * amp * y_sampled / ch.sigma
                prior_table = {int(m_): _majority_prior_llr(int(m_)) for m_ in np.unique(sizes)}
                llr_prior = np.empty(sampled.size, dtype=np.float64)
                for j, pos in enumerate(sampled):
                    one_llr, zero_llr = prior_table[int(sizes[block_of[pos]])]
                    llr_prior[j] = one_llr if digest[block_of[pos]] else zero_llr
                total = llr_chan + llr_prior
                response = np.where(total > 0, 1, np.where(total < 0, 0, own_bits)).astype(
                    np.uint8
                )

    tag = None
    mac_ok = None
    if mac_key is not None:
        tag = mac_sign(mac_key, encode_response_claim(response, d_c))
        mac_ok = mac_verify(mac_key, encode_response_claim(response, d_c), tag)
    m = verifier_view.read(sampled)
    threshold = verify_response(m, response, cfg.beta)
    verdict = ACC if threshold == ACC and (mac_ok is None or mac_ok) else REJ
    return Transcript(
        protocol=cfg.protocol,
        claim_m=d_c,
        d_real_m=d_r,
        challenge=m,
        response=response,
        hamming=int(np.count_nonzero(m != response)),
        verdict=verdict,
        power_w=e,
        tag=tag,
        mac_ok=mac_ok,
        threshold_ok=threshold == ACC,
        seed=seed,
        scenario=f"tfa-general:{strategy.name}",
        noiseless=noiseless,
        source_bits=brm.n,
        retrieval_cap=cap,
        accesses={
            "verifier": verifier_view.accessed,
            "prover": prover_view.accessed,
        },
    )


def attack_tfa_sampling(
    cfg: ProtocolConfig,
    d_c: float,
    d_r: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    *,
    index_choice: str = "first",
    noiseless: bool = False,
    seed: Optional[int] = None,
) -> Transcript:
    """Position-sampling intruder: retrieves exact bits at a cap-sized index set
    chosen independently of the sampler key; the colluding prover fills the
    remaining sampled positions from its own reception."""
    t = attack_tfa_general(
        cfg,
        d_c,
        d_r,
        ch,
        rng,
        IndexSamplingStrategy(index_choice),
        noiseless=noiseless,
        seed=seed,
    )
    t.scenario = "tfa-sampling"
    return t
