"""Attack scenarios: distance fraud, mafia fraud, impersonation, and the
terrorist-fraud family against the bounded-retrieval protocol.

Each attack is a responder policy on a ``protocols.Session``: it decides what
each party reads and which tag it sends.  Every policy, the honest
``protocols.run_protocol`` included, takes ``(cfg, scenario, ch, rng, seed)``
and reads the claim, distances, strategies, leak flags and ``noiseless`` from
the run's ``montecarlo.Scenario``, the only description of a run.  A distance
of None places a receiver so close to the verifier that it is error-free (the
strongest adversary).  Every party reads through the session's retrieval
audit, whose cap on pi1/pi2 is the whole emission, so an attack that needs
more than the cap raises RetrievalCapError.  Every answer is drawn as bits,
even the block-majority prover's (``attack_tfa_general``).  Like the session,
each policy is written over a leading row axis: given ``rows`` it runs a block
of that many trials and returns its ``TrialBlock``, and without it one run's
``Transcript``.  Whether a read passes the cap never depends on the draws,
so it holds or fails for every row of a block alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np
from scipy import special

from .channel import ChannelParams, bit_errors, snr_at_distance
from .primitives import random_field_elements, random_index_rows
from .protocols import (
    Outcome,
    ProtocolConfig,
    ProtocolConfigError,
    RetrievalCapError,
    Session,
    run_protocol,
)

if TYPE_CHECKING:
    from .montecarlo import Scenario

__all__ = [
    "MFA_STRATEGIES",
    "IndexSamplingStrategy",
    "ParitySketchStrategy",
    "BlockMajorityStrategy",
    "RetrievalStrategy",
    "attack_dfa",
    "attack_mfa",
    "attack_impersonation",
    "attack_tfa_relay",
    "attack_tfa_sampling",
    "attack_tfa_general",
]

MFA_STRATEGIES = ("replay", "random-tag", "best-guess")


def attack_dfa(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
               rng: np.random.Generator, seed: Optional[int] = None, *,
               rows: Optional[int] = None) -> Outcome:
    """Dishonest prover at d_real claims d_claim and answers from its own noisy reception.

    Demodulating the received signal is the response that maximizes the
    per-bit match probability, so mechanically this is an honest run placed
    at d_real; the fraud is in the claim.
    """
    return run_protocol(cfg, scenario, ch, rng, seed, rows=rows)


def attack_mfa(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
               rng: np.random.Generator, seed: Optional[int] = None, *,
               rows: Optional[int] = None) -> Outcome:
    """Man in the middle forges the claim of an honest prover at d_real down to d_claim.

    The honest prover claims (and tags, when the protocol authenticates) its
    true distance; the intruder, at intruder_d, holds no keys.  Strategies:
      replay      forward the prover's response and tag unchanged
      random-tag  forward the prover's response with a uniform tag guess
      best-guess  answer from the intruder's own reception with a uniform tag
    """
    s = Session(cfg, scenario, ch, rng, seed, rows=rows)
    s.receive("prover", scenario.d_real)
    prover_resp = s.read("prover")
    response = prover_resp
    if scenario.mfa_strategy == "best-guess":
        # A keyless intruder cannot locate the sampled positions; it answers
        # with the first k positions it receives.  When k = n (pi1, pi2)
        # those are the sampled keys in order, read without a key array.
        s.receive("intruder", scenario.intruder_d)
        response = s.read("intruder", None if cfg.k == s.n else np.arange(cfg.k))
    tag = None
    if s.authenticated:  # the honest prover tags its own claim; the intruder guesses
        tag = (s.sign(prover_resp, scenario.d_real) if scenario.mfa_strategy == "replay"
               else random_field_elements(rng, s.rows, cfg.mac_bits))
    return s.decide(response, tag)


def attack_impersonation(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                         rng: np.random.Generator, seed: Optional[int] = None, *,
                         rows: Optional[int] = None) -> Outcome:
    """Keyless adversary initiates with claim d_claim while the prover is absent.

    ``intruder_d`` places the adversary's receiver (None = error-free) and is
    the transcript's real distance (0 when error-free).  The leak flags hand
    it individual session keys, isolating which secret blocks the attack.
    """
    at = scenario.intruder_d
    s = Session(cfg, scenario, ch, rng, seed, d_real=0.0 if at is None else at, rows=rows)
    s.receive("adversary", at)
    # Without the sampler key it can only answer with the first k positions,
    # the sampled ones when k = n.
    positions = (None if scenario.leaked_sampler_key or cfg.k == s.n
                 else np.arange(cfg.k))
    response = s.read("adversary", positions)
    tag = None
    if s.authenticated:
        tag = (s.sign(response, scenario.d_claim) if scenario.leaked_mac_key
               else random_field_elements(rng, s.rows, cfg.mac_bits))
    return s.decide(response, tag)


def attack_tfa_relay(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                     rng: np.random.Generator, seed: Optional[int] = None, *,
                     rows: Optional[int] = None) -> Outcome:
    """Universal relay: an intruder at intruder_d forwards everything.

    The intruder captures the whole emission and the colluding prover, who
    holds the keys, answers the sampled positions of the capture.  Against
    pi1/pi2 this succeeds at essentially the honest-at-zero-distance rate.
    Against pi3 the capture needs all n source positions, which the
    retrieval audit blocks whenever the cap is below n: the attempt raises
    RetrievalCapError before anything is drawn.  When k = n (pi1, pi2) the
    sampled positions are every position in order, so the capture is the
    response; only when k < n is it gathered at the sampled positions.
    """
    if Session.capture_blocked(cfg):
        raise RetrievalCapError("intruder", *Session.extent(cfg))
    s = Session(cfg, scenario, ch, rng, seed, rows=rows)
    s.receive("intruder", scenario.intruder_d)
    if cfg.k == s.n:
        response = s.read("intruder")  # the sampled keys: every emitted position, in order
    else:
        capture = s.read("intruder", np.arange(s.n))  # every emitted position, in order
        response = np.take_along_axis(capture, s.sampled, axis=1)
    return s.decide(response, s.sign(response, scenario.d_claim))


@dataclass(frozen=True)
class IndexSamplingStrategy:
    """Intruder retrieves the source at a fixed cap-sized index set of its own choice."""

    index_choice: str = "first"  # or "random"

    name = "index-sampling"

    def __post_init__(self) -> None:
        if self.index_choice not in ("first", "random"):
            raise ValueError(f"unknown index choice {self.index_choice!r}")

    def pick_indices(self, n: int, cap: int, rng: np.random.Generator,
                     rows: int) -> np.ndarray:
        """(rows, cap) positions, sorted on each row."""
        if self.index_choice == "first":
            return np.broadcast_to(np.arange(cap, dtype=np.int64), (rows, cap))
        # Chosen by the intruder's own coins, independent of the sampler key.
        picked = random_index_rows(rng, rows, n, cap)
        picked.sort(axis=1)
        return picked


@dataclass(frozen=True)
class ParitySketchStrategy:
    """Digest = XOR parity of each block of a fixed cap-block partition."""

    name = "parity-sketch"


@dataclass(frozen=True)
class BlockMajorityStrategy:
    """Digest = majority bit of each block of a fixed cap-block partition."""

    name = "block-majority"


RetrievalStrategy = Union[IndexSamplingStrategy, ParitySketchStrategy, BlockMajorityStrategy]


def _blocks(n: int, blocks: int,
            positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(block, large, sizes) of ``positions`` in the partition of n into
    ``blocks`` <= n blocks whose first n % blocks are one position larger;
    ``large`` indexes ``sizes`` (small first).  Every quotient is of values
    within [-n, n], so any n is exact."""
    small, extra = divmod(n, blocks)
    block = (positions - extra) // small
    if extra:
        np.maximum(block, positions // (small + 1), out=block)
    sizes = (small, small + 1) if extra else (small,)
    return block, (block < extra).view(np.uint8), sizes


#: Largest block whose majority prior comes from exact integer tails; above,
#: the central binomial ratio comes from its asymptotic series, since
#: ``math.comb`` at the centre costs 0.2 s at 10^5 positions and 10 s at 10^6.
_EXACT_PRIOR_SIZE = 1024


def _central_ratio(others: int) -> float:
    """C(N, floor(N/2)) / 2**N for N = ``others`` >= 100, in O(1).

    With h = floor(N/2), log(C(2h, h) / 4**h) = -log(pi h)/2 - 1/(8h)
    + 1/(192 h^3) - 1/(640 h^5) + 17/(14336 h^7) - ..., Stirling's series
    for log(2h)! - 2 log h!; the next term is below 1e-17 of the ratio past
    h = 50.  C(2h + 1, h) / 2**(2h + 1) is that ratio times (2h + 1)/(2h + 2).
    """
    h = others // 2
    x = 1.0 / h
    ratio = math.exp(-0.5 * math.log(math.pi * h)
                     + x * (-1 / 8 + x * x * (1 / 192 + x * x * (-1 / 640 + x * x * 17 / 14336))))
    return ratio * others / (others + 1) if others % 2 else ratio


@functools.lru_cache(maxsize=1024)
def _majority_prior_llr(size: int) -> tuple[float, float]:
    """(llr if digest=1, llr if digest=0) for one bit of a size-m majority block."""
    others = size - 1
    # P(majority reads 1 | this bit = u), other bits uniform: the upper tail of
    # Binomial(others, 1/2) from ceil(size/2) - u.  By the symmetry
    # C(N, t) = C(N, N - t), twice each tail is 2**N plus or minus the central
    # coefficient for even N, and 2**N + 2*C(N, (N-1)/2) or exactly 2**N for
    # odd N.  Up to _EXACT_PRIOR_SIZE the ratios are exact integer divisions.
    if size <= _EXACT_PRIOR_SIZE:
        whole = 1 << others
        if others % 2 == 0:
            centre = math.comb(others, others // 2)
            twice1, twice0 = whole + centre, whole - centre
        else:
            twice1, twice0 = whole + 2 * math.comb(others, others // 2), whole
        p1, p0 = twice1 / (2 * whole), twice0 / (2 * whole)
    else:
        ratio = _central_ratio(others)
        p1, p0 = ((1 + ratio) / 2, (1 - ratio) / 2) if others % 2 == 0 else (0.5 + ratio, 0.5)
    eps = 1e-300
    llr_if_one = math.log(max(p1, eps)) - math.log(max(p0, eps))
    llr_if_zero = math.log(max(1 - p1, eps)) - math.log(max(1 - p0, eps))
    return llr_if_one, llr_if_zero


def _majority_one_prob(size: np.ndarray, sampled: np.ndarray,
                       ones: np.ndarray) -> np.ndarray:
    """P(a block's majority digest ``2*ones >= size`` reads 1) given that
    ``sampled`` of its ``size`` positions are known to hold ``ones`` ones:
    P[Bin(size - sampled, 1/2) >= ceil(size/2) - ones], the other bits
    being uniform."""
    free = size - sampled
    need = (size + 1) // 2 - ones
    # bdtrc(t, N, p) is P[Bin(N, p) > t]: 1 for t < 0, 0 for t = N (NaN past N).
    return special.bdtrc(np.minimum(need - 1, free), free, 0.5)


def _block_majorities(bits: np.ndarray, block: np.ndarray, large: np.ndarray,
                      sizes: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """(rows, k): the majority digest of each sampled position's block, given
    the (rows, k) source ``bits`` at the sampled positions, sorted on each
    row, and their ``_blocks``: one uniform double per (row, block) that holds
    sampled positions, in row-major order, against ``_majority_one_prob``.
    Digests of distinct blocks are independent given the sampled bits, so
    this is their exact joint law."""
    flat = block.ravel()
    first = np.empty(flat.size, dtype=bool)  # where a (row, block) group starts
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::block.shape[1]] = True
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=flat.size)
    ones = np.add.reduceat(bits.ravel(), starts, dtype=np.int64)
    # The law at every (size, count, ones) below the largest count: few
    # sampled positions share a block.  (Counts above a size give NaN
    # entries that nothing reads.)
    upto = np.arange(int(counts.max()) + 1)
    table = _majority_one_prob(*np.ix_(np.array(sizes), upto, upto))
    prob = table.ravel().take((large.ravel()[starts] * upto.size + counts) * upto.size + ones)
    digest = rng.random(starts.size) < prob
    return np.repeat(digest.astype(np.uint8), counts).reshape(block.shape)


def _majority_error_rates(snr: float, sizes: tuple[int, ...]) -> np.ndarray:
    """[c, d, b]: P(the block-majority answer is not the source bit b) in a
    block of sizes[c] with digest d.  The ML decision on y ~ N(+-amp, sigma/2)
    (``channel.propagate``) is y > -prior sigma / (4 amp), prior the digest's
    llr, so it errs with probability erfc(sqrt(snr) +- prior / (4 sqrt(snr)))
    / 2, + for b = 1, snr = amp^2 / sigma; at snr 0 it is the prior's sign."""
    root = math.sqrt(snr)
    table = np.empty((len(sizes), 2, 2))
    for c, size in enumerate(sizes):
        for d, prior in zip((1, 0), _majority_prior_llr(size)):
            shift = prior / (4.0 * root) if root else math.copysign(math.inf, prior)
            table[c, d] = 0.5 * math.erfc(root - shift), 0.5 * math.erfc(root + shift)
    return table


def _overlap(picked: np.ndarray, sampled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, hit): hit[i] tells whether the sorted, non-empty ``picked`` holds
    sampled[i], and then picked[at[i]] == sampled[i]."""
    at = np.minimum(np.searchsorted(picked, sampled), picked.size - 1)
    return at, picked[at] == sampled


def attack_tfa_general(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                       rng: np.random.Generator, seed: Optional[int] = None, *,
                       rows: Optional[int] = None) -> Outcome:
    """Colluding prover at d_real aided by an error-free intruder that computes
    the scenario's ``tfa_strategy`` digest of the source output, capped at
    ceil(lam*n) output bits.

    The prover decodes each sampled position by per-bit maximum likelihood
    from the digest and its own reception, then authenticates the response
    with its real key.  A digest response depends on the source only through
    the sampled bits and the digests of their blocks, so no other source bit
    is drawn: a parity digest is used only where its block is one sampled
    position, and a majority digest is drawn from its law given the block's
    sampled bits (``_block_majorities``).  The block-majority answer is the
    source bit XOR one ``bit_errors`` draw after the digests, at the rates
    its decision on a Gaussian sample errs at (``_majority_error_rates``).
    """
    if cfg.protocol != "pi3":
        raise ProtocolConfigError("terrorist-fraud retrieval attacks target pi3")
    strategy, d_r = scenario.tfa_strategy, scenario.d_real
    majority = isinstance(strategy, BlockMajorityStrategy) and not scenario.noiseless
    s = Session(cfg, scenario, ch, rng, seed, rows=rows)
    s.receive("prover", None if majority else d_r)  # its errors come after the digests
    sampled = s.sampled

    if isinstance(strategy, IndexSamplingStrategy):
        picked = strategy.pick_indices(s.n, s.cap, rng, s.rows)
        s.receive("intruder", None)
        known = s.read("intruder", picked).ravel()
        at, hit = _overlap(s.keys(picked).ravel(), s.keys(sampled).ravel())
        hit = hit.reshape(sampled.shape)
        response = np.empty(sampled.shape, dtype=np.uint8)
        response[hit] = known[at.reshape(sampled.shape)[hit]]
        response[~hit] = s.read("prover", where=~hit)
    elif isinstance(strategy, ParitySketchStrategy):
        # A block parity carries no per-bit information unless the block is
        # a single position, in which case it reveals the bit exactly; any
        # other block's parity is uniform given its sampled bits.
        response = s.read("prover").copy()
        _, large, sizes = _blocks(s.n, s.cap, sampled)
        singleton = np.take(sizes, large) == 1
        response[singleton] = s.challenge()[singleton]
    elif majority:
        bits = s.read("prover")
        block, large, sizes = _blocks(s.n, s.cap, sampled)
        digest = _block_majorities(bits, block, large, sizes, rng)
        rates = _majority_error_rates(snr_at_distance(s.power_w, d_r, ch), sizes)
        at = large * 4 + digest * 2 + bits  # rates[large, digest, bits]
        response = bit_errors(rng, bits.size, rates.take(at).ravel()).reshape(bits.shape)
        response ^= bits
    else:  # block-majority without noise: the digest has no weight
        response = s.read("prover")
    return s.decide(response, s.sign(response, scenario.d_claim))


def attack_tfa_sampling(cfg: ProtocolConfig, scenario: Scenario, ch: ChannelParams,
                        rng: np.random.Generator, seed: Optional[int] = None, *,
                        rows: Optional[int] = None) -> Outcome:
    """Position-sampling intruder: retrieves exact bits at a cap-sized index set
    chosen independently of the sampler key (the scenario's
    ``IndexSamplingStrategy``); the colluding prover fills the remaining
    sampled positions from its own reception."""
    return attack_tfa_general(cfg, scenario, ch, rng, seed, rows=rows)
