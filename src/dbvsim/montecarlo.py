"""Monte Carlo estimation of acceptance rates with exact confidence intervals.

Trials run in blocks of ``block_rows(cfg)`` rows, and block b (trials
b*rows up to (b+1)*rows - 1) draws from one generator seeded by
(master_seed, b).  The block size depends only on the run's config, and
worker chunks are whole blocks, so results are reproducible, independent of
worker count, and splittable across processes without coordination.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np
from scipy import special

from . import attacks
from ._pool import worker_count
from .bounds import DbvSpec, exact_binomial_tail_lower, max_errors
from .channel import ChannelParams, bit_error_prob, snr_at_distance, transmit_power_for_claim
from .protocols import (
    ACC,
    MAX_SOURCE_BITS,
    REJ,
    TRIAL_STREAM_VERSION,
    ProtocolConfig,
    RetrievalCapError,
    Session,
    Transcript,
    TrialBlock,
    run_protocol,
)

__all__ = [
    "Scenario",
    "SCENARIO_KINDS",
    "TrialSummary",
    "BoundCheck",
    "clopper_pearson",
    "run_trial",
    "run_block",
    "block_rows",
    "estimate_rates",
    "compare_to_bound",
    "exact_success_probability",
]

logger = logging.getLogger(__name__)

#: P[Bin(u, p) <= c] for arrays u: the ufunc behind ``stats.binom.cdf``
#: (Boost's binomial cdf) without the distribution object's dispatch, the
#: same bits in a sixth of the time.  It is a private scipy name; a scipy
#: without it gets ``stats.binom.cdf``, which only costs speed.
try:
    _binom_cdf = special._ufuncs._binom_cdf
except AttributeError:
    from scipy import stats

    _binom_cdf = stats.binom.cdf

SCENARIO_KINDS = (
    "honest",
    "dfa",
    "mfa",
    "impersonation",
    "tfa-relay",
    "tfa-sampling",
    "tfa-general",
)


@dataclass(frozen=True)
class Scenario:
    """The only description of a run: scenario kind, placements, and the
    strategy and leak knobs the kind's attack reads."""

    kind: str
    d_claim: float
    d_real: float
    intruder_d: Optional[float] = None
    mfa_strategy: str = "best-guess"
    tfa_strategy: attacks.RetrievalStrategy = attacks.IndexSamplingStrategy("first")
    leaked_sampler_key: bool = False
    leaked_mac_key: bool = False
    noiseless: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not self.d_claim > 0 or not self.d_real > 0:
            raise ValueError("distances must be > 0")
        if self.intruder_d is not None and not self.intruder_d > 0:
            raise ValueError(f"intruder distance must be > 0, got {self.intruder_d}")
        if self.mfa_strategy not in attacks.MFA_STRATEGIES:
            raise ValueError(f"unknown mfa strategy {self.mfa_strategy!r}")
        if self.kind == "tfa-sampling" and not isinstance(
            self.tfa_strategy, attacks.IndexSamplingStrategy
        ):
            raise ValueError(
                f"tfa-sampling retrieves positions, not a {self.tfa_strategy.name} digest"
            )


def _policy(scenario: Scenario):
    """``protocols.run_protocol`` for honest runs, else ``attacks.attack_<kind>``,
    looked up at call time."""
    if scenario.kind == "honest":
        return run_protocol
    return getattr(attacks, "attack_" + scenario.kind.replace("-", "_"))


def run_trial(
    scenario: Scenario,
    cfg: ProtocolConfig,
    ch: ChannelParams,
    rng: np.random.Generator,
    seed: Optional[int] = None,
) -> tuple[bool, bool, Optional[Transcript]]:
    """(accepted, blocked, transcript) for one protocol or attack run.

    Every responder policy takes ``(cfg, scenario, ch, rng, seed)``:
    ``honest`` is ``protocols.run_protocol`` on cfg.protocol, and every other
    kind runs the attack of its name, ``attacks.attack_<kind>``, looked up at
    call time.  ``blocked`` marks attacks stopped structurally by the
    retrieval audit; those never accept.
    """
    try:
        t = _policy(scenario)(cfg, scenario, ch, rng, seed)
    except RetrievalCapError:
        return False, True, None
    return t.verdict == ACC, False, t


def run_block(
    scenario: Scenario,
    cfg: ProtocolConfig,
    ch: ChannelParams,
    rng: np.random.Generator,
    seed: int,
    rows: int,
) -> Optional[TrialBlock]:
    """The TrialBlock of ``rows`` runs (trials seed..seed+rows-1) of the
    scenario's policy, as ``run_trial`` runs one; None when the retrieval
    audit stops the attack, which it does on every row alike."""
    try:
        return _policy(scenario)(cfg, scenario, ch, rng, seed, rows=rows)
    except RetrievalCapError:
        return None


#: Most rows in a block, and most source positions a block may read over all
#: its rows (the positions one row may read times the rows).
BLOCK_ROWS = 256
BLOCK_POSITIONS = 1 << 18

# Freeing one untouched mmapped array of 4 MiB raises glibc's dynamic mmap
# threshold to 4 MiB and its trim threshold to 8 MiB (mallopt(3),
# M_MMAP_THRESHOLD), above every array a block allocates, so consecutive
# blocks reuse their heap instead of returning it to the kernel after each
# block and faulting it back in on the next.  No allocator setting is
# changed, other allocators ignore the free, and an untouched array adds
# nothing to the resident set.
np.empty(2 * BLOCK_POSITIONS, dtype=np.int64)  # freed as soon as it is made


def block_rows(cfg: ProtocolConfig) -> int:
    """Rows per block of a run: as many as BLOCK_ROWS and BLOCK_POSITIONS allow.

    A row reads at most k positions as the verifier and the cap as each of at
    most two receivers, so a block's audits and sparse memo hold
    O(rows * min(n, k + 2 cap)) positions; the dense memo of a source of
    n <= DENSE_SOURCE_BITS is rows * n bits.  Its keys row * n + position
    stay within int64.  The rows are part of the trial stream (see
    TRIAL_STREAM_VERSION).
    """
    n, cap = Session.extent(cfg)
    per_row = min(n, cfg.k + 2 * cap)
    return max(1, min(BLOCK_ROWS, BLOCK_POSITIONS // per_row, MAX_SOURCE_BITS // n))


@dataclass
class BoundCheck:
    """Consistency verdict between an estimated rate and its analytic bound."""

    passed: bool
    slack: float
    form: str  # "false-accept" or "false-reject"


@dataclass
class TrialSummary:
    """Aggregate of N independent trials of one scenario."""

    scenario: str
    protocol: str
    trials: int
    accepts: int
    blocked: int
    rate: float
    ci_low: float
    ci_high: float
    analytic_bound: Optional[float]
    bound_kind: str
    analytic_exact: Optional[float] = None
    bound_satisfied: Optional[bool] = None
    master_seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": "1",
            "scenario": self.scenario,
            "protocol": self.protocol,
            "trials": self.trials,
            "accepts": self.accepts,
            "blocked": self.blocked,
            "rate": self.rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "analytic_bound": self.analytic_bound,
            "bound_kind": self.bound_kind,
            "analytic_exact": self.analytic_exact,
            "bound_satisfied": self.bound_satisfied,
            "master_seed": self.master_seed,
            "trial_stream": TRIAL_STREAM_VERSION,
        }


#: Coverage of the Clopper-Pearson interval.
CI_CONFIDENCE = 0.95


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval; valid down to zero observed successes."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    alpha = 1.0 - CI_CONFIDENCE
    # betaincinv(a, b, q) is the Beta(a, b) quantile that stats.beta.ppf(q, a, b)
    # computes, without the distribution object's dispatch.
    lo = 0.0 if successes == 0 else float(special.betaincinv(successes, trials - successes + 1,
                                                              alpha / 2))
    hi = (
        1.0
        if successes == trials
        else float(special.betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    )
    return lo, hi


def _block_rng(master_seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(block,)))


def _run_blocks(
    scenario: Scenario,
    cfg: ProtocolConfig,
    ch: ChannelParams,
    master_seed: int,
    trials: int,
    rows: int,
    first: int,
    stop: int,
    dump: Optional[TextIO] = None,
) -> tuple[int, int]:
    """(accepts, blocked) of blocks first..stop-1 of ``rows`` rows of a
    ``trials``-trial run; with ``dump``, each trial's transcript is written
    to it as a JSON line as soon as its block ends."""
    accepts = 0
    blocked = 0
    for b in range(first, stop):
        start = b * rows
        count = min(rows, trials - start)
        block = run_block(scenario, cfg, ch, _block_rng(master_seed, b), start, count)
        if block is None:
            blocked += count
        else:
            accepts += int(np.count_nonzero(block.accepted))
        if dump is not None:
            for i in range(count):
                d = ({"scenario": scenario.kind, "seed": start + i, "verdict": REJ,
                      "blocked": True, "trial_stream": TRIAL_STREAM_VERSION}
                     if block is None else block.transcript(i).to_json_dict())
                dump.write(json.dumps(d, sort_keys=True) + "\n")
    return accepts, blocked


def _chunk_worker(args) -> tuple[int, int]:
    return _run_blocks(*args)


def _overlap_pmf(n: int, cap: int, k: int) -> tuple[int, np.ndarray]:
    """Hypergeometric law of the overlap between k positions sampled from n
    and cap positions retrieved from them: (lo, pmf over lo..min(cap, k)).

    O(k): the terms are built from the ratios of consecutive ones and scaled
    to sum to 1, so no factorial of n is formed. (gammaln(n + 1) is 4.1e10 at
    n = 2e9, where one float spacing is 7.6e-6, so a weight taken from a
    difference of such logs is off by about 1e-5 relative.)
    """
    lo, hi = max(0, k - (n - cap)), min(cap, k)
    j = np.arange(lo, hi, dtype=float)
    ratios = (cap - j) * (k - j) / ((j + 1) * (n - cap - k + j + 1))
    log_w = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
    w = np.exp(log_w - log_w.max())
    return lo, w / w.sum()


def exact_success_probability(
    scenario: Scenario, cfg: ProtocolConfig, ch: ChannelParams
) -> Optional[float]:
    """Closed-form acceptance probability where one exists, as an oracle."""
    e = transmit_power_for_claim(scenario.d_claim, cfg.e0, ch)
    kind = scenario.kind
    if scenario.noiseless:
        return None
    if kind in ("honest", "dfa"):
        p = bit_error_prob(snr_at_distance(e, scenario.d_real, ch))
        return exact_binomial_tail_lower(cfg.k, cfg.beta, p)
    if kind == "tfa-relay":
        if Session.capture_blocked(cfg):
            return 0.0
        if scenario.intruder_d is None:
            return 1.0
        p = bit_error_prob(snr_at_distance(e, scenario.intruder_d, ch))
        return exact_binomial_tail_lower(cfg.k, cfg.beta, p)
    if kind == "tfa-sampling" and cfg.protocol == "pi3":
        # Overlap between the sampled set and the intruder's set is
        # hypergeometric; outside the overlap each bit errs with p_b.
        brm = cfg.brm
        p_b = bit_error_prob(snr_at_distance(e, scenario.d_real, ch))
        lo, weights = _overlap_pmf(brm.n, brm.retrieval_cap, cfg.k)
        unknown = cfg.k - np.arange(lo, lo + len(weights))
        cut = max_errors(cfg.beta, cfg.k)
        # P[Bin(u, p_b) <= cut].  special.bdtr is slower, differs in the last
        # bits and is further from exact at n = 2e9.  Rows with u <= cut,
        # where every outcome is within the cut (and the ufunc is NaN for
        # u < cut), are set to one.
        accepts = _binom_cdf(cut, unknown, p_b)
        accepts[unknown <= cut] = 1.0
        return math.fsum((weights * accepts).tolist())
    return None


def estimate_rates(
    scenario: Scenario,
    cfg: ProtocolConfig,
    spec: Optional[DbvSpec],
    ch: ChannelParams,
    trials: int,
    master_seed: int,
    *,
    jobs: int = 1,
    dump_path: Optional[str] = None,
) -> TrialSummary:
    """Run independent trials and summarize with a 95% Clopper-Pearson interval.

    Results depend only on (scenario, cfg, ch, trials, master_seed), never on
    ``jobs``: workers take whole blocks.  When ``dump_path`` is given,
    per-trial transcripts are written as JSON lines in trial order, each
    block's as the block ends (this path runs serially).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    bound_kind = "false-reject" if scenario.kind == "honest" else "false-accept"
    bound = None
    if spec is not None:
        bound = spec.eps_fr if bound_kind == "false-reject" else spec.eps_fa
        want = 10.0 / bound  # inf for a subnormal bound, which has no ceil
        if trials < want:
            logger.warning("%d trials cannot resolve a rate near the bound %g (want >= %s)",
                           trials, bound, math.ceil(want) if want < math.inf else want)

    rows = block_rows(cfg)
    blocks = -(-trials // rows)
    workers = 1 if dump_path is not None else worker_count(jobs, blocks)
    if workers == 1:
        with open(dump_path, "w") if dump_path is not None else nullcontext() as dump:
            accepts, blocked = _run_blocks(scenario, cfg, ch, master_seed, trials, rows, 0,
                                           blocks, dump)
    else:
        bounds_ = np.linspace(0, blocks, workers + 1).astype(int)
        chunks = [
            (scenario, cfg, ch, master_seed, trials, rows, int(a), int(b))
            for a, b in zip(bounds_[:-1], bounds_[1:])
            if b > a
        ]
        accepts = blocked = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for acc, blk in pool.map(_chunk_worker, chunks):
                accepts += acc
                blocked += blk

    rate = accepts / trials
    ci_low, ci_high = clopper_pearson(accepts, trials)
    summary = TrialSummary(
        scenario=scenario.kind,
        protocol=cfg.protocol,
        trials=trials,
        accepts=accepts,
        blocked=blocked,
        rate=rate,
        ci_low=ci_low,
        ci_high=ci_high,
        analytic_bound=bound,
        bound_kind=bound_kind,
        analytic_exact=exact_success_probability(scenario, cfg, ch),
        master_seed=master_seed,
    )
    if bound is not None:
        summary.bound_satisfied = compare_to_bound(summary).passed
    return summary


def compare_to_bound(summary: TrialSummary) -> BoundCheck:
    """PASS when the interval is consistent with the bound.

    Soundness (attack scenarios): the accept-rate CI must reach down to the
    bound, ci_low <= bound.  Completeness (honest): the reject-rate CI must
    reach down to the bound, 1 - ci_high <= bound.
    """
    if summary.analytic_bound is None:
        raise ValueError("summary has no analytic bound to compare against")
    b = summary.analytic_bound
    if summary.bound_kind == "false-reject":
        observed_low = 1.0 - summary.ci_high
    else:
        observed_low = summary.ci_low
    return BoundCheck(passed=observed_low <= b, slack=b - observed_low, form=summary.bound_kind)
