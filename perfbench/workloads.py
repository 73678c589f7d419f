"""The benchmark's four workloads: their inputs, their operations and the
check each operation's output must pass.

An operation is one ``estimate_rates`` batch on the Monte Carlo workloads and
one design point (optimizer call plus its exact certification) on
``param-design``.  Every workload is a list of operations that is repeated
pass after pass; the seed fixes the master seed of every batch and the order
of the operations within each pass.  The library only sees the inputs
generated here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.stats import binom

from dbvsim.attacks import BlockMajorityStrategy, ParitySketchStrategy
from dbvsim.bounds import (
    DbvSpec,
    InfeasibleError,
    exact_binomial_tail_lower,
    exact_binomial_tail_upper,
)
from dbvsim.channel import DEFAULT_CHANNEL, intended_blocked_ber
from dbvsim.montecarlo import Scenario, TrialSummary, estimate_rates
from dbvsim.optimize import max_feasible_lambda, optimize_brm, optimize_dfa, sweep_curves
from dbvsim.protocols import BrmParams, ProtocolConfig, check_mac_strength

CHANNEL = DEFAULT_CHANNEL
#: Claimed distance of every Monte Carlo scenario: the CLI default, d0 / 2.
D_CLAIM = CHANNEL.d0 / 2.0

#: A batch with a closed-form acceptance probability fails its check when its
#: accept count is further from it than a normal deviate of this many standard
#: deviations would be; the test itself is the exact two-sided binomial one.
Z_BOUND = 6.0
_Z_ALPHA = math.erfc(Z_BOUND / math.sqrt(2.0))

#: Slack below 1 - eps_fr that a pi2 relay batch's accept rate may show.
RELAY_SLACK = 0.01

#: Host-speed exponent of the workloads made of many small interpreted calls
#: (brm-dense, param-design).  Fitted on a shared 2-core host, where their
#: time went as about the 1.2-1.3th power of the reference's across host-speed
#: swings; challenge-response and brm-sparse followed it at about 1.
SMALL_CALL_SPEED_EXPONENT = 1.2

#: Rounds of honest, tfa-sampling and relay batches per brm-sparse pass.
SPARSE_REPEATS = 40


@dataclass(frozen=True)
class Op:
    """One operation: a label shared by all operations of its kind, and its inputs."""

    label: str
    run: Callable[[int], object]
    check: Callable[[object], Optional[str]]
    #: Work units the operation completes: trials, or 1 design point.
    work: int
    #: Pattern (re.fullmatch) of a failure that is a known dbvsim defect: the
    #: exception type, or the reason the check gives.  Such a failure still
    #: counts as a failed operation but does not make the run incorrect.
    known_defect: Optional[str] = None

    def is_known_defect(self, error: str) -> bool:
        return bool(self.known_defect and re.fullmatch(self.known_defect, error))


@dataclass(frozen=True)
class Workload:
    unit: str  # "trials" or "points"
    ops: tuple[Op, ...]
    #: Run once, untimed, before the first pass; defaults to one op per label.
    warmup: tuple[Op, ...] = ()
    #: Arrays one honest trial allocates, computed from array shapes (pi3 only).
    computed_bytes: Optional[dict] = None
    #: How strongly the operations' time follows the host-speed reference
    #: (see reference.at_nominal).
    speed_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.warmup:
            first = {}
            for op in self.ops:
                first.setdefault(op.label, op)
            object.__setattr__(self, "warmup", tuple(first.values()))


# --- Monte Carlo workloads ---------------------------------------------------


def _matches_exact(accepts: int, trials: int, p: float) -> bool:
    if p <= 0.0:
        return accepts == 0
    if p >= 1.0:
        return accepts == trials
    tail = min(binom.cdf(accepts, trials, p), binom.sf(accepts - 1, trials, p))
    return 2.0 * tail >= _Z_ALPHA


def _check_batch(s: TrialSummary, cfg: ProtocolConfig, scenario: Scenario, spec: DbvSpec,
                 trials: int) -> Optional[str]:
    """None when the batch summary is right, else the reason it is not."""
    if s.trials != trials or not 0 <= s.accepts <= trials:
        return f"bad counts {s.accepts}/{s.trials}"
    relay = scenario.kind == "tfa-relay"
    if relay and cfg.protocol == "pi3":
        if s.blocked != trials:
            return f"pi3 relay blocked {s.blocked} of {trials}"
    elif s.blocked:
        return f"{s.blocked} trials blocked"
    if relay and cfg.protocol == "pi2" and s.rate < 1.0 - spec.eps_fr - RELAY_SLACK:
        return f"pi2 relay accept rate {s.rate} below 1 - eps_fr - {RELAY_SLACK}"
    if s.analytic_exact is not None and not _matches_exact(s.accepts, trials, s.analytic_exact):
        return f"{s.accepts}/{trials} accepts against exact p={s.analytic_exact:.6g}"
    if scenario.kind in ("mfa", "impersonation") and not s.bound_satisfied:
        return f"accept rate {s.rate} inconsistent with eps_fa={spec.eps_fa}"
    return None


def _batch(label: str, cfg: ProtocolConfig, scenario: Scenario, spec: DbvSpec,
           trials: int, known_defect: Optional[str] = None) -> Op:
    def run(master_seed: int) -> TrialSummary:
        return estimate_rates(scenario, cfg, spec, CHANNEL, trials, master_seed)

    return Op(label, run, lambda s: _check_batch(s, cfg, scenario, spec, trials), trials,
              known_defect)


def _pi3_config(spec: DbvSpec, lam: float) -> ProtocolConfig:
    opt = optimize_brm(spec, CHANNEL, lam, "sampling")
    return ProtocolConfig(
        protocol="pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
        brm=BrmParams(lam=lam, n=opt.n_star, gamma=spec.eps_fa / 100.0),
    )


def _pi3_trial_bytes(n: int) -> dict:
    """Bytes of the n-length arrays one honest pi3 trial allocates (run_pi3,
    brm_source_emit, propagate, RetrievalAudit, sample_indices), computed from
    their shapes and dtypes; nothing here is measured."""
    per_position = {
        "source_bits_uint8": 1,
        "modulation_mask_bool": 1,
        "modulated_float64_and_copy": 16,
        "verifier_audit_mask_bool": 1,
        "attenuated_float64": 8,
        "noise_float64": 8,
        "received_float64": 8,
        "prover_audit_mask_bool": 1,
        "sampler_permutation_int64": 8,
    }
    return {
        "basis": "computed from array shapes, not measured",
        "n": n,
        "bytes_per_position": per_position,
        "bytes_per_trial": n * sum(per_position.values()),
    }


def challenge_response() -> Workload:
    """Criterion-03 point: pi1 and pi2 at k=3334, MAC over 3.4 kbit responses."""
    spec = DbvSpec(psi=1.1, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_dfa(spec, CHANNEL)
    pi1 = ProtocolConfig(protocol="pi1", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)
    pi2 = replace(pi1, protocol="pi2")
    check_mac_strength(pi2, spec.eps_fa)
    far = spec.psi * D_CLAIM
    ops = (
        _batch("pi1/honest", pi1, Scenario("honest", D_CLAIM, D_CLAIM), spec, 250),
        _batch("pi1/dfa", pi1, Scenario("dfa", D_CLAIM, far), spec, 250),
        _batch("pi2/honest", pi2, Scenario("honest", D_CLAIM, D_CLAIM), spec, 25),
        _batch("pi2/mfa-best-guess", pi2, Scenario("mfa", D_CLAIM, far), spec, 40),
        _batch("pi2/mfa-replay", pi2,
               Scenario("mfa", D_CLAIM, far, mfa_strategy="replay"), spec, 25),
        _batch("pi2/tfa-relay", pi2, Scenario("tfa-relay", D_CLAIM, far), spec, 30),
    )
    return Workload("trials", ops)


def brm_dense() -> Workload:
    """Criterion-08 point: pi3 at k=160, n=534 (lambda=0.3), every attack family."""
    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    pi3 = _pi3_config(spec, 0.3)
    far = spec.psi * D_CLAIM
    ops = (
        _batch("pi3/honest", pi3, Scenario("honest", D_CLAIM, D_CLAIM), spec, 100),
        _batch("pi3/tfa-sampling", pi3, Scenario("tfa-sampling", D_CLAIM, far), spec, 60),
        _batch("pi3/tfa-general-parity-sketch", pi3,
               Scenario("tfa-general", D_CLAIM, far, tfa_strategy=ParitySketchStrategy()),
               spec, 45),
        _batch("pi3/tfa-general-block-majority", pi3,
               Scenario("tfa-general", D_CLAIM, far, tfa_strategy=BlockMajorityStrategy()),
               spec, 35),
        _batch("pi3/impersonation", pi3, Scenario("impersonation", D_CLAIM, far), spec, 120),
        _batch("pi3/mfa-best-guess", pi3, Scenario("mfa", D_CLAIM, far), spec, 110),
        _batch("pi3/tfa-relay", pi3, Scenario("tfa-relay", D_CLAIM, far), spec, 700),
    )
    return Workload("trials", ops, computed_bytes=_pi3_trial_bytes(pi3.brm.n),
                    speed_exponent=SMALL_CALL_SPEED_EXPONENT)


def brm_sparse() -> Workload:
    """pi3 at k=103, n=1.03e6 (lambda=1e-4): O(n) source work dominates.

    Block-majority batches raise OverflowError (blocks of about 10,000
    positions) after several seconds of big-integer sums, so each pass holds
    one of them against SPARSE_REPEATS rounds of the other three scenarios,
    and the warm-up leaves it out.  The OverflowError is a known defect of
    ``attacks._majority_prior_llr`` (``2.0**others`` for blocks over 1024
    positions).
    """
    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    pi3 = _pi3_config(spec, 1e-4)
    far = spec.psi * D_CLAIM
    block_majority = _batch(
        "pi3/tfa-general-block-majority", pi3,
        Scenario("tfa-general", D_CLAIM, far, tfa_strategy=BlockMajorityStrategy()), spec, 1,
        known_defect="OverflowError")
    rounds = (
        _batch("pi3/honest", pi3, Scenario("honest", D_CLAIM, D_CLAIM), spec, 1),
        _batch("pi3/tfa-sampling", pi3, Scenario("tfa-sampling", D_CLAIM, far), spec, 1),
        _batch("pi3/tfa-relay", pi3, Scenario("tfa-relay", D_CLAIM, far), spec, 1),
    )
    ops = (block_majority,) + rounds * SPARSE_REPEATS
    return Workload("trials", ops, rounds, _pi3_trial_bytes(pi3.brm.n))


# --- parameter design --------------------------------------------------------

#: README ``curves`` grid, psi 1.01:1.5 at step 0.05 instead of 0.01.
DFA_PSI = tuple(round(1.01 + 0.05 * i, 12) for i in range(10))
DFA_EPS = (1e-3, 1e-4, 1e-5)
#: ``brm_feasibility_scan`` grids at 8 instead of 40 psi points.
BRM_PSI = tuple(round(float(p), 6) for p in np.linspace(1.05, 3.0, 8))
BRM_LAMBDAS = {"general": (0.05, 0.1), "sampling": (0.1, 0.5, 0.9)}
BRM_EPS = 1e-4
#: Known defect: the brm-general length (``challenge_length_brm_general``)
#: does not bound plain distance fraud, whose exact FA at p_b exceeds eps_fa
#: at small lambda (lambda=0.05, psi >= 2.44 on this grid).
BRM_GENERAL_FA_DEFECT = r"k=\d+: exact FA \S+ > eps_fa \S+"


@dataclass(frozen=True)
class DesignPoint:
    """Optimizer output at one grid point and its exact error probabilities."""

    eps_fa: float
    eps_fr: float
    k: Optional[int] = None
    exact_fr: Optional[float] = None
    exact_fa: Optional[float] = None
    condition: Optional[str] = None


def _certify(psi: float, e0: float, k: int, beta: float, eps_fa: float,
             eps_fr: float) -> DesignPoint:
    ber = intended_blocked_ber(e0, psi, CHANNEL)
    return DesignPoint(
        eps_fa, eps_fr, k,
        exact_fr=exact_binomial_tail_upper(k, beta, ber.p_i),
        exact_fa=exact_binomial_tail_lower(k, beta, ber.p_b),
    )


def _check_point(pt: DesignPoint) -> Optional[str]:
    if pt.k is None:
        return None if pt.condition else "infeasible point without a named condition"
    if not pt.exact_fr <= pt.eps_fr:
        return f"k={pt.k}: exact FR {pt.exact_fr:.3g} > eps_fr {pt.eps_fr:g}"
    if not pt.exact_fa <= pt.eps_fa:
        return f"k={pt.k}: exact FA {pt.exact_fa:.3g} > eps_fa {pt.eps_fa:g}"
    return None


def _dfa_point(psi: float, eps: float) -> Op:
    template = DbvSpec(psi=psi, eps_fa=eps, eps_fr=eps)

    def run(_seed: int) -> DesignPoint:
        (row,) = sweep_curves(template, CHANNEL, "dfa", [psi], eps_values=[eps])
        if not row["feasible"]:
            return DesignPoint(eps, eps, condition=row.get("condition"))
        return _certify(psi, row["e0_star_w"], row["k_star_or_n_star"], row["beta_star"],
                        eps, eps)

    return Op("dfa-point", run, _check_point, 1)


def _brm_point(mode: str, psi: float, lam: float) -> Op:
    spec = DbvSpec(psi=psi, eps_fa=BRM_EPS, eps_fr=BRM_EPS)

    def run(_seed: int) -> DesignPoint:
        try:
            opt = optimize_brm(spec, CHANNEL, lam, mode)
        except InfeasibleError as err:
            return DesignPoint(spec.eps_fa, spec.eps_fr, condition=err.condition)
        return _certify(psi, opt.e0_star, opt.k_star, opt.beta_star, spec.eps_fa, spec.eps_fr)

    known = BRM_GENERAL_FA_DEFECT if mode == "general" else None
    return Op(f"brm-{mode}-point", run, _check_point, 1, known)


def _check_lambda(res) -> Optional[str]:
    if not res.feasible or not 0.0 < res.lambda_star < 1.0:
        return f"lambda*={res.lambda_star} feasible={res.feasible}"
    return None


def _max_lambda(mode: str, psi: float) -> Op:
    return Op("max-lambda", lambda _seed: max_feasible_lambda(psi, CHANNEL, mode),
              _check_lambda, 1)


def param_design() -> Workload:
    """dfa curves with exact certification, brm sweeps and a max-lambda scan."""
    ops = [_dfa_point(psi, eps) for psi in DFA_PSI for eps in DFA_EPS]
    ops += [_brm_point(mode, psi, lam)
            for mode, lams in BRM_LAMBDAS.items() for psi in BRM_PSI for lam in lams]
    ops += [_max_lambda(mode, psi) for mode in BRM_LAMBDAS for psi in BRM_PSI]
    return Workload("points", tuple(ops), speed_exponent=SMALL_CALL_SPEED_EXPONENT)


_WORKLOADS = {
    "challenge-response": challenge_response,
    "brm-dense": brm_dense,
    "brm-sparse": brm_sparse,
    "param-design": param_design,
}


def build(name: str) -> Workload:
    """Derive a workload's configs (the optimizer calls) and its operations."""
    return _WORKLOADS[name]()
