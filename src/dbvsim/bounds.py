"""Analytical security bounds and challenge-length requirements.

Chernoff tail bounds drive the challenge lengths; the exact binomial tails
they dominate are kept alongside as the ground-truth oracle.  The
guessing-security arithmetic of sampled positions supports the
bounded-retrieval protocol analysis.

Each design mode's terms, threshold bracket and empty-bracket condition are
written once, in the term table below; the Chernoff bounds, the challenge
lengths and the optimizer all read it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Union

import numpy as np

from .channel import BerPair

__all__ = [
    "DbvSpec",
    "CloseSecurity",
    "BrmSpec",
    "InfeasibleError",
    "max_errors",
    "chernoff_false_reject",
    "chernoff_false_accept",
    "exact_binomial_tail_upper",
    "exact_binomial_tail_lower",
    "challenge_length_dfa",
    "challenge_length_brm_general",
    "challenge_length_brm_sampling",
    "sampler_close_security",
    "brm_exponent_general",
    "brm_exponent_sampling",
]

_LN2 = math.log(2.0)

#: Challenge lengths above this are reported as infeasible rather than returned.
K_CAP = 10**15


class InfeasibleError(ValueError):
    """A parameter choice violates a feasibility condition.

    ``condition`` names the violated condition so callers (and the CLI) can
    report it instead of a sentinel number.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(condition if not detail else f"{condition}: {detail}")


@dataclass(frozen=True)
class DbvSpec:
    """Security target: separation ratio and the two error budgets."""

    psi: float
    eps_fa: float
    eps_fr: float

    def __post_init__(self) -> None:
        if not self.psi > 1:
            raise ValueError(f"psi must be > 1, got {self.psi}")
        if not 0 < self.eps_fa < 1:
            raise ValueError(f"eps_fa must be in (0,1), got {self.eps_fa}")
        if not 0 < self.eps_fr < 1:
            raise ValueError(f"eps_fr must be in (0,1), got {self.eps_fr}")


@dataclass(frozen=True)
class CloseSecurity:
    """Guessing security of an n-bit string.

    No single guess lands within Hamming radius mu*n of the string except
    with probability 2**(-delta*n).  ``delta`` may be non-positive, in which
    case the statement is vacuous; callers check positivity.
    """

    mu: float
    delta: float
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.mu <= 1:
            raise ValueError(f"mu must be in [0,1], got {self.mu}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def guess_bound(self) -> float:
        """The probability bound 2**(-delta*n)."""
        return 2.0 ** (-self.delta * self.n)


@dataclass(frozen=True)
class BrmSpec:
    """Bounded-retrieval setting: retrieval rate plus sampler slack/failure.

    The length bounds use the effective closeness radius mu = beta + theta.
    """

    lam: float
    theta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.lam < 1:
            raise ValueError(f"retrieval rate must be in (0,1), got {self.lam}")
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0,1), got {self.gamma}")


#: Either a float or an array of floats: the term builders serve both paths.
Real = Union[float, np.ndarray]
#: (p_i, p_b, sqrt) -> (false-reject term, false-accept term, upper end of the
#: threshold bracket); the lower end is p_i.  A challenge of length k at
#: threshold beta meets a budget eps on a side when k >= ln(1/eps) * term(beta).
Terms = Callable[..., tuple[Callable, Callable, Real]]


def _completeness_term(p_i: Real) -> Callable[[Real], Real]:
    return lambda beta: (p_i + beta) / (beta - p_i) ** 2


# Each term's constant numerator is computed once, when the term is built.
# It is the first operation of the term's expression, so the values keep the
# bits of the one-expression form, and each array call saves one operation.


def _soundness_term(p_b: Real) -> Callable[[Real], Real]:
    numerator = 2.0 * p_b
    return lambda beta: numerator / (p_b - beta) ** 2


def _dfa_terms(p_i: Real, p_b: Real, sqrt) -> tuple[Callable, Callable, Real]:
    return _completeness_term(p_i), _soundness_term(p_b), p_b


#: Bounded-retrieval modes, by the intruder the false-accept term bounds.
BRM_MODES = ("general", "sampling")


def _brm_terms(mode: str, lam: float, theta: float) -> Terms:
    if mode not in BRM_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {BRM_MODES}")

    def terms(p_i: Real, p_b: Real, sqrt) -> tuple[Callable, Callable, Real]:
        if mode == "general":
            leak = 2.0 * _LN2 * p_b * lam
            numerator = 2.0 * p_b * lam
            return (
                _completeness_term(p_i),
                lambda beta: numerator / ((p_b - beta - theta) ** 2 - leak),
                p_b - sqrt(leak) - theta,
            )
        pb_eff = (1.0 - lam) * p_b
        numerator = 2.0 * pb_eff
        return (
            _completeness_term(p_i),
            lambda beta: numerator / (pb_eff - beta - theta) ** 2,
            pb_eff - theta,
        )

    return terms


#: mode -> (condition named when the threshold bracket is empty, its upper end).
_EMPTY_BRACKET = {
    "dfa": ("infeasible-threshold", "p_b"),
    "general": ("general-intruder-infeasible", "p_b - sqrt(2*ln2*p_b*lambda) - theta"),
    "sampling": ("sampling-intruder-infeasible", "(1-lambda)*p_b - theta"),
}


def _log_weights(spec: DbvSpec, gamma: float = 0.0) -> tuple[float, float]:
    """(ln(1/eps_fr), ln(1/(eps_fa-gamma))), the weights on the FR and FA terms.

    The false-accept budget must leave room for the sampler failure gamma.
    """
    if not gamma < spec.eps_fa:
        raise InfeasibleError(
            "sampler-failure-too-large",
            f"requires gamma < eps_fa, got gamma={gamma}, eps_fa={spec.eps_fa}",
        )
    return math.log(1.0 / spec.eps_fr), math.log(1.0 / (spec.eps_fa - gamma))


def _at(term: Callable[[float], float], beta: float) -> float:
    """term(beta), with a denominator that rounds to zero giving inf."""
    try:
        return term(beta)
    except ZeroDivisionError:
        return math.inf


def max_errors(beta: float | Fraction, k: int) -> int:
    """Largest error count accepted by the threshold test d_H <= beta*k.

    Exact for Fraction thresholds; floats get a 1e-12 absolute guard so that
    a beta*k that is an integer up to rounding is treated inclusively.
    """
    if isinstance(beta, Fraction):
        return min(k, int(beta * k))
    return min(k, int(math.floor(beta * k + 1e-12)))


def chernoff_false_reject(k: int, beta: float, p_i: float) -> float:
    """Bound exp(-(beta-p_i)**2 * k / (beta+p_i)) on Pr(Bin(k, p_i) > beta*k)."""
    if not p_i < beta:
        raise InfeasibleError(
            "infeasible-threshold", f"requires p_i < beta, got p_i={p_i}, beta={beta}"
        )
    return math.exp(-k / _at(_completeness_term(p_i), beta))


def chernoff_false_accept(k: int, beta: float, p_b: float) -> float:
    """Bound exp(-(p_b-beta)**2 * k / (2*p_b)) on Pr(Bin(k, p_b) <= beta*k)."""
    if not beta < p_b:
        raise InfeasibleError(
            "infeasible-threshold", f"requires beta < p_b, got beta={beta}, p_b={p_b}"
        )
    return math.exp(-k / _at(_soundness_term(p_b), beta))


#: Width in nats of the window of terms summed around the largest one.  A term
#: further below the largest than 745.2 nats has exp(log - max) == 0.0, so
#: the 55 extra nats only absorb rounding in the window search.
_TAIL_WINDOW_NATS = 800.0


def _superlevel_end(above: Callable[[int], bool], inside: int, outside: int) -> int:
    """Last index from ``inside`` towards ``outside`` (inclusive) where ``above`` holds.

    ``above`` must hold at ``inside`` and, along the way, only switch from true
    to false, as a superlevel set of a concave function does.
    """
    if above(outside):
        return outside
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if above(mid):
            inside = mid
        else:
            outside = mid
    return inside


class _PmfTerms(NamedTuple):
    """k, lgamma(k + 1), log p and log(1 - p) of a Binomial(k, p) log-pmf."""

    k: int
    lg: float
    log_p: float
    log_q: float


#: Whole numbers below this have their ``math.lgamma`` in one table (512 KiB).
_LGAMMA_TABLE_SIZE = 1 << 16


@functools.cache
def _lgamma_table() -> np.ndarray:
    """``math.lgamma(i)`` at entry i for 1 <= i < _LGAMMA_TABLE_SIZE (entry 0,
    the pole, is inf), built on first use and read-only."""
    table = np.empty(_LGAMMA_TABLE_SIZE, dtype=np.float64)
    table[0] = math.inf
    table[1:] = np.fromiter(map(math.lgamma, range(1, _LGAMMA_TABLE_SIZE)), np.float64,
                            _LGAMMA_TABLE_SIZE - 1)
    table.flags.writeable = False
    return table


def _lgamma(x: np.ndarray) -> np.ndarray:
    """``math.lgamma`` at ``x``, whole numbers >= 1 in increasing or
    decreasing order (the ends are its least and greatest): read from the
    table when they are all below its size, the same values."""
    if x.size and max(x[0], x[-1]) < _LGAMMA_TABLE_SIZE:
        return _lgamma_table().take(x.astype(np.intp))
    return np.fromiter(map(math.lgamma, x.tolist()), np.float64, len(x))


def _log_pmf(t: _PmfTerms, i: np.ndarray) -> np.ndarray:
    """log Pr(Bin(k, p) = i) at ``i``, consecutive whole float counts in
    increasing order, with ``math.lgamma`` coefficients.

    The arguments i + 1 and k - i + 1 run over two ranges of whole numbers,
    which overlap when the counts span the middle of [0, k]; then
    ``math.lgamma`` is evaluated once over their union and both are sliced
    from it, the same values at fewer calls.
    """
    k, first, last = t.k, int(i[0]), int(i[-1])
    lo, hi = min(first, k - last) + 1, max(last, k - first) + 1
    if hi - lo < 2 * i.size - 1:
        table = _lgamma(np.arange(lo, hi + 1, dtype=np.float64))
        lg_up = table[first + 1 - lo:last + 2 - lo]
        lg_down = table[k - last + 1 - lo:k - first + 2 - lo][::-1]
    else:
        lg_up, lg_down = _lgamma(i + 1), _lgamma(k - i + 1)
    return t.lg - lg_up - lg_down + i * t.log_p + (k - i) * t.log_q


def _log_pmf_at(t: _PmfTerms, i: int) -> float:
    """``_log_pmf`` at one count, in the same float operations and order, so
    it rounds to the same value."""
    k, x = t.k, float(i)
    return (t.lg - math.lgamma(x + 1) - math.lgamma(k - x + 1) + x * t.log_p
            + (k - x) * t.log_q)


def _binomial_tails(k: int, beta: float | Fraction, p: float) -> tuple[float, float]:
    """(lower, upper) = (Pr(Bin(k,p) <= c), Pr(Bin(k,p) > c)) at c = max_errors(beta, k).

    The numerically smaller side is summed directly in log space (log-gamma
    binomial coefficients, correctly rounded summation); the other side is
    its exact complement, so lower + upper == 1 always.

    Only the window of terms within _TAIL_WINDOW_NATS of the side's largest
    term is evaluated: every term outside it is exactly 0.0 after scaling by
    that largest term.  The log-pmf is concave, so the window is one interval
    around the side's peak (the mode clamped to the side), and its ends are
    found by bisection.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0,1], got {p}")
    k = int(k)
    cut = max_errors(beta, k)
    if cut < 0:
        return 0.0, 1.0
    if cut >= k:
        return 1.0, 0.0
    if p == 0.0:
        return 1.0, 0.0
    if p == 1.0:
        return 0.0, 1.0

    terms = _PmfTerms(k, math.lgamma(k + 1), math.log(p), math.log1p(-p))
    lower_is_small = (cut + 0.5) < k * p
    first, last = (0, cut) if lower_is_small else (cut + 1, k)
    peak = min(max(math.floor((k + 1) * p), first), last)
    threshold = _log_pmf_at(terms, peak) - _TAIL_WINDOW_NATS

    def above(i: int) -> bool:
        return _log_pmf_at(terms, i) >= threshold

    lo = _superlevel_end(above, peak, first)
    hi = _superlevel_end(above, peak, last)
    logs = _log_pmf(terms, np.arange(lo, hi + 1, dtype=np.float64))
    m = float(np.max(logs))
    # fsum is correctly rounded in any order, so the order leaves the bits
    # alone but sets its cost: fed from the cut outward, largest terms first,
    # it keeps a few partials, where smallest-first keeps about one a term.
    # The cut is a lower tail's last term and an upper tail's first.
    scaled = np.exp(logs - m)
    small = math.exp(m) * math.fsum((scaled[::-1] if lower_is_small else scaled).tolist())
    small = min(small, 1.0)
    if lower_is_small:
        return small, 1.0 - small
    return 1.0 - small, small


def exact_binomial_tail_upper(k: int, beta: float | Fraction, p: float) -> float:
    """Pr(Bin(k, p) > beta*k), the exact false-reject probability at error rate p."""
    return _binomial_tails(k, beta, p)[1]


def exact_binomial_tail_lower(k: int, beta: float | Fraction, p: float) -> float:
    """Pr(Bin(k, p) <= beta*k), the exact false-accept probability at error rate p."""
    return _binomial_tails(k, beta, p)[0]


def _ceil_checked(value: float) -> int:
    if not math.isfinite(value):
        raise InfeasibleError("challenge-length-cap", "required length diverges")
    k = max(1, math.ceil(value))
    if k > K_CAP:
        raise InfeasibleError(
            "challenge-length-cap", f"required length {k} exceeds cap {K_CAP}"
        )
    return k


def _challenge_length(mode: str, terms: Terms, ber: BerPair, beta: float,
                      weights: tuple[float, float]) -> int:
    """ceil(max(w_fr * FR term, w_fa * FA term)) at a threshold inside the mode's bracket.

    A term that is not a positive finite number at beta, as on a bracket only
    a few ulps wide, raises the mode's condition like an empty bracket does.
    """
    f_fr, f_fa, beta_hi = terms(ber.p_i, ber.p_b, math.sqrt)
    if not ber.p_i < beta:
        raise InfeasibleError(
            "infeasible-threshold", f"requires p_i < beta, got p_i={ber.p_i}, beta={beta}"
        )
    t_fr, t_fa = _at(f_fr, beta), _at(f_fa, beta)
    if not (beta < beta_hi and 0 < t_fr < math.inf and 0 < t_fa < math.inf):
        condition, upper = _EMPTY_BRACKET[mode]
        raise InfeasibleError(
            condition, f"requires beta < {upper}, got beta={beta}, {upper}={beta_hi}"
        )
    w_fr, w_fa = weights
    return _ceil_checked(max(w_fr * t_fr, w_fa * t_fa))


def challenge_length_dfa(ber: BerPair, beta: float, spec: DbvSpec) -> int:
    """Smallest k with both Chernoff bounds under the targets at threshold beta.

    k = ceil(max{ln(1/eps_fr) * FR term, ln(1/eps_fa) * FA term}) with the dfa
    terms; requires p_i < beta < p_b strictly.
    """
    return _challenge_length("dfa", _dfa_terms, ber, beta, _log_weights(spec))


def _brm_length(
    mode: str, ber: BerPair, beta: float, brm: BrmSpec, spec: DbvSpec
) -> tuple[int, int]:
    terms = _brm_terms(mode, brm.lam, brm.theta)
    k = _challenge_length(mode, terms, ber, beta, _log_weights(spec, brm.gamma))
    return k, _ceil_checked(k / brm.lam)


def challenge_length_brm_general(
    ber: BerPair, beta: float, brm: BrmSpec, spec: DbvSpec
) -> tuple[int, int]:
    """(k, n) for the bounded-retrieval protocol against arbitrary retrieval functions.

    k as in challenge_length_dfa with the general terms and the FA weight
    ln(1/(eps_fa-gamma)), and n = ceil(k/lam), held to the same K_CAP as k.
    """
    return _brm_length("general", ber, beta, brm, spec)


def challenge_length_brm_sampling(
    ber: BerPair, beta: float, brm: BrmSpec, spec: DbvSpec
) -> tuple[int, int]:
    """(k, n) for the bounded-retrieval protocol against position-sampling intruders.

    k as in challenge_length_dfa with the sampling terms and the FA weight
    ln(1/(eps_fa-gamma)), and n = ceil(k/lam), held to the same K_CAP as k.
    """
    return _brm_length("sampling", ber, beta, brm, spec)


def sampler_close_security(
    cs: CloseSecurity, k: int, theta: float, gamma: float
) -> CloseSecurity:
    """Guessing security of k positions drawn by a (mu, theta, gamma) sampler.

    The sampled string is (mu-theta, delta')-secure with
    2**(-delta'*k) = gamma + 2**(-delta*n), i.e.
    delta' = -log2(gamma + 2**(-delta*n)) / k.
    """
    if theta > cs.mu:
        raise ValueError(f"theta must be <= mu, got theta={theta}, mu={cs.mu}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0,1), got {gamma}")
    total = gamma + cs.guess_bound
    if total >= 1:
        raise InfeasibleError(
            "no-security-remains",
            f"gamma + 2**(-delta*n) = {total} >= 1",
        )
    delta_p = math.inf if total == 0.0 else -math.log2(total) / k
    return CloseSecurity(cs.mu - theta, delta_p, k)


def brm_exponent_general(p_b: float, mu: float, lam: float) -> float:
    """Security exponent (p_b-mu)**2/(2*ln2*p_b) - lam after a lam*n-bit arbitrary leak."""
    if not 0 <= mu < p_b:
        raise InfeasibleError(
            "general-intruder-infeasible", f"requires mu < p_b, got mu={mu}, p_b={p_b}"
        )
    delta1 = (p_b - mu) ** 2 / (2.0 * _LN2 * p_b)
    delta2 = delta1 - lam
    if delta2 <= 0:
        warnings.warn(
            f"non-positive security exponent {delta2}: retrieval rate {lam} "
            "leaks more than the source hides",
            RuntimeWarning,
            stacklevel=2,
        )
    return delta2


def brm_exponent_sampling(p_b: float, mu: float, lam: float) -> float:
    """Security exponent ((1-lam)*p_b - mu)**2 / (2*ln2*(1-lam)*p_b) under index sampling."""
    pb_eff = (1.0 - lam) * p_b
    if not 0 <= mu < pb_eff:
        raise InfeasibleError(
            "sampling-intruder-infeasible",
            f"requires mu < (1-lambda)*p_b, got mu={mu}, (1-lambda)*p_b={pb_eff}",
        )
    return (pb_eff - mu) ** 2 / (2.0 * _LN2 * pb_eff)
