"""Minimize challenge/source lengths over transmit power and threshold.

The terms, threshold brackets and infeasibility conditions come from the
term table in ``bounds``; this module only searches over them.  For every
candidate reference power the inner problem
min_beta max{decreasing completeness term, increasing soundness term} is
solved exactly at the unique crossing of the two terms; the outer power
search scans a fixed logarithmic grid in one array pass and refines the best
cell by golden section with the scalar inner solver, so results are
deterministic and reproducible bit for bit.  The scalar solver calls the
compiled Brent core behind ``scipy.optimize.brentq`` directly, with the
arguments the public function passes it; the NaN check its wrapper makes
on every value is in the solved function instead.

The scan bisects every crossing for 3 steps, which brackets each point's
final value, and cuts the points that bracket rules out of the grid
minimum; the rest take the remaining 13 of 16 steps and the same cut, and
only the points left after it bisect to the end.  A step at a bracket that
no longer shrinks moves nothing, so the steps mask no points and only the
bisection to the end tests, every few steps, whether any bracket still
shrinks.  The term builders in ``bounds`` compute each term's constant
numerator once.  The grid's error probabilities depend only on psi and the
channel, so one read-only copy per (psi, channel) serves every design at
that psi.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from ._pool import worker_count
from .bounds import (
    _EMPTY_BRACKET,
    BRM_MODES,
    BrmSpec,
    DbvSpec,
    InfeasibleError,
    Real,
    Terms,
    _brm_terms,
    _dfa_terms,
    _log_weights,
    challenge_length_brm_general,
    challenge_length_brm_sampling,
    challenge_length_dfa,
)
from .channel import (
    BerPair,
    ChannelParams,
    intended_blocked_ber,
    intended_blocked_ber_grid,
    watts_to_dbm,
)

__all__ = [
    "OptimalDfaConfig",
    "OptimalBrmConfig",
    "MaxLambdaResult",
    "BRM_MODES",
    "optimize_dfa",
    "optimize_brm",
    "max_feasible_lambda",
    "sweep_curves",
    "write_curves_csv",
    "CURVES_CSV_HEADER",
]

#: Outer search grid: points on [span * e_max, e_max], logarithmically spaced.
E0_GRID_POINTS = 2000
E0_GRID_SPAN = 1e-6
#: Distinct (psi, channel, grid) error-probability grids kept for reuse; each
#: holds three arrays of E0_GRID_POINTS floats (48 KB at the default size).
_BER_GRID_CACHE_SIZE = 64
#: Bisection steps the scan takes at every crossing point before it first
#: bounds the final values; only points the bounds cannot exclude go on.
_SCAN_FIRST_STEPS = 3
#: Bisection steps those points have taken when the scan bounds them again;
#: only points these bounds cannot exclude bisect to the end.
_SCAN_COARSE_STEPS = 16
#: A crossing point bisects to the end when its lower bound is within this
#: factor of the best upper bound; the margin dwarfs rounding in the bounds.
_SCAN_REFINE_FACTOR = 1.06
#: Relative tolerance of the golden-section refinement on e0.
E0_REFINE_RTOL = 1e-6
#: Sampler slack theta of a bounded-retrieval design unless the caller sets one.
DEFAULT_THETA = 1e-4
#: Absolute tolerance of the max_feasible_lambda bisection.
LAMBDA_TOL = 1e-4
#: Steps the scan's bisection to the end takes between its tests for a bracket
#: that still shrinks; a step at a stopped bracket changes no bit.
_BISECT_CHECK_EVERY = 4

#: Tolerances on beta of the scalar Brent solve.
_BRENT_XTOL = 1e-300
_BRENT_RTOL = 8.9e-16


def _brentq_public(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of f on [a, b] by the public ``scipy.optimize.brentq``."""
    return brentq(f, a, b, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)


# The public brentq wraps f in a function that calls np.isnan on every value
# before the compiled core sees it; _crossing's g raises on a NaN itself, so
# the core is called directly, with the arguments brentq passes it (100
# iterations, RuntimeError when it does not converge).  It is a private scipy
# name; a scipy without it gets the public brentq, the same core and bits at
# the wrapper's cost.
try:
    from scipy.optimize._zeros import _brentq as _brentq_core

    def _brentq(f: Callable[[float], float], a: float, b: float) -> float:
        """Root of f on [a, b] by Brent's compiled core; f raises on a NaN."""
        return _brentq_core(f, a, b, _BRENT_XTOL, _BRENT_RTOL, 100, (), False, True)
except ImportError:
    _brentq = _brentq_public


@dataclass(frozen=True)
class OptimalDfaConfig:
    """Optimal challenge-response parameters for a distance-fraud target.

    For equal error budgets ``objective`` is the dimensionless minimized
    value with k_star = ceil(ln(1/eps) * objective); for unequal budgets it
    is the pre-ceiling challenge length itself.
    """

    e0_star: float
    beta_star: float
    k_star: int
    objective: float


@dataclass(frozen=True)
class OptimalBrmConfig:
    """Optimal bounded-retrieval parameters; n_star = ceil(k_star / lam)."""

    e0_star: float
    beta_star: float
    mu_star: float
    k_star: int
    n_star: int
    mode: str
    objective: float


@dataclass(frozen=True)
class MaxLambdaResult:
    """Largest feasible retrieval rate; feasible=False when no rate works at all."""

    lambda_star: float
    feasible: bool


def _bracket(lo: Real, hi: Real, nextafter, maximum, minimum) -> tuple[Real, Real]:
    """Bracket strictly inside (lo, hi), even when the interval is a few ulps wide."""
    width = hi - lo
    return (
        maximum(lo + width * 1e-12, nextafter(lo, hi)),
        minimum(hi - width * 1e-12, nextafter(hi, lo)),
    )


def _crossing(
    f_dec: Callable[[float], float],
    f_inc: Callable[[float], float],
    lo: float,
    hi: float,
    w_dec: float,
    w_inc: float,
) -> tuple[float, float]:
    """Crossing point of w_dec*f_dec (decreasing) and w_inc*f_inc (increasing) on (lo, hi).

    Returns (beta, max of the two weighted terms there); (nan, inf) when the
    bracket degenerates numerically or the root finder does not converge.
    """
    if not hi - lo > 0:
        return math.nan, math.inf
    a, b = _bracket(lo, hi, math.nextafter, max, min)
    if not a < b:
        return math.nan, math.inf

    log_ratio = math.log(w_dec) - math.log(w_inc)

    def gap(beta: float) -> float:
        return log_ratio + math.log(f_dec(beta)) - math.log(f_inc(beta))

    def g(beta: float) -> float:
        # The NaN check of the public brentq's wrapper, which _brentq skips;
        # the edges are tested without it, a NaN there picking the right edge.
        value = gap(beta)
        if value != value:
            raise ValueError(f"g is NaN at beta={beta}")
        return value

    try:
        ga, gb = gap(a), gap(b)
        if not (ga > 0 > gb):
            # One term dominates over the whole bracket: the max is minimized
            # at the edge where the dominating term is smallest.
            if ga <= 0:
                beta = a
            else:
                beta = b
        else:
            beta = _brentq(g, a, b)
    except (ValueError, OverflowError, ZeroDivisionError, RuntimeError):
        # RuntimeError: Brent's method did not converge in its iteration budget.
        return math.nan, math.inf
    value = max(w_dec * f_dec(beta), w_inc * f_inc(beta))
    if not math.isfinite(value):
        return math.nan, math.inf
    return beta, value


def _inner(
    terms: Terms, p_i: float, p_b: float, w_dec: float, w_inc: float
) -> tuple[float, float]:
    """(beta, objective) minimizing the max of the two weighted terms at one power."""
    if not 0 <= p_i < p_b:
        return math.nan, math.inf
    f_dec, f_inc, beta_hi = terms(p_i, p_b, math.sqrt)
    if not beta_hi > p_i:
        return math.nan, math.inf
    return _crossing(f_dec, f_inc, p_i, beta_hi, w_dec, w_inc)


def _bisect(
    g: Callable[[np.ndarray], np.ndarray],
    left: np.ndarray,
    right: np.ndarray,
    steps: Optional[int] = None,
) -> None:
    """Bisect g's sign change (g(left) > 0 >= g(right), or NaN at right) at every point, in place.

    Stops after ``steps`` steps, or without a limit once no bracket shrinks.
    A bracket that no longer shrinks has its midpoint at one end, where g has
    the sign that end was picked by, so a step there moves nothing: no step
    masks the points that still move, and the unlimited loop tests for one
    only every _BISECT_CHECK_EVERY steps.  Each point's path depends on that
    point alone, so bisecting a subset from a bracket the full set reached,
    or stopping and going on later, ends on the same bits.
    """
    mid = np.empty_like(left)
    up = np.empty(left.shape, dtype=bool)
    for step in range(steps) if steps is not None else itertools.count():
        np.add(left, right, out=mid)
        mid *= 0.5
        if (
            steps is None
            and step % _BISECT_CHECK_EVERY == 0
            and not ((left < mid) & (mid < right)).any()
        ):
            break
        np.greater(g(mid), 0, out=up)
        np.copyto(left, mid, where=up)
        np.logical_not(up, out=up)
        np.copyto(right, mid, where=up)


def _scan(
    terms: Terms, p_i: np.ndarray, p_b: np.ndarray, w_dec: float, w_inc: float
) -> np.ndarray:
    """The objective of _inner at every grid power in one array pass.

    At crossing points that cannot be the grid minimum the value is an upper
    bound only; _scan_refined also says which crossings were bisected to the end.
    """
    return _scan_refined(terms, p_i, p_b, w_dec, w_inc)[0]


def _scan_refined(
    terms: Terms, p_i: np.ndarray, p_b: np.ndarray, w_dec: float, w_inc: float
) -> tuple[np.ndarray, np.ndarray]:
    """(values, refined): _scan's values and the points bisected to the end.

    Points where _inner fails (an empty bracket, or a term that is not a
    positive finite number at a bracket end, where _inner's logarithm or
    division raises) get inf.  Crossings are bisected until the bracket stops
    shrinking, and the objective is the smaller of the two terms' max at the
    bracket ends: accurate to a few ulps, which is all the argmin over the
    grid needs.  The returned optimum itself always comes from _inner.

    On a bracket [left, right] the bisection has reached, the decreasing
    term is at least its value at right and the increasing one at least its
    value at left, so the final value is at least the larger weighted one of
    those; and it is at most the smaller of the two ends' objectives.  Every
    crossing takes _SCAN_FIRST_STEPS steps and is bounded; only points whose
    lower bound is within _SCAN_REFINE_FACTOR of the best upper bound take
    the rest of the _SCAN_COARSE_STEPS steps and are bounded again, and only
    those the second cut keeps bisect on to the end, to the same bits the
    full loop gives.  Every other point keeps its last upper bound, which is
    above the minimum.  Each term is evaluated once at each bracket end, and
    those values serve the checks, the edge objective and both bounds.

    Python's x**2 and numpy's x*x differ in the last bit on about 0.1% of
    inputs, so on a bracket only a few ulps from empty the two paths can
    disagree on whether a denominator is positive; such points have
    objectives far past any admissible challenge length.
    """
    vals = np.full(p_i.shape, np.inf)
    _, _, beta_hi = terms(p_i, p_b, np.sqrt)
    idx = np.flatnonzero((0 <= p_i) & (p_i < p_b) & (beta_hi > p_i))
    log_ratio = math.log(w_dec) - math.log(w_inc)

    def g_of(dec: np.ndarray, inc: np.ndarray) -> np.ndarray:
        return log_ratio + np.log(dec) - np.log(inc)

    def objective(dec: np.ndarray, inc: np.ndarray) -> np.ndarray:
        return np.maximum(w_dec * dec, w_inc * inc)

    def usable(dec: np.ndarray, inc: np.ndarray) -> np.ndarray:
        return (0 < dec) & (dec < np.inf) & (0 < inc) & (inc < np.inf)

    def crossing_of(points: np.ndarray):
        """(f_dec, f_inc, g) at the given grid points."""
        f_dec, f_inc, _ = terms(p_i[points], p_b[points], np.sqrt)
        return f_dec, f_inc, lambda beta: g_of(f_dec(beta), f_inc(beta))

    f_dec, f_inc, hi = terms(p_i[idx], p_b[idx], np.sqrt)
    a, b = _bracket(p_i[idx], hi, np.nextafter, np.maximum, np.minimum)
    with np.errstate(all="ignore"):
        dec_a, inc_a, dec_b, inc_b = f_dec(a), f_inc(a), f_dec(b), f_inc(b)
        ok = (a < b) & usable(dec_a, inc_a) & usable(dec_b, inc_b)
        ga, gb = g_of(dec_a, inc_a), g_of(dec_b, inc_b)
        crosses = (ga > 0) & (gb < 0)
        # Where one term dominates, the edge _crossing picks.
        edge = np.where(ga <= 0, objective(dec_a, inc_a), objective(dec_b, inc_b))
        value = np.where(ok & ~crosses & np.isfinite(edge), edge, np.inf)
        live = np.flatnonzero(crosses & ok)
        left, right = a[live], b[live]
        # The first steps and a cut, the rest of the coarse steps and a cut,
        # then on to the end.
        for steps in (_SCAN_FIRST_STEPS, _SCAN_COARSE_STEPS - _SCAN_FIRST_STEPS, None):
            if not live.size:
                # Fixed steps would evaluate the terms on empty arrays.
                break
            f_dec, f_inc, g = crossing_of(idx[live])
            _bisect(g, left, right, steps)
            dec_l, inc_l, dec_r, inc_r = f_dec(left), f_inc(left), f_dec(right), f_inc(right)
            upper = np.minimum(objective(dec_l, inc_l), objective(dec_r, inc_r))
            value[live] = np.where(np.isfinite(upper), upper, np.inf)
            if steps is None:
                break
            lower = np.maximum(w_dec * dec_r, w_inc * inc_l)
            keep = ~(lower > _SCAN_REFINE_FACTOR * value.min(initial=np.inf))
            live, left, right = live[keep], left[keep], right[keep]
    vals[idx] = value
    refined = np.zeros(p_i.shape, dtype=bool)
    refined[idx[live]] = True
    return vals, refined


def _e0_grid(ch: ChannelParams) -> np.ndarray:
    return np.geomspace(E0_GRID_SPAN * ch.e_max, ch.e_max, E0_GRID_POINTS)


def _ber_grid(psi: float, ch: ChannelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(powers, p_i, p_b) over the outer grid at psi: read-only, shared between calls.

    The cache key carries the grid constants, so changing E0_GRID_POINTS or
    E0_GRID_SPAN gives a fresh grid rather than a stale one.
    """
    return _ber_grid_at(psi, ch, E0_GRID_POINTS, E0_GRID_SPAN)


@functools.lru_cache(maxsize=_BER_GRID_CACHE_SIZE)
def _ber_grid_at(
    psi: float, ch: ChannelParams, points: int, span: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grid = np.geomspace(span * ch.e_max, ch.e_max, points)
    arrays = (grid, *intended_blocked_ber_grid(grid, psi, ch))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _golden_refine(value: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimum of value on [lo, hi] in log space, to E0_REFINE_RTOL."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(math.exp(c)), value(math.exp(d))
    while (b - a) > E0_REFINE_RTOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(math.exp(d))
    return math.exp((a + b) / 2.0)


def _outer_min(
    terms: Terms, psi: float, ch: ChannelParams, w_dec: float, w_inc: float
) -> tuple[float, BerPair, float, float]:
    """(e0, ber, beta, objective) minimizing the inner optimum over reference powers.

    The grid cell comes from one _scan over the logarithmic grid; the
    golden-section refinement around it and the solves at the refined point
    and the grid winner are scalar _inner evaluations.
    """
    grid, p_i, p_b = _ber_grid(psi, ch)
    vals = _scan(terms, p_i, p_b, w_dec, w_inc)
    if not np.isfinite(vals).any():
        raise InfeasibleError(
            "infeasible-for-all-powers",
            f"no reference power in (0, {ch.e_max}] W admits a threshold",
        )
    i = int(np.argmin(vals))

    def solve(e0: float) -> tuple[float, BerPair, float, float]:
        ber = intended_blocked_ber(e0, psi, ch)
        beta, objective = _inner(terms, ber.p_i, ber.p_b, w_dec, w_inc)
        return float(e0), ber, beta, float(objective)

    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    refined = solve(_golden_refine(lambda e0: solve(e0)[3], lo, hi))
    # Keep the grid winner if refinement drifted onto a worse point.
    at_grid = solve(grid[i])
    return at_grid if at_grid[3] < refined[3] else refined


def optimize_dfa(spec: DbvSpec, ch: ChannelParams) -> OptimalDfaConfig:
    """Minimize the challenge length over reference power and threshold.

    With eps_fa == eps_fr the dimensionless objective is independent of eps,
    so the optimal power is identical across error budgets; otherwise the two
    log weights enter the inner crossing directly.
    """
    w_fr, w_fa = (1.0, 1.0) if spec.eps_fa == spec.eps_fr else _log_weights(spec)

    e0_star, ber, beta_star, obj = _outer_min(_dfa_terms, spec.psi, ch, w_fr, w_fa)
    k_star = challenge_length_dfa(ber, beta_star, spec)
    return OptimalDfaConfig(e0_star=e0_star, beta_star=beta_star, k_star=k_star, objective=obj)


def optimize_brm(
    spec: DbvSpec,
    ch: ChannelParams,
    lam: float,
    mode: str,
    theta: float = DEFAULT_THETA,
    gamma: Optional[float] = None,
) -> OptimalBrmConfig:
    """Minimize the source length for the bounded-retrieval protocol.

    gamma defaults to eps_fa/100; theta defaults to a negligible DEFAULT_THETA.
    Raises InfeasibleError when no power at or below e_max satisfies the
    mode's feasibility condition.
    """
    terms = _brm_terms(mode, lam, theta)
    if gamma is None:
        gamma = spec.eps_fa / 100.0
    brm = BrmSpec(lam=lam, theta=theta, gamma=gamma)
    w_fr, w_fa = _log_weights(spec, gamma)
    try:
        e0_star, ber, beta_star, obj = _outer_min(terms, spec.psi, ch, w_fr, w_fa)
    except InfeasibleError:
        condition, upper = _EMPTY_BRACKET[mode]
        raise InfeasibleError(
            condition,
            f"no power <= e_max satisfies p_i < {upper} with lambda={lam}, theta={theta}",
        ) from None
    length = challenge_length_brm_general if mode == "general" else challenge_length_brm_sampling
    k_star, n_star = length(ber, beta_star, brm, spec)
    return OptimalBrmConfig(
        e0_star=e0_star,
        beta_star=beta_star,
        mu_star=beta_star + theta,
        k_star=k_star,
        n_star=n_star,
        mode=mode,
        objective=obj,
    )


def max_feasible_lambda(psi: float, ch: ChannelParams, mode: str) -> MaxLambdaResult:
    """Largest retrieval rate for which some admissible power and radius exist.

    Uses the existence condition on the error probabilities themselves: the
    mode's threshold bracket (p_i, upper end) is non-empty at theta = 0 for
    some grid power; bisected to LAMBDA_TOL.
    """
    _, p_i, p_b = _ber_grid(psi, ch)

    def feasible(lam: float) -> bool:
        _, _, beta_hi = _brm_terms(mode, lam, 0.0)(p_i, p_b, np.sqrt)
        return bool((beta_hi > p_i).any())

    if not feasible(0.0):
        return MaxLambdaResult(0.0, False)
    lo, hi = 0.0, 1.0
    while hi - lo > LAMBDA_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return MaxLambdaResult(lo, True)


CURVES_CSV_HEADER = [
    "psi",
    "eps_or_lambda",
    "e0_star_dbm",
    "beta_star",
    "k_star_or_n_star",
    "feasible",
]


def _sweep_point(args) -> dict:
    mode, psi, eps_or_lambda, eps_fa, eps_fr, ch, theta, gamma = args
    row = {"psi": psi, "eps_or_lambda": eps_or_lambda, "feasible": True}
    try:
        if mode == "dfa":
            opt = optimize_dfa(DbvSpec(psi=psi, eps_fa=eps_or_lambda, eps_fr=eps_or_lambda), ch)
            length = opt.k_star
        else:
            spec = DbvSpec(psi=psi, eps_fa=eps_fa, eps_fr=eps_fr)
            opt = optimize_brm(spec, ch, eps_or_lambda, mode, theta=theta, gamma=gamma)
            length = opt.n_star
        row.update(
            e0_star_w=opt.e0_star,
            e0_star_dbm=watts_to_dbm(opt.e0_star),
            beta_star=opt.beta_star,
            k_star_or_n_star=length,
        )
    except InfeasibleError as err:
        row.update(
            feasible=False,
            condition=err.condition,
            e0_star_w=None,
            e0_star_dbm=None,
            beta_star=None,
            k_star_or_n_star=None,
        )
    return row


def sweep_curves(
    template: DbvSpec,
    ch: ChannelParams,
    mode: str,
    psi_values,
    *,
    eps_values=None,
    lambda_values=None,
    theta: float = DEFAULT_THETA,
    gamma: Optional[float] = None,
    jobs: int = 1,
) -> list[dict]:
    """Grid of optimal parameters, one row per (psi, eps-or-lambda) point.

    dfa mode sweeps the error budget (eps_fa = eps_fr = eps); brm modes sweep
    the retrieval rate at the template's error budgets.  Infeasible points
    are emitted with feasible=False, never dropped.  Row order is the grid
    order regardless of how the points are computed.
    """
    if mode == "dfa":
        if not eps_values:
            raise ValueError("dfa sweep needs eps_values")
        inner = list(eps_values)
    elif mode in BRM_MODES:
        if not lambda_values:
            raise ValueError("brm sweep needs lambda_values")
        inner = list(lambda_values)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    psi_values = list(psi_values)
    if not psi_values or not inner:
        raise ValueError("sweep ranges must be non-empty")

    points = [
        (mode, psi, v, template.eps_fa, template.eps_fr, ch, theta, gamma)
        for psi in psi_values
        for v in inner
    ]
    workers = worker_count(jobs, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, points))
    return [_sweep_point(p) for p in points]


def write_curves_csv(rows: list[dict], path: str) -> None:
    """CSV with the fixed sweep header; numbers at 9 significant digits."""
    import csv

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return f"{v:.9g}"
        return str(v)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CURVES_CSV_HEADER)
        for row in rows:
            w.writerow([fmt(row.get(col)) for col in CURVES_CSV_HEADER])
