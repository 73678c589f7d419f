import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbvsim import bounds, optimize
from dbvsim.bounds import (
    K_CAP,
    DbvSpec,
    InfeasibleError,
    chernoff_false_accept,
    chernoff_false_reject,
)
from dbvsim.channel import (
    DEFAULT_CHANNEL,
    ChannelParams,
    PowerLimitError,
    intended_blocked_ber,
    intended_blocked_ber_grid,
)
from dbvsim.optimize import (
    CURVES_CSV_HEADER,
    max_feasible_lambda,
    optimize_brm,
    optimize_dfa,
    sweep_curves,
    write_curves_csv,
)

CH = DEFAULT_CHANNEL
LN2 = math.log(2)


def dfa_terms(e0, beta, psi):
    ber = intended_blocked_ber(e0, psi, CH)
    t1 = (ber.p_i + beta) / (beta - ber.p_i) ** 2
    t2 = 2 * ber.p_b / (ber.p_b - beta) ** 2
    return t1, t2


class TestCrossing:
    def test_unconverged_root_is_infeasible(self):
        # At this grid power (p_i ~ 2e-154) brentq raises "Failed to converge
        # after 100 iterations"; the point counts as infeasible.
        ch = ChannelParams(e_max=3e6)
        e0 = float(optimize._e0_grid(ch)[1688])
        assert e0 == pytest.approx(3.4967e5, rel=1e-4)
        ber = intended_blocked_ber(e0, 1.01, ch)
        beta, value = optimize._inner(bounds._dfa_terms, ber.p_i, ber.p_b, 1e-6, 1e6)
        assert math.isnan(beta) and value == math.inf


class TestOptimizeDfa:
    SPEC = DbvSpec(psi=1.3, eps_fa=1e-3, eps_fr=1e-3)

    def test_constraints_hold_at_optimum(self):
        opt = optimize_dfa(self.SPEC, CH)
        ber = intended_blocked_ber(opt.e0_star, self.SPEC.psi, CH)
        assert ber.p_i < opt.beta_star < ber.p_b
        assert 0 < opt.e0_star <= CH.e_max

    def test_crossing_equality(self):
        opt = optimize_dfa(self.SPEC, CH)
        t1, t2 = dfa_terms(opt.e0_star, opt.beta_star, self.SPEC.psi)
        assert abs(t1 - t2) <= 1e-9 * max(t1, t2)

    def test_inversion(self):
        opt = optimize_dfa(self.SPEC, CH)
        ber = intended_blocked_ber(opt.e0_star, self.SPEC.psi, CH)
        assert chernoff_false_reject(opt.k_star, opt.beta_star, ber.p_i) <= self.SPEC.eps_fr
        assert chernoff_false_accept(opt.k_star, opt.beta_star, ber.p_b) <= self.SPEC.eps_fa

    def test_deterministic(self):
        a = optimize_dfa(self.SPEC, CH)
        b = optimize_dfa(self.SPEC, CH)
        assert a == b

    def test_grid_refinement_stable(self, monkeypatch):
        a = optimize_dfa(self.SPEC, CH)
        monkeypatch.setattr(optimize, "E0_GRID_POINTS", 4000)
        b = optimize_dfa(self.SPEC, CH)
        assert abs(a.k_star - b.k_star) <= 1

    def test_e0_star_independent_of_eps(self):
        opts = [
            optimize_dfa(DbvSpec(psi=1.3, eps_fa=e, eps_fr=e), CH)
            for e in (1e-3, 1e-4, 1e-5)
        ]
        assert opts[0].e0_star == opts[1].e0_star == opts[2].e0_star
        assert opts[0].beta_star == opts[1].beta_star == opts[2].beta_star

    def test_k_star_scales_with_log_eps(self):
        o3 = optimize_dfa(DbvSpec(psi=1.3, eps_fa=1e-3, eps_fr=1e-3), CH)
        o5 = optimize_dfa(DbvSpec(psi=1.3, eps_fa=1e-5, eps_fr=1e-5), CH)
        assert o5.k_star == pytest.approx(o3.k_star * math.log(1e5) / math.log(1e3), rel=1e-3)

    def test_monotone_in_psi(self):
        ks, e0s = [], []
        for psi in (1.05, 1.1, 1.2, 1.35, 1.5):
            opt = optimize_dfa(DbvSpec(psi=psi, eps_fa=1e-3, eps_fr=1e-3), CH)
            ks.append(opt.k_star)
            e0s.append(opt.e0_star)
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert all(a <= b * (1 + 1e-9) for a, b in zip(e0s, e0s[1:]))

    def test_asymmetric_budgets(self):
        spec = DbvSpec(psi=1.3, eps_fa=1e-5, eps_fr=1e-2)
        opt = optimize_dfa(spec, CH)
        ber = intended_blocked_ber(opt.e0_star, spec.psi, CH)
        assert chernoff_false_reject(opt.k_star, opt.beta_star, ber.p_i) <= spec.eps_fr
        assert chernoff_false_accept(opt.k_star, opt.beta_star, ber.p_b) <= spec.eps_fa


class TestOptimizeBrm:
    SPEC = DbvSpec(psi=2.0, eps_fa=1e-3, eps_fr=1e-3)

    def test_sampling_optimum_valid(self):
        opt = optimize_brm(self.SPEC, CH, lam=0.3, mode="sampling")
        ber = intended_blocked_ber(opt.e0_star, self.SPEC.psi, CH)
        assert ber.p_i < opt.beta_star
        assert opt.mu_star < (1 - 0.3) * ber.p_b
        assert opt.n_star == math.ceil(opt.k_star / 0.3)
        assert opt.mode == "sampling"

    def test_general_optimum_valid(self):
        opt = optimize_brm(self.SPEC, CH, lam=0.05, mode="general")
        ber = intended_blocked_ber(opt.e0_star, self.SPEC.psi, CH)
        assert opt.mu_star < ber.p_b - math.sqrt(2 * LN2 * ber.p_b * 0.05)

    def test_small_lambda_matches_dfa_objective(self):
        dfa = optimize_dfa(self.SPEC, CH)
        brm = optimize_brm(self.SPEC, CH, lam=1e-5, mode="sampling", theta=0.0, gamma=1e-9)
        # per-bit objective approaches the plain optimum as the rate vanishes
        assert brm.k_star == pytest.approx(dfa.k_star, rel=0.02)
        assert brm.n_star == math.ceil(brm.k_star / 1e-5)

    def test_sampling_infeasible_rate(self):
        with pytest.raises(InfeasibleError) as e:
            optimize_brm(DbvSpec(psi=1.05, eps_fa=1e-3, eps_fr=1e-3), CH, 0.9, "sampling")
        assert e.value.condition == "sampling-intruder-infeasible"
        assert "p_i < (1-lambda)*p_b" in str(e.value)

    def test_general_infeasible_rate(self):
        with pytest.raises(InfeasibleError) as e:
            optimize_brm(DbvSpec(psi=1.05, eps_fa=1e-3, eps_fr=1e-3), CH, 0.5, "general")
        assert e.value.condition == "general-intruder-infeasible"

    def test_gamma_default_and_validation(self):
        opt = optimize_brm(self.SPEC, CH, lam=0.3, mode="sampling")
        assert opt.k_star >= 1
        with pytest.raises(InfeasibleError):
            optimize_brm(self.SPEC, CH, lam=0.3, mode="sampling", gamma=2e-3)

    def test_deterministic(self):
        a = optimize_brm(self.SPEC, CH, lam=0.3, mode="sampling")
        b = optimize_brm(self.SPEC, CH, lam=0.3, mode="sampling")
        assert a == b


class TestMaxFeasibleLambda:
    def test_general_at_psi_168(self):
        res = max_feasible_lambda(1.68, CH, "general")
        assert res.feasible
        assert res.lambda_star == pytest.approx(0.1, abs=0.01)

    def test_monotone_in_psi(self):
        vals = [max_feasible_lambda(p, CH, "general").lambda_star for p in (1.3, 1.68, 2.5)]
        assert vals[0] <= vals[1] <= vals[2]
        vals_s = [max_feasible_lambda(p, CH, "sampling").lambda_star for p in (1.05, 1.5, 3.0)]
        assert vals_s[0] <= vals_s[1] <= vals_s[2]

    def test_sampling_capped_by_power_budget(self):
        # with a far larger power budget the same psi admits a higher rate
        res = max_feasible_lambda(1.05, CH, "sampling")
        rich = max_feasible_lambda(
            1.05, type(CH)(xi=CH.xi, alpha=CH.alpha, sigma=CH.sigma, e_max=1e9, d0=CH.d0),
            "sampling",
        )
        assert res.lambda_star < 1.0
        assert rich.lambda_star > res.lambda_star

    @pytest.mark.parametrize("mode, psi", [
        ("general", 1.3), ("general", 1.68), ("general", 2.5),
        ("sampling", 1.01), ("sampling", 1.02), ("sampling", 1.04),
    ])
    def test_feasibility_consistent_with_optimizer(self, mode, psi):
        # Both read the mode's threshold bracket at theta = 0: it is non-empty
        # just below lambda* and empty just above, where the optimizer names
        # the mode's condition.  Sampling mode reaches lambda* only at the
        # full power budget, where p_i and p_b are so small that the length
        # just below it is past the cap; from psi ~ 1.05 up its lambda* is
        # within 2e-3 of 1.
        res = max_feasible_lambda(psi, CH, mode)
        assert res.feasible and 2e-3 < res.lambda_star < 1 - 2e-3
        spec = DbvSpec(psi=psi, eps_fa=1e-3, eps_fr=1e-3)
        if mode == "general":
            good = optimize_brm(spec, CH, res.lambda_star - 2e-3, mode, theta=0.0, gamma=0.0)
            assert good.n_star >= 1
        else:
            with pytest.raises(InfeasibleError) as e:
                optimize_brm(spec, CH, res.lambda_star - 2e-3, mode, theta=0.0, gamma=0.0)
            assert e.value.condition == "challenge-length-cap"
        with pytest.raises(InfeasibleError) as e:
            optimize_brm(spec, CH, res.lambda_star + 2e-3, mode, theta=0.0, gamma=0.0)
        assert e.value.condition == f"{mode}-intruder-infeasible"


def _scalar_grid(terms, psi, ch, w_dec, w_inc):
    """Oracle: the per-point scalar loop over the power grid that _scan replaces."""
    vals = []
    for e0 in optimize._e0_grid(ch):
        ber = intended_blocked_ber(e0, psi, ch)
        vals.append(optimize._inner(terms, ber.p_i, ber.p_b, w_dec, w_inc)[1])
    return np.array(vals)


def _crossing_kinds(terms, psi, w_dec, w_inc):
    """Counts of grid points with a crossing, with one dominating term, and infeasible."""
    p_i, p_b = intended_blocked_ber_grid(optimize._e0_grid(CH), psi, CH)
    f_dec, f_inc, hi = terms(p_i, p_b, np.sqrt)
    a, b = optimize._bracket(p_i, hi, np.nextafter, np.maximum, np.minimum)
    with np.errstate(all="ignore"):
        g_a = math.log(w_dec / w_inc) + np.log(f_dec(a)) - np.log(f_inc(a))
        g_b = math.log(w_dec / w_inc) + np.log(f_dec(b)) - np.log(f_inc(b))
    feasible = hi > p_i
    crosses = feasible & (g_a > 0) & (g_b < 0)
    return int(crosses.sum()), int((feasible & ~crosses).sum()), int((~feasible).sum())


_L = math.log
_SCAN_CASES = {
    "dfa-psi1.01": (bounds._dfa_terms, 1.01, 1.0, 1.0),
    "dfa-psi1.5": (bounds._dfa_terms, 1.5, 1.0, 1.0),
    "dfa-unequal": (bounds._dfa_terms, 1.1, _L(1e2), _L(1e5)),
    "dfa-unequal-reversed": (bounds._dfa_terms, 3.0, _L(1e6), _L(1.01)),
    # Weights this lopsided make one term dominate over part of the grid.
    "dfa-dominated-some": (bounds._dfa_terms, 3.0, 1e-15, 1.0),
    "dfa-dominated-all": (bounds._dfa_terms, 1.5, 1e-30, 1.0),
    "general-partly-infeasible": (bounds._brm_terms("general", 0.05, 1e-4), 1.5,
                                  _L(1e4), _L(1e6)),
    "general-dominated-some": (bounds._brm_terms("general", 0.05, 1e-4), 3.0, 1e9, 1.0),
    "general-infeasible": (bounds._brm_terms("general", 0.05, 1e-4), 1.05, 1.0, 1.0),
    "sampling-partly-infeasible": (bounds._brm_terms("sampling", 0.9, 1e-4), 3.0,
                                   _L(1e4), _L(1e6)),
    "sampling-dominated-some": (bounds._brm_terms("sampling", 0.5, 1e-4), 3.0, 1e-15, 1.0),
    "sampling-infeasible": (bounds._brm_terms("sampling", 0.5, 0.1), 1.5, 1.0, 1.0),
}


class TestGridScanOracle:
    """The one-pass scan must pick the cell the scalar per-point loop picks."""

    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_argmin_and_infeasible_points_match(self, case):
        terms, psi, w_dec, w_inc = _SCAN_CASES[case]
        want = _scalar_grid(terms, psi, CH, w_dec, w_inc)
        grid = optimize._e0_grid(CH)
        got = optimize._scan(terms, *intended_blocked_ber_grid(grid, psi, CH), w_dec, w_inc)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        if np.isfinite(want).any():
            assert int(np.argmin(got)) == int(np.argmin(want))
            # brentq stops at a relative tolerance in beta, which costs up to
            # about 1e-6 of the objective under the most lopsided weights.
            near = want <= 1.05 * want.min()
            np.testing.assert_allclose(got[near], want[near], rtol=1e-5)

    def test_cases_cover_each_kind_of_point(self):
        kinds = {name: _crossing_kinds(*_SCAN_CASES[name]) for name in _SCAN_CASES}
        assert kinds["dfa-psi1.5"] == (2000, 0, 0)
        assert kinds["dfa-dominated-all"] == (0, 2000, 0)
        for name in ("dfa-dominated-some", "general-dominated-some", "sampling-dominated-some"):
            assert min(kinds[name][:2]) > 0
        for name in ("general-partly-infeasible", "sampling-partly-infeasible"):
            assert kinds[name][0] > 0 and kinds[name][2] > 0
        assert kinds["general-infeasible"][2] == kinds["sampling-infeasible"][2] == 2000

    @pytest.mark.parametrize(
        "mode, lam, theta, p_i",
        [("general", 0.05, 1e-4, 0.01), ("general", 0.05, 1e-4, 1e-9),
         ("general", 0.3, 0.0, 0.01), ("sampling", 0.5, 1e-4, 0.05)],
    )
    def test_nearly_empty_brackets(self, mode, lam, theta, p_i):
        # p_b stepped ulp by ulp across the feasibility edge beta_hi == p_i.
        # Here Python's x**2 and numpy's x*x, which differ in the last bit
        # on about 0.1% of inputs, decide whether a denominator is positive,
        # so the scan and the scalar path may disagree; only on points whose
        # challenge length is past K_CAP.
        terms = bounds._brm_terms(mode, lam, theta)
        lo, hi = p_i, 0.5
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if terms(p_i, mid, math.sqrt)[2] > p_i else (mid, hi)
        p_b = hi + np.arange(-50, 5000) * math.ulp(hi)
        want = np.array([optimize._inner(terms, p_i, b, 9.2, 9.2)[1] for b in p_b.tolist()])
        got = optimize._scan(terms, np.full(p_b.shape, p_i), p_b, 9.2, 9.2)
        assert np.isinf(want[:50]).all() and np.isinf(got[:50]).all()
        differ = np.isinf(got) != np.isinf(want)
        assert (np.minimum(got, want)[differ] > K_CAP).all()


def _full_bisection_scan(terms, p_i, p_b, w_dec, w_inc):
    """Oracle: the grid scan that bisects every crossing until its bracket stops shrinking."""
    vals = np.full(p_i.shape, np.inf)
    _, _, beta_hi = terms(p_i, p_b, np.sqrt)
    idx = np.flatnonzero((0 <= p_i) & (p_i < p_b) & (beta_hi > p_i))
    f_dec, f_inc, hi = terms(p_i[idx], p_b[idx], np.sqrt)
    lo = p_i[idx]
    a, b = optimize._bracket(lo, hi, np.nextafter, np.maximum, np.minimum)
    log_ratio = math.log(w_dec) - math.log(w_inc)

    def g(beta):
        return log_ratio + np.log(f_dec(beta)) - np.log(f_inc(beta))

    def objective(beta):
        return np.maximum(w_dec * f_dec(beta), w_inc * f_inc(beta))

    def usable(beta):
        dec, inc = f_dec(beta), f_inc(beta)
        return (0 < dec) & (dec < np.inf) & (0 < inc) & (inc < np.inf)

    with np.errstate(all="ignore"):
        ok = (a < b) & usable(a) & usable(b)
        ga, gb = g(a), g(b)
        crosses = (ga > 0) & (gb < 0)
        beta = np.where(ga <= 0, a, b)
        left, right = a, b
        while True:
            mid = 0.5 * (left + right)
            moving = crosses & (left < mid) & (mid < right)
            if not moving.any():
                break
            up = g(mid) > 0
            left = np.where(moving & up, mid, left)
            right = np.where(moving & ~up, mid, right)
        value = np.where(crosses, np.minimum(objective(left), objective(right)),
                         objective(beta))
    vals[idx] = np.where(ok & np.isfinite(value), value, np.inf)
    return vals


def _check_against_full_bisection(terms, psi, w_dec, w_inc):
    """The scan picks the full scan's argmin and infinities, and its values at
    every point it refines are the full scan's bits; returns the refined count."""
    _, p_i, p_b = optimize._ber_grid(psi, CH)
    want = _full_bisection_scan(terms, p_i, p_b, w_dec, w_inc)
    got, refined = optimize._scan_refined(terms, p_i, p_b, w_dec, w_inc)
    assert np.array_equal(optimize._scan(terms, p_i, p_b, w_dec, w_inc), got)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[refined], want[refined])
    if np.isfinite(want).any():
        best = int(np.argmin(want))
        assert int(np.argmin(got)) == best and got[best] == want[best]
        # Unrefined points hold upper bounds of their final values.
        assert (got[~refined] >= want[~refined]).all()
    return int(refined.sum())


_LOG_EPS = st.floats(math.log(1e-12), math.log(0.5))


class TestRefiningScan:
    """The scan bisects to the end only near the grid minimum; elsewhere it
    stops early, which must never change the argmin or a refined value."""

    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_scan_cases(self, case):
        _check_against_full_bisection(*_SCAN_CASES[case])

    @settings(max_examples=120, deadline=None)
    @given(
        psi=st.floats(1.001, 50),
        log_eps_fr=_LOG_EPS,
        log_eps_fa=_LOG_EPS,
        mode=st.sampled_from(("dfa", "general", "sampling")),
        lam=st.floats(0, 1, exclude_min=True, exclude_max=True),
        theta=st.sampled_from((0.0, 1e-4)),
    )
    def test_matches_full_bisection(self, psi, log_eps_fr, log_eps_fa, mode, lam, theta):
        terms = bounds._dfa_terms if mode == "dfa" else bounds._brm_terms(mode, lam, theta)
        _check_against_full_bisection(terms, psi, -log_eps_fr, -log_eps_fa)

    def test_refines_a_small_share(self):
        # The saving: only points near the minimum bisect to the end.
        refined = _check_against_full_bisection(bounds._dfa_terms, 1.1, 1.0, 1.0)
        assert 0 < refined < optimize.E0_GRID_POINTS // 10


class TestBerGridCache:
    @pytest.mark.parametrize("psi", [1.01, 1.68, 40.0])
    def test_equals_uncached_grid(self, psi):
        grid, p_i, p_b = optimize._ber_grid(psi, CH)
        want_grid = optimize._e0_grid(CH)
        want_i, want_b = intended_blocked_ber_grid(want_grid, psi, CH)
        assert grid.tolist() == want_grid.tolist()
        assert p_i.tolist() == want_i.tolist()
        assert p_b.tolist() == want_b.tolist()

    def test_arrays_are_read_only_and_shared(self):
        arrays = optimize._ber_grid(1.3, CH)
        assert all(a is b for a, b in zip(arrays, optimize._ber_grid(1.3, CH)))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_changed_grid_constants_get_a_fresh_grid(self, monkeypatch):
        stale = optimize._ber_grid(1.3, CH)
        monkeypatch.setattr(optimize, "E0_GRID_POINTS", 777)
        grid, p_i, p_b = optimize._ber_grid(1.3, CH)
        assert len(grid) == len(p_i) == len(p_b) == 777
        assert grid.tolist() == optimize._e0_grid(CH).tolist()
        assert p_i.tolist() == intended_blocked_ber_grid(grid, 1.3, CH)[0].tolist()
        monkeypatch.setattr(optimize, "E0_GRID_SPAN", 1e-3)
        assert optimize._ber_grid(1.3, CH)[0][0] == pytest.approx(1e-3 * CH.e_max)
        monkeypatch.undo()
        assert optimize._ber_grid(1.3, CH)[0] is stale[0]

    def test_other_channel_gets_its_own_grid(self):
        other = ChannelParams(xi=2.0, alpha=2.0, sigma=3e-10, e_max=5e5, d0=2e4)
        grid, p_i, _ = optimize._ber_grid(1.3, other)
        assert grid[-1] == other.e_max
        assert p_i.tolist() == intended_blocked_ber_grid(grid, 1.3, other)[0].tolist()


class TestBerGrid:
    @pytest.mark.parametrize("psi", [1.0001, 1.01, 1.68, 3.0, 40.0])
    @pytest.mark.parametrize(
        "ch", [CH, ChannelParams(xi=2.0, alpha=2.0, sigma=3e-10, e_max=5e5, d0=2e4)],
        ids=["default", "other"],
    )
    def test_equals_intended_blocked_ber_elementwise(self, psi, ch):
        grid = optimize._e0_grid(ch)
        p_i, p_b = intended_blocked_ber_grid(grid, psi, ch)
        pairs = [intended_blocked_ber(e0, psi, ch) for e0 in grid]
        assert p_i.tolist() == [b.p_i for b in pairs]
        assert p_b.tolist() == [b.p_b for b in pairs]

    def test_rejects_powers_outside_budget(self):
        with pytest.raises(PowerLimitError):
            intended_blocked_ber_grid(np.array([1.0, 2 * CH.e_max]), 1.5, CH)
        with pytest.raises(PowerLimitError):
            intended_blocked_ber_grid(np.array([0.0, 1.0]), 1.5, CH)
        with pytest.raises(ValueError):
            intended_blocked_ber_grid(np.array([1.0]), 1.0, CH)


class TestSweep:
    SPEC = DbvSpec(psi=1.5, eps_fa=1e-3, eps_fr=1e-3)

    def test_single_point_matches_direct_call(self):
        rows = sweep_curves(self.SPEC, CH, "dfa", [1.2], eps_values=[1e-3])
        assert len(rows) == 1
        direct = optimize_dfa(DbvSpec(psi=1.2, eps_fa=1e-3, eps_fr=1e-3), CH)
        assert rows[0]["k_star_or_n_star"] == direct.k_star
        assert rows[0]["e0_star_w"] == direct.e0_star
        assert rows[0]["feasible"] is True

    def test_k_star_column_monotone_in_psi(self):
        rows = sweep_curves(self.SPEC, CH, "dfa", [1.1, 1.2, 1.3, 1.4], eps_values=[1e-4])
        ks = [r["k_star_or_n_star"] for r in rows]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_infeasible_rows_kept(self):
        rows = sweep_curves(
            self.SPEC, CH, "general", [1.3, 2.5], lambda_values=[0.15],
            theta=0.0, gamma=0.0,
        )
        assert len(rows) == 2
        assert rows[0]["feasible"] is False
        assert rows[0]["condition"] == "general-intruder-infeasible"
        assert rows[1]["feasible"] is True

    def test_jobs_match_serial(self):
        rows1 = sweep_curves(self.SPEC, CH, "dfa", [1.2, 1.3], eps_values=[1e-3, 1e-4])
        rows2 = sweep_curves(self.SPEC, CH, "dfa", [1.2, 1.3], eps_values=[1e-3, 1e-4], jobs=2)
        assert rows1 == rows2

    def test_jobs_clamped_to_cores(self, inline_pool):
        grid = dict(eps_values=[1e-3, 1e-4])
        serial = sweep_curves(self.SPEC, CH, "dfa", [1.2, 1.3], **grid)
        opened = inline_pool(optimize, cpus=2)
        assert sweep_curves(self.SPEC, CH, "dfa", [1.2, 1.3], jobs=10**6, **grid) == serial
        assert opened == [2]

    def test_csv_golden_header_and_format(self, tmp_path):
        rows = sweep_curves(self.SPEC, CH, "dfa", [1.2], eps_values=[1e-3])
        path = tmp_path / "curves.csv"
        write_curves_csv(rows, str(path))
        with open(path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == CURVES_CSV_HEADER
        assert got[0] == ["psi", "eps_or_lambda", "e0_star_dbm", "beta_star",
                          "k_star_or_n_star", "feasible"]
        assert len(got) == 2
        beta = float(got[1][3])
        assert len(got[1][3].replace(".", "").replace("-", "").lstrip("0")) <= 9
        assert got[1][5] == "true"
        assert beta > 0

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            sweep_curves(self.SPEC, CH, "dfa", [], eps_values=[1e-3])
        with pytest.raises(ValueError):
            sweep_curves(self.SPEC, CH, "dfa", [1.2], eps_values=None)
