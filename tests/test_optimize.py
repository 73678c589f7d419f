import csv
import math

import pytest

from dbvsim import optimize
from dbvsim.bounds import (
    DbvSpec,
    InfeasibleError,
    chernoff_false_accept,
    chernoff_false_reject,
)
from dbvsim.channel import DEFAULT_CHANNEL, intended_blocked_ber
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

    def test_grid_refinement_stable(self):
        a = optimize_dfa(self.SPEC, CH, grid_points=2000)
        b = optimize_dfa(self.SPEC, CH, grid_points=4000)
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

    def test_feasibility_consistent_with_optimizer(self):
        res = max_feasible_lambda(1.68, CH, "general", tol=1e-4)
        spec = DbvSpec(psi=1.68, eps_fa=1e-3, eps_fr=1e-3)
        good = optimize_brm(spec, CH, res.lambda_star - 2e-3, "general", theta=0.0, gamma=0.0)
        assert good.n_star >= 1
        with pytest.raises(InfeasibleError):
            optimize_brm(spec, CH, min(res.lambda_star + 2e-3, 0.999), "general",
                         theta=0.0, gamma=0.0)


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
