import json
import logging
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dbvsim import montecarlo
from dbvsim._pool import worker_count
from dbvsim.attacks import IndexSamplingStrategy, ParitySketchStrategy
from dbvsim.bounds import DbvSpec, exact_binomial_tail_lower, max_errors
from dbvsim.channel import (
    DEFAULT_CHANNEL,
    bit_error_prob,
    snr_at_distance,
    transmit_power_for_claim,
)
from dbvsim.montecarlo import (
    Scenario,
    TrialSummary,
    clopper_pearson,
    compare_to_bound,
    estimate_rates,
    exact_success_probability,
)
from dbvsim.protocols import BrmParams, ProtocolConfig

CH = DEFAULT_CHANNEL
SPEC = DbvSpec(psi=1.5, eps_fa=0.05, eps_fr=0.05)
PI1 = ProtocolConfig("pi1", e0=2000.0, k=150, beta=0.08)


def pi3_config(lam=0.3, k=90):
    return ProtocolConfig(
        "pi3", e0=2000.0, k=k, beta=0.1, brm=BrmParams(lam=lam, n=math.ceil(k / lam))
    )


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0 and 0.95 < lo < 1

    def test_contains_point_estimate(self):
        lo, hi = clopper_pearson(7, 50)
        assert lo < 7 / 50 < hi

    def test_coverage(self):
        # 95% interval covers the true p in >= 93% of synthetic repetitions
        rng = np.random.default_rng(0)
        p, n, reps = 0.1, 200, 1000
        covered = 0
        for x in rng.binomial(n, p, size=reps):
            lo, hi = clopper_pearson(int(x), n)
            covered += lo <= p <= hi
        assert covered / reps >= 0.93

    def test_invalid(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)

    #: 20 trial counts from 1 to 2e5, each with 0, 1, 2, t/3, t/2, t-1 and t successes.
    GRID = [(x, t) for t in np.unique(np.geomspace(1, 2e5, 20).round().astype(int)).tolist()
            for x in sorted({0, 1, 2, t // 3, t // 2, t - 1, t}) if x <= t]

    @pytest.mark.parametrize("confidence", [0.95])
    def test_equals_beta_ppf(self, confidence):
        alpha = 1.0 - confidence
        for x, t in self.GRID:
            lo = 0.0 if x == 0 else float(stats.beta.ppf(alpha / 2, x, t - x + 1))
            hi = 1.0 if x == t else float(stats.beta.ppf(1 - alpha / 2, x + 1, t - x))
            assert clopper_pearson(x, t) == (lo, hi), (x, t)


class TestScenario:
    def test_tfa_sampling_rejects_a_digest(self):
        with pytest.raises(ValueError, match="parity-sketch"):
            Scenario("tfa-sampling", 4e4, 8e4, tfa_strategy=ParitySketchStrategy())

    def test_unknown_mfa_strategy_rejected(self):
        with pytest.raises(ValueError, match="mfa strategy"):
            Scenario("mfa", 4e4, 8e4, mfa_strategy="bogus")

    def test_default_tfa_strategy_is_first_positions(self):
        assert Scenario("tfa-sampling", 4e4, 8e4).tfa_strategy == IndexSamplingStrategy("first")


class TestEstimateRates:
    def test_deterministic(self):
        s = Scenario("honest", d_claim=5e4, d_real=5e4)
        a = estimate_rates(s, PI1, SPEC, CH, 400, 11)
        b = estimate_rates(s, PI1, SPEC, CH, 400, 11)
        assert a == b

    def test_worker_count_invariance(self):
        s = Scenario("dfa", d_claim=4e4, d_real=7e4)
        a = estimate_rates(s, PI1, SPEC, CH, 300, 12, jobs=1)
        b = estimate_rates(s, PI1, SPEC, CH, 300, 12, jobs=3)
        assert a == b

    def test_jobs_clamped_to_trials_and_cores(self, inline_pool):
        s = Scenario("dfa", d_claim=4e4, d_real=7e4)
        serial = estimate_rates(s, PI1, SPEC, CH, 3, 12)
        opened = inline_pool(montecarlo, cpus=64)
        assert estimate_rates(s, PI1, SPEC, CH, 3, 12, jobs=10**6) == serial
        inline_pool(montecarlo, cpus=1)
        assert estimate_rates(s, PI1, SPEC, CH, 3, 12, jobs=10**6) == serial
        assert opened == [3]  # one pool of 3 workers; none on one core

    def test_seed_split_consistency(self):
        # two disjoint halves of the seed space agree within a 4-sigma band
        s = Scenario("honest", d_claim=5e4, d_real=6.2e4)
        r1 = estimate_rates(s, PI1, SPEC, CH, 1500, 13).rate
        r2 = estimate_rates(s, PI1, SPEC, CH, 1500, 14).rate
        pooled = (r1 + r2) / 2
        sd = math.sqrt(max(2 * pooled * (1 - pooled) / 1500, 1e-9))
        assert abs(r1 - r2) < 4 * sd + 1e-9

    def test_noiseless_honest_is_certain(self):
        s = Scenario("honest", d_claim=5e4, d_real=9e4, noiseless=True)
        out = estimate_rates(s, PI1, SPEC, CH, 50, 15)
        assert out.rate == 1.0 and out.ci_high == 1.0
        assert out.bound_satisfied is True

    def test_relay_vs_pi3_all_blocked(self):
        s = Scenario("tfa-relay", d_claim=4e4, d_real=9e4)
        out = estimate_rates(s, pi3_config(), SPEC, CH, 60, 16)
        assert out.rate == 0.0
        assert out.blocked == 60
        assert out.analytic_exact == 0.0
        assert out.bound_satisfied is True

    def test_relay_vs_pi3_completes_when_cap_covers_source(self):
        # ceil(0.6 * 2) = 2: the relay captures the whole source
        cfg = ProtocolConfig("pi3", e0=1000.0, k=2, beta=0.4, brm=BrmParams(lam=0.6, n=2))
        near = Scenario("tfa-relay", d_claim=4e4, d_real=9e4)
        out = estimate_rates(near, cfg, None, CH, 200, 20)
        assert (out.blocked, out.rate, out.analytic_exact) == (0, 1.0, 1.0)
        far = Scenario("tfa-relay", d_claim=4e4, d_real=9e4, intruder_d=9e4)
        e = transmit_power_for_claim(4e4, cfg.e0, CH)
        p = exact_binomial_tail_lower(2, 0.4, bit_error_prob(snr_at_distance(e, 9e4, CH)))
        assert 0.05 < p < 0.95
        out = estimate_rates(far, cfg, None, CH, 2000, 21)
        assert out.analytic_exact == p
        assert abs(out.rate - p) < 4 * math.sqrt(p * (1 - p) / 2000)

    def test_low_trial_warning(self, caplog):
        s = Scenario("dfa", d_claim=4e4, d_real=7e4)
        tight = DbvSpec(psi=1.5, eps_fa=1e-4, eps_fr=1e-4)
        with caplog.at_level(logging.WARNING, logger="dbvsim.montecarlo"):
            estimate_rates(s, PI1, tight, CH, 50, 17)
        assert any("cannot resolve" in r.message for r in caplog.records)

    def test_dump_transcripts(self, tmp_path):
        path = tmp_path / "transcripts.jsonl"
        s = Scenario("honest", d_claim=5e4, d_real=5e4)
        estimate_rates(s, PI1, SPEC, CH, 20, 18, dump_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 20
        rec = json.loads(lines[0])
        for field in ("claim_m", "d_real_m", "challenge_hex", "response_hex",
                      "hamming", "verdict", "seed"):
            assert field in rec
        assert rec["seed"] == 0

    def test_exact_oracle_agreement(self):
        # the simulated DFA rate should track the binomial-tail oracle
        s = Scenario("dfa", d_claim=4e4, d_real=6e4)
        out = estimate_rates(s, PI1, SPEC, CH, 4000, 19)
        p = out.analytic_exact
        assert p is not None and 0.001 < p < 0.9
        sd = math.sqrt(p * (1 - p) / out.trials)
        assert abs(out.rate - p) < 3.5 * sd


def _scalar_sampling_mixture(scenario, cfg):
    """Oracle: one scalar hypergeometric pmf and binomial cdf call per overlap."""
    e = transmit_power_for_claim(scenario.d_claim, cfg.e0, CH)
    p_b = bit_error_prob(snr_at_distance(e, scenario.d_real, CH))
    overlap = stats.hypergeom(cfg.brm.n, cfg.brm.retrieval_cap, cfg.k)
    cut = max_errors(cfg.beta, cfg.k)
    total = 0.0
    for j in range(cfg.k + 1):
        w = overlap.pmf(j)
        if w == 0.0:
            continue
        unknown = cfg.k - j
        acc = 1.0 if unknown == 0 else float(stats.binom.cdf(cut, unknown, p_b))
        total += w * acc
    return total


class TestSamplingMixtureOracle:
    """The tfa-sampling acceptance probability against scipy's scalar calls."""

    @pytest.mark.parametrize("lam, k", [(0.3, 90), (0.9, 30), (0.5, 10), (0.05, 40)])
    @pytest.mark.parametrize("d_real", [4e4, 6e4, 9e4])
    def test_equals_scalar_loop(self, lam, k, d_real):
        cfg = pi3_config(lam=lam, k=k)
        s = Scenario("tfa-sampling", d_claim=4e4, d_real=d_real)
        got = exact_success_probability(s, cfg, CH)
        assert got == pytest.approx(_scalar_sampling_mixture(s, cfg), rel=1e-12, abs=0)

    def test_full_overlap_counts_as_accepted(self):
        # k equal to the retrieval cap: the intruder may hold every sampled bit.
        cfg = pi3_config(lam=0.5, k=10)
        assert cfg.brm.retrieval_cap == cfg.k
        far = Scenario("tfa-sampling", d_claim=4e4, d_real=4e6)
        full = stats.hypergeom.pmf(cfg.k, cfg.brm.n, cfg.brm.retrieval_cap, cfg.k)
        assert exact_success_probability(far, cfg, CH) >= full > 0.0


def _pi3_with_cap(n, cap, beta=0.1):
    """A pi3 config with k equal to its retrieval cap ``cap`` out of ``n``."""
    return ProtocolConfig("pi3", e0=2000.0, k=cap, beta=beta,
                          brm=BrmParams(lam=(cap - 0.5) / n, n=n))


#: (n, cap, k) of the O(k) overlap law's exact checks: the pi3 benchmark and
#: golden points, a cap near the whole source, and the paper-scale source.
EXACT_POINTS = [(534, 160, 160), (1_030_000, 103, 103), (9354, 8418, 8418), (1000, 900, 900),
                (2 * 10**9, 200, 200)]


class TestOverlapLawExact:
    """The O(k) overlap law and the mixture it weights, against exact rationals."""

    @staticmethod
    def l1(got, exact):
        lo, w = got
        lo_x, w_x = exact
        assert lo == lo_x and len(w) == len(w_x)
        return float(sum(abs(Fraction(float(x)) - y) for x, y in zip(w, w_x)))

    @pytest.mark.parametrize("n, cap, k", EXACT_POINTS)
    def test_pmf(self, exact_overlap_pmf, n, cap, k):
        assert self.l1(montecarlo._overlap_pmf(n, cap, k), exact_overlap_pmf(n, cap, k)) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 80).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.integers(1, n))))
    @example((10, 8, 5))  # k > n - cap: the support starts above 0
    @example((10, 4, 4))  # cap = k
    @example((10, 10, 3))  # cap = n: every sampled position is held
    @example((10, 0, 3))  # cap = 0: none is
    def test_pmf_sweep(self, exact_overlap_pmf, nck):
        n, cap, k = nck
        assert self.l1(montecarlo._overlap_pmf(n, cap, k), exact_overlap_pmf(n, cap, k)) <= 1e-10

    @pytest.mark.parametrize("n, cap, k", EXACT_POINTS)
    @pytest.mark.parametrize("d_real", [4e4, 6e4, 9e4])
    def test_mixture(self, exact_sampling_mixture, n, cap, k, d_real):
        cfg = _pi3_with_cap(n, cap)
        assert (cfg.k, cfg.brm.retrieval_cap) == (k, cap)
        s = Scenario("tfa-sampling", d_claim=4e4, d_real=d_real)
        exact = exact_sampling_mixture(s, cfg, CH)
        got = exact_success_probability(s, cfg, CH)
        assert exact > 0
        assert float(abs(Fraction(got) - exact) / exact) <= 1e-10, (got, float(exact))


class TestCompareToBound:
    def _summary(self, kind, rate, lo, hi, bound):
        return TrialSummary(
            scenario=kind, protocol="pi1", trials=1000, accepts=int(rate * 1000),
            blocked=0, rate=rate, ci_low=lo, ci_high=hi,
            analytic_bound=bound,
            bound_kind="false-reject" if kind == "honest" else "false-accept",
        )

    def test_zero_rate_passes_any_bound(self):
        s = self._summary("dfa", 0.0, 0.0, 0.004, 1e-5)
        assert compare_to_bound(s).passed

    def test_soundness_violation_detected(self):
        s = self._summary("dfa", 0.3, 0.27, 0.33, 0.01)
        chk = compare_to_bound(s)
        assert not chk.passed and chk.slack < 0

    def test_completeness_form(self):
        s = self._summary("honest", 0.999, 0.996, 0.9999, 0.01)
        chk = compare_to_bound(s)
        assert chk.form == "false-reject"
        assert chk.passed

    def test_completeness_violation(self):
        s = self._summary("honest", 0.5, 0.47, 0.53, 0.01)
        assert not compare_to_bound(s).passed

    def test_missing_bound_raises(self):
        s = self._summary("dfa", 0.0, 0.0, 0.004, 1e-5)
        s.analytic_bound = None
        with pytest.raises(ValueError):
            compare_to_bound(s)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "jobs, cpus, tasks, want",
        [
            (1, 8, 100, 1),
            (4, 8, 100, 4),
            (64, 2, 100, 2),
            (8, 16, 3, 3),
            (8, None, 100, 1),  # cpu_count() unknown
            (0, 8, 100, 1),
            (4, 8, 0, 1),
        ],
    )
    def test_min_of_jobs_cores_tasks(self, monkeypatch, jobs, cpus, tasks, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count(jobs, tasks) == want

    def test_serial_batch_does_not_read_cpu_count(self, monkeypatch):
        def unread():
            raise AssertionError("os.cpu_count() called")
        monkeypatch.setattr(os, "cpu_count", unread)
        assert worker_count(1, 10**6) == 1
        assert worker_count(16, 1) == 1

    @pytest.mark.parametrize("cpus", [None, 1, 2, 3, 8])
    def test_same_clamp_for_every_input(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for jobs in range(-2, 12):
            for tasks in range(-2, 12):
                assert worker_count(jobs, tasks) == max(1, min(jobs, cpus or 1, tasks))
