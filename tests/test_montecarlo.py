import dataclasses
import json
import logging
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.stats import binomtest

from dbvsim import montecarlo, protocols
from dbvsim._pool import worker_count
from dbvsim.attacks import (
    BlockMajorityStrategy,
    IndexSamplingStrategy,
    ParitySketchStrategy,
)
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
    run_block,
)
from dbvsim.primitives import MacKeys, encode_response_claim, mac_verify
from dbvsim.protocols import ACC, REJ, BrmParams, ProtocolConfig, Session, verify_response

CH = DEFAULT_CHANNEL
SPEC = DbvSpec(psi=1.5, eps_fa=0.05, eps_fr=0.05)
PI1 = ProtocolConfig("pi1", e0=2000.0, k=150, beta=0.08)


def pi3_config(lam=0.3, k=90):
    return ProtocolConfig(
        "pi3", e0=2000.0, k=k, beta=0.1, brm=BrmParams(lam=lam, n=math.ceil(k / lam))
    )


def pi3_at_cap(lam, n):
    """pi3 on an n-bit source with k at the retrieval cap."""
    brm = BrmParams(lam=lam, n=n)
    return ProtocolConfig("pi3", e0=2000.0, k=brm.retrieval_cap, beta=0.1, brm=brm)


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
        # Workers take whole blocks: three blocks, the last one partial.
        s = Scenario("dfa", d_claim=4e4, d_real=7e4)
        trials = 2 * montecarlo.block_rows(PI1) + 1
        serial = estimate_rates(s, PI1, SPEC, CH, trials, 12)
        opened = inline_pool(montecarlo, cpus=64)
        assert estimate_rates(s, PI1, SPEC, CH, trials, 12, jobs=10**6) == serial
        inline_pool(montecarlo, cpus=1)
        assert estimate_rates(s, PI1, SPEC, CH, trials, 12, jobs=10**6) == serial
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3000).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, min(n - 1, 300)))), st.floats(4e4, 1e5))
    def test_mixture_sweep(self, exact_sampling_mixture, n_cap, d_real):
        # The oracle's binomial cdf (the ufunc behind stats.binom.cdf) within
        # 1e-12 of the exact rational mixture.
        cfg = _pi3_with_cap(*n_cap)
        s = Scenario("tfa-sampling", d_claim=4e4, d_real=d_real)
        exact = exact_sampling_mixture(s, cfg, CH)
        got = exact_success_probability(s, cfg, CH)
        assert float(abs(Fraction(got) - exact) / exact) <= 1e-12, (got, float(exact))

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

    @pytest.mark.parametrize("n, cap, k", EXACT_POINTS)
    def test_public_cdf_fallback_gives_the_same_bits(self, monkeypatch, n, cap, k):
        # A scipy without the private ufunc falls back to stats.binom.cdf.
        cfg = _pi3_with_cap(n, cap)
        s = Scenario("tfa-sampling", d_claim=4e4, d_real=6e4)
        fast = exact_success_probability(s, cfg, CH)
        monkeypatch.setattr(montecarlo, "_binom_cdf", stats.binom.cdf)
        # The uncached function, so the fallback is what computes it.
        assert exact_success_probability.__wrapped__(s, cfg, CH) == fast


class TestExactOracleCache:
    """``exact_success_probability`` is cached on its frozen arguments: a
    repeated call, with equal arguments built anew, gives what the uncached
    function does."""

    @pytest.mark.parametrize("scenario, cfg", [
        (Scenario("honest", 4e4, 4e4), ProtocolConfig("pi1", e0=2000.0, k=3334, beta=0.1)),
        (Scenario("dfa", 4e4, 4.4e4), ProtocolConfig("pi1", e0=2000.0, k=3334, beta=0.1)),
        (Scenario("honest", 4e4, 4e4), ProtocolConfig("pi2", e0=2000.0, k=3334, beta=0.1)),
        (Scenario("tfa-relay", 4e4, 4e4, intruder_d=6e4), pi3_config(0.3, 120)),
        (Scenario("tfa-sampling", 4e4, 6e4), pi3_config(0.3, 120)),
        (Scenario("honest", 4e4, 4e4, noiseless=True), pi3_config(0.3, 120)),
    ], ids=["pi1-honest", "pi1-dfa", "pi2-honest", "relay", "sampling", "noiseless"])
    def test_repeated_call_equals_the_uncached_function(self, scenario, cfg):
        first = exact_success_probability(scenario, cfg, CH)
        hits = exact_success_probability.cache_info().hits
        again = exact_success_probability(dataclasses.replace(scenario), dataclasses.replace(cfg),
                                          dataclasses.replace(CH))
        assert exact_success_probability.cache_info().hits == hits + 1
        assert again == first == exact_success_probability.__wrapped__(scenario, cfg, CH)


class TestBlockEngine:
    """Trials run in blocks of rows; the engine against its references."""

    @pytest.mark.parametrize("cfg, kinds, rows", [
        # the golden transcripts' configs (tests/golden/make_transcripts.py)
        (ProtocolConfig("pi1", e0=2000.0, k=150, beta=0.1), ["honest", "tfa-relay"], 256),
        (pi3_config(0.3, 120), ["honest", "tfa-sampling", "tfa-relay"], 256),
        (pi3_config(0.3, 120), ["parity-sketch", "block-majority"], 256),
        # the benchmark's configs (perfbench/workloads.py)
        (ProtocolConfig("pi2", e0=2000.0, k=3334, beta=0.1), ["honest", "mfa"], 78),
        (ProtocolConfig("pi3", e0=2000.0, k=160, beta=0.1, brm=BrmParams(lam=0.3, n=534)),
         ["honest", "tfa-sampling", "impersonation"], 256),
        (ProtocolConfig("pi3", e0=2000.0, k=160, beta=0.1, brm=BrmParams(lam=0.3, n=534)),
         ["parity-sketch", "block-majority"], 256),
        (ProtocolConfig("pi3", e0=2000.0, k=103, beta=0.1,
                        brm=BrmParams(lam=1e-4, n=1_030_000)), ["honest", "tfa-relay"], 256),
        (ProtocolConfig("pi3", e0=2000.0, k=103, beta=0.1,
                        brm=BrmParams(lam=1e-4, n=1_030_000)), ["block-majority"], 256),
    ], ids=["golden-pi1", "golden-pi3", "golden-pi3-digest", "bench-pi2", "bench-dense",
            "bench-dense-digest", "bench-sparse", "bench-sparse-digest"])
    def test_block_rows_pinned(self, cfg, kinds, rows):
        # The block rule is part of trial_stream 4: a retune must fail here
        # and come with a new TRIAL_STREAM_VERSION.  Since trial_stream 3 the
        # rows depend on the config alone, so the digest scenarios (the
        # ``-digest`` cases) take the rows of the others at the same config;
        # ``kinds`` names the scenarios each config runs with.
        assert montecarlo.block_rows(cfg) == rows, kinds

    @given(st.one_of(
        st.builds(lambda p, k: ProtocolConfig(p, e0=2000.0, k=k, beta=0.1),
                  st.sampled_from(["pi1", "pi2"]), st.integers(1, 10**7)),
        st.builds(pi3_at_cap, st.floats(1e-18, 0.999),
                  st.integers(1, protocols.MAX_SOURCE_BITS)),
    ))
    @settings(max_examples=300, deadline=None)
    @example(ProtocolConfig("pi2", e0=2000.0, k=3334, beta=0.1))
    @example(ProtocolConfig("pi1", e0=2000.0, k=montecarlo.BLOCK_POSITIONS + 1, beta=0.1))
    @example(pi3_config(0.001, 66))
    @example(pi3_at_cap(1e-18, protocols.MAX_SOURCE_BITS))  # rows held by int64 keys
    def test_block_within_budget(self, cfg):
        # Every valid config's blocks stay within BLOCK_ROWS rows and, unless
        # one row alone exceeds it, within BLOCK_POSITIONS positions.
        rows = montecarlo.block_rows(cfg)
        n, cap = Session.extent(cfg)
        assert 1 <= rows <= montecarlo.BLOCK_ROWS
        assert rows == 1 or rows * min(n, cfg.k + 2 * cap) <= montecarlo.BLOCK_POSITIONS
        assert rows * n <= protocols.MAX_SOURCE_BITS

    @pytest.mark.parametrize("cfg, scenario, dense_memo", [
        (ProtocolConfig("pi2", e0=2000.0, k=3334, beta=0.1), Scenario("mfa", 5e4, 7.5e4),
         False),
        # the largest source a dense memo holds, at the most rows
        (ProtocolConfig("pi3", e0=2000.0, k=66, beta=0.1,
                        brm=BrmParams(lam=0.001, n=protocols.DENSE_SOURCE_BITS)),
         Scenario("honest", 5e4, 5e4), True),
    ], ids=["pi2-k3334-mfa", "pi3-dense-memo"])
    def test_block_memory_within_budget(self, cfg, scenario, dense_memo):
        # One block's peak traced allocation: about 20 bytes a position it may
        # read, and the dense memo's byte per source bit of each row.
        import tracemalloc

        rows = montecarlo.block_rows(cfg)
        bound = 32 * montecarlo.BLOCK_POSITIONS
        if dense_memo:
            assert (rows, cfg.brm.n) == (montecarlo.BLOCK_ROWS, protocols.DENSE_SOURCE_BITS)
            bound += montecarlo.BLOCK_ROWS * protocols.DENSE_SOURCE_BITS
        tracemalloc.start()
        try:
            block = run_block(scenario, cfg, CH, np.random.default_rng(8), 0, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.hamming.shape == (rows,)
        assert peak <= bound, (peak, bound)

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="glibc's dynamic mmap and trim thresholds")
    def test_consecutive_blocks_reuse_their_heap(self):
        # A fresh interpreter, so no earlier test has moved the thresholds:
        # after one block has grown the heap, 30 more 78-row pi1 blocks fault
        # in under 5 pages a block, where a heap trimmed after every block
        # faulted about 290 back in.
        code = (
            "import resource, numpy as np\n"
            "from dbvsim.montecarlo import Scenario, block_rows, run_block\n"
            "from dbvsim.channel import DEFAULT_CHANNEL as ch\n"
            "from dbvsim.protocols import ProtocolConfig\n"
            "cfg = ProtocolConfig('pi1', e0=2000.0, k=3334, beta=0.1)\n"
            "rows = block_rows(cfg)\n"
            "honest = Scenario('honest', 5e4, 5e4)\n"
            "def block(i):\n"
            "    run_block(honest, cfg, ch, np.random.default_rng(i), i * rows, rows)\n"
            "block(0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for i in range(1, 31):\n"
            "    block(i)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(rows, (after - before) / 30)\n")
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        rows, faults = out.split()
        assert int(rows) == 78
        assert float(faults) < 5, faults

    CASES = [(PI1, Scenario("honest", d_claim=5e4, d_real=6.2e4)),
             (pi3_config(), Scenario("tfa-sampling", 5e4, 6.5e4,
                                     tfa_strategy=IndexSamplingStrategy("random")))]

    @pytest.mark.parametrize("cfg, scenario", CASES, ids=["pi1-honest", "pi3-tfa-sampling"])
    def test_summary_independent_of_jobs_and_dump(self, tmp_path, cfg, scenario):
        rows = montecarlo.block_rows(cfg)
        trials = 2 * rows + 37  # the last block is partial
        serial = estimate_rates(scenario, cfg, SPEC, CH, trials, 31)
        assert serial.to_json_dict()["trial_stream"] == 4
        assert estimate_rates(scenario, cfg, SPEC, CH, trials, 31, jobs=2) == serial
        path = tmp_path / "dump.jsonl"
        assert estimate_rates(scenario, cfg, SPEC, CH, trials, 31, dump_path=str(path)) == serial
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["seed"] for d in lines] == list(range(trials))
        assert sum(d["verdict"] == ACC for d in lines) == serial.accepts
        assert {d["trial_stream"] for d in lines} == {4}

    @pytest.mark.parametrize("cfg, scenario", [
        (ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.08), Scenario("honest", 5e4, 6.2e4)),
        (ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.1, mac_bits=8),
         Scenario("mfa", 4e4, 5.5e4, mfa_strategy="random-tag")),
        (ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.1, mac_bits=128),
         Scenario("honest", 5e4, 6.2e4)),
        (pi3_config(), Scenario("honest", 5e4, 6.5e4)),
        (pi3_config(), Scenario("impersonation", 4e4, 4e4, leaked_sampler_key=True,
                                leaked_mac_key=True, intruder_d=6e4)),
        (pi3_config(), Scenario("tfa-general", 5e4, 6.5e4, tfa_strategy=BlockMajorityStrategy())),
        (pi3_config(), Scenario("tfa-sampling", 5e4, 6.5e4)),
    ], ids=["pi2-honest", "pi2-mfa-s8", "pi2-honest-s128", "pi3-honest",
            "pi3-impersonation", "pi3-majority", "pi3-tfa-sampling"])
    def test_rows_recheck_with_scalar_checks(self, cfg, scenario):
        # Each row's verdict, re-derived with the scalar verify_response and
        # mac_verify; the MAC keys are the block's first draw.
        rows = 60
        block = run_block(scenario, cfg, CH, np.random.default_rng(5), 100, rows)
        keys = MacKeys.generate(np.random.default_rng(5), rows, cfg.mac_bits)
        seen = set()
        for i in range(rows):
            t = block.transcript(i)
            assert t.seed == 100 + i
            threshold_ok = verify_response(t.challenge, t.response, cfg.beta) == ACC
            mac_ok = mac_verify(keys[i], encode_response_claim(t.response, t.claim_m), t.tag)
            assert (t.threshold_ok, t.mac_ok) == (threshold_ok, mac_ok)
            assert t.verdict == (ACC if threshold_ok and mac_ok else REJ)
            seen.add((threshold_ok, mac_ok))
        assert len(seen) > 1  # the rows decide differently

    @pytest.mark.parametrize("cfg, scenario", [
        (PI1, Scenario("honest", 5e4, 6.2e4)),
        (PI1, Scenario("dfa", 4e4, 5.2e4)),
        (ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.08), Scenario("honest", 5e4, 6.2e4)),
        (ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.08), Scenario("dfa", 4e4, 5.2e4)),
        (ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.08),
         Scenario("tfa-relay", 5e4, 9e4, intruder_d=6.2e4)),
        (PI1, Scenario("tfa-relay", 5e4, 9e4, intruder_d=6.2e4)),
        (pi3_config(), Scenario("dfa", 5e4, 6.5e4)),
    ], ids=["pi1-honest", "pi1-dfa", "pi2-honest", "pi2-dfa", "pi2-relay", "pi1-relay",
            "pi3-dfa"])
    def test_accepts_match_exact(self, cfg, scenario):
        # Every scenario with a closed form passes the exact binomial test;
        # tests/test_attacks.py covers the pi3 honest, tfa-sampling and relay runs.
        trials = 1500
        s = estimate_rates(scenario, cfg, None, CH, trials, master_seed=4243)
        assert 0.05 < s.analytic_exact < 0.95  # informative
        assert binomtest(s.accepts, trials, s.analytic_exact).pvalue > 1e-4, (
            s.accepts, s.analytic_exact)


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
