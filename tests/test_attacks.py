import hashlib
import itertools
import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.stats import binom, binomtest, fisher_exact

from dbvsim import attacks
from dbvsim.attacks import (
    BlockMajorityStrategy,
    IndexSamplingStrategy,
    ParitySketchStrategy,
    attack_dfa,
    attack_impersonation,
    attack_mfa,
    attack_tfa_general,
    attack_tfa_relay,
    attack_tfa_sampling,
    _blocks,
    _block_majorities,
    _majority_error_rates,
    _majority_one_prob,
    _majority_prior_llr,
    _overlap,
)
from dbvsim.bounds import exact_binomial_tail_lower
from dbvsim.channel import (
    DEFAULT_CHANNEL,
    attenuate,
    bit_error_prob,
    bpsk_demodulate,
    bpsk_modulate,
    propagate,
    snr_at_distance,
    transmit_power_for_claim,
)
from dbvsim.bounds import DbvSpec
from dbvsim.montecarlo import Scenario, estimate_rates, exact_success_probability
from dbvsim.optimize import optimize_brm
from dbvsim.protocols import (
    ACC,
    BrmParams,
    ProtocolConfig,
    RetrievalCapError,
    Session,
    run_pi3,
)

CH = DEFAULT_CHANNEL
PI1 = ProtocolConfig("pi1", e0=2000.0, k=150, beta=0.1)
PI2 = ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.1)
PI2_S8 = ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.1, mac_bits=8)


def pi3_config(lam=0.3, k=120, beta=0.1, mac_bits=64):
    n = math.ceil(k / lam)
    return ProtocolConfig("pi3", e0=2000.0, k=k, beta=beta, mac_bits=mac_bits,
                          brm=BrmParams(lam=lam, n=n))


#: Every retrieval strategy: both index choices and the two digests.
STRATEGIES = (IndexSamplingStrategy("first"), IndexSamplingStrategy("random"),
              ParitySketchStrategy(), BlockMajorityStrategy())

#: The relay scenario most tests run: claim 40 km, prover at 90 km.
RELAY = Scenario("tfa-relay", 4e4, 9e4)


def mfa(strategy, d_real=8e4, d_claim=4e4):
    """An intruder forging the claim of an honest prover at d_real down to d_claim."""
    return Scenario("mfa", d_claim, d_real, mfa_strategy=strategy)


def impersonation(d_claim, **knobs):
    """An adversary claiming d_claim with the prover absent; d_real is not read."""
    return Scenario("impersonation", d_claim, d_claim, **knobs)


def tfa(kind, d_claim=4e4, d_real=8e4, strategy="first"):
    """A pi3 terrorist-fraud scenario; a string strategy names the index choice."""
    if isinstance(strategy, str):
        strategy = IndexSamplingStrategy(strategy)
    return Scenario(kind, d_claim, d_real, tfa_strategy=strategy)


def rate(fn, trials, seed0=0):
    hits = 0
    for i in range(trials):
        t = fn(np.random.default_rng((seed0, i)))
        hits += t.verdict == ACC
    return hits / trials


class TestDfa:
    def test_noiseless_always_succeeds(self):
        # without noise there is nothing to distinguish distances
        for i in range(10):
            t = attack_dfa(PI1, Scenario("dfa", 1e4, 9e4, noiseless=True), CH,
                           np.random.default_rng(i))
            assert t.verdict == ACC

    def test_success_matches_binomial_tail(self):
        d_c, d_r = 4e4, 6e4
        e = transmit_power_for_claim(d_c, PI1.e0, CH)
        p_b = bit_error_prob(snr_at_distance(e, d_r, CH))
        expected = exact_binomial_tail_lower(PI1.k, PI1.beta, p_b)
        assert 0.01 < expected < 0.9  # test is informative
        trials = 4000
        got = rate(lambda r: attack_dfa(PI1, Scenario("dfa", d_c, d_r), CH, r), trials, seed0=1)
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert abs(got - expected) < 3.5 * sd

    def test_monotone_in_distance(self):
        d_c = 4e4
        rates = [
            rate(lambda r, d=d: attack_dfa(PI1, Scenario("dfa", d_c, d), CH, r), 1500, seed0=2)
            for d in (5.2e4, 6.4e4, 8e4)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_scenario_label(self):
        t = attack_dfa(PI1, Scenario("dfa", 1e4, 3e4), CH, np.random.default_rng(3))
        assert t.scenario == "dfa"


class TestMfa:
    def test_replay_vs_pi2_never_succeeds(self):
        # the prover's tag covers its honest claim, not the forged one
        for i in range(200):
            t = attack_mfa(PI2, mfa("replay"), CH, np.random.default_rng(i))
            assert t.verdict != ACC
            assert t.mac_ok is False

    def test_best_guess_vs_pi1_succeeds(self):
        # no authentication: an error-free intruder answers perfectly
        for i in range(50):
            t = attack_mfa(PI1, mfa("best-guess"), CH, np.random.default_rng(i))
            assert t.verdict == ACC

    def test_replay_vs_pi1_is_binomial(self):
        honest_d_r, forged = 6e4, 4e4
        e = transmit_power_for_claim(forged, PI1.e0, CH)
        p = bit_error_prob(snr_at_distance(e, honest_d_r, CH))
        expected = exact_binomial_tail_lower(PI1.k, PI1.beta, p)
        trials = 3000
        got = rate(
            lambda r: attack_mfa(PI1, mfa("replay", honest_d_r, forged), CH, r), trials, seed0=4
        )
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert abs(got - expected) < 3.5 * sd

    def test_random_tag_vs_pi2_success_near_two_to_minus_s(self):
        trials = 4000
        got = rate(
            lambda r: attack_mfa(PI2_S8, mfa("best-guess"), CH, r), trials, seed0=5
        )
        expected = 1 / 256  # threshold passes (error-free intruder), tag is a guess
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert abs(got - expected) < 4 * sd

    def test_mfa_success_bounded_by_mac_plus_tail(self):
        trials = 4000
        e = transmit_power_for_claim(4e4, PI2_S8.e0, CH)
        p = bit_error_prob(snr_at_distance(e, 8e4, CH))
        tail = exact_binomial_tail_lower(PI2_S8.k, PI2_S8.beta, p)
        from dbvsim.primitives import mac_forgery_bound

        eps_mac = mac_forgery_bound(PI2_S8.k + 64, 8)
        for strategy in ("replay", "random-tag", "best-guess"):
            got = rate(
                lambda r, s=strategy: attack_mfa(PI2_S8, mfa(s), CH, r),
                trials,
                seed0=6,
            )
            bound = eps_mac + tail
            assert got <= bound + 4 * math.sqrt(max(bound * (1 - bound), 1e-9) / trials)


class TestImpersonation:
    def test_vs_pi1_reduces_to_dfa(self):
        d_c, d_r = 4e4, 6e4
        e = transmit_power_for_claim(d_c, PI1.e0, CH)
        p = bit_error_prob(snr_at_distance(e, d_r, CH))
        expected = exact_binomial_tail_lower(PI1.k, PI1.beta, p)
        trials = 3000
        got = rate(
            lambda r: attack_impersonation(PI1, impersonation(d_c, intruder_d=d_r), CH, r),
            trials,
            seed0=7,
        )
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert abs(got - expected) < 3.5 * sd

    def test_vs_pi2_blocked_by_mac(self):
        trials = 4000
        got = rate(lambda r: attack_impersonation(PI2_S8, impersonation(4e4), CH, r), trials,
                   seed0=8)
        expected = 1 / 256
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert abs(got - expected) < 4 * sd

    def test_vs_pi3_with_leaked_sampler_key_still_blocked_by_mac(self):
        cfg = pi3_config(mac_bits=8)
        trials = 3000
        got = rate(
            lambda r: attack_impersonation(cfg, impersonation(4e4, leaked_sampler_key=True), CH,
                                           r),
            trials,
            seed0=9,
        )
        expected = 1 / 256
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert abs(got - expected) < 4 * sd

    def test_vs_pi3_without_sampler_key_threshold_blocks_too(self):
        cfg = pi3_config()
        for i in range(100):
            t = attack_impersonation(cfg, impersonation(4e4), CH, np.random.default_rng((10, i)))
            assert t.verdict != ACC


class TestRelay:
    def test_vs_pi2_error_free_always_succeeds(self):
        for i in range(200):
            t = attack_tfa_relay(PI2, RELAY, CH, np.random.default_rng(i))
            assert t.verdict == ACC

    def test_vs_pi1_same(self):
        for i in range(100):
            t = attack_tfa_relay(PI1, RELAY, CH, np.random.default_rng(i))
            assert t.verdict == ACC

    def test_matches_honest_at_zero_distance(self):
        # relay success equals honest acceptance next to the verifier
        from dbvsim.protocols import run_pi2

        trials = 500
        relay = rate(
            lambda r: attack_tfa_relay(PI2, replace(RELAY, intruder_d=1.0), CH, r),
            trials, seed0=11,
        )
        honest = sum(
            run_pi2(PI2, Scenario("honest", 4e4, 1.0), CH,
                    np.random.default_rng((11, 5000 + i))).verdict == ACC
            for i in range(trials)
        ) / trials
        pooled = (relay + honest) / 2
        sd = math.sqrt(max(2 * pooled * (1 - pooled) / trials, 1e-12))
        assert abs(relay - honest) <= 4 * sd + 1e-12

    def test_vs_pi3_structurally_blocked(self):
        cfg = pi3_config()
        for i in range(50):
            with pytest.raises(RetrievalCapError) as e:
                attack_tfa_relay(cfg, RELAY, CH, np.random.default_rng((12, i)))
            assert e.value.party == "intruder"

    def test_vs_pi3_blocked_even_at_high_rate(self):
        cfg = pi3_config(lam=0.9, k=90)
        with pytest.raises(RetrievalCapError):
            attack_tfa_relay(cfg, RELAY, CH, np.random.default_rng(13))


    def test_vs_pi3_blocked_before_any_draw(self):
        rng = np.random.default_rng(14)
        state = rng.bit_generator.state
        with pytest.raises(RetrievalCapError) as e:
            attack_tfa_relay(pi3_config(), RELAY, CH, rng)
        assert (e.value.party, e.value.requested, e.value.cap) == ("intruder", 400, 120)
        assert rng.bit_generator.state == state

    def test_vs_pi3_completes_when_cap_covers_source(self):
        # ceil(0.6 * 2) = 2: the intruder may capture the whole source
        cfg = ProtocolConfig("pi3", e0=1000.0, k=2, beta=0.4, brm=BrmParams(lam=0.6, n=2))
        for i in range(20):
            t = attack_tfa_relay(cfg, RELAY, CH, np.random.default_rng((15, i)))
            assert t.verdict == ACC and t.mac_ok is True
            assert t.accesses == {"verifier": 2, "intruder": 2}

    def test_vs_pi3_unblocked_below_full_sampling_gathers_the_capture(self, monkeypatch):
        # ceil(0.9 * 3) = 3 covers the source but k = 2 < n = 3: the intruder
        # captures every position of every row, and the response is that
        # capture at each row's sampled positions, not a read of them.
        cfg = ProtocolConfig("pi3", e0=1000.0, k=2, beta=0.4, brm=BrmParams(lam=0.9, n=3))
        rows = 16
        reads = []
        read = Session.read

        def recording_read(s, party, positions=None, where=None):
            out = read(s, party, positions, where)
            reads.append((s, party, positions, out.copy()))
            return out

        monkeypatch.setattr(Session, "read", recording_read)
        block = attack_tfa_relay(cfg, replace(RELAY, intruder_d=6e4), CH,
                                 np.random.default_rng(29), 29, rows=rows)
        [(s, party, positions, capture)] = reads
        assert party == "intruder"
        np.testing.assert_array_equal(positions, np.arange(cfg.brm.n))
        np.testing.assert_array_equal(block.accesses["intruder"], np.full(rows, cfg.brm.n))
        assert (s.sampled != np.arange(cfg.k)).any()  # the gather is no identity here
        np.testing.assert_array_equal(block.response,
                                      np.take_along_axis(capture, s.sampled, axis=1))
        assert block.hamming.any()  # the 60 km intruder's errors reach the response
        # The block's transcripts as the relay drew them when it gathered at
        # every config, k = n included.
        lines = "\n".join(json.dumps(block.transcript(i).to_json_dict(), sort_keys=True)
                          for i in range(rows))
        assert hashlib.md5(lines.encode()).hexdigest() == "c0b40c94e8a18bef9545ea381cb03940"


class TestTfaSampling:
    CFG = pi3_config(lam=0.4, k=100)

    def test_expected_errors_scale_with_unknown_fraction(self):
        d_c, d_r = 4e4, 8e4
        e = transmit_power_for_claim(d_c, self.CFG.e0, CH)
        p_b = bit_error_prob(snr_at_distance(e, d_r, CH))
        lam = self.CFG.brm.lam
        trials = 800
        hams = []
        for i in range(trials):
            t = attack_tfa_sampling(self.CFG, tfa("tfa-sampling", d_c, d_r), CH,
                                    np.random.default_rng((14, i)))
            hams.append(t.hamming)
        expected = (1 - lam) * p_b * self.CFG.k
        assert np.mean(hams) == pytest.approx(expected, rel=0.12)

    def test_intruder_reads_exactly_the_cap(self):
        t = attack_tfa_sampling(self.CFG, tfa("tfa-sampling"), CH, np.random.default_rng(15))
        assert t.retrieval_cap == self.CFG.brm.retrieval_cap
        assert t.accesses["prover"] <= self.CFG.brm.retrieval_cap

    def test_first_vs_random_indices_indistinguishable(self):
        # the sampler key is independent of the intruder's choice
        d_c, d_r = 4e4, 8e4
        trials = 1500
        r_first = rate(
            lambda r: attack_tfa_sampling(self.CFG, tfa("tfa-sampling", d_c, d_r, "first"), CH, r),
            trials, seed0=16,
        )
        r_rand = rate(
            lambda r: attack_tfa_sampling(self.CFG, tfa("tfa-sampling", d_c, d_r, "random"), CH,
                                          r),
            trials, seed0=17,
        )
        pooled = (r_first + r_rand) / 2
        sd = math.sqrt(max(2 * pooled * (1 - pooled) / trials, 1e-9))
        assert abs(r_first - r_rand) < 4 * sd + 1e-9

    def test_high_rate_approaches_honest(self):
        # lam -> 1: the intruder hands over almost every source bit
        cfg = pi3_config(lam=0.99, k=99)
        got = rate(lambda r: attack_tfa_sampling(cfg, tfa("tfa-sampling", 4e4, 9.9e4), CH, r), 300,
                   seed0=18)
        assert got > 0.95


def _majority_prior_llr_reference(size):
    """The first _majority_prior_llr: tails summed term by term, over 2.0**others
    (O(m**2) and an OverflowError past m = 1024)."""
    need = math.ceil(size / 2)
    others = size - 1
    p1, p0 = [
        sum(math.comb(others, t) for t in range(max(0, need - u), others + 1)) / 2.0**others
        for u in (1, 0)
    ]
    eps = 1e-300
    llr_if_one = math.log(max(p1, eps)) - math.log(max(p0, eps))
    llr_if_zero = math.log(max(1 - p1, eps)) - math.log(max(1 - p0, eps))
    return llr_if_one, llr_if_zero


class TestMajorityPrior:
    def test_matches_summed_tails(self):
        for m in range(1, 1025):
            assert _majority_prior_llr(m) == _majority_prior_llr_reference(m), m

    @pytest.mark.parametrize("m", [10**4, 10**4 + 1])
    def test_large_blocks_finite_and_fast(self, m):
        start = time.perf_counter()
        one, zero = _majority_prior_llr(m)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(one) and math.isfinite(zero)
        assert one > 0 > zero
        # against scipy's binomial tails, Pr(majority = 1 | bit = u)
        need = math.ceil(m / 2)
        p1, p0 = (binom.sf(need - u - 1, m - 1, 0.5) for u in (1, 0))
        assert one == pytest.approx(math.log(p1 / p0), rel=1e-9)
        assert zero == pytest.approx(math.log((1 - p1) / (1 - p0)), rel=1e-9)

    def test_matches_exact_integer_tails(self):
        # Every size up to 20,001 and one of 100,001 against the exact integer
        # form, its central coefficients C(N, floor(N/2)) built one N at a time.
        centre = 1  # C(0, 0)
        for others in range(20_001):
            self._check_exact(others + 1, centre)
            # C(2h + 1, h) = C(2h, h) (2h + 1)/(h + 1); C(2h + 2, h + 1) = 2 C(2h + 1, h)
            h = others // 2
            centre = centre * (others + 1) // (h + 1) if others % 2 == 0 else 2 * centre
        self._check_exact(100_001, math.comb(100_000, 50_000))

    @staticmethod
    def _check_exact(size, centre):
        whole = 1 << (size - 1)
        twice1, twice0 = ((whole + centre, whole - centre) if size % 2
                          else (whole + 2 * centre, whole))
        p1, p0 = twice1 / (2 * whole), twice0 / (2 * whole)

        def log(p):
            return math.log(max(p, 1e-300))

        want = (log(p1) - log(p0), log(1 - p1) - log(1 - p0))
        assert _majority_prior_llr(size) == pytest.approx(want, rel=1e-9), size

    def test_ten_million_positions_in_ten_ms(self):
        start = time.perf_counter()
        one, zero = _majority_prior_llr.__wrapped__(10**7 + 1)
        assert time.perf_counter() - start < 0.01
        assert one > 0 > zero


def _partition(n, cap):
    """(starts, sizes) of the cap blocks of n, from Python ints: the first
    n % cap blocks hold n // cap + 1 positions, the others n // cap."""
    small, extra = divmod(n, cap)
    sizes = [small + 1] * extra + [small] * (cap - extra)
    return [0, *itertools.accumulate(sizes)][:-1], sizes


def _digest(strategy, source, starts, sizes):
    """The intruder's per-block parity or majority bit of the source (of each
    row of a (rows, n) source): the whole-source digest the attack's law is
    checked against."""
    if isinstance(strategy, ParitySketchStrategy):
        return np.bitwise_xor.reduceat(source, starts, axis=-1)
    ones = np.add.reduceat(source, starts, axis=-1, dtype=np.int64)
    return (2 * ones >= sizes).astype(np.uint8)


def _loop_digest_path(strategy, o, cap, sampled):
    """The first tfa-general digest path, one Python step per block and per
    sampled position: (digest, block of each sampled position, its block's
    size, the majority prior llr of each sampled position)."""
    n = o.size
    starts, sizes = _partition(n, cap)
    slices = [slice(a, a + m) for a, m in zip(starts, sizes)]
    if isinstance(strategy, ParitySketchStrategy):
        digest = np.array([int(np.bitwise_xor.reduce(o[s])) for s in slices], dtype=np.uint8)
    else:
        digest = np.array(
            [int(2 * int(o[s].sum()) >= (s.stop - s.start)) for s in slices], dtype=np.uint8
        )
    block_of = np.zeros(n, dtype=np.int64)
    for b, s in enumerate(slices):
        block_of[s] = b
    sizes = np.array([s.stop - s.start for s in slices], dtype=np.int64)
    prior_table = {int(m): _majority_prior_llr(int(m)) for m in np.unique(sizes)}
    llr_prior = np.empty(sampled.size, dtype=np.float64)
    for j, pos in enumerate(sampled):
        one_llr, zero_llr = prior_table[int(sizes[block_of[pos]])]
        llr_prior[j] = one_llr if digest[block_of[pos]] else zero_llr
    return digest, block_of[sampled], sizes[block_of[sampled]], llr_prior


class TestDigestPathOracle:
    # caps that divide n, caps that do not, singleton blocks and blocks past 1024
    @pytest.mark.parametrize("n,cap", [
        (400, 120), (400, 100), (7, 3), (5, 4), (101, 10), (1030, 103),
        (20000, 10), (64, 64), (1000, 999),
    ])
    @pytest.mark.parametrize("strategy", [ParitySketchStrategy(), BlockMajorityStrategy()])
    def test_matches_loop_form(self, n, cap, strategy):
        rng = np.random.default_rng([n, cap])
        o = rng.integers(0, 2, n, dtype=np.uint8)
        sampled = rng.choice(n, size=min(cap, n), replace=False)
        want_digest, want_block, want_size, want_prior = _loop_digest_path(
            strategy, o, cap, sampled
        )
        starts, sizes = _partition(n, cap)
        digest = _digest(strategy, o, starts, np.array(sizes))
        block, large, sizes = _blocks(n, cap, sampled)
        assert digest.dtype == np.uint8
        np.testing.assert_array_equal(digest, want_digest)
        np.testing.assert_array_equal(block, want_block)
        np.testing.assert_array_equal(np.array(sizes)[large], want_size)
        # Bit-identical floats: each rate is a selection from the table, which
        # applies the error law to the prior the loop selected.
        snr = 0.7
        rates = _majority_error_rates(snr, sizes)
        root = math.sqrt(snr)
        for bit, sign in ((1, 1.0), (0, -1.0)):
            want = [0.5 * math.erfc(root + sign * prior / (4.0 * root)) for prior in want_prior]
            got = rates[large, digest[block], bit]
            assert got.tobytes() == np.array(want).tobytes()

    def test_prior_cached_by_block_size(self):
        _majority_prior_llr(10**5)
        hits = _majority_prior_llr.cache_info().hits
        _majority_prior_llr(10**5)
        assert _majority_prior_llr.cache_info().hits == hits + 1


def _gaussian_decoder(y, amp, sigma, prior):
    """The block-majority prover's per-bit maximum-likelihood decision on its
    Gaussian samples ``y`` at amplitude ``amp``, each with its digest's
    prior llr; a tie goes to the sample's sign."""
    total = 4.0 * amp * y / sigma + prior
    return np.where(total > 0, 1, np.where(total < 0, 0, bpsk_demodulate(y))).astype(np.uint8)


def _whole_source_tfa_general(cfg, scenario, ch, rng, analog_reception):
    """One run of the digest attack as first written, the whole-source
    engine: the row's whole source is drawn in position order before the
    prover reads, and the digest is ``_digest`` of it; the block-majority
    prover decodes its analog reception with the Gaussian decoder."""
    strategy, d_r = scenario.tfa_strategy, scenario.d_real
    s = Session(cfg, scenario, ch, rng)
    starts, sizes = (np.array(v) for v in _partition(s.n, s.cap))
    digest = _digest(strategy, s._source.at(np.arange(s.n))[None], starts, sizes)
    block = np.searchsorted(starts, s.sampled, side="right") - 1
    if isinstance(strategy, ParitySketchStrategy):
        s.receive("prover", d_r)
        response = s.read("prover").copy()
        singleton = sizes[block] == 1
        response[singleton] = np.take_along_axis(digest, block, axis=1)[singleton]
    elif scenario.noiseless:
        response = bpsk_demodulate(analog_reception(s, d_r))
    else:
        y = analog_reception(s, d_r)
        amp = attenuate(math.sqrt(s.power_w), d_r, ch)
        llr = np.array([_majority_prior_llr(int(m)) for m in sizes])
        prior = llr[block, 1 - np.take_along_axis(digest, block, axis=1)]
        response = _gaussian_decoder(y, amp, ch.sigma, prior)
    return s.decide(response, s.sign(response, scenario.d_claim))


def _loop_block_majorities(bits, block, size, rng):
    """``_block_majorities`` one (row, block) at a time, with the majority
    law summed term by term; ``size`` is each position's block size."""
    out = np.empty(bits.shape, dtype=np.uint8)
    for r in range(bits.shape[0]):
        for b in dict.fromkeys(block[r].tolist()):  # distinct, in order
            where = block[r] == b
            m, j, s = int(size[r, where][0]), int(where.sum()), int(bits[r, where].sum())
            need = math.ceil(m / 2) - s
            p = sum(math.comb(m - j, t) for t in range(max(0, need), m - j + 1)) / 2 ** (m - j)
            out[r, where] = rng.random() < p
    return out


class TestPartition:
    """``_blocks`` against the partition taken in Python ints, at sources
    past 2^62 positions, where float bounds and (position * cap) // n in
    int64 both go wrong."""

    @pytest.mark.parametrize("n, cap", [(2**62, 8), (2**62 + 5, 8), (2**63 - 1, 8),
                                        (2**63 - 1, 1), (2**63 - 1, 2**40 + 3), (7, 3), (5, 5)])
    def test_matches_python_int_partition(self, n, cap):
        small, extra = divmod(n, cap)
        edge = extra * (small + 1)  # the first position of a small block

        def block_of(p):
            return p // (small + 1) if p < edge else extra + (p - edge) // small

        rng = np.random.default_rng(cap)
        edges = [0, n - 1] + [b * small + min(b, extra) + e for b in (1, cap // 2, cap - 1)
                              for e in (-1, 0)]
        positions = sorted({p for p in edges if 0 <= p < n}
                           | {int(x) for x in rng.integers(0, n, 200, dtype=np.int64)})
        block, large, sizes = _blocks(n, cap, np.array(positions, dtype=np.int64)[None])
        want = [block_of(p) for p in positions]
        assert block[0].tolist() == want
        assert [sizes[c] for c in large[0].tolist()] == [small + (b < extra) for b in want]
        assert sizes == ((small, small + 1) if extra else (small,))

    def test_digest_attacks_run_past_two_to_the_62(self):
        cfg = ProtocolConfig("pi3", e0=2000.0, k=8, beta=0.2,
                             brm=BrmParams(lam=2.0**-59, n=2**62))
        assert cfg.brm.retrieval_cap == 8
        for strategy in (ParitySketchStrategy(), BlockMajorityStrategy()):
            t = attack_tfa_general(cfg, tfa("tfa-general", strategy=strategy), CH,
                                   np.random.default_rng(30))
            assert t.accesses == {"verifier": 8, "prover": 8}


class TestMajorityErrorLaw:
    """The block-majority prover's hard answer against the Gaussian decoder it
    stands for, one (block size, digest, source bit) cell at a time.  In
    each cell the drawn errors and the decoder's errors on analog samples of
    the same bits each pass an exact two-sided binomial test against the
    cell's predicted rate, and a Fisher test against each other."""

    ROWS = 4000
    CLAIM = 4e4
    POWER = transmit_power_for_claim(CLAIM, 2000.0, CH)
    # SNR 0.3 and 1, a loss past the float range (SNR 0) and one that
    # underflows (SNR inf).
    DISTANCES = [(POWER / (0.3 * CH.xi * CH.sigma)) ** (1 / CH.alpha),
                 (POWER / (1.0 * CH.xi * CH.sigma)) ** (1 / CH.alpha), 1e300, 1e-200]

    @pytest.mark.parametrize("n, cap", [(20, 12), (40, 12), (120_005, 12)],
                             ids=["sizes-1-2", "sizes-3-4", "sizes-1e4"])
    @pytest.mark.parametrize("d", DISTANCES, ids=["snr-0.3", "snr-1", "snr-0", "snr-inf"])
    def test_cell_error_counts(self, monkeypatch, n, cap, d):
        cfg = ProtocolConfig("pi3", e0=2000.0, k=cap, beta=0.2, brm=BrmParams(lam=cap / n, n=n))
        assert cfg.brm.retrieval_cap == cap
        seen = []
        majorities = attacks._block_majorities

        def spy(bits, block, large, sizes, rng):
            digest = majorities(bits, block, large, sizes, rng)
            seen.append((bits.copy(), large, sizes, digest))
            return digest

        monkeypatch.setattr(attacks, "_block_majorities", spy)
        scenario = tfa("tfa-general", self.CLAIM, d, BlockMajorityStrategy())
        block = attack_tfa_general(cfg, scenario, CH, np.random.default_rng([n, 31]),
                                   rows=self.ROWS)
        [(bits, large, sizes, digest)] = seen
        np.testing.assert_array_equal(block.challenge, bits)
        snr = snr_at_distance(self.POWER, d, CH)
        assert snr == {1e300: 0.0, 1e-200: math.inf}.get(d, snr)
        rates = _majority_error_rates(snr, sizes)
        hard = block.response != bits
        y = propagate(bpsk_modulate(bits, self.POWER), d, CH, np.random.default_rng([n, 32]))
        amp = attenuate(math.sqrt(self.POWER), d, CH)
        llr = np.array([_majority_prior_llr(m) for m in sizes])
        analog = _gaussian_decoder(y, amp, CH.sigma, llr[large, 1 - digest]) != bits
        for c, dig, bit in itertools.product(range(len(sizes)), (0, 1), (0, 1)):
            cell = (large == c) & (digest == dig) & (bits == bit)
            m = int(np.count_nonzero(cell))
            one = float(_majority_one_prob(np.array([sizes[c]]), np.array([1]),
                                           np.array([bit]))[0])
            if (one if dig else 1 - one) == 0:  # no block of this size holds the cell
                assert m == 0
                continue
            assert m >= 500, (sizes[c], dig, bit)
            rate = rates[c, dig, bit]
            counts = [int(np.count_nonzero(errors[cell])) for errors in (hard, analog)]
            for count in counts:
                assert binomtest(count, m, rate).pvalue > 1e-4, (sizes[c], dig, bit, count, m)
            table = [[counts[0], m - counts[0]], [counts[1], m - counts[1]]]
            assert fisher_exact(table).pvalue > 1e-4, (sizes[c], dig, bit, table)

    def test_rates_at_snr_zero_and_infinity(self):
        # At SNR 0 the answer is the prior's sign (no ZeroDivisionError); at
        # SNR inf it is the source bit.
        sizes = (3, 4)
        zero = _majority_error_rates(0.0, sizes)
        for c, size in enumerate(sizes):
            for dig, prior in zip((1, 0), _majority_prior_llr(size)):
                answer = int(prior > 0)
                assert zero[c, dig].tolist() == [float(answer != 0), float(answer != 1)]
        assert not _majority_error_rates(math.inf, sizes).any()


class TestDigestLaw:
    """The digests drawn from their law given the sampled bits, against brute
    force and against the whole-source engine."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_probabilities_match_enumeration(self, m):
        # Block of m positions, the first j sampled holding ``pattern``;
        # every assignment of the other m - j bits is equally likely.
        for j in range(m + 1):
            rest = np.array(list(itertools.product((0, 1), repeat=m - j)), dtype=np.int64)
            for pattern in itertools.product((0, 1), repeat=j):
                s = sum(pattern)
                ones = s + rest.sum(axis=1)
                majority = Fraction(int(np.count_nonzero(2 * ones >= m)), rest.shape[0])
                parity = Fraction(int(np.count_nonzero(ones % 2)), rest.shape[0])
                got = _majority_one_prob(np.array([m]), np.array([j]), np.array([s]))
                assert abs(Fraction(float(got[0])) - majority) <= 1e-12, (m, j, pattern)
                # The parity decoder's premise: uniform unless every bit is sampled.
                assert parity == (Fraction(s % 2) if j == m else Fraction(1, 2)), (m, j, pattern)

    @pytest.mark.parametrize("n, cap, k, rows", [(20, 12, 12, 5), (40, 12, 12, 7),
                                                 (10, 1, 1, 6), (1030, 103, 103, 3)])
    def test_digests_match_loop_form(self, n, cap, k, rows):
        rng = np.random.default_rng([n, cap, rows])
        sampled = np.sort(np.stack([rng.choice(n, k, replace=False) for _ in range(rows)]),
                          axis=1)
        bits = rng.integers(0, 2, (rows, k), dtype=np.uint8)
        block, large, sizes = _blocks(n, cap, sampled)
        got = _block_majorities(bits, block, large, sizes, np.random.default_rng(5))
        size = np.array(sizes)[large]
        want = _loop_block_majorities(bits, block, size, np.random.default_rng(5))
        np.testing.assert_array_equal(got, want)

    TRIALS = 1500

    @pytest.mark.parametrize("lam, strategy, noiseless", [
        (0.6, ParitySketchStrategy(), False),
        (0.6, ParitySketchStrategy(), True),
        (0.6, BlockMajorityStrategy(), False),
        (0.6, BlockMajorityStrategy(), True),
        (0.3, BlockMajorityStrategy(), False),
    ], ids=["parity-n20", "parity-n20-noiseless", "majority-n20", "majority-n20-noiseless",
            "majority-n40"])
    def test_accepts_match_whole_source_engine(self, lam, strategy, noiseless,
                                               analog_reception):
        # k = 12 and n = 20 (blocks of one and two positions) or n = 40
        # (blocks of three and four); the noisy points sit where the digest
        # moves the accept rate off the plain channel's.
        cfg = pi3_config(lam=lam, k=12, beta=0.2)
        scenario = Scenario("tfa-general", 4e4, 1e5, tfa_strategy=strategy, noiseless=noiseless)
        got = estimate_rates(scenario, cfg, None, CH, self.TRIALS, master_seed=77).accepts
        want = round(self.TRIALS * rate(
            lambda r: _whole_source_tfa_general(cfg, scenario, CH, r, analog_reception),
            self.TRIALS, seed0=78))
        if not noiseless:
            assert 0.1 * self.TRIALS < want < 0.9 * self.TRIALS
        table = [[got, self.TRIALS - got], [want, self.TRIALS - want]]
        assert fisher_exact(table).pvalue > 1e-4, table


class TestTfaGeneral:
    CFG = pi3_config(lam=0.4, k=100)

    def test_sampling_strategy_containment(self):
        a = attack_tfa_general(self.CFG, tfa("tfa-general", strategy="first"), CH,
                               np.random.default_rng(19))
        b = attack_tfa_sampling(self.CFG, tfa("tfa-sampling"), CH, np.random.default_rng(19))
        assert a.verdict == b.verdict
        np.testing.assert_array_equal(a.response, b.response)

    def test_parity_sketch_no_better_than_channel(self):
        # threshold placed where the plain-demodulation rate is sizeable, so
        # an information gain from the parity digest would be visible
        cfg = pi3_config(lam=0.4, k=100, beta=0.2)
        d_c, d_r = 4e4, 8e4
        e = transmit_power_for_claim(d_c, cfg.e0, CH)
        p_b = bit_error_prob(snr_at_distance(e, d_r, CH))
        expected = exact_binomial_tail_lower(cfg.k, cfg.beta, p_b)
        assert 0.05 < expected < 0.8
        trials = 1200
        r_parity = rate(
            lambda r: attack_tfa_general(cfg, tfa("tfa-general", d_c, d_r, ParitySketchStrategy()),
                                         CH, r),
            trials, seed0=20,
        )
        sd = math.sqrt(expected * (1 - expected) / trials)
        assert r_parity <= expected + 4 * sd

    def test_block_majority_runs_and_stays_bounded(self):
        d_c, d_r = 4e4, 8e4
        trials = 600
        r_maj = rate(
            lambda r: attack_tfa_general(
                self.CFG, tfa("tfa-general", d_c, d_r, BlockMajorityStrategy()), CH, r),
            trials, seed0=22,
        )
        r_samp = rate(
            lambda r: attack_tfa_sampling(self.CFG, tfa("tfa-sampling", d_c, d_r), CH, r), trials,
            seed0=23
        )
        # index sampling is the strongest implemented digest
        sd = math.sqrt(max(r_samp * (1 - r_samp) / trials, 1e-9))
        assert r_maj <= r_samp + 4 * sd + 0.02

    def test_block_majority_with_blocks_past_1024(self):
        # cap 10 over n = 20,000: blocks of 2,000 positions
        cfg = pi3_config(lam=5e-4, k=10, beta=0.2)
        t = attack_tfa_general(cfg, tfa("tfa-general", strategy=BlockMajorityStrategy()), CH,
                               np.random.default_rng(24))
        assert t.response.size == 10
        assert t.accesses["prover"] == 10 and t.accesses["verifier"] == 10

    def test_unknown_index_choice_rejected(self):
        with pytest.raises(ValueError, match="index choice"):
            IndexSamplingStrategy("last")

    def test_library_contents(self):
        assert {s.name for s in STRATEGIES} == {"index-sampling", "parity-sketch", "block-majority"}

    def test_strategy_library_bounded_at_feasible_parameters(self):
        # every implemented digest stays under the false-accept budget when
        # the parameters satisfy the arbitrary-digest feasibility condition
        from dbvsim.bounds import DbvSpec
        from dbvsim.optimize import optimize_brm

        spec = DbvSpec(psi=4.0, eps_fa=1e-2, eps_fr=1e-2)
        opt = optimize_brm(spec, CH, 0.2, "general")
        cfg = ProtocolConfig(
            "pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
            brm=BrmParams(lam=0.2, n=opt.n_star, gamma=spec.eps_fa / 100),
        )
        d_c = 2e4
        trials = 1000
        for i, strategy in enumerate(STRATEGIES):
            got = rate(
                lambda r, s=strategy: attack_tfa_general(
                    cfg, tfa("tfa-general", d_c, spec.psi * d_c, s), CH, r
                ),
                trials,
                seed0=1000 * i,
            )
            assert got <= spec.eps_fa + 4 * math.sqrt(spec.eps_fa / trials), strategy.name

    def test_wrong_protocol_rejected(self):
        from dbvsim.protocols import ProtocolConfigError

        with pytest.raises(ProtocolConfigError):
            attack_tfa_general(PI2, tfa("tfa-general", strategy=ParitySketchStrategy()), CH,
                               np.random.default_rng(24))


def _brm_dense_config() -> ProtocolConfig:
    """The pi3 design at psi=2, eps=1e-2, lambda=0.3 sampling: k=160, n=534."""
    opt = optimize_brm(DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2), CH, 0.3, "sampling")
    return ProtocolConfig("pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
                          brm=BrmParams(lam=0.3, n=opt.n_star))


class TestLazySourceAgainstExact:
    """The lazily drawn source keeps every closed-form acceptance rate.

    Distances are chosen where the rates are informative; each accept count
    must pass the exact two-sided binomial test against ``analytic_exact``.
    """

    TRIALS = 1500

    @pytest.mark.parametrize("scenario", [
        Scenario("honest", 5e4, 5e4),
        Scenario("honest", 5e4, 6.5e4),
        Scenario("dfa", 5e4, 6.5e4),
        Scenario("tfa-sampling", 5e4, 6.5e4),
        Scenario("tfa-sampling", 5e4, 6.5e4, tfa_strategy=IndexSamplingStrategy("random")),
        Scenario("tfa-relay", 5e4, 1e5),
    ], ids=["honest", "honest-far", "dfa", "tfa-sampling-first", "tfa-sampling-random",
            "relay"])
    def test_accepts_match_exact(self, scenario):
        cfg = _brm_dense_config()
        assert (cfg.k, cfg.brm.n) == (160, 534)
        s = estimate_rates(scenario, cfg, None, CH, self.TRIALS, master_seed=4242)
        if scenario.kind == "tfa-relay":
            assert s.analytic_exact == 0.0 and s.blocked == self.TRIALS and s.accepts == 0
            return
        assert binomtest(s.accepts, self.TRIALS, s.analytic_exact).pvalue > 1e-4, (
            s.accepts, s.analytic_exact)

    def test_informative_points(self):
        # The far honest, dfa and tfa-sampling points sit where a wrong
        # per-bit error rate or overlap would move the accept count.
        cfg = _brm_dense_config()
        from dbvsim.montecarlo import exact_success_probability
        for sc in (Scenario("dfa", 5e4, 6.5e4), Scenario("tfa-sampling", 5e4, 6.5e4)):
            assert 0.05 < exact_success_probability(sc, cfg, CH) < 0.95


class TestOverlap:
    """``_overlap`` on the sorted picked set agrees with an n-length array oracle."""

    @staticmethod
    def oracle(n, picked, sampled, bits):
        known = np.full(n, -1, dtype=np.int8)
        known[picked] = bits
        return known[sampled]

    @pytest.mark.parametrize("n,cap,k", [(534, 160, 160), (400, 120, 120), (50, 49, 10),
                                         (10**5, 300, 30)])
    def test_matches_known_array(self, n, cap, k):
        rng = np.random.default_rng(n + cap)
        for _ in range(50):
            picked = np.sort(rng.choice(n, cap, replace=False))
            sampled = np.sort(rng.choice(n, k, replace=False))
            bits = rng.integers(0, 2, cap, dtype=np.int8)
            at, hit = _overlap(picked, sampled)
            want = self.oracle(n, picked, sampled, bits)
            np.testing.assert_array_equal(hit, want >= 0)
            np.testing.assert_array_equal(bits[at[hit]], want[hit])

    def test_first_picks(self):
        picked = np.arange(5)
        at, hit = _overlap(picked, np.array([0, 3, 4, 5, 9]))
        np.testing.assert_array_equal(hit, [True, True, True, False, False])
        np.testing.assert_array_equal(at[hit], [0, 3, 4])


class TestPaperScale:
    """pi3 at n=2e9 (lambda=1e-7, k=200): a trial's memory grows with the
    positions read, not with n.  The block-majority digest's peak is checked
    at n=1.03e6, and its run time at n=2e9, where blocks hold 10^7
    positions."""

    N = 2 * 10**9
    LAM = 1e-7
    PEAK_BYTES = 64 * 2**20

    def config(self):
        return ProtocolConfig("pi3", e0=2000.0, k=math.ceil(self.LAM * self.N), beta=0.1,
                              brm=BrmParams(lam=self.LAM, n=self.N))

    @pytest.mark.parametrize("kind", ["honest", "dfa", "tfa-sampling-first",
                                      "tfa-sampling-random", "parity-sketch"])
    def test_trial_peak_memory(self, kind):
        import tracemalloc

        cfg = self.config()
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            if kind == "honest":
                t = run_pi3(cfg, Scenario("honest", 4e4, 4e4), CH, rng)
            elif kind == "dfa":
                t = attack_dfa(cfg, Scenario("dfa", 4e4, 6e4), CH, rng)
            elif kind == "parity-sketch":
                t = attack_tfa_general(cfg, tfa("tfa-general", strategy=ParitySketchStrategy()),
                                       CH, rng)
            else:
                t = attack_tfa_sampling(cfg, tfa("tfa-sampling", strategy=kind.split("-")[-1]),
                                        CH, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES, peak
        assert t.source_bits == self.N and t.accesses["verifier"] == cfg.k == 200
        assert max(t.accesses.values()) <= cfg.brm.retrieval_cap

    def test_block_majority_prior_at_ten_million_positions(self):
        # The prior over blocks of 10^7 positions once took minutes in math.comb.
        cfg = self.config()
        start = time.perf_counter()
        t = attack_tfa_general(cfg, tfa("tfa-general", strategy=BlockMajorityStrategy()), CH,
                               np.random.default_rng(9))
        assert time.perf_counter() - start < 1.0
        assert t.source_bits == self.N and t.accesses["verifier"] == cfg.k == 200

    def test_relay_raises_before_drawing(self):
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(RetrievalCapError) as e:
            attack_tfa_relay(self.config(), RELAY, CH, rng)
        assert (e.value.requested, e.value.cap) == (self.N, 200)
        assert rng.bit_generator.state == state

    def test_sampling_oracle_is_o_k(self, monkeypatch, exact_sampling_mixture):
        class OrderN:
            def __getattr__(self, name):
                raise AssertionError(f"scipy.stats.hypergeom.{name} is O(n)")

        monkeypatch.setattr(stats, "hypergeom", OrderN())
        cfg, s = self.config(), Scenario("tfa-sampling", 4e4, 6e4)
        got = exact_success_probability(s, cfg, CH)
        exact = exact_sampling_mixture(s, cfg, CH)
        assert exact > 0
        assert float(abs(Fraction(got) - exact) / exact) <= 1e-10, (got, float(exact))

    def test_block_majority_peak_memory(self):
        # n = 1.03e6, k = 103: the whole-source digest peaked at 9.3 MB here.
        import tracemalloc

        cfg = ProtocolConfig("pi3", e0=2000.0, k=103, beta=0.1,
                             brm=BrmParams(lam=1e-4, n=1_030_000))
        scenario = tfa("tfa-general", strategy=BlockMajorityStrategy())
        tracemalloc.start()
        try:
            t = attack_tfa_general(cfg, scenario, CH, np.random.default_rng(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert t.source_bits == cfg.brm.n and t.accesses == {"verifier": 103, "prover": 103}
