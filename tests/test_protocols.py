import gc
import importlib.util
import json
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbvsim import protocols
from dbvsim.channel import (
    DEFAULT_CHANNEL,
    ClaimRangeError,
    attenuate,
    bit_error_prob,
    bit_errors,
    bpsk_demodulate,
    bpsk_modulate,
    random_bits,
    snr_at_distance,
)
from dbvsim.montecarlo import Scenario, _block_rng, block_rows, run_block, run_trial
from dbvsim.primitives import (
    MacKey,
    MacKeys,
    SamplerKey,
    encode_response_claim,
    mac_sign,
    mac_verify,
)
from dbvsim.protocols import (
    ACC,
    REJ,
    BrmParams,
    ProtocolConfig,
    ProtocolConfigError,
    RetrievalAudit,
    RetrievalCapError,
    Session,
    SessionKeys,
    brm_source_emit,
    check_mac_strength,
    run_pi1,
    run_pi2,
    run_pi3,
    run_protocol,
    verify_response,
)

CH = DEFAULT_CHANNEL
PI1 = ProtocolConfig("pi1", e0=2000.0, k=200, beta=0.1)
PI2 = ProtocolConfig("pi2", e0=2000.0, k=200, beta=0.1)


def pi3_config(lam=0.3, k=120, **kw):
    n = math.ceil(k / lam)
    return ProtocolConfig(
        "pi3", e0=2000.0, k=k, beta=0.1, brm=BrmParams(lam=lam, n=n, **kw)
    )


class TestVerifyResponse:
    def test_identical_accepts(self):
        m = np.ones(10, dtype=np.uint8)
        assert verify_response(m, m, 0.2) == ACC

    def test_boundary_inclusive(self):
        # beta*k = 2 exactly: 2 errors accepted, 3 rejected
        m = np.zeros(10, dtype=np.uint8)
        m2 = m.copy()
        m2[:2] = 1
        assert verify_response(m, m2, 0.2) == ACC
        m3 = m.copy()
        m3[:3] = 1
        assert verify_response(m, m3, 0.2) == REJ

    def test_fraction_threshold_exact(self):
        m = np.zeros(3, dtype=np.uint8)
        m2 = m.copy()
        m2[0] = 1
        assert verify_response(m, m2, Fraction(1, 3)) == ACC
        m3 = m.copy()
        m3[:2] = 1
        assert verify_response(m, m3, Fraction(1, 3)) == REJ

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_response(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8), 0.1)

    @given(
        st.integers(1, 300),
        st.integers(0, 300),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_threshold_rule_property(self, k, flips, beta):
        flips = min(flips, k)
        m = np.zeros(k, dtype=np.uint8)
        m_hat = m.copy()
        m_hat[:flips] = 1
        want = ACC if flips <= math.floor(beta * k + 1e-12) else REJ
        assert verify_response(m, m_hat, beta) == want


class TestRetrievalAudit:
    def test_counts_distinct_reads(self):
        audit = RetrievalAudit(np.arange(10).__getitem__, n=10, cap=5, party="p")
        audit.read(np.array([0, 1, 2]))
        audit.read(np.array([1, 2, 3]))  # re-reads are free
        assert audit.accessed == 4
        assert audit.accessed_per_row.tolist() == [4]

    def test_cap_counted_per_row(self):
        # Key r * n + p is position p of row r.
        audit = RetrievalAudit(np.arange(30).__getitem__, n=10, cap=2, party="p", rows=3)
        audit.read(np.array([0, 11, 12]))
        audit.read(np.array([0, 12, 25]))
        assert audit.accessed_per_row.tolist() == [1, 2, 1]
        with pytest.raises(RetrievalCapError) as e:
            audit.read(np.array([3, 13]))
        assert (e.value.requested, e.value.cap) == (3, 2)
        assert audit.accessed_per_row.tolist() == [1, 2, 1]  # nothing counted

    def test_cap_enforced(self):
        audit = RetrievalAudit(np.arange(10).__getitem__, n=10, cap=3, party="prover")
        with pytest.raises(RetrievalCapError) as e:
            audit.read(np.arange(4))
        assert e.value.party == "prover"
        assert e.value.cap == 3

    def test_one_row_cap_counts_new_positions_only(self):
        # One row counts a read's new positions without cutting them at row
        # bounds: re-reads stay free, and the read to cap + 1 is refused.
        audit = RetrievalAudit(np.arange(10).__getitem__, n=10, cap=4, party="prover")
        audit.read(np.array([2, 5]))
        audit.read(np.array([5, 2, 7]))
        assert audit.accessed_per_row.tolist() == [3]
        audit.read(np.array([7, 9, 2]))
        assert audit.accessed_per_row.tolist() == [4]
        audit.read(np.array([9, 5]))
        with pytest.raises(RetrievalCapError) as e:
            audit.read(np.array([2, 5, 7, 9, 0]))
        assert (e.value.party, e.value.requested, e.value.cap) == ("prover", 5, 4)
        assert audit.accessed_per_row.tolist() == [4] and audit.accessed == 4


    @settings(max_examples=200, deadline=None)
    @example((1, (5, [{0, 3}, {1, 3, 4}])))
    @example((3, (1, [{2}, {0, 1}])))
    @given(st.integers(1, 12).flatmap(lambda rows: st.tuples(
        st.just(rows), st.integers(1, 40).flatmap(lambda n: st.tuples(
            st.just(n), st.lists(st.sets(st.integers(0, rows * n - 1)), min_size=1,
                                 max_size=3))))))
    def test_counts_equal_bincount(self, case):
        # The per-row counts cut the sorted keys at the row bounds r * n;
        # they must equal a bincount of key // n after any series of reads.
        rows, (n, reads) = case
        audit = RetrievalAudit(lambda keys: keys, n=n, cap=n, party="p", rows=rows)
        held = set()
        for read in reads:
            audit.read(np.array(sorted(read), dtype=np.int64))
            held |= read
            want = np.bincount(np.array(sorted(held), dtype=np.int64) // n, minlength=rows)
            np.testing.assert_array_equal(audit.accessed_per_row, want)


class TestLazyView:
    """RetrievalAudit as a memo: it draws each position once, on first read."""

    @staticmethod
    def recording(n=100, cap=100):
        asked = []

        def fill(pos):
            asked.append(pos.copy())
            return pos * 10

        return RetrievalAudit(fill, n=n, cap=cap, party="p"), asked

    def test_draws_new_positions_once_in_position_order(self):
        audit, asked = self.recording()
        np.testing.assert_array_equal(audit.read(np.array([7, 3, 3, 9])), [70, 30, 30, 90])
        np.testing.assert_array_equal(audit.read(np.array([9, 1, 7])), [90, 10, 70])
        assert [a.tolist() for a in asked] == [[3, 7, 9], [1]]
        assert audit.accessed == 4

    def test_rereads_draw_nothing(self):
        audit, asked = self.recording()
        held = np.arange(5)
        first = audit.read(held)
        assert audit.read(held) is first  # the held array itself
        np.testing.assert_array_equal(audit.read(np.array([4, 0])), [40, 0])
        assert len(asked) == 1

    def test_cap_checked_before_drawing(self):
        audit, asked = self.recording(cap=3)
        audit.read(np.array([1, 2]))
        with pytest.raises(RetrievalCapError) as e:
            audit.read(np.array([2, 5, 6]))
        assert (e.value.party, e.value.requested, e.value.cap) == ("p", 4, 3)
        assert len(asked) == 1 and audit.accessed == 2

    @pytest.mark.parametrize("bad", [[-1], [100], [3, 100]])
    def test_out_of_range_refused(self, bad):
        audit, asked = self.recording()
        with pytest.raises(IndexError):
            audit.read(np.array(bad))
        assert asked == []

    def test_empty_read(self):
        audit, asked = self.recording()
        assert audit.read(np.array([], dtype=np.int64)).size == 0
        assert asked == [] and audit.accessed == 0


class TestProtocolConfig:
    def test_pi3_requires_brm(self):
        with pytest.raises(ProtocolConfigError):
            ProtocolConfig("pi3", e0=1.0, k=10, beta=0.1)

    def test_pi3_k_n_consistency(self):
        ProtocolConfig("pi3", e0=1.0, k=30, beta=0.1, brm=BrmParams(lam=0.3, n=100))
        # n = ceil(k/lam) is also accepted even when ceil(lam*n) != k
        ProtocolConfig("pi3", e0=1.0, k=260, beta=0.1, brm=BrmParams(lam=0.3, n=867))
        with pytest.raises(ProtocolConfigError):
            ProtocolConfig("pi3", e0=1.0, k=50, beta=0.1, brm=BrmParams(lam=0.3, n=100))

    @pytest.mark.parametrize("protocol", ["pi1", "pi2"])
    def test_only_pi3_drops_the_mac(self, protocol):
        with pytest.raises(ProtocolConfigError):
            ProtocolConfig(protocol, e0=1.0, k=10, beta=0.1, use_mac=False)

    def test_unknown_protocol(self):
        with pytest.raises(ProtocolConfigError):
            ProtocolConfig("pi4", e0=1.0, k=10, beta=0.1)

    def test_mac_strength_check(self):
        weak = ProtocolConfig("pi2", e0=1.0, k=2000, beta=0.1, mac_bits=8)
        with pytest.raises(ProtocolConfigError):
            check_mac_strength(weak, 1e-3)
        check_mac_strength(PI2, 1e-3)  # 64-bit tag is plenty
        check_mac_strength(PI1, 1e-9)  # no MAC, nothing to check


class TestPi1:
    def test_noiseless_accepts_anywhere(self):
        rng = np.random.default_rng(0)
        t = run_pi1(PI1, Scenario("honest", 5e4, 9e4, noiseless=True), CH, rng)
        assert t.verdict == ACC
        assert t.hamming == 0
        np.testing.assert_array_equal(t.challenge, t.response)

    def test_claim_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ClaimRangeError):
            run_pi1(PI1, Scenario("honest", 2e5, 1e4), CH, rng)

    def test_deterministic_transcript(self):
        a = run_pi1(PI1, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(9), seed=9)
        b = run_pi1(PI1, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(9), seed=9)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_transcript_fixed_fields(self):
        t = run_pi1(PI1, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(1), seed=1)
        d = t.to_json_dict()
        for field in ("claim_m", "d_real_m", "challenge_hex", "response_hex",
                      "hamming", "verdict", "seed"):
            assert field in d
        assert d["verdict"] in (ACC, REJ)

    def test_schema_version_and_sampler_stream(self):
        from dbvsim.attacks import attack_mfa
        from dbvsim.primitives import SAMPLER_STREAM_VERSION
        from dbvsim.protocols import SOURCE_STREAM_VERSION, TRIAL_STREAM_VERSION

        t = run_pi1(PI1, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(1))
        d = t.to_json_dict()
        assert d["schema_version"] == "3" and "sampler_stream" not in d
        assert d["source_stream"] == SOURCE_STREAM_VERSION == 8
        cfg = pi3_config()
        for t in (
            run_pi3(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(2)),
            attack_mfa(cfg, Scenario("mfa", d_claim=4e4, d_real=5e4), CH,
                       np.random.default_rng(3)),
        ):
            d = t.to_json_dict()
            assert d["schema_version"] == "3"
            assert d["sampler_stream"] == SAMPLER_STREAM_VERSION == 3
            assert d["source_stream"] == SOURCE_STREAM_VERSION
            assert d["trial_stream"] == TRIAL_STREAM_VERSION == 4

    def test_power_follows_claim(self):
        rng = np.random.default_rng(2)
        t = run_pi1(PI1, Scenario("honest", 5e4, 5e4), CH, rng)
        assert t.power_w == pytest.approx(2000.0 / 8)


class TestPi2:
    def test_honest_verdicts_match_pi1_with_shared_stream(self):
        # With the key supplied, pi2 consumes the identical rng stream as pi1.
        key = SessionKeys(mac_key=MacKey.generate(np.random.default_rng(999), 64))
        for seed in range(25):
            t1 = run_pi1(PI1, Scenario("honest", 5e4, 6.5e4), CH, np.random.default_rng(seed))
            t2 = run_pi2(
                PI2, Scenario("honest", 5e4, 6.5e4), CH, np.random.default_rng(seed), keys=key
            )
            assert t1.verdict == t2.verdict
            np.testing.assert_array_equal(t1.challenge, t2.challenge)
            assert t2.mac_ok is True

    def test_honest_mac_always_verifies(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = run_pi2(PI2, Scenario("honest", 1e4, 1e4), CH, rng)
            assert t.mac_ok is True

    def test_tag_over_altered_claim_rejected(self):
        rng = np.random.default_rng(4)
        key = MacKey.generate(rng, 64)
        resp = random_bits(rng, 64)
        tag = mac_sign(key, encode_response_claim(resp, 900.0))
        assert not mac_verify(key, encode_response_claim(resp, 1000.0), tag)


class TestPi3:
    def test_noiseless_accepts(self):
        cfg = pi3_config()
        rng = np.random.default_rng(5)
        t = run_pi3(cfg, Scenario("honest", 5e4, 5e4, noiseless=True), CH, rng)
        assert t.verdict == ACC
        assert t.hamming == 0

    def test_parties_derive_same_indices(self):
        cfg = pi3_config()
        skey = SamplerKey.generate(np.random.default_rng(77), 128)
        from dbvsim.primitives import sample_indices

        a = sample_indices(skey, cfg.brm.n, cfg.k)
        b = sample_indices(skey, cfg.brm.n, cfg.k)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_retrieval_accounting(self):
        cfg = pi3_config()
        rng = np.random.default_rng(6)
        t = run_pi3(cfg, Scenario("honest", 5e4, 5e4), CH, rng)
        assert t.accesses["verifier"] == cfg.k <= cfg.brm.retrieval_cap
        assert t.accesses["prover"] == cfg.k <= cfg.brm.retrieval_cap
        assert t.source_bits == cfg.brm.n

    def test_no_mac_variant(self):
        cfg = ProtocolConfig(
            "pi3", e0=2000.0, k=120, beta=0.1, use_mac=False,
            brm=BrmParams(lam=0.3, n=400),
        )
        rng = np.random.default_rng(7)
        t = run_pi3(cfg, Scenario("honest", 5e4, 5e4, noiseless=True), CH, rng)
        assert t.tag is None and t.mac_ok is None
        assert t.verdict == ACC

    def test_deterministic(self):
        cfg = pi3_config()
        a = run_pi3(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(8))
        b = run_pi3(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(8))
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_honest_rate_matches_pi1_distribution(self):
        # per-sampled-bit error rate is the intended-receiver rate, so the
        # acceptance distribution coincides with the plain protocol's
        k = 120
        cfg1 = ProtocolConfig("pi1", e0=2000.0, k=k, beta=0.06)
        cfg3 = ProtocolConfig(
            "pi3", e0=2000.0, k=k, beta=0.06, brm=BrmParams(lam=0.3, n=400)
        )
        d = 6.35e4  # sits where the acceptance rate is informative
        trials = 900
        acc1 = sum(
            run_pi1(cfg1, Scenario("honest", 5e4, d), CH,
                    np.random.default_rng((40, i))).verdict == ACC
            for i in range(trials)
        )
        acc3 = sum(
            run_pi3(cfg3, Scenario("honest", 5e4, d), CH,
                    np.random.default_rng((41, i))).verdict == ACC
            for i in range(trials)
        )
        r1, r3 = acc1 / trials, acc3 / trials
        pooled = (r1 + r3) / 2
        assert 0.03 < pooled < 0.97  # informative regime
        sd = math.sqrt(2 * pooled * (1 - pooled) / trials)
        assert abs(r1 - r3) < 4 * sd


def _snr_distance(snr: float, power_w: float, ch=CH) -> float:
    """The distance at which power_w arrives at the given SNR."""
    return (power_w / (snr * ch.xi * ch.sigma)) ** (1 / ch.alpha)


class TestHardReception:
    """A hard receiver draws its bit errors at bit_error_prob(snr), the rate
    the analog receiver (modulate, propagate, demodulate by sign) errs at."""

    K = 200_000
    CFG = ProtocolConfig("pi1", e0=2000.0, k=K, beta=0.1)
    POWER = 2000.0 / 8  # the power for a 5e4 m claim
    # SNR 0.25, 1 and 4; a loss that underflows (SNR inf, p = 0); a loss
    # past the float range (SNR 0, p = 1/2).
    DISTANCES = [_snr_distance(0.25, POWER), _snr_distance(1.0, POWER),
                 _snr_distance(4.0, POWER), 1e-200, 1e300]

    @pytest.mark.parametrize("d", DISTANCES, ids=["snr-0.25", "snr-1", "snr-4", "underflow",
                                                  "overflow"])
    def test_error_count_matches_bit_error_prob(self, d, analog_reception):
        from scipy.stats import binomtest

        s = Session(self.CFG, Scenario("honest", 5e4, d), CH, np.random.default_rng(21))
        assert s.power_w == self.POWER
        p = bit_error_prob(snr_at_distance(s.power_w, d, CH))
        s.receive("hard", d)
        hard = s.read("hard")[0]
        analog = bpsk_demodulate(analog_reception(s, d)[0])
        assert hard.dtype == np.uint8
        challenge = s.decide(hard, None).challenge
        for got in (hard, analog):
            errors = int(np.count_nonzero(got != challenge))
            if p == 0.0:
                assert errors == 0
            else:
                assert binomtest(errors, self.K, p).pvalue > 1e-4, (errors, self.K * p)
        assert p == {1e-200: 0.0, 1e300: 0.5}.get(d, p)

    @pytest.mark.parametrize("d", [1e-200, 2e4, 6e4, 1e300])
    def test_noiseless_agrees_with_analog(self, d, analog_reception):
        # Bit for bit, including a loss past the float range, where both
        # levels attenuate to a zero that demodulates to 1.
        s = Session(PI1, Scenario("honest", 5e4, d, noiseless=True), CH,
                    np.random.default_rng(22))
        s.receive("hard", d)
        hard = s.read("hard")[0]
        state = s.rng.bit_generator.state
        np.testing.assert_array_equal(hard, bpsk_demodulate(analog_reception(s, d)[0]))
        assert s.rng.bit_generator.state == state  # neither draws noise
        challenge = s.decide(hard, None).challenge
        want = (np.ones_like(challenge) if d == 1e300 else challenge)
        np.testing.assert_array_equal(hard, want)
        levels = attenuate(bpsk_modulate(np.array([0, 1]), s.power_w), d, CH)
        assert (d == 1e300) == (not levels.any())

    def test_error_free_receiver_draws_nothing(self):
        s = Session(PI1, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(23))
        s.receive("intruder", None)
        bits = s.read("intruder")[0]
        state = s.rng.bit_generator.state
        s.receive("again", None)
        np.testing.assert_array_equal(s.read("again")[0], bits)
        assert s.rng.bit_generator.state == state
        np.testing.assert_array_equal(bits, s.decide(bits, None).challenge)


class TestBrmSource:
    def test_alphabet_and_length(self):
        rng = np.random.default_rng(9)
        o, x = brm_source_emit(4.0, 500, rng)
        assert o.size == x.size == 500
        assert set(np.unique(x)) <= {-2.0, 2.0}

    def test_bits_unbiased(self):
        rng = np.random.default_rng(10)
        o, _ = brm_source_emit(1.0, 10**6, rng)
        ones = int(o.sum())
        sd = math.sqrt(10**6 * 0.25)
        assert abs(ones - 5e5) < 4 * sd


_spec = importlib.util.spec_from_file_location(
    "make_transcripts", Path(__file__).parent / "golden" / "make_transcripts.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


class TestSession:
    def test_draw_order(self):
        cfg = pi3_config()
        s = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        # A single run is a block of one row.
        assert s.mac_keys[0] == MacKey.generate(rng, cfg.mac_bits)
        np.testing.assert_array_equal(
            s.sampler_keys, np.array([SamplerKey.generate(rng).words], dtype=np.uint64))
        assert s._sampled is None  # sampled on first use only
        # Nothing read yet, so the challenge draws the sampled positions' bits,
        # in position order, right after the keys.
        np.testing.assert_array_equal(s.challenge(), [random_bits(rng, cfg.k)])

    def test_supplied_keys_are_not_drawn(self):
        cfg = pi3_config()
        keys = SessionKeys(MacKey.generate(np.random.default_rng(1), cfg.mac_bits),
                           SamplerKey.generate(np.random.default_rng(2), 128))
        s = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(13),
                    keys=keys)
        assert s.mac_keys[0] == keys.mac_key
        np.testing.assert_array_equal(
            s.sampler_keys, np.array([keys.sampler_key.words], dtype=np.uint64))
        np.testing.assert_array_equal(
            s.challenge(), [random_bits(np.random.default_rng(13), cfg.k)]
        )

    @pytest.mark.parametrize("dense_limit", [protocols.DENSE_SOURCE_BITS, 0],
                             ids=["bit-array", "sorted-memo"])
    def test_source_bits_shared_and_drawn_in_read_order(self, monkeypatch, dense_limit):
        # A tfa-sampling-like session: the intruder's reads draw the source
        # first, so the prover and verifier see the bits the intruder saw,
        # and the prover's read then draws the sampled positions the
        # intruder left, before its own bit errors.
        monkeypatch.setattr(protocols, "DENSE_SOURCE_BITS", dense_limit)
        cfg = pi3_config()
        s = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(16))
        rng = np.random.default_rng(16)
        MacKey.generate(rng, cfg.mac_bits)
        SamplerKey.generate(rng)
        s.receive("intruder", None)
        s.receive("prover", 5e4)
        head = np.arange(cfg.brm.retrieval_cap)
        held = s.sampled[0] < head.size
        assert held.any() and not held.all()
        # The two reads draw the bits one read of both would.
        drawn = random_bits(rng, head.size + np.count_nonzero(~held))
        intruder = s.read("intruder", head)
        np.testing.assert_array_equal(intruder, [drawn[:head.size]])
        prover = s.read("prover")
        challenge = s.challenge()
        np.testing.assert_array_equal(challenge[0, held], intruder[0, s.sampled[0, held]])
        np.testing.assert_array_equal(challenge[0, ~held], drawn[head.size:])
        np.testing.assert_array_equal(s.decide(prover, None).challenge, challenge[0])
        assert s.sampled.shape == (1, cfg.k) and (np.diff(s.sampled) > 0).all()

    # On pi3 the cap must cover the source for one party to read all of it.
    @pytest.mark.parametrize("cfg", [PI1, pi3_config(lam=0.995)], ids=["pi1", "pi3"])
    @pytest.mark.parametrize("dense_limit", [protocols.DENSE_SOURCE_BITS, 0],
                             ids=["bit-array", "sorted-memo"])
    def test_whole_read_draws_as_sorted_half_reads(self, monkeypatch, cfg, dense_limit):
        monkeypatch.setattr(protocols, "DENSE_SOURCE_BITS", dense_limit)
        whole = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(18))
        halves = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(18))
        whole.receive("intruder", None)
        halves.receive("intruder", None)
        half = whole.n // 2
        got = np.concatenate((halves.read("intruder", np.arange(half)),
                              halves.read("intruder", np.arange(half, halves.n))), axis=1)
        np.testing.assert_array_equal(got, whole.read("intruder", np.arange(whole.n)))
        np.testing.assert_array_equal(halves.challenge(), whole.challenge())

    @pytest.mark.parametrize("index", range(len(golden.cases())))
    def test_sparse_memo_draws_as_dense(self, monkeypatch, index):
        # The source memo's two layouts (a bit array up to DENSE_SOURCE_BITS,
        # sorted positions above) draw the same stream.
        name, scenario = golden.cases()[index]
        dense = golden.case_lines(index, name, scenario)
        monkeypatch.setattr(protocols, "DENSE_SOURCE_BITS", 0)
        assert golden.case_lines(index, name, scenario) == dense

    def test_pi1_pi2_report_no_audit(self):
        # pi1/pi2 read through audits whose cap is the whole emission: a
        # capture of all k positions is never refused, and the transcript
        # reports no retrieval.
        for cfg in (PI1, PI2):
            s = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(14))
            s.receive("intruder", 3e4)
            assert s.n == s.cap == cfg.k
            capture = s.read("intruder", np.arange(cfg.k)[::-1])
            assert capture.size == cfg.k
            d = s.decide(s.read("intruder"), None).to_json_dict()
            assert not {"accesses", "source_bits", "retrieval_cap"} & set(d)

    @pytest.mark.parametrize("cfg, scenario", [
        (PI1, Scenario("honest", 5e4, 6e4)),
        (PI2, Scenario("honest", 5e4, 6e4)),
        (PI2, Scenario("tfa-relay", 5e4, 6e4, intruder_d=3e4)),
    ], ids=["pi1-honest", "pi2-honest", "pi2-relay"])
    def test_eager_source_is_the_reference(self, cfg, scenario):
        # From the generator state after the key draws, k source bits and
        # then k bit errors at the receiver's error rate give the challenge
        # and the response.
        at = scenario.d_real if scenario.kind == "honest" else scenario.intruder_d
        for seed in range(5):
            _, _, t = run_trial(scenario, cfg, CH, np.random.default_rng(seed), seed=seed)
            rng = np.random.default_rng(seed)
            if cfg.protocol == "pi2":
                MacKey.generate(rng, cfg.mac_bits)
            challenge = random_bits(rng, cfg.k)
            p = bit_error_prob(snr_at_distance(t.power_w, at, CH))
            np.testing.assert_array_equal(t.challenge, challenge)
            np.testing.assert_array_equal(t.response, challenge ^ bit_errors(rng, cfg.k, p))

    @pytest.mark.parametrize("cfg, dense_limit", [
        (PI1, protocols.DENSE_SOURCE_BITS),
        (pi3_config(), protocols.DENSE_SOURCE_BITS),
        (pi3_config(), 0),
    ], ids=["pi1", "pi3-bit-array", "pi3-sorted-memo"])
    def test_finished_session_freed_without_gc(self, monkeypatch, cfg, dense_limit):
        # No reference cycle holds a session: reference counting frees it as
        # soon as its run returns, without waiting for the cyclic collector.
        monkeypatch.setattr(protocols, "DENSE_SOURCE_BITS", dense_limit)
        sessions = []
        decide = Session.decide

        def recording_decide(self, *args):
            sessions.append(weakref.ref(self))
            return decide(self, *args)

        monkeypatch.setattr(Session, "decide", recording_decide)
        gc.collect()
        gc.disable()
        try:
            run_protocol(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(19))
            assert len(sessions) == 1 and sessions[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("cfg", [PI2, pi3_config()], ids=["pi2", "pi3"])
    def test_honest_tag_with_supplied_key(self, cfg):
        key = MacKey.generate(np.random.default_rng(3), cfg.mac_bits)
        run = run_pi2 if cfg.protocol == "pi2" else run_pi3
        for seed in range(10):
            t = run(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(seed),
                    keys=SessionKeys(mac_key=key))
            assert t.mac_ok is True
            assert mac_verify(key, encode_response_claim(t.response, t.claim_m), t.tag)

    @pytest.mark.parametrize("change", ["tag", "response"])
    def test_decide_checks_what_was_signed(self, change):
        s = Session(pi3_config(), Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(15))
        s.receive("prover", 5e4)
        response = s.read("prover")
        tag = s.sign(response, 5e4)
        if change == "tag":
            t = s.decide(response, tag ^ 1)
        else:
            t = s.decide(response ^ 1, tag)
        assert t.mac_ok is False

    @pytest.mark.parametrize("k", [1, 7, 9, 3334])
    def test_hamming_matches_bool_reduce(self, k):
        # decide counts packed bytes; a k that is not a multiple of 8 pads
        # each row's last byte.
        rng = np.random.default_rng(k)
        cfg = ProtocolConfig("pi1", e0=2000.0, k=k, beta=0.1)
        for rows in (1, 5, 78):
            s = Session(cfg, Scenario("honest", 5e4, 5e4), CH, rng, 0, rows=rows)
            response = rng.integers(0, 2, (rows, k), dtype=np.uint8)
            block = s.decide(response, None)
            want = np.add.reduce(s.challenge() != response, axis=1)
            assert block.hamming.dtype == np.int64
            np.testing.assert_array_equal(block.hamming, want)

    def test_mac_ok_matches_mac_verify(self):
        # Every authenticated case of the golden transcripts: each case is one
        # block, whose MAC keys are its first draw, so a fresh generator on
        # the block's seed gives them.
        checked = set()
        for index, (name, scenario) in enumerate(golden.cases()):
            cfg = golden.CONFIGS[name]
            if cfg.protocol == "pi1" or not cfg.use_mac:
                continue
            assert golden.TRIALS <= block_rows(cfg)
            master = 1000 + index
            block = run_block(scenario, cfg, CH, _block_rng(master, 0), 0, golden.TRIALS)
            if block is None:
                continue  # relay blocked by the audit
            keys = MacKeys.generate(_block_rng(master, 0), golden.TRIALS, cfg.mac_bits)
            for i in range(golden.TRIALS):
                t = block.transcript(i)
                message = encode_response_claim(t.response, t.claim_m)
                assert mac_verify(keys[i], message, t.tag) == t.mac_ok, (name, scenario)
                checked.add((scenario.kind, t.mac_ok))
        kinds = {kind for kind, _ in checked}
        assert kinds == {"honest", "dfa", "mfa", "impersonation", "tfa-relay",
                         "tfa-sampling", "tfa-general"}
        assert {ok for _, ok in checked} == {True, False}


class TestFullEmissionKeys:
    """When k = n every key of the block is sampled, in order: the session
    reads them from one shared read-only range instead of building them."""

    @pytest.mark.parametrize("cfg", [PI1, PI2, ProtocolConfig(
        "pi3", e0=2000.0, k=2, beta=0.4, brm=BrmParams(lam=0.6, n=2))], ids=["pi1", "pi2", "pi3"])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_sampled_keys_are_a_view_of_the_shared_range(self, cfg, rows):
        s = Session(cfg, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(20),
                    rows=rows)
        keys = s._sampled_keys
        np.testing.assert_array_equal(keys, s.keys(s.sampled))
        assert keys.shape == (rows, cfg.k) and not keys.flags.writeable
        assert np.shares_memory(keys, protocols._shared_key_range())

    def test_block_past_the_shared_range_makes_its_own(self, monkeypatch):
        protocols._shared_key_range()  # built at its full length before the limit shrinks
        monkeypatch.setattr(protocols, "SHARED_KEY_RANGE", 3 * PI1.k)
        for rows, shared in ((3, True), (4, False)):
            s = Session(PI1, Scenario("honest", 5e4, 5e4), CH, np.random.default_rng(21),
                        rows=rows)
            keys = s._sampled_keys
            np.testing.assert_array_equal(keys, s.keys(s.sampled))
            assert not keys.flags.writeable
            assert np.shares_memory(keys, protocols._shared_key_range()) == shared


class TestSignedTagReuse:
    """``decide`` finds its tags from the ones ``sign`` made, so it calls
    the MAC once on a block that was signed, and still rejects any tag that
    was changed and any message signed differently."""

    ROWS = 6
    CLAIM = 5e4

    @pytest.fixture
    def sign_calls(self, monkeypatch):
        calls = []
        sign_rows = protocols.mac_sign_rows

        def counting(keys, messages):
            calls.append(len(keys))
            return sign_rows(keys, messages)

        monkeypatch.setattr(protocols, "mac_sign_rows", counting)
        return calls

    def honest_block(self, seed):
        s = Session(PI2, Scenario("honest", self.CLAIM, self.CLAIM), CH,
                    np.random.default_rng(seed), rows=self.ROWS)
        s.receive("prover", self.CLAIM)
        response = s.read("prover")
        return s, response, s.sign(response, self.CLAIM)

    def test_honest_block_signs_once(self, sign_calls):
        s, response, tags = self.honest_block(23)
        block = s.decide(response, tags)
        assert block.mac_ok.all()
        assert sign_calls == [self.ROWS]

    def test_altered_tags_fail_on_exactly_their_rows(self, sign_calls):
        s, response, tags = self.honest_block(24)
        altered = np.zeros(self.ROWS, dtype=bool)
        altered[[1, 4]] = True
        tags[altered] ^= np.uint64(1)  # in place, after sign
        block = s.decide(response, tags)
        np.testing.assert_array_equal(block.mac_ok, ~altered)
        np.testing.assert_array_equal(block.accepted, block.threshold_ok & ~altered)
        assert sign_calls == [self.ROWS]

    def test_response_changed_after_sign_is_signed_again(self, sign_calls):
        s, response, tags = self.honest_block(25)
        response = response.copy()
        response[2, 0] ^= 1
        block = s.decide(response, tags)
        np.testing.assert_array_equal(block.mac_ok, np.arange(self.ROWS) != 2)
        assert sign_calls == [self.ROWS]

    def test_mfa_replay_is_signed_again_and_rejected(self, sign_calls):
        from dbvsim.attacks import attack_mfa

        scenario = Scenario("mfa", 4e4, 6e4, mfa_strategy="replay")
        block = attack_mfa(PI2, scenario, CH, np.random.default_rng(26), rows=self.ROWS)
        assert not block.mac_ok.any()
        assert sign_calls == [self.ROWS]

    def test_leaked_key_impersonation_passes_its_mac(self, sign_calls):
        from dbvsim.attacks import attack_impersonation

        scenario = Scenario("impersonation", 4e4, 4e4, leaked_mac_key=True,
                            leaked_sampler_key=True)
        block = attack_impersonation(PI2, scenario, CH, np.random.default_rng(27),
                                     rows=self.ROWS)
        assert block.mac_ok.all()
        assert sign_calls == [self.ROWS]
