import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binomtest

from dbvsim.channel import (
    DEFAULT_CHANNEL,
    BerPair,
    ChannelParams,
    ClaimRangeError,
    PowerLimitError,
    bit_error_prob,
    bit_errors,
    bits_to_hex,
    bpsk_demodulate,
    bpsk_modulate,
    intended_blocked_ber,
    intended_blocked_ber_grid,
    path_loss,
    propagate,
    random_bits,
    snr_at_distance,
    transmit_power_for_claim,
    watts_to_dbm,
)


def dbm_to_watts(dbm: float) -> float:
    """Inverse of watts_to_dbm."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


def hex_to_bits(hexstr: str, k: int) -> np.ndarray:
    """Inverse of bits_to_hex for a k-bit string."""
    return np.unpackbits(np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8))[:k]


def gaussian_tail_ber(snr: float) -> float:
    """Independent oracle: 1/sqrt(pi) * integral_{sqrt(snr)}^inf exp(-t^2) dt."""
    val, err = quad(lambda t: math.exp(-t * t), math.sqrt(snr), np.inf, epsabs=1e-300, epsrel=1e-13)
    return val / math.sqrt(math.pi)


class TestChannelParams:
    def test_defaults_match_named_environment(self):
        assert DEFAULT_CHANNEL == ChannelParams(xi=1.0, alpha=3.0, sigma=1e-12, e_max=3e4, d0=1e5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi": 0.5},
            {"alpha": 0.0},
            {"sigma": 0.0},
            {"e_max": -1.0},
            {"d0": 0.0},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    def test_json_round_trip(self):
        ch = ChannelParams(xi=1.5, alpha=2.5, sigma=2e-12, e_max=1e4, d0=5e4)
        assert ChannelParams.from_json(json.dumps(ch.to_json())) == ch
        assert set(ch.to_json()) == {"xi", "alpha", "sigma_watts", "e_max_watts", "d0_meters"}

    def test_dbm_conversions(self):
        assert watts_to_dbm(1e-12) == pytest.approx(-90.0)
        assert watts_to_dbm(3e4) == pytest.approx(74.77, abs=0.01)
        assert dbm_to_watts(watts_to_dbm(0.123)) == pytest.approx(0.123, rel=1e-12)


class TestSnrAndPower:
    def test_snr_direct_arithmetic(self):
        # 1000 / (1e15 * 1e-12) = 1 exactly
        assert snr_at_distance(1000.0, 1e5, DEFAULT_CHANNEL) == pytest.approx(1.0, rel=1e-12)

    def test_snr_distance_ratio(self):
        psi = 1.7
        s1 = snr_at_distance(500.0, 2e4, DEFAULT_CHANNEL)
        s2 = snr_at_distance(500.0, psi * 2e4, DEFAULT_CHANNEL)
        assert s1 / s2 == pytest.approx(psi**DEFAULT_CHANNEL.alpha, rel=1e-12)

    def test_snr_linear_in_power(self):
        assert snr_at_distance(2 * 123.0, 3e4, DEFAULT_CHANNEL) == pytest.approx(
            2 * snr_at_distance(123.0, 3e4, DEFAULT_CHANNEL), rel=1e-15
        )

    def test_snr_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            snr_at_distance(0.0, 1.0, DEFAULT_CHANNEL)
        with pytest.raises(ValueError):
            snr_at_distance(1.0, -2.0, DEFAULT_CHANNEL)

    def test_power_for_claim_identity(self):
        assert transmit_power_for_claim(1e5, 777.0, DEFAULT_CHANNEL) == pytest.approx(777.0)

    def test_power_for_claim_half_distance(self):
        assert transmit_power_for_claim(5e4, 800.0, DEFAULT_CHANNEL) == pytest.approx(100.0)

    def test_snr_invariant_over_claims(self):
        e0 = 1234.0
        ref = snr_at_distance(e0, DEFAULT_CHANNEL.d0, DEFAULT_CHANNEL)
        for d_c in np.geomspace(10.0, 1e5, 25):
            e = transmit_power_for_claim(d_c, e0, DEFAULT_CHANNEL)
            assert snr_at_distance(e, d_c, DEFAULT_CHANNEL) == pytest.approx(ref, rel=1e-12)

    def test_claim_out_of_range(self):
        with pytest.raises(ClaimRangeError):
            transmit_power_for_claim(1e5 + 1, 100.0, DEFAULT_CHANNEL)

    def test_power_exceeded(self):
        with pytest.raises(PowerLimitError):
            transmit_power_for_claim(1e4, 3e4 + 1, DEFAULT_CHANNEL)


class TestModulation:
    def test_modulate_definition(self):
        sig = bpsk_modulate(np.array([1, 0, 1], dtype=np.uint8), 4.0)
        np.testing.assert_allclose(sig, [2.0, -2.0, 2.0])

    def test_empty(self):
        assert bpsk_modulate(np.array([], dtype=np.uint8), 1.0).size == 0
        assert bpsk_demodulate(np.array([])).size == 0

    def test_demodulate_sign_rule(self):
        np.testing.assert_array_equal(
            bpsk_demodulate(np.array([-0.3, 1e-4, 5.0])), [0, 1, 1]
        )

    def test_exact_zero_is_one(self):
        assert bpsk_demodulate(np.array([0.0]))[0] == 1
        assert bpsk_demodulate(np.array([-0.0]))[0] == 1

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            bpsk_demodulate(np.array([0.1, float("nan")]))

    @given(st.lists(st.integers(0, 1), max_size=64), st.floats(1e-12, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, bits, e):
        b = np.array(bits, dtype=np.uint8)
        np.testing.assert_array_equal(bpsk_demodulate(bpsk_modulate(b, e)), b)

    def test_hex_round_trip(self):
        rng = np.random.default_rng(5)
        bits = random_bits(rng, 37)
        np.testing.assert_array_equal(hex_to_bits(bits_to_hex(bits), 37), bits)


class TestPropagate:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(0)
        bits = random_bits(rng, 1000)
        sig = bpsk_modulate(bits, 100.0)
        out = propagate(sig, 2e4, DEFAULT_CHANNEL, rng, noiseless=True)
        np.testing.assert_allclose(out, sig / math.sqrt((2e4) ** 3), rtol=1e-15)
        np.testing.assert_array_equal(bpsk_demodulate(out), bits)

    def test_noise_mean(self):
        rng = np.random.default_rng(1)
        n = 10**6
        sig = np.zeros(n)
        out = propagate(sig, 1e3, DEFAULT_CHANNEL, rng)
        sd = math.sqrt(DEFAULT_CHANNEL.sigma / 2)
        assert abs(out.mean()) < 4 * sd / math.sqrt(n)

    def test_noise_variance_is_half_sigma(self):
        # sigma is the full-bandwidth noise power; per-sample variance is sigma/2,
        # which is what makes the error rate equal bit_error_prob(snr).
        rng = np.random.default_rng(2)
        n = 10**6
        out = propagate(np.zeros(n), 1e3, DEFAULT_CHANNEL, rng)
        assert out.var() == pytest.approx(DEFAULT_CHANNEL.sigma / 2, rel=0.01)

    def test_deterministic_given_seed(self):
        sig = bpsk_modulate(np.ones(64, dtype=np.uint8), 10.0)
        a = propagate(sig, 1e4, DEFAULT_CHANNEL, np.random.default_rng(7))
        b = propagate(sig, 1e4, DEFAULT_CHANNEL, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_distance_past_float_range_is_pure_noise(self):
        # (1e300)**3 overflows a float: the loss is infinite, the SNR takes its
        # limit 0 and the received samples are the noise alone (error rate 1/2).
        ch = DEFAULT_CHANNEL
        assert path_loss(2e4, ch) == ch.xi * 2e4**ch.alpha
        assert path_loss(1e300, ch) == math.inf
        assert bit_error_prob(snr_at_distance(1.0, 1e300, ch)) == 0.5
        sig = bpsk_modulate(np.ones(64, dtype=np.uint8), 1e4)
        noise = propagate(np.zeros(64), 1e3, ch, np.random.default_rng(3))
        np.testing.assert_array_equal(propagate(sig, 1e300, ch, np.random.default_rng(3)),
                                      noise)
        assert not propagate(sig, 1e300, ch, np.random.default_rng(3), noiseless=True).any()

    def test_fresh_noise_per_call(self):
        rng = np.random.default_rng(8)
        sig = np.zeros(32)
        a = propagate(sig, 1e4, DEFAULT_CHANNEL, rng)
        b = propagate(sig, 1e4, DEFAULT_CHANNEL, rng)
        assert not np.array_equal(a, b)


def _modulate_reference(bits, e):
    """bpsk_modulate as first written: a bool mask, np.where, then a float64 copy."""
    amp = math.sqrt(e)
    bits = np.asarray(bits, dtype=np.uint8)
    return np.where(bits != 0, amp, -amp).astype(np.float64)


def _propagate_reference(sig, d, ch, rng):
    """propagate as first written: noise added to the attenuated signal."""
    att = np.asarray(sig, dtype=np.float64) / math.sqrt(ch.xi * d**ch.alpha)
    return att + rng.normal(0.0, math.sqrt(ch.sigma / 2.0), size=att.shape)


class TestChannelOracles:
    """The channel fast paths equal the first formulas bit for bit."""

    @pytest.mark.parametrize("e", [1e-12, 0.3, 1.0, 4.0, 2.5e4])
    def test_modulate_edge_bytes(self, e):
        bits = np.array([0, 1, 2, 255, 0, 128, 1], dtype=np.uint8)
        got = bpsk_modulate(bits, e)
        want = _modulate_reference(bits, e)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_modulate_empty(self):
        got = bpsk_modulate(np.array([], dtype=np.uint8), 2.0)
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_modulate_other_input_types(self):
        for bits in ([0, 1, 2, 255], np.array([True, False]), np.array([[0, 3], [1, 0]]),
                     np.uint8(7), np.array(0, dtype=np.uint8)):
            got = bpsk_modulate(bits, 9.0)
            assert got.tobytes() == _modulate_reference(bits, 9.0).tobytes()
            assert isinstance(got, np.ndarray) and got.shape == np.shape(bits)

    @given(st.lists(st.integers(0, 255), max_size=300), st.floats(1e-30, 1e30))
    @settings(max_examples=100, deadline=None)
    def test_modulate_matches_reference(self, bits, e):
        b = np.array(bits, dtype=np.uint8)
        assert bpsk_modulate(b, e).tobytes() == _modulate_reference(b, e).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 7, 4096])
    @pytest.mark.parametrize("d", [1.0, 5e4, 2e5])
    def test_propagate_matches_reference(self, n, d):
        ch = ChannelParams(xi=2.0, alpha=3.5, sigma=3e-12)
        sig = _modulate_reference(random_bits(np.random.default_rng(n), n), 7.0)
        rng_got, rng_want = np.random.default_rng(99), np.random.default_rng(99)
        got = propagate(sig, d, ch, rng_got)
        want = _propagate_reference(sig, d, ch, rng_want)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # Same draws consumed: the generators stay in step.
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_propagate_leaves_input_alone(self):
        sig = _modulate_reference(np.array([0, 1, 1], dtype=np.uint8), 4.0)
        before = sig.copy()
        propagate(sig, 1e3, DEFAULT_CHANNEL, np.random.default_rng(3))
        np.testing.assert_array_equal(sig, before)

    def test_propagate_noiseless_matches_reference(self):
        sig = _modulate_reference(random_bits(np.random.default_rng(4), 50), 3.0)
        got = propagate(sig, 1e4, DEFAULT_CHANNEL, np.random.default_rng(0), noiseless=True)
        want = sig / math.sqrt(DEFAULT_CHANNEL.xi * 1e4**DEFAULT_CHANNEL.alpha)
        assert got.tobytes() == want.tobytes()


class TestBitErrorProb:
    def test_zero_snr(self):
        assert bit_error_prob(0.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("snr", [0.05, 0.125, 0.25, 1.0, 4.0, 9.0, 25.0])
    def test_against_quadrature_oracle(self, snr):
        assert bit_error_prob(snr) == pytest.approx(gaussian_tail_ber(snr), rel=1e-10)

    def test_known_value(self):
        assert bit_error_prob(1.0) == pytest.approx(0.07865, abs=5e-6)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 30, 200)
        vals = [bit_error_prob(s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_error_prob(-0.1)


class TestBerPair:
    def test_example_psi_two(self):
        ber = intended_blocked_ber(1000.0, 2.0, DEFAULT_CHANNEL)
        assert ber.p_i == pytest.approx(gaussian_tail_ber(1.0), rel=1e-10)
        assert ber.p_b == pytest.approx(gaussian_tail_ber(0.125), rel=1e-10)
        assert ber.p_b == pytest.approx(0.3085, abs=5e-5)

    def test_continuity_at_psi_one(self):
        ber = intended_blocked_ber(1000.0, 1.0 + 1e-9, DEFAULT_CHANNEL)
        assert ber.p_b == pytest.approx(ber.p_i, rel=1e-6)
        assert ber.p_b > ber.p_i

    def test_monotonicity(self):
        lo = intended_blocked_ber(500.0, 1.5, DEFAULT_CHANNEL)
        hi = intended_blocked_ber(1500.0, 1.5, DEFAULT_CHANNEL)
        assert hi.p_i < lo.p_i and hi.p_b < lo.p_b
        wide = intended_blocked_ber(500.0, 2.5, DEFAULT_CHANNEL)
        assert wide.p_b > lo.p_b

    def test_power_cap(self):
        with pytest.raises(PowerLimitError):
            intended_blocked_ber(3e4 * 1.01, 2.0, DEFAULT_CHANNEL)

    def test_ratio_past_float_range_gives_half(self):
        # 1e300**3 overflows a float: p_b takes its limit 1/2 in both forms
        e0 = np.array([1.0, 1000.0, 3e4])
        p_i, p_b = intended_blocked_ber_grid(e0, 1e300, DEFAULT_CHANNEL)
        assert p_b.tolist() == [0.5] * 3
        for e, want in zip(e0, p_i):
            ber = intended_blocked_ber(float(e), 1e300, DEFAULT_CHANNEL)
            assert (ber.p_i, ber.p_b) == (want, 0.5)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            BerPair(0.3, 0.2)


class TestMonteCarloBer:
    @pytest.mark.parametrize("snr", [0.25, 1.0, 4.0])
    def test_simulated_ber_matches_formula(self, snr):
        rng = np.random.default_rng(1234)
        n = 2 * 10**5
        ch = DEFAULT_CHANNEL
        d = 1e4
        e = snr * ch.xi * d**ch.alpha * ch.sigma
        bits = random_bits(rng, n)
        got = bpsk_demodulate(propagate(bpsk_modulate(bits, e), d, ch, rng))
        errors = int(np.count_nonzero(got != bits))
        p = bit_error_prob(snr)
        assert abs(errors - n * p) < 3 * math.sqrt(n * p * (1 - p))

    def test_intended_and_blocked_rates(self):
        # Power chosen for the claim: error rates at d_c and psi*d_c land on
        # (p_i, p_b) regardless of the claim itself.
        rng = np.random.default_rng(99)
        ch = DEFAULT_CHANNEL
        e0, psi, d_c, n = 1000.0, 2.0, 3.3e4, 2 * 10**5
        ber = intended_blocked_ber(e0, psi, ch)
        e = transmit_power_for_claim(d_c, e0, ch)
        bits = random_bits(rng, n)
        sig = bpsk_modulate(bits, e)
        for d, p in ((d_c, ber.p_i), (psi * d_c, ber.p_b)):
            got = bpsk_demodulate(propagate(sig, d, ch, rng))
            errors = int(np.count_nonzero(got != bits))
            assert abs(errors - n * p) < 3 * math.sqrt(n * p * (1 - p))


def _reference_bits(words, k):
    """Bit i is bit i % 64 of word i // 64, counted from the low end."""
    return [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(k)]


def _reference_errors(words, doubles, m, p):
    """Error i from lane i % 4 of word i // 4 (16 bits, low lane first) against
    c = floor(2**16 p), with p the rate or, for a list, its entry i: below c
    an error, above c none, equal to c the next double against the exact
    fraction 2**16 p - c, unless that is 0."""
    rates = p if isinstance(p, list) else [p] * m
    doubles = iter(doubles)
    out = []
    for i in range(m):
        scaled = Fraction(rates[i]) * 2**16
        cut = math.floor(scaled)
        lane = (int(words[i // 4]) >> (16 * (i % 4))) & 0xFFFF
        tied = lane == cut and scaled != cut
        out.append(int(Fraction(next(doubles)) < scaled - cut if tied else lane < cut))
    return out


class TestRawWordDraws:
    """``random_bits`` and ``bit_errors`` read raw 64-bit words of the
    generator; a pure-Python reading of the same words is the reference."""

    CASES = [(seed, int(m)) for seed, m in enumerate(
        np.random.default_rng(2026).integers(0, 700, 40).tolist() + [0, 1, 3, 4, 63, 64, 65])]

    @pytest.mark.parametrize("seed, k", CASES)
    def test_bits_are_low_first_bits_of_raw_words(self, seed, k):
        replay = np.random.default_rng(seed)
        words = replay.bit_generator.random_raw(-(-k // 64))
        rng = np.random.default_rng(seed)
        got = random_bits(rng, k)
        assert got.dtype == np.uint8 and got.shape == (k,)
        assert got.tolist() == _reference_bits(words, k)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("seed, m", [case for case in CASES if case[1]])
    def test_errors_are_lanes_of_raw_words(self, seed, m):
        # p ties lane m // 2 and falls between lanes elsewhere: the tie rule
        # and the lane order both show.
        replay = np.random.default_rng(seed)
        words = replay.bit_generator.random_raw(-(-m // 4))
        lanes = [(int(words[i // 4]) >> (16 * (i % 4))) & 0xFFFF for i in range(m)]
        tie = lanes[m // 2]
        frac = np.random.default_rng(seed + 1000).random()
        p = (tie + frac) / 2**16
        doubles = replay.random(lanes.count(tie))
        rng = np.random.default_rng(seed)
        got = bit_errors(rng, m, p)
        assert got.dtype == np.uint8 and got.shape == (m,)
        assert got.tolist() == _reference_errors(words, doubles, m, p)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("seed, m", [case for case in CASES if case[1]])
    def test_an_array_of_one_rate_draws_as_the_rate(self, seed, m):
        # p ties lane m // 2, so the tie's doubles are drawn too.
        lanes = np.random.default_rng(seed).bit_generator.random_raw(-(-m // 4)).view(np.uint16)
        rates = [(int(lanes[m // 2]) + 0.375) / 2**16, 0.25, 0.0, 1.0]
        for p in rates:
            rng, rng_array = np.random.default_rng(seed), np.random.default_rng(seed)
            want = bit_errors(rng, m, p)
            got = bit_errors(rng_array, m, np.full(m, p))
            assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()
            assert rng_array.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("seed, m", [case for case in CASES if case[1] >= 4])
    def test_errors_at_per_error_rates(self, seed, m):
        # Each error against its own rate: rates that tie some lanes, rates
        # on a whole lane, 0 and 1, in a random order over the errors.
        replay = np.random.default_rng(seed)
        words = replay.bit_generator.random_raw(-(-m // 4))
        lanes = [(int(words[i // 4]) >> (16 * (i % 4))) & 0xFFFF for i in range(m)]
        coins = np.random.default_rng(seed + 2000)
        pool = [(lanes[i] + coins.random()) / 2**16 for i in range(0, m, 3)]
        pool += [lanes[1] / 2**16, 0.25, 0.0, 1.0]
        p = [pool[i] for i in coins.integers(0, len(pool), m)]
        ties = sum(lane == math.floor(Fraction(r) * 2**16) and Fraction(r) * 2**16 % 1 != 0
                   for lane, r in zip(lanes, p))
        doubles = replay.random(ties)
        rng = np.random.default_rng(seed)
        got = bit_errors(rng, m, np.array(p))
        assert got.dtype == np.uint8 and got.shape == (m,)
        assert got.tolist() == _reference_errors(words, doubles, m, p)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("p", [[0.1, 0.2], [0.1, -0.1, 0.2], [0.1, 1.5, 0.2],
                                   [0.1, float("nan"), 0.2]])
    def test_rate_array_of_wrong_length_or_range_rejected(self, p):
        with pytest.raises(ValueError):
            bit_errors(np.random.default_rng(0), 3, np.array(p))

    def test_tie_draws_one_double(self):
        replay = np.random.default_rng(7)
        lane = int(replay.bit_generator.random_raw(1)[0]) & 0xFFFF
        after_words = replay.bit_generator.state
        u = replay.random()
        for frac in (0.25, 0.75):
            rng = np.random.default_rng(7)
            got = bit_errors(rng, 1, (lane + frac) / 2**16)
            assert rng.bit_generator.state == replay.bit_generator.state != after_words
            assert got.tolist() == [int(u < frac)]

    @pytest.mark.parametrize("p", [3 / 2**16, 0.25, 0.5, 0.0, 1.0])
    def test_whole_lane_probability_draws_no_double(self, p):
        replay = np.random.default_rng(8)
        words = replay.bit_generator.random_raw(2500)
        rng = np.random.default_rng(8)
        got = bit_errors(rng, 10_000, p)
        assert rng.bit_generator.state == replay.bit_generator.state
        assert got.tolist() == _reference_errors(words, [], 10_000, p)

    @pytest.mark.parametrize("p, seed", [(2.0**-20, 1), (3 / 2**16, 2), (0.0371, 3),
                                         (0.25, 4), (0.5, 5)])
    def test_error_count_is_binomial(self, p, seed):
        # 2**24 draws in chunks; at 2**-20 every error comes from a tie.
        rng = np.random.default_rng(seed)
        trials, chunk = 2**24, 2**20
        errors = sum(int(np.count_nonzero(bit_errors(rng, chunk, p)))
                     for _ in range(trials // chunk))
        assert binomtest(errors, trials, p).pvalue > 1e-4, errors

    def test_bits_are_fair(self):
        rng = np.random.default_rng(6)
        trials = 2**24
        ones = int(np.count_nonzero(random_bits(rng, trials)))
        assert binomtest(ones, trials, 0.5).pvalue > 1e-4

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            bit_errors(np.random.default_rng(0), 3, p)
