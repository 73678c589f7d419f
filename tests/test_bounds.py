import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dbvsim.bounds import (
    BrmSpec,
    CloseSecurity,
    DbvSpec,
    InfeasibleError,
    challenge_length_brm_general,
    challenge_length_brm_sampling,
    challenge_length_dfa,
    chernoff_false_accept,
    chernoff_false_reject,
    exact_binomial_tail_lower,
    exact_binomial_tail_upper,
    max_errors,
    brm_exponent_general,
    brm_exponent_sampling,
    sampler_close_security,
)
from dbvsim import bounds
from dbvsim.bounds import _PmfTerms, _binomial_tails, _log_pmf, _log_pmf_at
from dbvsim.channel import BerPair

SRC = str(Path(bounds.__file__).resolve().parents[1])

LN2 = math.log(2)


class TestChernoffBounds:
    def test_false_reject_value(self):
        got = chernoff_false_reject(260, 0.05, 0.01)
        assert got == pytest.approx(math.exp(-0.0016 * 260 / 0.06), rel=1e-12)
        assert got == pytest.approx(9.7e-4, rel=0.01)

    def test_false_accept_value(self):
        got = chernoff_false_accept(260, 0.05, 0.2)
        assert got == pytest.approx(math.exp(-0.0225 * 260 / 0.4), rel=1e-12)
        assert got == pytest.approx(4.5e-7, rel=0.02)

    def test_monotone_in_k(self):
        vals = [chernoff_false_reject(k, 0.1, 0.02) for k in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]

    def test_degenerate_threshold_is_one(self):
        assert chernoff_false_accept(100, 0.2 - 1e-15, 0.2) == pytest.approx(1.0)

    def test_infeasible_thresholds(self):
        with pytest.raises(InfeasibleError) as e:
            chernoff_false_reject(100, 0.01, 0.05)
        assert e.value.condition == "infeasible-threshold"
        with pytest.raises(InfeasibleError):
            chernoff_false_accept(100, 0.3, 0.2)


class TestExactTails:
    def test_whole_support(self):
        assert exact_binomial_tail_upper(10, 1.0, 0.3) == 0.0
        assert exact_binomial_tail_lower(10, 1.0, 0.3) == 1.0

    def test_hand_enumeration_k4(self):
        # Pr(Bin(4, 1/2) <= 1) = (1 + 4) / 16
        assert exact_binomial_tail_lower(4, 0.25, 0.5) == pytest.approx(5 / 16, rel=1e-14)
        assert exact_binomial_tail_upper(4, 0.25, 0.5) == pytest.approx(11 / 16, rel=1e-14)

    def test_complement_exact(self):
        for k, beta, p in [(7, 0.3, 0.2), (100, 0.5, 0.499), (1000, 0.01, 0.2)]:
            lo = exact_binomial_tail_lower(k, beta, p)
            up = exact_binomial_tail_upper(k, beta, p)
            assert lo + up == 1.0
            assert 0.0 <= lo <= 1.0 and 0.0 <= up <= 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 2000))
            p = float(10 ** rng.uniform(-5, math.log10(0.5)))
            beta = float(rng.uniform(0, 1))
            cut = max_errors(beta, k)
            assert exact_binomial_tail_lower(k, beta, p) == pytest.approx(
                float(stats.binom.cdf(cut, k, p)), rel=1e-9, abs=1e-300
            )

    def test_extreme_sizes(self):
        # Large k, small p: the direct log-space sum keeps relative accuracy
        # where scipy's implementation is the reference.
        v = exact_binomial_tail_upper(10**5, 5e-4, 1e-4)
        assert v == pytest.approx(float(stats.binom.sf(50, 10**5, 1e-4)), rel=1e-9)
        w = exact_binomial_tail_lower(10**5, 5e-4, 2e-3)
        assert w == pytest.approx(float(stats.binom.cdf(50, 10**5, 2e-3)), rel=1e-6)
        assert 0.0 < w < 1e-30

    def test_fraction_threshold_cut(self):
        # beta*k = 3 exactly: the cut includes 3 errors
        assert exact_binomial_tail_lower(10, Fraction(3, 10), 0.5) == pytest.approx(
            sum(math.comb(10, i) for i in range(4)) / 1024, rel=1e-14
        )

    def test_edge_probabilities(self):
        assert exact_binomial_tail_lower(10, 0.5, 0.0) == 1.0
        assert exact_binomial_tail_lower(10, 0.5, 1.0) == 0.0


def _full_range_tails(k, beta, p):
    """Oracle: sum every term of the smaller side, the windowed sum's reference.

    The same log-pmf and scaling as bounds._binomial_tails, but over the
    whole side rather than the window around its largest term, and fed to
    fsum sorted rather than from the cut outward: fsum is correctly rounded,
    so the order must not move a bit.
    """
    cut = max_errors(beta, k)
    if cut < 0:
        return 0.0, 1.0
    if cut >= k or p == 0.0:
        return 1.0, 0.0
    if p == 1.0:
        return 0.0, 1.0
    lower_is_small = (cut + 0.5) < k * p
    if lower_is_small:
        i = np.arange(0, cut + 1, dtype=np.float64)
    else:
        i = np.arange(cut + 1, k + 1, dtype=np.float64)
    logs = (
        math.lgamma(k + 1)
        - np.array([math.lgamma(v + 1) for v in i])
        - np.array([math.lgamma(k - v + 1) for v in i])
        + i * math.log(p)
        + (k - i) * math.log1p(-p)
    )
    m = float(np.max(logs))
    small = min(math.exp(m) * math.fsum(sorted(np.exp(logs - m))), 1.0)
    return (small, 1.0 - small) if lower_is_small else (1.0 - small, small)


@st.composite
def _tail_args(draw):
    k = draw(st.integers(1, 5000))
    beta = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.fractions(0, 1, max_denominator=10**6),
        st.just(0.0),  # cut 0
        st.just(Fraction(max(k - 1, 0), k)),  # cut k - 1
    ))
    p = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.floats(5e-324, 1e-3),
        st.floats(1e-16, 1e-3).map(lambda d: 1.0 - d),
        st.just(float(beta)),  # cut at the mode, where the window is widest
    ))
    return k, beta, p


class TestWindowedTailsOracle:
    """bounds._binomial_tails sums a window; it must equal the full-range sum bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_tail_args())
    def test_equals_full_range_sum(self, args):
        k, beta, p = args
        assert _binomial_tails(k, beta, p) == _full_range_tails(k, beta, p)

    @pytest.mark.parametrize(
        "k, beta, p",
        [
            # The psi=1.01, eps=1e-5 design point: FR at p_i, FA at p_b.
            (722846, 0.0509670600503867, 0.049700821584056046),
            (722846, 0.0509670600503867, 0.05225726400727593),
            # Cut at the mode, where the window reaches furthest.
            (722846, 0.0509670600503867, 0.0509670600503867),
            (200001, Fraction(1, 2), 0.5),
            (300000, 0.001, 1e-9),
            # The psi=1.01, eps=1e-2 design point, at the same power.
            (289139, 0.0509670600503867, 0.049700821584056046),
            (289139, 0.0509670600503867, 0.05225726400727593),
        ],
    )
    def test_large_k(self, k, beta, p):
        assert _binomial_tails(k, beta, p) == _full_range_tails(k, beta, p)

    @settings(max_examples=6, deadline=None)
    @given(
        k=st.integers(1 << 16, (1 << 20) - 1),
        p=st.floats(1e-3, 0.5),
        z=st.floats(-8.0, 8.0),
    )
    def test_past_the_lgamma_table(self, k, p, z):
        # Counts past the lgamma table, where the coefficients are computed,
        # with the cut z standard deviations from the mean: either side is
        # the smaller one, and its window is wide.
        beta = min(max(p + z * math.sqrt(p * (1.0 - p) / k), 0.0), 1.0)
        assert _binomial_tails(k, beta, p) == _full_range_tails(k, beta, p)


class TestScalarLogPmf:
    """The window search evaluates the log-pmf one count at a time with
    ``math.lgamma``; it must round exactly as the array form does, or the
    window ends could move."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 10**6).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(0, k),
        st.floats(1e-300, 1.0, exclude_max=True) | st.sampled_from([1e-9, 0.05, 0.5]))))
    def test_equals_array_form(self, kip):
        k, i, p = kip
        terms = _PmfTerms(k, math.lgamma(k + 1), math.log(p), math.log1p(-p))
        want = _log_pmf(terms, np.array([float(i)]))[0]
        assert _log_pmf_at(terms, i) == want or (math.isnan(want)
                                                 and math.isnan(_log_pmf_at(terms, i)))


def _log_pmf_reference(t, i):
    """``_log_pmf`` as first written: ``math.lgamma`` at every i + 1 and k - i + 1."""
    def lgamma(x):
        return np.fromiter(map(math.lgamma, x.tolist()), np.float64, len(x))

    k = t.k
    return t.lg - lgamma(i + 1) - lgamma(k - i + 1) + i * t.log_p + (k - i) * t.log_q


class TestLogPmfTable:
    """``_log_pmf`` evaluates each distinct lgamma argument once; every term
    must equal the first form bit for bit, so the tails do not move."""

    @pytest.mark.parametrize("k, lo, hi, p", [
        (103, 0, 103, 0.05),  # the whole range: the two argument ranges coincide
        (103, 11, 103, 0.2),
        (103, 40, 60, 0.5),
        (1000, 0, 5, 1e-3),  # disjoint argument ranges
        (1000, 990, 1000, 0.999),
        (1, 0, 1, 0.5), (1, 0, 0, 0.5), (1, 1, 1, 0.5),
        (10, 5, 5, 0.5), (10, 4, 6, 0.5), (10, 0, 4, 0.5), (10, 0, 5, 0.5), (10, 6, 10, 0.5),
        (578277, 20000, 40000, 0.05),
        (578277, 280000, 300000, 0.5),
    ])
    def test_equals_reference(self, k, lo, hi, p):
        terms = _PmfTerms(k, math.lgamma(k + 1), math.log(p), math.log1p(-p))
        i = np.arange(lo, hi + 1, dtype=np.float64)
        assert _log_pmf(terms, i).tobytes() == _log_pmf_reference(terms, i).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5000).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, k), min_size=2, max_size=2),
        st.floats(1e-12, 1.0, exclude_max=True))))
    def test_equals_reference_on_random_windows(self, kwp):
        k, ends, p = kwp
        terms = _PmfTerms(k, math.lgamma(k + 1), math.log(p), math.log1p(-p))
        i = np.arange(min(ends), max(ends) + 1, dtype=np.float64)
        assert _log_pmf(terms, i).tobytes() == _log_pmf_reference(terms, i).tobytes()


def _random_valid_triples(count, seed=7, k_max=10**4):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, k_max + 1))
        p = float(10 ** rng.uniform(-6, math.log10(0.499)))
        yield k, p, rng


class TestChernoffDominance:
    def test_dominates_exact_tails(self):
        # Both bounds must sit above the exact tails on random valid inputs.
        for k, p, rng in _random_valid_triples(1000):
            beta_fr = p + (0.999 - p) * float(rng.uniform(1e-3, 1))
            assert chernoff_false_reject(k, beta_fr, p) >= exact_binomial_tail_upper(
                k, beta_fr, p
            )
            beta_fa = p * float(rng.uniform(1e-3, 0.999))
            assert chernoff_false_accept(k, beta_fa, p) >= exact_binomial_tail_lower(
                k, beta_fa, p
            )

    @given(
        st.integers(1, 3000),
        st.floats(1e-6, 0.499),
        st.floats(1e-3, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_dominance_property(self, k, p, frac):
        beta_fr = p + (0.999 - p) * frac
        assert chernoff_false_reject(k, beta_fr, p) >= exact_binomial_tail_upper(
            k, beta_fr, p
        )
        beta_fa = p * frac
        if beta_fa < p:
            assert chernoff_false_accept(k, beta_fa, p) >= exact_binomial_tail_lower(
                k, beta_fa, p
            )


class TestChallengeLengthDfa:
    SPEC = DbvSpec(psi=2.0, eps_fa=1e-3, eps_fr=1e-3)

    def test_worked_example(self):
        k = challenge_length_dfa(BerPair(0.01, 0.2), 0.05, self.SPEC)
        assert k == 260

    def test_terms(self):
        # term1 = 0.06*ln(1000)/0.0016 ~ 259.04 dominates term2 ~ 122.8
        t1 = 0.06 * math.log(1000) / 0.0016
        assert math.ceil(t1) == 260

    def test_eps_monotone(self):
        tight = DbvSpec(psi=2.0, eps_fa=5e-4, eps_fr=5e-4)
        assert challenge_length_dfa(BerPair(0.01, 0.2), 0.05, tight) >= 260

    def test_inversion(self):
        ber = BerPair(0.013, 0.24)
        for beta in (0.05, 0.1, 0.2):
            k = challenge_length_dfa(ber, beta, self.SPEC)
            assert chernoff_false_reject(k, beta, ber.p_i) <= self.SPEC.eps_fr
            assert chernoff_false_accept(k, beta, ber.p_b) <= self.SPEC.eps_fa

    def test_threshold_outside_band(self):
        with pytest.raises(InfeasibleError):
            challenge_length_dfa(BerPair(0.05, 0.2), 0.01, self.SPEC)
        with pytest.raises(InfeasibleError):
            challenge_length_dfa(BerPair(0.05, 0.2), 0.3, self.SPEC)

    def test_cap(self):
        with pytest.raises(InfeasibleError) as e:
            challenge_length_dfa(BerPair(0.1, 0.1 + 1e-9), 0.1 + 5e-10, self.SPEC)
        assert e.value.condition == "challenge-length-cap"


class TestChallengeLengthBrm:
    SPEC = DbvSpec(psi=2.0, eps_fa=1e-3, eps_fr=1e-3)
    BER = BerPair(0.01, 0.3)

    def test_general_inversion_identity(self):
        brm = BrmSpec(lam=0.05, theta=1e-4, gamma=1e-5)
        beta = 0.1
        k, n = challenge_length_brm_general(self.BER, beta, brm, self.SPEC)
        assert n == math.ceil(k / brm.lam)
        assert chernoff_false_reject(k, beta, self.BER.p_i) <= self.SPEC.eps_fr
        # soundness side: 2**(-delta2*n) <= eps_fa - gamma by construction
        delta2 = brm_exponent_general(self.BER.p_b, beta + brm.theta, brm.lam)
        assert 2.0 ** (-delta2 * n) <= self.SPEC.eps_fa - brm.gamma

    def test_general_pole_infeasible(self):
        brm = BrmSpec(lam=0.05, theta=0.0, gamma=0.0)
        mu_limit = self.BER.p_b - math.sqrt(2 * LN2 * self.BER.p_b * brm.lam)
        assert mu_limit > self.BER.p_i
        with pytest.raises(InfeasibleError) as e:
            challenge_length_brm_general(self.BER, mu_limit + 1e-6, brm, self.SPEC)
        assert e.value.condition == "general-intruder-infeasible"

    def test_general_completeness_dominates_at_small_lambda(self):
        # lambda -> 0: the soundness term vanishes, k is the completeness term
        brm = BrmSpec(lam=1e-9, theta=0.0, gamma=0.0)
        beta = 0.1
        k, n = challenge_length_brm_general(self.BER, beta, brm, self.SPEC)
        t_fr = (self.BER.p_i + beta) * math.log(1 / self.SPEC.eps_fr) / (beta - self.BER.p_i) ** 2
        assert k == math.ceil(t_fr)

    def test_sampling_matches_dfa_at_small_lambda(self):
        # lambda -> 0: the soundness term approaches the plain formula with mu
        # in place of beta, so k approaches the plain challenge length.
        brm = BrmSpec(lam=1e-6, theta=0.0, gamma=0.0)
        beta = 0.1
        k, n = challenge_length_brm_sampling(self.BER, beta, brm, self.SPEC)
        k_dfa = challenge_length_dfa(self.BER, beta, self.SPEC)
        assert k == pytest.approx(k_dfa, rel=1e-4)
        assert n == math.ceil(k / brm.lam)

    def test_sampling_infeasible(self):
        brm = BrmSpec(lam=0.9, theta=0.0, gamma=0.0)
        with pytest.raises(InfeasibleError) as e:
            challenge_length_brm_sampling(self.BER, 0.05, brm, self.SPEC)
        assert e.value.condition == "sampling-intruder-infeasible"

    def test_gamma_too_large(self):
        brm = BrmSpec(lam=0.1, theta=0.0, gamma=2e-3)
        with pytest.raises(InfeasibleError) as e:
            challenge_length_brm_general(self.BER, 0.05, brm, self.SPEC)
        assert e.value.condition == "sampler-failure-too-large"


class TestCloseSecurityArithmetic:
    def test_sampler_zero_gamma(self):
        cs = CloseSecurity(mu=0.2, delta=0.25, n=64)
        out = sampler_close_security(cs, k=16, theta=0.05, gamma=0.0)
        assert out.delta == pytest.approx(0.25 * 64 / 16, rel=1e-12)
        assert out.mu == pytest.approx(0.15)
        assert out.n == 16

    def test_sampler_gamma_equal_bound(self):
        cs = CloseSecurity(mu=0.2, delta=0.25, n=64)
        out = sampler_close_security(cs, k=16, theta=0.0, gamma=2.0 ** (-0.25 * 64))
        assert out.delta == pytest.approx((0.25 * 64 - 1) / 16, rel=1e-12)

    def test_sampler_no_security_remains(self):
        cs = CloseSecurity(mu=0.2, delta=0.001, n=10)
        with pytest.raises(InfeasibleError) as e:
            sampler_close_security(cs, 4, 0.0, 0.5)
        assert e.value.condition == "no-security-remains"


class TestBrmExponents:
    def test_general_lambda_zero(self):
        assert brm_exponent_general(0.3, 0.1, 0.0) == pytest.approx(
            (0.2) ** 2 / (2 * LN2 * 0.3), rel=1e-12
        )

    def test_value_at_half(self):
        assert brm_exponent_general(0.5, 0.0, 0.0) == pytest.approx(0.3607, abs=5e-5)

    def test_sampling_at_lambda_zero_equals_general(self):
        assert brm_exponent_sampling(0.3, 0.1, 0.0) == pytest.approx(
            brm_exponent_general(0.3, 0.1, 0.0), rel=1e-12
        )

    def test_nonpositive_flagged(self):
        with pytest.warns(RuntimeWarning):
            out = brm_exponent_general(0.3, 0.25, 0.5)
        assert out <= 0

    def test_preconditions(self):
        with pytest.raises(InfeasibleError):
            brm_exponent_general(0.3, 0.35, 0.1)
        with pytest.raises(InfeasibleError):
            brm_exponent_sampling(0.3, 0.29, 0.5)


class TestSpecTypes:
    def test_dbv_spec_validation(self):
        with pytest.raises(ValueError):
            DbvSpec(psi=1.0, eps_fa=1e-3, eps_fr=1e-3)
        with pytest.raises(ValueError):
            DbvSpec(psi=1.5, eps_fa=0.0, eps_fr=1e-3)

    def test_brm_spec_validation(self):
        with pytest.raises(ValueError):
            BrmSpec(lam=1.0)
        with pytest.raises(ValueError):
            BrmSpec(lam=0.5, gamma=1.0)

    def test_close_security_validation(self):
        with pytest.raises(ValueError):
            CloseSecurity(mu=1.5, delta=0.1, n=10)
        with pytest.raises(ValueError):
            CloseSecurity(mu=0.5, delta=0.1, n=0)


class TestLeakageEnumeration:
    """Exhaustive small-n checks of the guessing-security arithmetic.

    A uniform n-bit string observed through a memoryless binary channel with
    error rate p is (mu, delta1)-secure with delta1 = (p-mu)**2/(2*ln2*p);
    leaking any variable with support 2**t costs t/n of the exponent.
    """

    N, P = 10, 0.3

    def _exhaustive(self, leak_fn, n_leak_values, radius):
        n, p = self.N, self.P
        vectors = np.arange(2**n)
        bits = ((vectors[:, None] >> np.arange(n)) & 1).astype(np.int8)
        weights = p ** bits.sum(axis=1) * (1 - p) ** (n - bits.sum(axis=1))
        pop = np.array([bin(v).count("1") for v in range(2**n)])
        leaks = np.array([leak_fn(v) for v in vectors])
        total = 0.0
        for a in range(n_leak_values):
            sel = leaks == a
            if not sel.any():
                continue
            w = weights[sel]
            vecs = vectors[sel]
            best = max(
                w[pop[vecs ^ center] <= radius].sum() for center in range(2**n)
            )
            total += best
        return total

    def test_base_exponent_bound(self):
        mu = 0.15
        radius = max_errors(mu, self.N)
        delta1 = brm_exponent_general(self.P, mu, 0.0)
        value = self._exhaustive(lambda v: 0, 1, radius)
        assert value <= 2.0 ** (-delta1 * self.N)

    def test_leakage_degrades_by_log_support(self):
        # Leaking a variable with `support` values costs log2(support) bits.
        mu = 0.15
        radius = max_errors(mu, self.N)
        delta1 = brm_exponent_general(self.P, mu, 0.0)
        for leak_fn, support in [
            (lambda v: bin(v).count("1") & 1, 2),  # parity of all bits
            (lambda v: v & 3, 4),  # first two bits verbatim
        ]:
            value = self._exhaustive(leak_fn, support, radius)
            assert value <= support * 2.0 ** (-delta1 * self.N)


class TestPsiMonotonicity:
    def test_challenge_length_nonincreasing_in_psi(self):
        from dbvsim.channel import DEFAULT_CHANNEL, intended_blocked_ber

        spec_by_psi = {}
        for psi in (1.2, 1.4, 1.8, 2.5, 3.5):
            ber = intended_blocked_ber(1500.0, psi, DEFAULT_CHANNEL)
            beta = 0.5 * (ber.p_i + ber.p_b)
            spec = DbvSpec(psi=psi, eps_fa=1e-4, eps_fr=1e-4)
            spec_by_psi[psi] = challenge_length_dfa(ber, beta, spec)
        ks = [spec_by_psi[p] for p in sorted(spec_by_psi)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))


class TestLgammaTable:
    """``_lgamma`` reads whole numbers below the table size from one table of
    ``math.lgamma`` values and computes the rest; both give its values."""

    @pytest.mark.parametrize("lo, hi", [
        (1, 300),  # the table's low end
        (bounds._LGAMMA_TABLE_SIZE - 300, bounds._LGAMMA_TABLE_SIZE - 1),  # its high end
        (bounds._LGAMMA_TABLE_SIZE - 150, bounds._LGAMMA_TABLE_SIZE + 150),  # across it
        (bounds._LGAMMA_TABLE_SIZE, bounds._LGAMMA_TABLE_SIZE + 10),  # past it
    ])
    def test_equals_math_lgamma(self, lo, hi):
        x = np.arange(lo, hi + 1, dtype=np.float64)
        want = np.array([math.lgamma(v) for v in x.tolist()])
        assert bounds._lgamma(x).tobytes() == want.tobytes()
        assert bounds._lgamma(x[::-1]).tobytes() == want[::-1].tobytes()

    def test_whole_table(self):
        table = bounds._lgamma_table()
        assert table.size == bounds._LGAMMA_TABLE_SIZE and not table.flags.writeable
        want = np.array([math.lgamma(v) for v in range(1, table.size)])
        assert table[1:].tobytes() == want.tobytes()

    def test_built_on_first_use_not_at_import(self):
        code = ("import dbvsim.bounds as b; print(b._lgamma_table.cache_info().currsize); "
                "b.exact_binomial_tail_lower(3334, 0.2, 0.1); "
                "print(b._lgamma_table.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=SRC)).stdout
        assert out.split() == ["0", "1"]


def _inline_terms(mode, lam=None, theta=None):
    """Oracle: the term builders with each numerator inline in its term."""
    def terms(p_i, p_b, sqrt):
        f_dec = lambda beta: (p_i + beta) / (beta - p_i) ** 2  # noqa: E731
        if mode == "dfa":
            return f_dec, lambda beta: 2.0 * p_b / (p_b - beta) ** 2, p_b
        if mode == "general":
            leak = 2.0 * LN2 * p_b * lam
            return (f_dec,
                    lambda beta: 2.0 * p_b * lam / ((p_b - beta - theta) ** 2 - leak),
                    p_b - sqrt(leak) - theta)
        pb_eff = (1.0 - lam) * p_b
        return f_dec, lambda beta: 2.0 * pb_eff / (pb_eff - beta - theta) ** 2, pb_eff - theta
    return terms


def _scalar_outcome(f, beta):
    """f(beta) as hex, or the exception it raised (Python's float ops raise
    where numpy's give inf or NaN)."""
    try:
        return float(f(beta)).hex()
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        return type(err)


_UNIT = st.floats(0, 1, exclude_max=True)


class TestTermBuilderNumerators:
    """The builders compute each numerator once; the terms keep the inline
    expressions' bits, on Python floats and on arrays."""

    @staticmethod
    def _builders(mode, lam, theta):
        built = bounds._dfa_terms if mode == "dfa" else bounds._brm_terms(mode, lam, theta)
        return built, _inline_terms(mode, lam, theta)

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(("dfa", "general", "sampling")),
           lam=st.floats(0, 1, exclude_min=True, exclude_max=True),
           theta=st.sampled_from((0.0, 1e-4)), p_i=_UNIT, p_b=_UNIT, beta=_UNIT)
    def test_scalars(self, mode, lam, theta, p_i, p_b, beta):
        built, inline = self._builders(mode, lam, theta)
        got, want = built(p_i, p_b, math.sqrt), inline(p_i, p_b, math.sqrt)
        for f_got, f_want in zip(got[:2], want[:2]):
            assert _scalar_outcome(f_got, beta) == _scalar_outcome(f_want, beta)
        assert float(got[2]).hex() == float(want[2]).hex()

    @pytest.mark.parametrize("mode, lam, theta", [
        ("dfa", None, None), ("general", 0.05, 1e-4), ("general", 0.7, 0.0),
        ("sampling", 0.5, 1e-4), ("sampling", 0.999, 0.0),
    ])
    def test_arrays(self, mode, lam, theta):
        rng = np.random.default_rng(31)
        size = 20_000
        # Probabilities over many decades, ends included, and thresholds
        # on both sides of each bracket.
        p_i = np.concatenate([[0.0], 10.0 ** rng.uniform(-300, -0.3, size - 1)])
        p_b = np.maximum(p_i, 10.0 ** rng.uniform(-300, -0.3, size))
        beta = np.concatenate([p_i[: size // 2], rng.uniform(0, 0.5, size - size // 2)])
        built, inline = self._builders(mode, lam, theta)
        got, want = built(p_i, p_b, np.sqrt), inline(p_i, p_b, np.sqrt)
        with np.errstate(all="ignore"):
            for f_got, f_want in zip(got[:2], want[:2]):
                assert f_got(beta).tobytes() == f_want(beta).tobytes()
        assert got[2].tobytes() == want[2].tobytes()
