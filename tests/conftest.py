import math
import os
from fractions import Fraction

import pytest

from dbvsim.bounds import max_errors
from dbvsim.channel import (
    bit_error_prob,
    bpsk_modulate,
    propagate,
    snr_at_distance,
    transmit_power_for_claim,
)


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap a module's ProcessPoolExecutor for an in-process stand-in.

    ``install(module, cpus)`` also makes ``os.cpu_count()`` report ``cpus`` and
    returns the list of ``max_workers`` each pool was opened with, so the
    worker clamp is checked without starting any process.
    """
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def install(module, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
        return opened

    return install


def _exact_overlap_pmf(n, cap, k):
    """(lo, [P[overlap = j] for j = lo..min(cap, k)]) as exact fractions."""
    lo, hi = max(0, k - (n - cap)), min(cap, k)
    total = math.comb(n, k)
    return lo, [Fraction(math.comb(cap, j) * math.comb(n - cap, k - j), total)
                for j in range(lo, hi + 1)]


def _exact_sampling_mixture(scenario, cfg, ch):
    """The tfa-sampling acceptance probability of a pi3 config as an exact
    fraction: sum_j P[overlap = j] * P[Bin(k - j, p_b) <= cut], with p_b taken
    at its exact binary value.

    tails[u] is d**u * P[Bin(u, p_b) <= cut] for p_b = a/d, from
    P[Bin(u + 1) <= c] = P[Bin(u) <= c] - p_b * P[Bin(u) = c].
    """
    e = transmit_power_for_claim(scenario.d_claim, cfg.e0, ch)
    a, d = Fraction(bit_error_prob(snr_at_distance(e, scenario.d_real, ch))).as_integer_ratio()
    n, cap, k, cut = cfg.brm.n, cfg.brm.retrieval_cap, cfg.k, max_errors(cfg.beta, cfg.k)
    lo, hi = max(0, k - (n - cap)), min(cap, k)
    top = k - lo
    tails = [1]
    for u in range(top):
        at_cut = math.comb(u, cut) * a**cut * (d - a) ** (u - cut) if u >= cut else 0
        tails.append(tails[-1] * d - a * at_cut)
    num = sum(math.comb(cap, j) * math.comb(n - cap, k - j) * tails[k - j] * d ** (top - k + j)
              for j in range(lo, hi + 1))
    return Fraction(num, math.comb(n, k) * d**top)


@pytest.fixture(scope="session")
def exact_overlap_pmf():
    """Oracle: the hypergeometric overlap law from ``math.comb``, in fractions."""
    return _exact_overlap_pmf


@pytest.fixture(scope="session")
def exact_sampling_mixture():
    """Oracle: the tfa-sampling acceptance probability (scenario, cfg, ch) in fractions."""
    return _exact_sampling_mixture


def _analog_reception(s, at):
    """(rows, k) Gaussian samples: the session's source bits at its sampled
    positions, modulated at its power and received at distance ``at``
    through ``channel.propagate`` (attenuated only when the run is
    noiseless).  The source bits not drawn yet are drawn first, then one
    noise sample a position."""
    sig = bpsk_modulate(s.challenge(), s.power_w)
    return propagate(sig, at, s.ch, s.rng, noiseless=s.noiseless)


@pytest.fixture(scope="session")
def analog_reception():
    """Oracle: the analog receiver (session, distance) that hard receptions
    are tested against."""
    return _analog_reception
