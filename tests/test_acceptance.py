"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 4b, 5b and 6
assert reference point values that are mutually inconsistent with the
governing formulas (the feasibility boundary at psi=1.68 reproduces exactly,
which pins the formulas; the point values then cannot also hold).  They are
asserted faithfully and fail with the computed numbers in the message.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from dbvsim.attacks import attack_tfa_relay
from dbvsim.bounds import (
    DbvSpec,
    InfeasibleError,
    brm_exponent_general,
    brm_exponent_sampling,
    chernoff_false_accept,
    chernoff_false_reject,
    exact_binomial_tail_lower,
    exact_binomial_tail_upper,
    max_errors,
)
from dbvsim.channel import (
    DEFAULT_CHANNEL,
    bit_error_prob,
    bpsk_demodulate,
    bpsk_modulate,
    propagate,
    random_bits,
)
from dbvsim.montecarlo import Scenario, estimate_rates
from dbvsim.optimize import max_feasible_lambda, optimize_brm, optimize_dfa
from dbvsim.primitives import (
    MacKey,
    SamplerKey,
    gf_mul,
    mac_sign,
    mac_verify,
    sample_indices,
    sampler_guarantee,
)
from dbvsim.protocols import BrmParams, ProtocolConfig, RetrievalCapError

CH = DEFAULT_CHANNEL


def _report(num: str, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:>3}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_ber_formula_vs_simulation():
    t0 = time.perf_counter()
    n = 10**6
    rng = np.random.default_rng(20240501)
    d = 1e4
    ok = True
    details = []
    for snr in (0.25, 1.0, 4.0):
        e = snr * CH.xi * d**CH.alpha * CH.sigma
        bits = random_bits(rng, n)
        out = bpsk_demodulate(propagate(bpsk_modulate(bits, e), d, CH, rng))
        errors = int(np.count_nonzero(out != bits))
        p = bit_error_prob(snr)
        tol = 3 * math.sqrt(n * p * (1 - p))
        ok &= abs(errors - n * p) < tol
        details.append(f"snr={snr}: {errors} vs {n * p:.0f}+-{tol:.0f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report("1", "BER formula vs simulation", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_02_chernoff_dominance():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(1, 10**4 + 1))
        p = float(10 ** rng.uniform(-6, math.log10(0.499)))
        beta_fr = p + (0.999 - p) * float(rng.uniform(1e-3, 1.0))
        if chernoff_false_reject(k, beta_fr, p) < exact_binomial_tail_upper(k, beta_fr, p):
            violations += 1
        beta_fa = p * float(rng.uniform(1e-3, 0.999))
        if chernoff_false_accept(k, beta_fa, p) < exact_binomial_tail_lower(k, beta_fa, p):
            violations += 1
    _report("2", "Chernoff bounds dominate exact tails", violations == 0,
            f"{violations} violations in 1000 random triples")


def test_criterion_03_pi1_end_to_end():
    spec = DbvSpec(psi=1.1, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_dfa(spec, CH)
    cfg = ProtocolConfig("pi1", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)
    d_c = 5e4
    trials = 10**5

    honest = estimate_rates(Scenario("honest", d_claim=d_c, d_real=d_c), cfg, spec, CH,
                            trials, master_seed=1001)
    reject_ci_upper = 1.0 - honest.ci_low
    ok_honest = reject_ci_upper <= 2e-2

    dfa = estimate_rates(Scenario("dfa", d_claim=d_c, d_real=spec.psi * d_c), cfg, spec,
                         CH, trials, master_seed=1002)
    ok_dfa_ci = dfa.ci_high <= 2e-2
    p = dfa.analytic_exact
    sd = math.sqrt(p * (1 - p) / trials)
    ok_dfa_oracle = abs(dfa.rate - p) <= 3 * sd

    _report("3", "pi1 end-to-end completeness/soundness",
            ok_honest and ok_dfa_ci and ok_dfa_oracle,
            f"k={cfg.k}, FR ci_up={reject_ci_upper:.2e}, FA ci_up={dfa.ci_high:.2e}, "
            f"dfa rate {dfa.rate:.2e} vs exact {p:.2e}")


def test_criterion_04a_kstar_monotone_and_e0_eps_independent():
    psis = [1.01, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4, 1.5]
    ks = []
    for psi in psis:
        ks.append(optimize_dfa(DbvSpec(psi=psi, eps_fa=1e-4, eps_fr=1e-4), CH).k_star)
    monotone = all(a >= b for a, b in zip(ks, ks[1:]))

    e0_free = True
    for psi in (1.05, 1.2, 1.4):
        e0s = [
            optimize_dfa(DbvSpec(psi=psi, eps_fa=e, eps_fr=e), CH).e0_star
            for e in (1e-3, 1e-4, 1e-5)
        ]
        spread = (max(e0s) - min(e0s)) / max(e0s)
        e0_free &= spread <= 1e-6
    _report("4a", "k* monotone in psi; E0* independent of eps", monotone and e0_free,
            f"k*: {ks}")


def test_criterion_04b_kstar_figure_point_values():
    targets = {1.1: 231.0, 1.01: 2629.0}
    per_eps = {}
    for eps in (1e-3, 1e-4, 1e-5):
        ks = {
            psi: optimize_dfa(DbvSpec(psi=psi, eps_fa=eps, eps_fr=eps), CH).k_star
            for psi in targets
        }
        per_eps[eps] = ks
    ok = any(
        all(abs(ks[psi] - t) <= 0.10 * t for psi, t in targets.items())
        for ks in per_eps.values()
    )
    _report("4b", "k*(1.1)~231 and k*(1.01)~2629 at one eps", ok,
            f"computed {per_eps}; no eps matches the published 231/2629 within 10%")


def test_criterion_05a_max_feasible_lambda():
    res = max_feasible_lambda(1.68, CH, "general")
    ok = res.feasible and 0.08 <= res.lambda_star <= 0.12
    _report("5a", "max feasible retrieval rate at psi=1.68", ok,
            f"lambda* = {res.lambda_star:.4f}")


def test_criterion_05b_nstar_at_psi_168():
    results = {}
    for eps in (1e-3, 1e-4, 1e-5):
        spec = DbvSpec(psi=1.68, eps_fa=eps, eps_fr=eps)
        try:
            opt = optimize_brm(spec, CH, 0.1, "general", theta=0.0, gamma=0.0)
            results[eps] = opt.n_star
        except InfeasibleError as err:
            results[eps] = f"infeasible ({err.condition})"
    ok = any(isinstance(n, int) and abs(n - 1071) <= 0.10 * 1071 for n in results.values())
    _report("5b", "general-intruder n* ~ 1071 at (psi=1.68, lambda=0.1)", ok,
            f"computed {results}; lambda=0.1 sits on the feasibility boundary at psi=1.68")


def test_criterion_06_sampling_scale_point():
    results = {}
    for eps in (1e-3, 1e-4, 1e-5):
        spec = DbvSpec(psi=1.06, eps_fa=eps, eps_fr=eps)
        opt = optimize_brm(spec, CH, 0.9, "sampling", theta=0.0, gamma=0.0)
        results[eps] = opt.n_star
    target = 2e9
    ok = any(target / 2 <= n <= target * 2 for n in results.values())
    _report("6", "sampling-intruder n* within 2x of 2e9 at (psi=1.06, lambda=0.9)", ok,
            f"computed {results}")


def test_criterion_07_relay_impossibility():
    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_dfa(spec, CH)
    cfg2 = ProtocolConfig("pi2", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)
    trials = 10**5
    relay = estimate_rates(Scenario("tfa-relay", d_claim=4e4, d_real=9e4), cfg2, spec,
                           CH, trials, master_seed=2001)
    ok_pi2 = relay.rate >= 1.0 - spec.eps_fr - 0.01

    brm = optimize_brm(spec, CH, 0.3, "sampling")
    cfg3 = ProtocolConfig(
        "pi3", e0=brm.e0_star, k=brm.k_star, beta=brm.beta_star,
        brm=BrmParams(lam=0.3, n=brm.n_star, gamma=spec.eps_fa / 100),
    )
    attempts = 10**4
    blocked = 0
    for i in range(attempts):
        try:
            attack_tfa_relay(cfg3, Scenario("tfa-relay", d_claim=4e4, d_real=9e4), CH,
                             np.random.default_rng((2002, i)))
        except RetrievalCapError:
            blocked += 1
    ok_pi3 = blocked == attempts
    _report("7", "relay succeeds vs pi2, audited out vs pi3", ok_pi2 and ok_pi3,
            f"pi2 rate={relay.rate:.4f}, pi3 blocked {blocked}/{attempts}")


def test_criterion_08_brm_sampling_end_to_end():
    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_brm(spec, CH, 0.3, "sampling")
    cfg = ProtocolConfig(
        "pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
        brm=BrmParams(lam=0.3, n=opt.n_star, gamma=spec.eps_fa / 100),
    )
    d_c = 4e4
    trials = 10**5
    tfa = estimate_rates(Scenario("tfa-sampling", d_claim=d_c, d_real=spec.psi * d_c),
                         cfg, spec, CH, trials, master_seed=3001)
    ok_tfa = tfa.ci_high <= 2e-2
    honest = estimate_rates(Scenario("honest", d_claim=d_c, d_real=d_c), cfg, spec, CH,
                            trials, master_seed=3002)
    ok_honest = (1.0 - honest.ci_low) <= 2e-2
    _report("8", "bounded-retrieval protocol vs sampling intruder",
            ok_tfa and ok_honest,
            f"k={cfg.k}, n={cfg.brm.n}, tfa ci_up={tfa.ci_high:.2e}, "
            f"honest reject ci_up={1 - honest.ci_low:.2e}")


def test_criterion_09_mac_security():
    # exhaustive at s=8: best tag-consistent forgery over all 2^16 keys
    table = np.zeros((256, 256), dtype=np.uint8)
    for a in range(256):
        for b in range(256):
            table[a, b] = gf_mul(a, b, 8)

    from dbvsim.primitives import _to_blocks

    m = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)
    m2 = m.copy()
    m2[5] ^= 1
    blocks = _to_blocks(m, 8)
    blocks2 = _to_blocks(m2, 8)
    L = max(len(blocks), len(blocks2))

    def hash_all(blks):
        a = np.arange(256)
        acc = np.zeros(256, dtype=np.uint8)
        for blk in blks:
            acc = table[acc ^ blk, a]
        return acc

    h1, h2 = hash_all(blocks), hash_all(blocks2)
    a_grid, b_grid = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    t = h1[a_grid] ^ b_grid
    u = h2[a_grid] ^ b_grid
    joint = np.zeros((256, 256), dtype=np.int64)
    np.add.at(joint, (t.ravel(), u.ravel()), 1)
    best = int(joint.max(axis=1).sum())
    ok_exhaustive = best <= L * 256  # success <= L/2^8 exactly

    # s=64: a million random forgery attempts against one observed pair
    rng = np.random.default_rng(4242)
    key = MacKey.generate(rng, 64)
    msg = random_bits(rng, 128)
    _ = mac_sign(key, msg)
    hits = 0
    for _i in range(10**6):
        forged_msg = random_bits(rng, 128)
        forged_tag = int.from_bytes(rng.bytes(8), "big")
        hits += mac_verify(key, forged_msg, forged_tag)
    ok_random = hits == 0
    _report("9", "one-time MAC forgery bounds", ok_exhaustive and ok_random,
            f"exhaustive best {best}/65536 <= L*256={L * 256}; random hits={hits}")


def test_criterion_10_sampler_guarantees():
    # averaging guarantee at (n=1e4, k=1e3, theta=0.05) over 1e5 shared draws
    rng = np.random.default_rng(555)
    n, k, theta = 10**4, 10**3, 0.05
    seeds = 10**5
    gamma = sampler_guarantee(k, theta)
    idx = np.empty((seeds, k), dtype=np.int16)
    for i in range(seeds):
        key = SamplerKey.generate(rng, 128)
        idx[i] = sample_indices(key, n, k).indices
    ok_avg = True
    worst = 0.0
    chunk = 10**4
    for _f in range(20):
        f = rng.uniform(0.0, 1.0, n)
        mu = float(f.mean())
        bad = 0
        for lo in range(0, seeds, chunk):
            means = f[idx[lo : lo + chunk]].mean(axis=1)
            bad += int((means < mu - theta).sum())
        frac = bad / seeds
        worst = max(worst, frac)
        ok_avg &= frac <= gamma

    # subset uniformity at (n=6, k=3) over 1e6 seeds, 4 sigma per cell
    counts = {frozenset(c): 0 for c in combinations(range(6), 3)}
    reps = 10**6
    for _i in range(reps):
        key = SamplerKey.generate(rng, 64)
        counts[sample_indices(key, 6, 3).as_set()] += 1
    exp = reps / 20
    sd = math.sqrt(reps * (1 / 20) * (19 / 20))
    ok_uniform = all(abs(v - exp) <= 4 * sd for v in counts.values())
    spread = max(abs(v - exp) for v in counts.values())
    _report("10", "sampler averaging + subset uniformity", ok_avg and ok_uniform,
            f"worst tail fraction {worst:.2e} <= {gamma:.2e}; "
            f"max cell deviation {spread:.0f} <= {4 * sd:.0f}")


def _enumerate_sampled_guessing(n, k, p, n_intruder, radius_errors):
    """Exhaustive E_view max_m Pr(d_H(M, m) <= r | view) for the sampled string.

    The source string is observed through a memoryless binary channel with
    error rate p; the intruder additionally knows the first ``n_intruder``
    source bits exactly; the view includes the sampled index set.  All error
    vectors, all unordered index sets, and all centers m are enumerated.
    """
    vectors = np.arange(2**n, dtype=np.int64)
    bits = ((vectors[:, None] >> np.arange(n)) & 1).astype(np.int8)
    weights = p ** bits.sum(axis=1) * (1 - p) ** (n - bits.sum(axis=1))
    intruder_mask = bits[:, :n_intruder]
    group_ids = intruder_mask @ (1 << np.arange(n_intruder))
    popcount = np.array([bin(v).count("1") for v in range(2**k)])

    total = 0.0
    subsets = list(combinations(range(n), k))
    for S in subsets:
        m_vals = (bits[:, S] @ (1 << np.arange(k))).astype(np.int64)
        dh = popcount[m_vals[:, None] ^ np.arange(2**k)[None, :]]  # (2^n, 2^k)
        ok = dh <= radius_errors
        for g in range(2**n_intruder):
            sel = group_ids == g
            pg = weights[sel].sum()
            if pg == 0:
                continue
            joint = weights[sel] @ ok[sel]  # per center m
            total += joint.max()
    return total / len(subsets)


def test_criterion_11_sampled_guessing_brute_force():
    t0 = time.perf_counter()
    n, k, p_b = 12, 4, 0.3
    lam = 4 / 12  # intruder stores 4 of 12 source bits
    theta, mu = 0.05, 0.15
    beta = mu - theta
    radius = max_errors(beta, k)
    gamma = sampler_guarantee(k, theta)

    exact = _enumerate_sampled_guessing(n, k, p_b, n_intruder=4, radius_errors=radius)

    # independent composition oracle: overlap with the intruder's set is
    # hypergeometric, the rest errs with p_b
    comp = 0.0
    for j in range(0, k + 1):
        w = stats.hypergeom(n, 4, k).pmf(j)
        comp += w * float(stats.binom.cdf(radius, k - j, p_b))
    ok_oracle = abs(exact - comp) <= 1e-12

    delta_samp = brm_exponent_sampling(p_b, mu, lam)
    bound_samp = gamma + 2.0 ** (-delta_samp * n)
    ok_samp = exact <= bound_samp

    # no-intruder form: the sampled-string bound from the plain source exponent
    from dbvsim.bounds import CloseSecurity, sampler_close_security

    delta1 = brm_exponent_general(p_b, mu, 0.0)
    exact_plain = _enumerate_sampled_guessing(n, k, p_b, n_intruder=0, radius_errors=radius)
    ok_plain = exact_plain <= gamma + 2.0 ** (-delta1 * n)

    # sign-convention wiring of the sampled-security exponent at a
    # non-vacuous parameter point: 2**(-delta'*k) == gamma + 2**(-delta*n)
    cs = sampler_close_security(CloseSecurity(0.2, 0.5, 100), k=25, theta=0.05, gamma=1e-6)
    ok_wiring = abs(2.0 ** (-cs.delta * cs.n) - (1e-6 + 2.0 ** (-0.5 * 100))) <= 1e-18

    # source-level guessing before sampling: radius mu*n, no sampler slack
    vectors = np.arange(2**n, dtype=np.int64)
    bits = ((vectors[:, None] >> np.arange(n)) & 1).astype(np.int8)
    weights = p_b ** bits.sum(axis=1) * (1 - p_b) ** (n - bits.sum(axis=1))
    group_ids = bits[:, :4] @ (1 << np.arange(4))
    r_src = max_errors(mu, n)
    pop12 = np.array([bin(v).count("1") for v in range(2**n)])
    src_total = 0.0
    for g in range(16):
        sel = group_ids == g
        w = weights[sel]
        vecs = vectors[sel]
        best = 0.0
        for center in range(2**n):
            val = w[pop12[vecs ^ center] <= r_src].sum()
            best = max(best, val)
        src_total += best
    ok_src = src_total <= 2.0 ** (-brm_exponent_sampling(p_b, mu, lam) * n)

    elapsed = time.perf_counter() - t0
    _report("11", "sampled-string guessing brute force",
            ok_oracle and ok_samp and ok_plain and ok_wiring and ok_src and elapsed < 60.0,
            f"exhaustive={exact:.6f} composition={comp:.6f} bound={bound_samp:.4f}; "
            f"plain {exact_plain:.4f} <= {gamma + 2.0 ** (-delta1 * n):.4f}; "
            f"source-level {src_total:.4f} <= {2.0 ** (-delta_samp * n):.4f}; {elapsed:.1f}s")
