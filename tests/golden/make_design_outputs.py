"""Write ``design_outputs.json``: golden optimizer outputs and exact tails.

The fixture pins every number the design path returns, so any change to how
the optimizer or the exact oracles are evaluated must reproduce them bit for
bit.  Every float is stored as its ``repr``.  It holds

* ``optimize_dfa`` on the README ``curves`` grid, psi 1.01:1.5:0.01 with
  eps_fa = eps_fr in {1e-2, 1e-3, 1e-4, 1e-5}, plus two unequal budgets;
* ``optimize_brm`` in both modes on the ``brm_feasibility_scan`` grid
  (40 psi values on [1.05, 3], its default lambdas, eps 1e-4), infeasible
  points recorded with their condition;
* ``max_feasible_lambda`` in both modes on the same psi values;
* the exact false-reject and false-accept probabilities at every feasible
  design point, at the power's (p_i, p_b);
* ``exact_success_probability`` (``analytic_exact``) of the pi3 honest and
  tfa-sampling scenarios at k=160, n=534 and k=103, n=1.03e6.

Run from the repository root:  PYTHONPATH=src python tests/golden/make_design_outputs.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dbvsim.bounds import (
    DbvSpec,
    InfeasibleError,
    exact_binomial_tail_lower,
    exact_binomial_tail_upper,
)
from dbvsim.channel import DEFAULT_CHANNEL, intended_blocked_ber
from dbvsim.montecarlo import Scenario, exact_success_probability
from dbvsim.optimize import max_feasible_lambda, optimize_brm, optimize_dfa
from dbvsim.protocols import BrmParams, ProtocolConfig

OUT = Path(__file__).with_name("design_outputs.json")
CH = DEFAULT_CHANNEL

DFA_PSI = [round(1.01 + 0.01 * i, 12) for i in range(50)]
DFA_EPS = (1e-2, 1e-3, 1e-4, 1e-5)
#: (psi, eps_fa, eps_fr) with unequal budgets: the log weights enter the crossing.
DFA_UNEQUAL = ((1.1, 1e-4, 1e-2), (1.3, 1e-2, 1e-5))
BRM_PSI = [round(float(p), 6) for p in np.linspace(1.05, 3.0, 40)]
BRM_LAMBDAS = {"general": (0.05, 0.1), "sampling": (0.1, 0.5, 0.9)}
BRM_EPS = 1e-4
#: (lambda, psi) of the pi3 configurations, at eps 1e-2 in sampling mode.
PI3_POINTS = ((0.3, 2.0), (1e-4, 2.0))


def certify(psi: float, e0: float, k: int, beta: float) -> dict:
    ber = intended_blocked_ber(e0, psi, CH)
    return {
        "exact_fr": repr(exact_binomial_tail_upper(k, beta, ber.p_i)),
        "exact_fa": repr(exact_binomial_tail_lower(k, beta, ber.p_b)),
    }


def dfa_case(psi: float, eps_fa: float, eps_fr: float) -> dict:
    case = {"psi": repr(psi), "eps_fa": repr(eps_fa), "eps_fr": repr(eps_fr)}
    try:
        opt = optimize_dfa(DbvSpec(psi=psi, eps_fa=eps_fa, eps_fr=eps_fr), CH)
    except InfeasibleError as err:
        return {**case, "condition": err.condition}
    case.update(e0_star=repr(opt.e0_star), beta_star=repr(opt.beta_star),
                k_star=repr(opt.k_star), objective=repr(opt.objective))
    return {**case, **certify(psi, opt.e0_star, opt.k_star, opt.beta_star)}


def brm_case(mode: str, psi: float, lam: float) -> dict:
    case = {"mode": mode, "psi": repr(psi), "lam": repr(lam)}
    try:
        opt = optimize_brm(DbvSpec(psi=psi, eps_fa=BRM_EPS, eps_fr=BRM_EPS), CH, lam, mode)
    except InfeasibleError as err:
        return {**case, "condition": err.condition}
    case.update(e0_star=repr(opt.e0_star), beta_star=repr(opt.beta_star),
                mu_star=repr(opt.mu_star), k_star=repr(opt.k_star),
                n_star=repr(opt.n_star), objective=repr(opt.objective))
    return {**case, **certify(psi, opt.e0_star, opt.k_star, opt.beta_star)}


def lambda_case(mode: str, psi: float) -> dict:
    res = max_feasible_lambda(psi, CH, mode)
    return {"mode": mode, "psi": repr(psi), "lambda_star": repr(res.lambda_star),
            "feasible": res.feasible}


def analytic_case(lam: float, psi: float, kind: str) -> dict:
    spec = DbvSpec(psi=psi, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_brm(spec, CH, lam, "sampling")
    cfg = ProtocolConfig(protocol="pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
                         brm=BrmParams(lam=lam, n=opt.n_star, gamma=spec.eps_fa / 100.0))
    d_claim = CH.d0 / 2.0
    d_real = d_claim if kind == "honest" else psi * d_claim
    p = exact_success_probability(Scenario(kind, d_claim, d_real), cfg, CH)
    return {"lam": repr(lam), "psi": repr(psi), "kind": kind, "k": cfg.k, "n": cfg.brm.n,
            "analytic_exact": repr(p)}


def sections() -> dict[str, list[dict]]:
    return {
        "dfa": [dfa_case(psi, eps, eps) for psi in DFA_PSI for eps in DFA_EPS]
        + [dfa_case(*c) for c in DFA_UNEQUAL],
        "brm": [brm_case(mode, psi, lam)
                for mode, lams in BRM_LAMBDAS.items() for psi in BRM_PSI for lam in lams],
        "max_lambda": [lambda_case(mode, psi) for mode in BRM_LAMBDAS for psi in BRM_PSI],
        "analytic": [analytic_case(lam, psi, kind)
                     for lam, psi in PI3_POINTS for kind in ("honest", "tfa-sampling")],
    }


def main() -> None:
    body = ",\n".join(
        f"{json.dumps(name)}: [\n  " + ",\n  ".join(json.dumps(c) for c in cases) + "\n]"
        for name, cases in sections().items()
    )
    OUT.write_text("{\n" + body + "\n}\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
