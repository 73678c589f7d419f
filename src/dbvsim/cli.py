"""Command-line interface: optimize, curves, simulate.

Exit codes: 0 success, 1 usage error, 2 infeasible parameters (the violated
condition is named in the JSON error), 3 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import contextmanager
from typing import Optional

from .attacks import (
    MFA_STRATEGIES,
    BlockMajorityStrategy,
    IndexSamplingStrategy,
    ParitySketchStrategy,
)
from .bounds import BrmSpec, DbvSpec, InfeasibleError
from .channel import (
    DEFAULT_CHANNEL,
    ChannelParams,
    intended_blocked_ber,
    transmit_power_for_claim,
    watts_to_dbm,
)
from .montecarlo import SCENARIO_KINDS, Scenario, compare_to_bound, estimate_rates
from .optimize import (
    BRM_MODES,
    DEFAULT_THETA,
    max_feasible_lambda,
    optimize_brm,
    optimize_dfa,
    sweep_curves,
    write_curves_csv,
)
from .primitives import FIELD_POLYNOMIALS, encode_response_claim
from .protocols import BrmParams, ProtocolConfig, check_mac_strength

SCHEMA_VERSION = "1"

#: Most points a ``--psi-range`` may hold.
MAX_RANGE_POINTS = 100_000

_STRATEGIES = {
    "index-first": IndexSamplingStrategy("first"),
    "index-random": IndexSamplingStrategy("random"),
    "parity-sketch": ParitySketchStrategy(),
    "block-majority": BlockMajorityStrategy(),
}


class _UsageError(Exception):
    pass


@contextmanager
def _user_input():
    """Report a ValueError from checking the user's input as a usage error.

    Wrap input checks only: a ValueError from the optimizer is a defect.
    """
    try:
        yield
    except ValueError as err:
        raise _UsageError(str(err)) from err


def _theta(args) -> float:
    """--theta, or DEFAULT_THETA where simulate leaves it unset."""
    return DEFAULT_THETA if args.theta is None else args.theta


def _specs(
    args, psi: float, eps_fa: float, eps_fr: float, lam: Optional[float] = None
) -> DbvSpec:
    """The DbvSpec, checked as input; given a rate, the rate, --theta and
    (when given) --gamma are checked too."""
    with _user_input():
        spec = DbvSpec(psi=psi, eps_fa=eps_fa, eps_fr=eps_fr)
        if lam is not None:
            BrmSpec(lam=lam, theta=_theta(args), gamma=0.0 if args.gamma is None else args.gamma)
    return spec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        raise _UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(obj: dict, plain: bool) -> None:
    obj = {"schema_version": SCHEMA_VERSION, **obj}
    if plain:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _load_channel(spec: str) -> ChannelParams:
    if spec == "default":
        return DEFAULT_CHANNEL
    try:
        with open(spec) as fh:
            return ChannelParams.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"cannot load channel config {spec!r}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any work starts;
    nothing is created."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _UsageError(f"cannot write {path!r}: no such directory {parent!r}")
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent,
                                            os.W_OK):
        raise _UsageError(f"cannot write {path!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", default="default", help="channel JSON file or 'default'")
    p.add_argument("--plain", action="store_true", help="single-line machine output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dbvsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimal (E0, k, beta) or (E0, beta, k, n)")
    p_opt.add_argument("--mode", required=True, choices=("dfa", "brm-general", "brm-sampling"))
    p_opt.add_argument("--psi", type=float, required=True)
    p_opt.add_argument("--eps-fa", type=float, required=True)
    p_opt.add_argument("--eps-fr", type=float, required=True)
    p_opt.add_argument("--lambda", dest="lam", type=float, help="retrieval rate (brm modes)")
    p_opt.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_opt.add_argument("--gamma", type=float, default=None, help="default eps_fa/100")
    _add_common(p_opt)

    p_cur = sub.add_parser("curves", help="sweep grid to CSV")
    p_cur.add_argument("--mode", required=True, choices=("dfa", "brm-general", "brm-sampling"))
    p_cur.add_argument("--psi-range", required=True, help="start:stop:step")
    p_cur.add_argument("--eps", help="comma list of eps values (dfa mode)")
    p_cur.add_argument("--lambda", dest="lam", help="comma list of retrieval rates (brm modes)")
    p_cur.add_argument("--eps-fa", type=float, default=1e-3)
    p_cur.add_argument("--eps-fr", type=float, default=1e-3)
    p_cur.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_cur.add_argument("--gamma", type=float, default=None)
    p_cur.add_argument("--out", required=True)
    p_cur.add_argument("--jobs", type=positive_int, default=1)
    _add_common(p_cur)

    p_sim = sub.add_parser("simulate", help="Monte Carlo a protocol/attack scenario")
    p_sim.add_argument("--protocol", required=True, choices=("pi1", "pi2", "pi3"))
    p_sim.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p_sim.add_argument("--trials", type=positive_int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--jobs", type=positive_int, default=1)
    p_sim.add_argument("--d-claim", type=float, help="claimed distance in m (default d0/2)")
    p_sim.add_argument("--d-real", type=float, help="true distance in m (default per scenario)")
    p_sim.add_argument("--intruder-d", type=float,
                       help="intruder distance in m, for mfa, impersonation and tfa-relay "
                            "(default error-free)")
    p_sim.add_argument("--psi", type=float, default=1.5)
    p_sim.add_argument("--eps-fa", type=float, default=1e-2)
    p_sim.add_argument("--eps-fr", type=float, default=1e-2)
    p_sim.add_argument("--auto", action="store_true", help="derive protocol params via the optimizer")
    p_sim.add_argument("--brm-mode", choices=BRM_MODES, default="sampling")
    p_sim.add_argument("--e0", type=float)
    p_sim.add_argument("--k", type=int)
    p_sim.add_argument("--beta", type=float)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--lambda", dest="lam", type=float)
    p_sim.add_argument("--theta", type=float,
                       help=f"sampler slack, with --auto only (default {DEFAULT_THETA:g})")
    p_sim.add_argument("--gamma", type=float,
                       help="sampler failure, with --auto only (default eps_fa/100)")
    p_sim.add_argument("--mac-bits", type=int, default=64, choices=sorted(FIELD_POLYNOMIALS))
    p_sim.add_argument("--no-mac", action="store_true", help="drop the tag from pi3 responses")
    p_sim.add_argument("--strategy", choices=sorted(_STRATEGIES), default="index-first")
    p_sim.add_argument("--mfa-strategy", choices=MFA_STRATEGIES, default="best-guess")
    p_sim.add_argument("--leak-sampler-key", action="store_true")
    p_sim.add_argument("--noiseless", action="store_true")
    p_sim.add_argument("--dump-transcripts", metavar="PATH")
    _add_common(p_sim)

    p_lam = sub.add_parser("max-lambda", help="largest feasible retrieval rate")
    p_lam.add_argument("--mode", required=True, choices=BRM_MODES)
    p_lam.add_argument("--psi", type=float, required=True)
    _add_common(p_lam)
    return parser


def _cmd_optimize(args) -> int:
    ch = _load_channel(args.channel)
    if args.mode == "dfa":
        spec = _specs(args, args.psi, args.eps_fa, args.eps_fr)
        opt = optimize_dfa(spec, ch)
        result = {"k_star": opt.k_star, "objective": opt.objective}
    else:
        if args.lam is None:
            raise _UsageError("--lambda is required for brm modes")
        mode = args.mode.removeprefix("brm-")
        spec = _specs(args, args.psi, args.eps_fa, args.eps_fr, args.lam)
        opt = optimize_brm(spec, ch, args.lam, mode, theta=args.theta, gamma=args.gamma)
        result = {"mu_star": opt.mu_star, "k_star": opt.k_star, "n_star": opt.n_star,
                  "lambda": args.lam, "mode": mode}
    result.update(e0_star_w=opt.e0_star, e0_star_dbm=watts_to_dbm(opt.e0_star),
                  beta_star=opt.beta_star)
    _emit({"command": "optimize", "mode": args.mode, "psi": args.psi,
           "eps_fa": args.eps_fa, "eps_fr": args.eps_fr, "result": result}, args.plain)
    return 0


def _parse_range(txt: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in txt.split(":"))
    except ValueError as exc:
        raise _UsageError(f"bad range {txt!r}, expected start:stop:step") from exc
    if not (step > 0 and stop >= start):
        raise _UsageError(f"bad range {txt!r}")
    points = (stop + 1e-12 - start) / step + 1
    if not points <= MAX_RANGE_POINTS:
        raise _UsageError(
            f"range {txt!r} has about {points:.4g} points, more than {MAX_RANGE_POINTS}"
        )
    if stop + step == stop:
        raise _UsageError(f"range {txt!r}: step {step:g} is below the float spacing at {stop:g}")
    out = []
    v = start
    while v <= stop + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def _cmd_curves(args) -> int:
    _check_writable(args.out)
    ch = _load_channel(args.channel)
    psi_values = _parse_range(args.psi_range)
    template = _specs(args, psi_values[0], args.eps_fa, args.eps_fr)
    mode = args.mode.removeprefix("brm-")
    if args.mode == "dfa":
        if not args.eps:
            raise _UsageError("--eps is required in dfa mode")
        with _user_input():
            eps_values = [float(x) for x in args.eps.split(",")]
        for psi, eps in itertools.product(psi_values, eps_values):
            _specs(args, psi, eps, eps)
        rows = sweep_curves(template, ch, "dfa", psi_values, eps_values=eps_values,
                            jobs=args.jobs)
    else:
        if not args.lam:
            raise _UsageError("--lambda is required in brm modes")
        with _user_input():
            lambda_values = [float(x) for x in args.lam.split(",")]
        for psi, lam in itertools.product(psi_values, lambda_values):
            _specs(args, psi, args.eps_fa, args.eps_fr, lam)
        rows = sweep_curves(
            template, ch, mode, psi_values, lambda_values=lambda_values,
            theta=args.theta, gamma=args.gamma, jobs=args.jobs,
        )
    write_curves_csv(rows, args.out)
    _emit({"command": "curves", "rows": len(rows), "out": args.out}, args.plain)
    return 0


def _auto_config(args, spec: DbvSpec, ch: ChannelParams) -> ProtocolConfig:
    if args.protocol in ("pi1", "pi2"):
        opt = optimize_dfa(spec, ch)
        with _user_input():
            return ProtocolConfig(
                protocol=args.protocol, e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
                mac_bits=args.mac_bits, use_mac=not args.no_mac,
            )
    if args.lam is None:
        raise _UsageError("--lambda is required for pi3")
    opt = optimize_brm(spec, ch, args.lam, args.brm_mode, theta=_theta(args), gamma=args.gamma)
    with _user_input():
        return ProtocolConfig(
            protocol="pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
            mac_bits=args.mac_bits, use_mac=not args.no_mac,
            brm=BrmParams(lam=args.lam, n=opt.n_star),
        )


def _explicit_config(args) -> ProtocolConfig:
    missing = [f for f in ("e0", "k", "beta") if getattr(args, f) is None]
    if missing:
        raise _UsageError(
            f"missing --{', --'.join(missing)}; pass them explicitly or use --auto"
        )
    params = None
    if args.protocol == "pi3":
        if args.lam is None or args.n is None:
            raise _UsageError("pi3 needs --lambda and --n (or --auto)")
        params = BrmParams(lam=args.lam, n=args.n)
    return ProtocolConfig(
        protocol=args.protocol, e0=args.e0, k=args.k, beta=args.beta,
        mac_bits=args.mac_bits, use_mac=not args.no_mac, brm=params,
    )


#: The scenarios whose attack places an intruder or adversary receiver at --intruder-d.
_INTRUDER_SCENARIOS = ("mfa", "impersonation", "tfa-relay")


def _simulate_inputs(args, ch: ChannelParams) -> tuple[DbvSpec, ProtocolConfig, Scenario]:
    """Spec, config and scenario of a simulate run, each checked before any trial."""
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if not args.auto:
        given = [f"--{name}" for name in ("theta", "gamma") if getattr(args, name) is not None]
        if given:
            raise _UsageError("--theta and --gamma need --auto, where the optimizer designs "
                              f"the sampler; got {' and '.join(given)}")
    lam = args.lam if args.protocol == "pi3" else None
    spec = _specs(args, args.psi, args.eps_fa, args.eps_fr, lam)
    if args.auto:
        cfg = _auto_config(args, spec, ch)
    else:
        with _user_input():
            cfg = _explicit_config(args)
    with _user_input():
        check_mac_strength(cfg, spec.eps_fa)
    if args.scenario in ("tfa-sampling", "tfa-general") and cfg.protocol != "pi3":
        raise _UsageError(f"--scenario {args.scenario} targets pi3")

    if args.scenario == "impersonation" and args.d_real is not None:
        raise _UsageError("--d-real does not apply to impersonation, where the prover is "
                          "absent; --intruder-d places the adversary")
    if args.intruder_d is not None and args.scenario not in _INTRUDER_SCENARIOS:
        raise _UsageError(f"--intruder-d does not apply to {args.scenario}, which places no "
                          "intruder receiver; it applies to " + ", ".join(_INTRUDER_SCENARIOS))
    d_claim = args.d_claim if args.d_claim is not None else ch.d0 / 2.0
    if args.d_real is not None:
        d_real = args.d_real
    elif args.scenario == "honest":
        d_real = d_claim
    else:
        d_real = spec.psi * d_claim
    with _user_input():
        transmit_power_for_claim(d_claim, cfg.e0, ch)  # claim and power within the channel
        scenario = Scenario(
            kind=args.scenario,
            d_claim=d_claim,
            d_real=d_real,
            intruder_d=args.intruder_d,
            mfa_strategy=args.mfa_strategy,
            tfa_strategy=_STRATEGIES[args.strategy],
            leaked_sampler_key=args.leak_sampler_key,
            noiseless=args.noiseless,
        )
        if cfg.protocol != "pi1" and cfg.use_mac:  # each MAC-encoded distance fits
            encode_response_claim((), d_claim)
            if scenario.kind == "mfa" and scenario.mfa_strategy == "replay":
                encode_response_claim((), d_real)  # the prover tags its own distance
    return spec, cfg, scenario


def _cmd_simulate(args) -> int:
    if args.dump_transcripts is not None:
        _check_writable(args.dump_transcripts)
    ch = _load_channel(args.channel)
    spec, cfg, scenario = _simulate_inputs(args, ch)

    if args.scenario == "mfa" and cfg.protocol == "pi1":
        print("warning: pi1 makes no mafia-fraud claim (no authentication)", file=sys.stderr)

    summary = estimate_rates(
        scenario, cfg, spec, ch, args.trials, args.seed,
        jobs=args.jobs, dump_path=args.dump_transcripts,
    )
    check = compare_to_bound(summary)
    out = {
        "command": "simulate",
        "config": {
            "protocol": cfg.protocol,
            "e0_w": cfg.e0,
            "e0_dbm": watts_to_dbm(cfg.e0),
            "k": cfg.k,
            "beta": float(cfg.beta),
            "mac_bits": cfg.mac_bits if cfg.protocol != "pi1" else None,
            "lambda": cfg.brm.lam if cfg.brm else None,
            "n": cfg.brm.n if cfg.brm else None,
            "use_mac": cfg.use_mac,
        },
        "summary": summary.to_json_dict(),
        "bound_check": {"passed": check.passed, "slack": check.slack, "form": check.form},
    }
    if args.scenario == "tfa-relay" and cfg.protocol == "pi3":
        out["structural_result"] = {
            "relay_blocked_by_retrieval_audit": summary.blocked == summary.trials,
            "blocked": summary.blocked,
        }
    _emit(out, args.plain)
    return 0


def _cmd_max_lambda(args) -> int:
    ch = _load_channel(args.channel)
    with _user_input():
        intended_blocked_ber(ch.e_max, args.psi, ch)  # psi > 1
    res = max_feasible_lambda(args.psi, ch, args.mode)
    _emit({"command": "max-lambda", "mode": args.mode, "psi": args.psi,
           "lambda_star": res.lambda_star, "feasible": res.feasible}, args.plain)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "curves":
            return _cmd_curves(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "max-lambda":
            return _cmd_max_lambda(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InfeasibleError as err:
        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "error": "infeasible",
            "condition": err.condition,
            "detail": str(err),
        }, sort_keys=True))
        return 2
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
