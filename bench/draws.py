"""Time source reads and whole trials at two commits and write a ``BENCH_*.json``.

Run from the repository root, for example:

    python3 bench/draws.py --parent c56ec7f --change HEAD --out BENCH_draws.json
    python3 bench/draws.py --parent f1a2614 --change HEAD --out BENCH_blocks.json

Each commit's ``src/`` is extracted with ``git archive`` into a temporary
directory and timed in child processes of its own, one per round, the two
sides taking turns (which side goes first alternates by round).  A child
times BATCHES batches of each measurement, taking the measurements in turn,
and every figure is the best batch over all rounds, in microseconds:

* ``read``: per ``Session.read`` of all k positions by a hard receiver at the
  claim (pi1 at the challenge-response design's power and threshold), one
  row at k=103 and k=3334 and 9- and 78-row blocks at k=3334 (the rows of a
  challenge-response block at 2^15 and 2^18 block positions); each session
  is built and its receiver placed before its read's clock starts, so a read
  is the sampled keys, the source-bit draw, the bit-error draw and the audit;
* ``trial``: per trial of ``estimate_rates``: honest pi1 and pi2 and the
  best-guess mfa attack on pi2 at the challenge-response design (k=3334),
  CR_TRIALS trials in one call; honest pi3 at the brm-dense design (k=160,
  n=534) in calls of DENSE_TRIALS trials, as brm-dense runs it; and honest
  pi3 at the brm-sparse design (k=103, n=1.03e6) with one trial a call, as
  brm-sparse runs it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (rows, k) of the timed reads.
READS = [(1, 103), (1, 3334), (9, 3334), (78, 3334)]
#: Reads a batch of ``read`` measurements makes, one session each.
READ_BATCH = 200
#: Trials a batch of each k=3334 ``trial`` measurement runs, in one call.
CR_TRIALS = 900
#: Trials a call of the brm-dense ``trial`` measurement runs, and its calls a batch.
DENSE_TRIALS = 100
DENSE_CALLS = 9
#: Calls, of one trial each, a batch of the brm-sparse ``trial`` measurement makes.
SPARSE_CALLS = 300
#: Timed batches of each measurement in one child, taken in turn.
BATCHES = 10


def _child() -> dict:
    """The best batch of each measurement on the dbvsim that PYTHONPATH names."""
    import numpy as np

    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.montecarlo import Scenario, estimate_rates
    from dbvsim.optimize import optimize_brm, optimize_dfa
    from dbvsim.protocols import BrmParams, ProtocolConfig, Session

    d = DEFAULT_CHANNEL.d0 / 2.0
    honest = Scenario("honest", d, d)
    opt = optimize_dfa(DbvSpec(psi=1.1, eps_fa=1e-2, eps_fr=1e-2), DEFAULT_CHANNEL)
    pi1 = ProtocolConfig("pi1", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)
    pi2 = ProtocolConfig("pi2", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)
    mfa = Scenario("mfa", d, 1.1 * d)
    brm_spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)

    def pi3_at(lam):
        opt = optimize_brm(brm_spec, DEFAULT_CHANNEL, lam, "sampling")
        return ProtocolConfig("pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
                              brm=BrmParams(lam=lam, n=opt.n_star,
                                            gamma=brm_spec.eps_fa / 100.0))

    dense, sparse = pi3_at(0.3), pi3_at(1e-4)

    def reads(cfg, rows):
        # Each session is built untimed just before its read and dropped after
        # it, as a trial's is, so the read reuses freed memory.
        def timed(batch):
            rng = np.random.default_rng(batch)
            total = 0.0
            for _ in range(READ_BATCH):
                s = Session(cfg, honest, DEFAULT_CHANNEL, rng, rows=rows)
                s.receive("prover", d)
                start = time.perf_counter()
                s.read("prover")
                total += time.perf_counter() - start
            return total
        return timed

    def trials(cfg, per_call, calls, scenario=honest):
        def timed(batch):
            start = time.perf_counter()
            for i in range(calls):
                estimate_rates(scenario, cfg, None, DEFAULT_CHANNEL, per_call,
                               batch * calls + i)
            return time.perf_counter() - start
        return timed

    # name -> (count per batch, timed(batch) -> the batch's seconds)
    batches: dict = {}
    for rows, k in READS:
        cfg = ProtocolConfig("pi1", e0=pi1.e0, k=k, beta=pi1.beta)
        batches[f"read/{rows}x(k={k})"] = (READ_BATCH, reads(cfg, rows))
    for cfg in (pi1, pi2):
        batches[f"trial/{cfg.protocol}_honest(k={cfg.k})"] = (CR_TRIALS,
                                                              trials(cfg, CR_TRIALS, 1))
    batches[f"trial/pi2_mfa-best-guess(k={pi2.k})"] = (CR_TRIALS,
                                                       trials(pi2, CR_TRIALS, 1, mfa))
    batches[f"trial/pi3_honest(k={dense.k},n={dense.brm.n})"] = (
        DENSE_TRIALS * DENSE_CALLS, trials(dense, DENSE_TRIALS, DENSE_CALLS))
    batches[f"trial/pi3_honest(k={sparse.k},n={sparse.brm.n})"] = (
        SPARSE_CALLS, trials(sparse, 1, SPARSE_CALLS))
    best = {name: math.inf for name in batches}
    for batch in range(BATCHES):
        for name, (count, timed) in batches.items():
            best[name] = min(best[name], timed(batch) / count * 1e6)
    return best


def _extract(rev: str, into: Path) -> str:
    """``rev``'s ``src/`` under ``into``; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir()
    tar = into / "src.tar"
    tar.write_bytes(archive)
    with tarfile.open(tar) as t:
        t.extractall(into, filter="data")
    return commit


def _round(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                            capture_output=True, text=True)
    return json.loads(result.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent commit")
    parser.add_argument("--change", default="HEAD", help="changed commit")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_draws.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child()))
        return
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            sides[side] = (_extract(rev, Path(tmp) / side), Path(tmp) / side / "src")
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_round(sides[side][1]))
    result = {
        "command": ("python3 bench/draws.py --parent {} --change {} --rounds {}"
                    .format(args.parent, args.change, args.rounds)),
        "parent": sides["parent"][0],
        "change": sides["change"][0],
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "unit": "us, best batch of all rounds",
        "rounds": args.rounds,
        "metrics": {},
    }
    for name in runs["parent"][0]:
        parent = min(run[name] for run in runs["parent"])
        change = min(run[name] for run in runs["change"])
        result["metrics"][name] = {"parent": round(parent, 2), "change": round(change, 2),
                                   "change_over_parent": round(change / parent, 3)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['parent']:10.2f} {m['change']:10.2f} {m['change_over_parent']:6.3f}")


if __name__ == "__main__":
    main()
