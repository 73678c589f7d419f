"""Time the keyed index sampler at two commits and write ``BENCH_sampler.json``.

Run from the repository root:

    python3 bench/sampler.py --parent 94f9ea0 --change HEAD --out BENCH_sampler.json

Each commit's ``src/`` is extracted with ``git archive`` into a temporary
directory and timed in child processes of its own, one per round, the two
sides taking turns (which side goes first alternates by round).  A child
times BATCHES batches of each measurement, taking the measurements in turn,
and every figure is the best batch over all rounds, in microseconds:

* ``rows``: per row, blocks of rows' positions as a session draws them: one
  ``sample_indices_rows`` call a block where the commit has it, else one
  ``sample_indices`` call per row;
* ``one_row``: per ``sample_indices`` call, a fresh 16-byte key each call;
* ``pi3_honest``: per trial of ``estimate_rates`` on an honest pi3 run at the
  criterion-08 design (k=160, n=534), the sampler and everything else.
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

#: (rows, n, k): criterion 08's block (brm-dense), brm-sparse's one-row
#: block, and a full block at the brm-sparse shape.
ROWS = [(67, 534, 160), (1, 1_030_000, 103), (256, 1_030_000, 103)]
#: (n, k) of one-row calls: brm-dense, brm-sparse, criterion 10's two
#: shapes, and a long source.
ONE_ROW = [(534, 160), (1_030_000, 103), (10_000, 1000), (6, 3), (2_000_000_000, 200)]
ONE_ROW_CALLS = 100
#: Rows a batch of ``rows`` measurements draws, in whole blocks (at least one).
ROW_BATCH = 1000
PI3_TRIALS = 1500
#: Timed batches of each measurement in one child, taken in turn.
BATCHES = 10


def _child() -> dict:
    """The best batch of each measurement on the dbvsim that PYTHONPATH names."""
    import numpy as np

    from dbvsim import primitives
    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.montecarlo import Scenario, estimate_rates
    from dbvsim.optimize import optimize_brm
    from dbvsim.protocols import BrmParams, ProtocolConfig

    rng = np.random.default_rng(20261019)
    batches: dict = {}  # name -> (count per batch, one callable per batch)
    for rows, n, k in ROWS:
        blocks = max(1, ROW_BATCH // rows)
        raws = [[rng.bytes(16 * rows) for _ in range(blocks)] for _ in range(BATCHES)]
        if hasattr(primitives, "sample_indices_rows"):
            calls = [lambda keys=[primitives.sampler_key_rows(raw) for raw in batch], n=n, k=k:
                     [primitives.sample_indices_rows(block, n, k) for block in keys]
                     for batch in raws]
        else:
            calls = [lambda keys=[[primitives.SamplerKey(raw[i: i + 16])
                                   for i in range(0, len(raw), 16)] for raw in batch], n=n, k=k:
                     [[primitives.sample_indices(key, n, k) for key in block] for block in keys]
                     for batch in raws]
        batches[f"rows/{rows}x({n},{k})"] = (blocks * rows, calls)
    for n, k in ONE_ROW:
        calls = [lambda keys=[primitives.SamplerKey(rng.bytes(16)) for _ in range(ONE_ROW_CALLS)],
                 n=n, k=k: [primitives.sample_indices(key, n, k) for key in keys]
                 for _ in range(BATCHES)]
        batches[f"one_row/({n},{k})"] = (ONE_ROW_CALLS, calls)
    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_brm(spec, DEFAULT_CHANNEL, 0.3, "sampling")
    cfg = ProtocolConfig("pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
                         brm=BrmParams(lam=0.3, n=opt.n_star))
    d = DEFAULT_CHANNEL.d0 / 2.0
    batches[f"pi3_honest/(k={cfg.k},n={cfg.brm.n})"] = (PI3_TRIALS, [
        lambda seed=seed: estimate_rates(Scenario("honest", d, d), cfg, None, DEFAULT_CHANNEL,
                                         PI3_TRIALS, seed)
        for seed in range(BATCHES)])
    best = {name: math.inf for name in batches}
    for batch in range(BATCHES):
        for name, (count, calls) in batches.items():
            start = time.perf_counter()
            calls[batch]()
            best[name] = min(best[name], (time.perf_counter() - start) / count * 1e6)
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
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sampler.json")
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
        "command": ("python3 bench/sampler.py --parent {} --change {} --rounds {}"
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
        print(f"{name:32s} {m['parent']:10.2f} {m['change']:10.2f} {m['change_over_parent']:6.3f}")


if __name__ == "__main__":
    main()
