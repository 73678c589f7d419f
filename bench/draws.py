"""Time source reads, whole trials and MAC blocks at two commits and write a
``BENCH_*.json``.

Run from the repository root, for example:

    python3 bench/draws.py --parent c56ec7f --change HEAD --out BENCH_draws.json
    python3 bench/draws.py --parent f1a2614 --change HEAD --out BENCH_blocks.json
    python3 bench/draws.py --parent 23f929d --change HEAD --mac-only --out BENCH_mac.json
    python3 bench/draws.py --parent ee71590 --change HEAD --mac-only --out BENCH_mac_lanes.json
    python3 bench/draws.py --parent 06b6a85 --change HEAD --emission-only --out BENCH_full_emission.json
    python3 bench/draws.py --parent 706bbfd --change HEAD --digest-only --out BENCH_one_reception.json

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
  brm-sparse runs it;
* ``mac``: per block of GF(2^64) MAC keys and (rows, bits) messages, at the
  blocks pi3 signs at the brm-dense design (224-bit messages, 2 to 256 rows),
  pi2 at the challenge-response design (3398 bits, 25 to 78 rows) and
  brm-sparse's one-row pi3 (167 bits): ``build``, the block's
  ``MacKeys.window_tables``; ``sign2``, two ``mac_sign_rows`` calls over
  built tables (an untimed first sign builds them, and a**r's where the
  messages sign in lanes); ``block``, two calls on new keys, the builds
  included, as a session pays them; and, at 1 to 4 rows, ``scalar``, the
  same two signs row by row with ``mac_sign``, the path ``mac_sign_rows``
  takes for the smallest blocks.  Keys and messages are made before the
  clock starts, and each block's keys are dropped after use;
* ``emission``: per block of a full-emission (k = n) protocol at the
  challenge-response design (k=3334), at the block sizes perfbench's
  challenge-response batches run: pi1 honest at 78 rows, pi2 honest at 25
  rows and the pi2 relay with an error-free intruder at 30 rows, each one
  policy call on a new generator, the session's key draws, reads, signs
  and verdicts included;
* ``digest``: per trial of ``estimate_rates`` for the digest intruders of
  tfa-general, parity-sketch and block-majority, at the brm-dense design
  (k=160, n=534) with the prover at twice the claim, in calls of
  DIGEST_TRIALS trials, as brm-dense runs the block-majority batch.

``--mac-only`` times the ``mac`` group alone, ``--emission-only`` the
``emission`` group alone and ``--digest-only`` the ``digest`` group alone.
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
#: (rows, bits) of the ``mac`` group's build and sign measurements.
MAC_SHAPES = [(1, 167), (2, 224), (35, 224), (120, 224), (256, 224), (25, 3398), (30, 3398),
              (40, 3398), (78, 3398)]
#: (rows, bits) where ``block`` is timed against ``scalar``, which sets the
#: block size ``mac_sign_rows`` signs row by row.
MAC_RULE = [(rows, bits) for bits in (167, 224, 3398) for rows in (1, 2, 3, 4)]
#: Blocks a batch of each ``mac`` measurement signs or builds.
MAC_CALLS = 20
#: (protocol, scenario kind, rows) of the ``emission`` group's blocks.
EMISSION_BLOCKS = [("pi1", "honest", 78), ("pi2", "honest", 25), ("pi2", "tfa-relay", 30)]
#: Blocks a batch of each ``emission`` measurement runs.
EMISSION_CALLS = 10
#: Trials a call of each ``digest`` measurement runs, and its calls a batch.
DIGEST_TRIALS = 35
DIGEST_CALLS = 20
#: The measurement groups a child times, by the name ``--child`` takes.
GROUPS = ("all", "mac", "emission", "digest")
#: Timed batches of each measurement in one child, taken in turn.
BATCHES = 10


def _draw_batches() -> dict:
    """The ``read`` and ``trial`` measurements:
    name -> (count per batch, timed(batch) -> the batch's seconds)."""
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
    return batches


def _mac_batches() -> dict:
    """The ``mac`` measurements, as ``_draw_batches`` returns them."""
    import numpy as np

    from dbvsim.primitives import MacKeys, mac_sign, mac_sign_rows

    def inputs(rows, bits, batch):
        rng = np.random.default_rng([rows, bits, batch])
        keys = MacKeys.generate(rng, rows, 64)
        messages = rng.integers(0, 2, (2, rows, bits), dtype=np.uint8)
        # New keys share the key arrays but build their own tables.
        return [MacKeys(64, keys.a, keys.b) for _ in range(MAC_CALLS)], messages

    def build(rows, bits):
        def timed(batch):
            fresh, _ = inputs(rows, bits, batch)
            start = time.perf_counter()
            while fresh:
                fresh.pop().window_tables
            return time.perf_counter() - start
        return timed

    def sign2(rows, bits):
        def timed(batch):
            fresh, (m1, m2) = inputs(rows, bits, batch)
            keys = fresh[0]
            mac_sign_rows(keys, m1)
            start = time.perf_counter()
            for _ in range(MAC_CALLS):
                mac_sign_rows(keys, m1)
                mac_sign_rows(keys, m2)
            return time.perf_counter() - start
        return timed

    def block(rows, bits, sign):
        def timed(batch):
            fresh, (m1, m2) = inputs(rows, bits, batch)
            start = time.perf_counter()
            while fresh:
                keys = fresh.pop()
                sign(keys, m1)
                sign(keys, m2)
            return time.perf_counter() - start
        return timed

    def row_by_row(keys, messages):
        for i in range(len(keys)):
            mac_sign(keys[i], messages[i])

    batches: dict = {}
    for rows, bits in MAC_SHAPES:
        batches[f"mac/build/{rows}x{bits}"] = (MAC_CALLS, build(rows, bits))
        batches[f"mac/sign2/{rows}x{bits}"] = (MAC_CALLS, sign2(rows, bits))
    for rows, bits in dict.fromkeys(MAC_SHAPES + MAC_RULE):
        batches[f"mac/block/{rows}x{bits}"] = (MAC_CALLS, block(rows, bits, mac_sign_rows))
    for rows, bits in MAC_RULE:
        batches[f"mac/scalar/{rows}x{bits}"] = (MAC_CALLS, block(rows, bits, row_by_row))
    return batches


def _emission_batches() -> dict:
    """The ``emission`` measurements, as ``_draw_batches`` returns them."""
    import numpy as np

    from dbvsim import attacks
    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.montecarlo import Scenario
    from dbvsim.optimize import optimize_dfa
    from dbvsim.protocols import ProtocolConfig, run_protocol

    spec = DbvSpec(psi=1.1, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_dfa(spec, DEFAULT_CHANNEL)
    d = DEFAULT_CHANNEL.d0 / 2.0
    scenarios = {"honest": Scenario("honest", d, d),
                 "tfa-relay": Scenario("tfa-relay", d, spec.psi * d)}
    policies = {"honest": run_protocol, "tfa-relay": attacks.attack_tfa_relay}

    def blocks(cfg, kind, rows):
        scenario, policy = scenarios[kind], policies[kind]

        def timed(batch):
            rngs = [np.random.default_rng([rows, batch, i]) for i in range(EMISSION_CALLS)]
            start = time.perf_counter()
            for rng in rngs:
                policy(cfg, scenario, DEFAULT_CHANNEL, rng, 0, rows=rows)
            return time.perf_counter() - start
        return timed

    batches: dict = {}
    for protocol, kind, rows in EMISSION_BLOCKS:
        cfg = ProtocolConfig(protocol, e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)
        batches[f"emission/{protocol}_{kind}/{rows}x(k={cfg.k})"] = (
            EMISSION_CALLS, blocks(cfg, kind, rows))
    return batches


def _digest_batches() -> dict:
    """The ``digest`` measurements, as ``_draw_batches`` returns them."""
    from dbvsim.attacks import BlockMajorityStrategy, ParitySketchStrategy
    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.montecarlo import Scenario, estimate_rates
    from dbvsim.optimize import optimize_brm
    from dbvsim.protocols import BrmParams, ProtocolConfig

    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_brm(spec, DEFAULT_CHANNEL, 0.3, "sampling")
    cfg = ProtocolConfig("pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
                         brm=BrmParams(lam=0.3, n=opt.n_star))
    d = DEFAULT_CHANNEL.d0 / 2.0

    def trials(strategy):
        scenario = Scenario("tfa-general", d, spec.psi * d, tfa_strategy=strategy)

        def timed(batch):
            start = time.perf_counter()
            for i in range(DIGEST_CALLS):
                estimate_rates(scenario, cfg, None, DEFAULT_CHANNEL, DIGEST_TRIALS,
                               batch * DIGEST_CALLS + i)
            return time.perf_counter() - start
        return timed

    return {f"digest/{strategy.name}(k={cfg.k},n={cfg.brm.n})":
            (DIGEST_TRIALS * DIGEST_CALLS, trials(strategy))
            for strategy in (ParitySketchStrategy(), BlockMajorityStrategy())}


def _child(group: str) -> dict:
    """The best batch of each measurement of ``group`` on the dbvsim that
    PYTHONPATH names."""
    batches = _draw_batches() if group == "all" else {}
    if group in ("all", "mac"):
        batches.update(_mac_batches())
    if group in ("all", "emission"):
        batches.update(_emission_batches())
    if group in ("all", "digest"):
        batches.update(_digest_batches())
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


def _round(src: Path, group: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, __file__, "--child", group], env=env,
                            check=True, capture_output=True, text=True)
    return json.loads(result.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent commit")
    parser.add_argument("--change", default="HEAD", help="changed commit")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_draws.json")
    only = parser.add_mutually_exclusive_group()
    only.add_argument("--mac-only", action="store_true", help="time the mac group alone")
    only.add_argument("--emission-only", action="store_true",
                      help="time the emission group alone")
    only.add_argument("--digest-only", action="store_true",
                      help="time the digest group alone")
    parser.add_argument("--child", choices=GROUPS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child(args.child)))
        return
    if not args.parent:
        parser.error("--parent is required")
    group, flag = (("mac", " --mac-only") if args.mac_only
                   else ("emission", " --emission-only") if args.emission_only
                   else ("digest", " --digest-only") if args.digest_only
                   else ("all", ""))
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            sides[side] = (_extract(rev, Path(tmp) / side), Path(tmp) / side / "src")
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_round(sides[side][1], group))
    result = {
        "command": ("python3 bench/draws.py --parent {} --change {} --rounds {}{}"
                    .format(args.parent, args.change, args.rounds, flag)),
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
