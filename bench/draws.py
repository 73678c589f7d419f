"""Time source reads, whole trials, MAC blocks, the keyed index sampler and
the design layers at two commits and write a ``BENCH_*.json``.

Run from the repository root, for example:

    python3 bench/draws.py --parent ae7b020 --change HEAD --out BENCH_lanes.json
    python3 bench/draws.py --parent ee71590 --change HEAD --group mac --out BENCH_mac_lanes.json
    python3 bench/draws.py --parent 06b6a85 --change HEAD --group emission \\
        --out BENCH_full_emission.json
    python3 bench/draws.py --parent 706bbfd --change HEAD --group digest \\
        --out BENCH_one_reception.json
    python3 bench/draws.py --parent 94f9ea0 --change HEAD --group sampler --out BENCH_sampler.json
    python3 bench/draws.py --parent d26e66e --change HEAD --group design --out BENCH_design.json
    python3 bench/draws.py --parent 469aec7 --change HEAD --group design --out BENCH_solve.json

``--group`` times the measurements whose names start with that group (``all``,
the default, times every group) and ``--out`` names the file written, which is
overwritten.  Each commit's ``src/`` is extracted with ``git archive`` into a
temporary directory.  Each round, every measurement is timed once on each side,
in a fresh child process that builds that measurement alone and times BATCHES
batches of it, so no measurement's allocations move glibc's mmap and trim
thresholds for another; which side goes first alternates by round.  Children
run one at a time, never two at once, so no child is timed while another holds
a core: a run of every group is 81 measurements x 2 sides x 7 rounds, some
1,100 children of about 0.7 s start-up each.  A child that fails stops the run
with its stderr.  Every figure is the best batch over all rounds, in
microseconds; the ``host`` block records each side's numpy and scipy versions
as its children report them.  The groups:

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
  rows, the pi2 relay with an error-free intruder at 30 rows and the pi2
  mfa replay at 25 rows, each one policy call on a new generator, the
  session's key draws, reads, signs and verdicts included;
* ``digest``: per trial of ``estimate_rates`` for the digest intruders of
  tfa-general, parity-sketch and block-majority, at the brm-dense design
  (k=160, n=534) with the prover at twice the claim, in calls of
  DIGEST_TRIALS trials, as brm-dense runs the block-majority batch;
* ``sampler``: ``rows``, per row, blocks of rows' challenge positions as a
  session draws them, one ``sample_indices_rows`` call a block, at the
  brm-dense block (67 rows), brm-sparse's one-row block and a full block at
  the brm-sparse shape; and ``one_row``, per ``sample_indices`` call, a new
  16-byte key each call, at brm-dense's and brm-sparse's (n, k), criterion
  10's two shapes and a long source.  Keys are made before the clock starts;
* ``design``: ``scan``, per ``optimize._scan_refined`` call over the power
  grid, on the dfa terms at psi 1.01 and 2 and on the sampling terms at psi
  1.6 (lambda 0.5, theta 1e-4); ``optimize_dfa``, per call at psi 1.21, eps
  1e-3; ``inner``, per scalar ``optimize._inner`` solve on the dfa terms at
  that design's optimal power, one Brent solve of the threshold; and
  ``tail_lower`` and ``tail_upper``, per exact false-accept (at p_b) and
  false-reject (at p_i) tail of the dfa designs at psi 1.01 and 1.21, eps
  1e-5 (k = 722,846 and 2,229).  One untimed call first fills the grid cache
  and the lgamma table.
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
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: design -> (retrieval rate, the "k=...[,n=...]" its measurement names carry):
#: the challenge-response design (``optimize_dfa`` at psi 1.1) that pi1 and pi2
#: run, and pi3 at the brm-dense and brm-sparse rates (``optimize_brm`` in
#: sampling mode at psi 2), as perfbench's workloads of those names design them.
DESIGNS = {"challenge-response": (None, "k=3334"), "brm-dense": (0.3, "k=160,n=534"),
           "brm-sparse": (1e-4, "k=103,n=1030000")}
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
#: (protocol, policy, rows) of the ``emission`` group's blocks: a scenario
#: kind, or ``mfa-replay`` for the mfa attack that replays the prover's tag.
EMISSION_BLOCKS = [("pi1", "honest", 78), ("pi2", "honest", 25), ("pi2", "tfa-relay", 30),
                   ("pi2", "mfa-replay", 25)]
#: Blocks a batch of each ``emission`` measurement runs.
EMISSION_CALLS = 10
#: Trials a call of each ``digest`` measurement runs, and its calls a batch.
DIGEST_TRIALS = 35
DIGEST_CALLS = 20
#: (rows, n, k) of the ``sampler`` group's blocks: criterion 08's block
#: (brm-dense), brm-sparse's one-row block, and a full block at the brm-sparse shape.
SAMPLER_ROWS = [(67, 534, 160), (1, 1_030_000, 103), (256, 1_030_000, 103)]
#: Rows a batch of each ``sampler/rows`` measurement draws, in whole blocks (at least one).
SAMPLER_ROW_BATCH = 1000
#: (n, k) of the one-row calls: brm-dense, brm-sparse, criterion 10's two
#: shapes, and a long source.
SAMPLER_ONE_ROW = [(534, 160), (1_030_000, 103), (10_000, 1000), (6, 3), (2_000_000_000, 200)]
#: Calls a batch of each ``sampler/one_row`` measurement makes.
SAMPLER_CALLS = 100
#: (psi, eps) -> k of the dfa designs whose exact tails the ``design`` group
#: times: the psi 1.01 design at eps 1e-5 and the psi 1.21 one at eps 1e-5.
TAIL_DESIGNS = {(1.01, 1e-5): 722846, (1.21, 1e-5): 2229}
#: (mode, lam, theta, psi, weights) of the ``design`` group's grid scans: the
#: dfa terms at equal budgets, and the sampling terms at perfbench's brm
#: budgets (1e-4, gamma 1e-6).
DESIGN_SCANS = [("dfa", None, None, 1.01, (1.0, 1.0)), ("dfa", None, None, 2.0, (1.0, 1.0)),
                ("sampling", 0.5, 1e-4, 1.6, (math.log(1e4), math.log(1.0 / (1e-4 - 1e-6))))]
#: Calls a batch of each ``design`` measurement makes: grid scans and
#: ``optimize_dfa``, scalar inner solves, the large-k tails and the small-k
#: tails.
SCAN_CALLS = 50
INNER_CALLS = 2000
LARGE_TAIL_CALLS = 20
SMALL_TAIL_CALLS = 200
#: Timed batches of the measurement in one child.
BATCHES = 10


def _config(protocol: str, design: str):
    """``protocol``'s config at ``design`` (a ``DESIGNS`` key); exits if its k
    and n are not the ones the measurement names carry."""
    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.optimize import optimize_brm, optimize_dfa
    from dbvsim.protocols import BrmParams, ProtocolConfig

    lam, label = DESIGNS[design]
    if lam is None:
        opt, brm = optimize_dfa(DbvSpec(psi=1.1, eps_fa=1e-2, eps_fr=1e-2), DEFAULT_CHANNEL), None
    else:
        opt = optimize_brm(DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2), DEFAULT_CHANNEL, lam,
                           "sampling")
        brm = BrmParams(lam=lam, n=opt.n_star)
    cfg = ProtocolConfig(protocol, e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star, brm=brm)
    designed = f"k={cfg.k}" + (f",n={brm.n}" if brm else "")
    if designed != label:
        sys.exit(f"the {design} design is {designed}, not the {label} its measurements name")
    return cfg


def _scenario(kind: str, psi: float, **knobs):
    """A ``kind`` run with the prover (or intruder) at ``psi`` times a claim of d0/2."""
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.montecarlo import Scenario

    d = DEFAULT_CHANNEL.d0 / 2.0
    return Scenario(kind, d, psi * d, **knobs)


def _reads(rows: int, k: int):
    """A ``read`` measurement: (count per batch, timed(batch) -> the batch's seconds)."""
    import numpy as np

    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.protocols import ProtocolConfig, Session

    design = _config("pi1", "challenge-response")
    cfg = ProtocolConfig("pi1", e0=design.e0, k=k, beta=design.beta)
    honest = _scenario("honest", 1.0)

    # Each session is built untimed just before its read and dropped after
    # it, as a trial's is, so the read reuses freed memory.
    def timed(batch):
        rng = np.random.default_rng(batch)
        total = 0.0
        for _ in range(READ_BATCH):
            s = Session(cfg, honest, DEFAULT_CHANNEL, rng, rows=rows)
            s.receive("prover", honest.d_real)
            start = time.perf_counter()
            s.read("prover")
            total += time.perf_counter() - start
        return total
    return READ_BATCH, timed


def _trials(protocol: str, design: str, per_call: int, calls: int, kind: str = "honest",
            psi: float = 1.0, strategy: str | None = None):
    """A ``trial`` or ``digest`` measurement, as ``_reads`` returns it: ``calls``
    ``estimate_rates`` calls of ``per_call`` trials, the tfa-general intruder
    retrieving by the ``dbvsim.attacks`` class ``strategy`` names."""
    from dbvsim import attacks
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.montecarlo import estimate_rates

    cfg = _config(protocol, design)
    knobs = {"tfa_strategy": getattr(attacks, strategy)()} if strategy else {}
    scenario = _scenario(kind, psi, **knobs)

    def timed(batch):
        start = time.perf_counter()
        for i in range(calls):
            estimate_rates(scenario, cfg, None, DEFAULT_CHANNEL, per_call, batch * calls + i)
        return time.perf_counter() - start
    return per_call * calls, timed


def _mac(measure: str, rows: int, bits: int):
    """A ``mac`` measurement (``measure`` is build, sign2, block or scalar), as
    ``_reads`` returns it."""
    import numpy as np

    from dbvsim.primitives import MacKeys, mac_sign, mac_sign_rows

    def inputs(batch):
        rng = np.random.default_rng([rows, bits, batch])
        keys = MacKeys.generate(rng, rows, 64)
        messages = rng.integers(0, 2, (2, rows, bits), dtype=np.uint8)
        # New keys share the key arrays but build their own tables.
        return [MacKeys(64, keys.a, keys.b) for _ in range(MAC_CALLS)], messages

    def build(batch):
        fresh, _ = inputs(batch)
        start = time.perf_counter()
        while fresh:
            fresh.pop().window_tables
        return time.perf_counter() - start

    def sign2(batch):
        fresh, (m1, m2) = inputs(batch)
        keys = fresh[0]
        mac_sign_rows(keys, m1)
        start = time.perf_counter()
        for _ in range(MAC_CALLS):
            mac_sign_rows(keys, m1)
            mac_sign_rows(keys, m2)
        return time.perf_counter() - start

    def row_by_row(keys, messages):
        for i in range(len(keys)):
            mac_sign(keys[i], messages[i])

    def block(batch):
        sign = mac_sign_rows if measure == "block" else row_by_row
        fresh, (m1, m2) = inputs(batch)
        start = time.perf_counter()
        while fresh:
            keys = fresh.pop()
            sign(keys, m1)
            sign(keys, m2)
        return time.perf_counter() - start
    return MAC_CALLS, {"build": build, "sign2": sign2, "block": block, "scalar": block}[measure]


def _emission(protocol: str, kind: str, rows: int):
    """An ``emission`` measurement, as ``_reads`` returns it."""
    import numpy as np

    from dbvsim import attacks
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.protocols import run_protocol

    cfg = _config(protocol, "challenge-response")
    if kind == "honest":
        scenario, policy = _scenario(kind, 1.0), run_protocol
    elif kind == "tfa-relay":
        scenario, policy = _scenario(kind, 1.1), attacks.attack_tfa_relay
    else:
        scenario, policy = _scenario("mfa", 1.1, mfa_strategy="replay"), attacks.attack_mfa

    def timed(batch):
        rngs = [np.random.default_rng([rows, batch, i]) for i in range(EMISSION_CALLS)]
        start = time.perf_counter()
        for rng in rngs:
            policy(cfg, scenario, DEFAULT_CHANNEL, rng, 0, rows=rows)
        return time.perf_counter() - start
    return EMISSION_CALLS, timed


def _sampler_rows(rows: int, n: int, k: int):
    """A ``sampler/rows`` measurement, as ``_reads`` returns it."""
    import numpy as np

    from dbvsim.primitives import sample_indices_rows, sampler_key_rows

    blocks = max(1, SAMPLER_ROW_BATCH // rows)

    def timed(batch):
        rng = np.random.default_rng([rows, n, k, batch])
        keys = [sampler_key_rows(rng.bytes(16 * rows)) for _ in range(blocks)]
        start = time.perf_counter()
        for block in keys:
            sample_indices_rows(block, n, k)
        return time.perf_counter() - start
    return blocks * rows, timed


def _sampler_one_row(n: int, k: int):
    """A ``sampler/one_row`` measurement, as ``_reads`` returns it."""
    import numpy as np

    from dbvsim.primitives import SamplerKey, sample_indices

    def timed(batch):
        rng = np.random.default_rng([n, k, batch])
        keys = [SamplerKey(rng.bytes(16)) for _ in range(SAMPLER_CALLS)]
        start = time.perf_counter()
        for key in keys:
            sample_indices(key, n, k)
        return time.perf_counter() - start
    return SAMPLER_CALLS, timed


def _calls(count: int, call):
    """A measurement of ``count`` calls of ``call()`` a batch, as ``_reads``
    returns it, after one untimed call fills the caches."""
    call()

    def timed(batch):
        start = time.perf_counter()
        for _ in range(count):
            call()
        return time.perf_counter() - start
    return count, timed


def _grid_scan(mode: str, lam, theta, psi: float, weights):
    """A ``design/scan`` measurement: ``_scan_refined`` over the grid at psi."""
    from dbvsim import bounds, optimize
    from dbvsim.channel import DEFAULT_CHANNEL

    terms = bounds._dfa_terms if mode == "dfa" else bounds._brm_terms(mode, lam, theta)
    _, p_i, p_b = optimize._ber_grid(psi, DEFAULT_CHANNEL)
    return _calls(SCAN_CALLS, partial(optimize._scan_refined, terms, p_i, p_b, *weights))


def _optimize_dfa(psi: float, eps: float):
    """A ``design/optimize_dfa`` measurement, on a cached grid."""
    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL
    from dbvsim.optimize import optimize_dfa

    return _calls(SCAN_CALLS, partial(optimize_dfa, DbvSpec(psi, eps, eps), DEFAULT_CHANNEL))


def _inner(psi: float, eps: float):
    """A ``design/inner`` measurement: ``_inner`` on the dfa terms at the
    optimal power of the dfa design at (psi, eps)."""
    from dbvsim import bounds, optimize
    from dbvsim.bounds import DbvSpec
    from dbvsim.channel import DEFAULT_CHANNEL, intended_blocked_ber

    opt = optimize.optimize_dfa(DbvSpec(psi, eps, eps), DEFAULT_CHANNEL)
    ber = intended_blocked_ber(opt.e0_star, psi, DEFAULT_CHANNEL)
    return _calls(INNER_CALLS,
                  partial(optimize._inner, bounds._dfa_terms, ber.p_i, ber.p_b, 1.0, 1.0))


def _tail(side: str, psi: float, eps: float):
    """A ``design/tail_*`` measurement: the dfa design at (psi, eps)'s exact
    false-accept (``lower``, at p_b) or false-reject (``upper``, at p_i)
    tail; exits if its k is not the one ``TAIL_DESIGNS`` names."""
    from dbvsim.bounds import DbvSpec, exact_binomial_tail_lower, exact_binomial_tail_upper
    from dbvsim.channel import DEFAULT_CHANNEL, intended_blocked_ber
    from dbvsim.optimize import optimize_dfa

    opt = optimize_dfa(DbvSpec(psi, eps, eps), DEFAULT_CHANNEL)
    if opt.k_star != TAIL_DESIGNS[psi, eps]:
        sys.exit(f"the psi {psi}, eps {eps} design is k={opt.k_star}, "
                 f"not the k={TAIL_DESIGNS[psi, eps]} its measurements name")
    ber = intended_blocked_ber(opt.e0_star, psi, DEFAULT_CHANNEL)
    if side == "lower":
        call = partial(exact_binomial_tail_lower, opt.k_star, opt.beta_star, ber.p_b)
    else:
        call = partial(exact_binomial_tail_upper, opt.k_star, opt.beta_star, ber.p_i)
    return _calls(LARGE_TAIL_CALLS if opt.k_star > 10**5 else SMALL_TAIL_CALLS, call)


def _measurements() -> list:
    """Every measurement, as (name, make) in run order; ``make()`` imports the
    dbvsim that PYTHONPATH names and returns what ``_reads`` does."""
    cr, dense, sparse = (DESIGNS[d][1] for d in ("challenge-response", "brm-dense", "brm-sparse"))
    table = [(f"read/{rows}x(k={k})", partial(_reads, rows, k)) for rows, k in READS]
    table += [(f"trial/{p}_honest({cr})", partial(_trials, p, "challenge-response", CR_TRIALS, 1))
              for p in ("pi1", "pi2")]
    table += [(f"trial/pi2_mfa-best-guess({cr})",
               partial(_trials, "pi2", "challenge-response", CR_TRIALS, 1, "mfa", 1.1)),
              (f"trial/pi3_honest({dense})",
               partial(_trials, "pi3", "brm-dense", DENSE_TRIALS, DENSE_CALLS)),
              (f"trial/pi3_honest({sparse})",
               partial(_trials, "pi3", "brm-sparse", 1, SPARSE_CALLS))]
    for rows, bits in MAC_SHAPES:
        table += [(f"mac/{m}/{rows}x{bits}", partial(_mac, m, rows, bits))
                  for m in ("build", "sign2")]
    table += [(f"mac/block/{rows}x{bits}", partial(_mac, "block", rows, bits))
              for rows, bits in dict.fromkeys(MAC_SHAPES + MAC_RULE)]
    table += [(f"mac/scalar/{rows}x{bits}", partial(_mac, "scalar", rows, bits))
              for rows, bits in MAC_RULE]
    table += [(f"emission/{p}_{kind}/{rows}x({cr})", partial(_emission, p, kind, rows))
              for p, kind, rows in EMISSION_BLOCKS]
    table += [(f"digest/{name}({dense})", partial(_trials, "pi3", "brm-dense", DIGEST_TRIALS,
                                                 DIGEST_CALLS, "tfa-general", 2.0, strategy))
              for name, strategy in (("parity-sketch", "ParitySketchStrategy"),
                                     ("block-majority", "BlockMajorityStrategy"))]
    table += [(f"sampler/rows/{rows}x({n},{k})", partial(_sampler_rows, rows, n, k))
              for rows, n, k in SAMPLER_ROWS]
    table += [(f"sampler/one_row/({n},{k})", partial(_sampler_one_row, n, k))
              for n, k in SAMPLER_ONE_ROW]
    table += [(f"design/scan/{mode}(psi={psi}" + (f",lam={lam},theta={theta})" if lam else ")"),
               partial(_grid_scan, mode, lam, theta, psi, weights))
              for mode, lam, theta, psi, weights in DESIGN_SCANS]
    table += [("design/optimize_dfa(psi=1.21,eps=1e-3)", partial(_optimize_dfa, 1.21, 1e-3)),
              ("design/inner(psi=1.21)", partial(_inner, 1.21, 1e-3))]
    table += [(f"design/tail_{side}(k={k})", partial(_tail, side, psi, eps))
              for (psi, eps), k in TAIL_DESIGNS.items() for side in ("lower", "upper")]
    return table


MEASUREMENTS = dict(_measurements())
#: What ``--group`` takes: ``all``, or the prefix that starts a measurement's name.
GROUPS = ("all", *dict.fromkeys(name.split("/")[0] for name in MEASUREMENTS))


def _select(group: str) -> list[str]:
    """The names of ``group``'s measurements, in run order."""
    return [name for name in MEASUREMENTS if group in ("all", name.split("/")[0])]


def _child(name: str) -> dict:
    """``name``'s best batch, in microseconds, on the dbvsim that PYTHONPATH
    names, and the numpy and scipy versions it ran with."""
    import numpy
    import scipy

    count, timed = MEASUREMENTS[name]()
    best = min(timed(batch) for batch in range(BATCHES)) / count * 1e6
    return {"us": {name: best}, "numpy": numpy.__version__, "scipy": scipy.__version__}


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


def _time(side: str, commit: str, src: Path, name: str) -> dict:
    """A fresh child's report of ``name`` on ``src``, ``side``'s ``commit``;
    stops the run with the child's stderr if the child fails."""
    result = subprocess.run([sys.executable, __file__, "--child", name],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"the {side} side ({commit}) failed timing {name}:\n{result.stderr}")
    return json.loads(result.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent commit (required)")
    parser.add_argument("--change", default="HEAD", help="changed commit")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--group", choices=GROUPS, default="all",
                        help="time this group's measurements alone")
    parser.add_argument("--out", type=Path, help="the BENCH_*.json to write (required)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        if args.child not in MEASUREMENTS:
            parser.error(f"unknown measurement {args.child!r}")
        print(json.dumps(_child(args.child)))
        return
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    names = _select(args.group)
    with tempfile.TemporaryDirectory() as tmp:
        commits = {side: _extract(rev, Path(tmp) / side)
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        best = {side: dict.fromkeys(names, math.inf) for side in commits}
        versions = {}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in names:
                for side in order:
                    report = _time(side, commits[side], Path(tmp) / side / "src", name)
                    best[side][name] = min(best[side][name], report["us"][name])
                    versions[side] = {"numpy": report["numpy"], "scipy": report["scipy"]}
    result = {
        "command": ("python3 bench/draws.py --parent {} --change {} --rounds {} --group {}"
                    .format(args.parent, args.change, args.rounds, args.group)),
        "parent": commits["parent"],
        "change": commits["change"],
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), **versions},
        "unit": "us, best batch of all rounds, one child per measurement",
        "rounds": args.rounds,
        "metrics": {},
    }
    for name in names:
        parent, change = best["parent"][name], best["change"][name]
        result["metrics"][name] = {"parent": round(parent, 2), "change": round(change, 2),
                                   "change_over_parent": round(change / parent, 3)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['parent']:10.2f} {m['change']:10.2f} {m['change_over_parent']:6.3f}")


if __name__ == "__main__":
    main()
