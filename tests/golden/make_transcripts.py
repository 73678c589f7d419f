"""Write ``transcripts.jsonl``: golden per-trial transcripts of every scenario.

The fixture pins what every protocol run and every attack draws and decides,
so a change to how runs are assembled must reproduce each transcript byte for
byte.  Lines are written by ``estimate_rates(..., dump_path=...)``, the
``simulate --dump-transcripts`` format, case after case, three trials each.
The cases are

* the protocols pi1 and pi2 (k=150, e0=2000, beta=0.1) and pi3 (k=120,
  n=400, lambda=0.3) with and without a MAC;
* honest, with and without ``noiseless``; dfa; mfa with each strategy and an
  error-free or 30 km intruder; impersonation with each combination of
  leaked keys and an error-free or 30 km adversary; the relay with an
  error-free or 30 km intruder;
* on pi3 only, tfa-sampling with first and random positions and tfa-general
  with each library strategy, with and without ``noiseless``.

Run from the repository root:  PYTHONPATH=src python tests/golden/make_transcripts.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from dbvsim.attacks import (
    BlockMajorityStrategy,
    IndexSamplingStrategy,
    ParitySketchStrategy,
)
from dbvsim.channel import DEFAULT_CHANNEL
from dbvsim.montecarlo import Scenario, estimate_rates
from dbvsim.protocols import BrmParams, ProtocolConfig

OUT = Path(__file__).with_name("transcripts.jsonl")
TRIALS = 3
D_CLAIM = 4e4
D_REAL = 6e4
NEAR = (None, 3e4)

CONFIGS = {
    "pi1": ProtocolConfig("pi1", e0=2000.0, k=150, beta=0.1),
    "pi2": ProtocolConfig("pi2", e0=2000.0, k=150, beta=0.1),
    "pi3": ProtocolConfig("pi3", e0=2000.0, k=120, beta=0.1, brm=BrmParams(lam=0.3, n=400)),
    "pi3-no-mac": ProtocolConfig(
        "pi3", e0=2000.0, k=120, beta=0.1, use_mac=False, brm=BrmParams(lam=0.3, n=400)
    ),
}

TFA_STRATEGIES = (
    IndexSamplingStrategy("first"),
    IndexSamplingStrategy("random"),
    ParitySketchStrategy(),
    BlockMajorityStrategy(),
)


def scenarios(protocol: str) -> list[Scenario]:
    out = [Scenario("honest", D_CLAIM, D_CLAIM, noiseless=q) for q in (False, True)]
    out.append(Scenario("dfa", D_CLAIM, D_REAL))
    out += [
        Scenario("mfa", D_CLAIM, D_REAL, intruder_d=d, mfa_strategy=s)
        for s in ("replay", "random-tag", "best-guess")
        for d in NEAR
    ]
    out += [
        Scenario("impersonation", D_CLAIM, D_REAL, intruder_d=d,
                 leaked_sampler_key=ls, leaked_mac_key=lm)
        for ls in (False, True)
        for lm in (False, True)
        for d in NEAR
    ]
    out += [Scenario("tfa-relay", D_CLAIM, D_REAL, intruder_d=d) for d in NEAR]
    if protocol == "pi3":
        out += [
            Scenario("tfa-sampling", D_CLAIM, D_REAL, tfa_strategy=IndexSamplingStrategy(c))
            for c in ("first", "random")
        ]
        out += [
            Scenario("tfa-general", D_CLAIM, D_REAL, tfa_strategy=s, noiseless=q)
            for s in TFA_STRATEGIES
            for q in (False, True)
        ]
    return out


def cases() -> list[tuple[str, Scenario]]:
    return [(name, sc) for name, cfg in CONFIGS.items() for sc in scenarios(cfg.protocol)]


def case_lines(index: int, config: str, scenario: Scenario) -> list[str]:
    """The dumped transcript lines of one case; master seed 1000 + case index."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.jsonl"
        estimate_rates(scenario, CONFIGS[config], None, DEFAULT_CHANNEL, TRIALS,
                       1000 + index, dump_path=str(path))
        return path.read_text().splitlines(keepends=True)


def main() -> None:
    lines = [line for i, (c, sc) in enumerate(cases()) for line in case_lines(i, c, sc)]
    OUT.write_text("".join(lines))
    print(f"wrote {len(lines)} lines to {OUT}")


if __name__ == "__main__":
    main()
