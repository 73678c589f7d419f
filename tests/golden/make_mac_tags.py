"""Write ``mac_tags.json``: golden one-time MAC tags and pi2/pi3 transcript tags.

The fixture pins the integers the MAC produces, so any change to how
``mac_sign`` is evaluated must reproduce them exactly.  It holds

* ``mac_sign`` tags for every field size in ``FIELD_POLYNOMIALS``: three
  generated keys and the edge points a = 0, 1, 2**s - 1, over message lengths
  that include 0 bits and exact block multiples (the 64-bit length prefix
  counted);
* the ``tag_hex`` of honest ``run_pi2`` transcripts at k=3334 (psi=1.1,
  eps=1e-2) and ``run_pi3`` transcripts at k=160, n=534 (psi=2, eps=1e-2,
  lambda=0.3 sampling), three seeds each, with the configurations spelled out;
* ``sampler_stream`` and ``source_stream``: the ``SAMPLER_STREAM_VERSION``
  the pi3 tags and the ``SOURCE_STREAM_VERSION`` all transcript tags were
  drawn with, since the sampled positions and the drawn source and noise (and
  so the tags) depend on them.

Messages are not stored: ``message(s, seed, length)`` regenerates them.

Run from the repository root:  PYTHONPATH=src python tests/golden/make_mac_tags.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dbvsim.bounds import DbvSpec
from dbvsim.channel import DEFAULT_CHANNEL
from dbvsim.montecarlo import Scenario
from dbvsim.optimize import optimize_brm, optimize_dfa
from dbvsim.primitives import FIELD_POLYNOMIALS, SAMPLER_STREAM_VERSION, MacKey, mac_sign
from dbvsim.protocols import (
    SOURCE_STREAM_VERSION,
    BrmParams,
    ProtocolConfig,
    run_pi2,
    run_pi3,
)

OUT = Path(__file__).with_name("mac_tags.json")
KEY_SEEDS = (11, 12, 13)
TRANSCRIPT_SEEDS = (1, 2, 3)
#: 64 is an exact block multiple for s <= 64 and 700 is the upper end of the
#: property test's range; 3398 is a pi2 MAC input at k=3334.
BASE_LENGTHS = (0, 1, 7, 63, 64, 65, 700, 3398)


def lengths_for(s: int) -> list[int]:
    """BASE_LENGTHS plus the lengths whose prefixed size is 1-3 whole blocks."""
    exact = [(-64) % s + j * s for j in (1, 2, 3)]
    return sorted(set(BASE_LENGTHS) | {n for n in exact if n >= 0})


def message(s: int, seed: int, length: int) -> np.ndarray:
    return np.random.default_rng([s, seed, length]).integers(0, 2, length, dtype=np.uint8)


def mac_cases() -> list[dict]:
    cases = []
    for s in sorted(FIELD_POLYNOMIALS):
        keys = [(seed, MacKey.generate(np.random.default_rng(seed), s)) for seed in KEY_SEEDS]
        top = (1 << s) - 1
        keys += [(0, MacKey(s, a, top ^ a)) for a in (0, 1, top)]
        for seed, key in keys:
            lengths = lengths_for(s)
            cases.append({
                "field_bits": s,
                "message_seed": seed,
                "a_hex": format(key.a, "x"),
                "b_hex": format(key.b, "x"),
                "lengths": lengths,
                "tags_hex": [format(mac_sign(key, message(s, seed, n)), "x") for n in lengths],
            })
    return cases


def pi2_config() -> ProtocolConfig:
    opt = optimize_dfa(DbvSpec(psi=1.1, eps_fa=1e-2, eps_fr=1e-2), DEFAULT_CHANNEL)
    return ProtocolConfig(protocol="pi2", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star)


def pi3_config() -> ProtocolConfig:
    spec = DbvSpec(psi=2.0, eps_fa=1e-2, eps_fr=1e-2)
    opt = optimize_brm(spec, DEFAULT_CHANNEL, 0.3, "sampling")
    return ProtocolConfig(
        protocol="pi3", e0=opt.e0_star, k=opt.k_star, beta=opt.beta_star,
        brm=BrmParams(lam=0.3, n=opt.n_star, gamma=spec.eps_fa / 100.0),
    )


def config_dict(cfg: ProtocolConfig) -> dict:
    out = {"protocol": cfg.protocol, "e0": cfg.e0, "k": cfg.k, "beta": float(cfg.beta)}
    if cfg.brm is not None:
        out["brm"] = {"lam": cfg.brm.lam, "n": cfg.brm.n, "gamma": cfg.brm.gamma}
    return out


def transcript_cases() -> list[dict]:
    d_c = DEFAULT_CHANNEL.d0 / 2.0
    cases = []
    for run, cfg in ((run_pi2, pi2_config()), (run_pi3, pi3_config())):
        tags = []
        for seed in TRANSCRIPT_SEEDS:
            t = run(cfg, Scenario("honest", d_c, d_c), DEFAULT_CHANNEL,
                    np.random.default_rng(seed), seed=seed)
            tags.append(t.to_json_dict()["tag_hex"])
        cases.append({"config": config_dict(cfg), "d_claim": d_c,
                      "seeds": list(TRANSCRIPT_SEEDS), "tags_hex": tags})
    return cases


def main() -> None:
    sections = {"mac": mac_cases(), "transcripts": transcript_cases()}
    body = ",\n".join(
        f"{json.dumps(name)}: [\n  " + ",\n  ".join(json.dumps(c) for c in cases) + "\n]"
        for name, cases in sections.items()
    )
    header = (f'"sampler_stream": {SAMPLER_STREAM_VERSION},\n'
              f'"source_stream": {SOURCE_STREAM_VERSION},\n')
    OUT.write_text("{\n" + header + body + "\n}\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
