"""The benchmark's tracer binds dbvsim functions by name; those names must
keep resolving, and the Monte Carlo loop must keep reaching each attack and
the source draw through their module attributes, or the traced call counts go
silently to zero.  The benchmark's workloads call dbvsim with the arguments
they were written for; each warm-up operation must still run and pass its
check, so that a removed parameter or name fails here and not only in a
benchmark run.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are loaded by path, as
the golden tests load their generators.
"""

import importlib.util
import inspect
import json
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dbvsim
from dbvsim import attacks, protocols
from dbvsim.channel import DEFAULT_CHANNEL
from dbvsim.montecarlo import SCENARIO_KINDS, Scenario, run_trial
from dbvsim.protocols import BrmParams, ProtocolConfig

ROOT = Path(__file__).parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

PI3 = ProtocolConfig("pi3", e0=2000.0, k=120, beta=0.1, brm=BrmParams(lam=0.3, n=400))
ATTACKS = sorted(name for name in vars(attacks) if name.startswith("attack_"))


@pytest.mark.parametrize("layer, name", [(layer, fn) for layer, fn, _ in tracer.TRACED])
def test_traced_name_resolves(layer, name):
    owner = tracer._LAYERS[layer]
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_run_trial_reaches_the_attack_once(monkeypatch, kind):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ATTACKS:
        monkeypatch.setattr(attacks, name, counting(name, getattr(attacks, name)))
    run_trial(Scenario(kind, 4e4, 6e4), PI3, DEFAULT_CHANNEL, np.random.default_rng(1), seed=0)
    want = Counter() if kind == "honest" else Counter({"attack_" + kind.replace("-", "_"): 1})
    if kind == "tfa-sampling":
        want["attack_tfa_general"] = 1  # the sampling intruder is one tfa-general run
    assert calls == want


@pytest.mark.parametrize("policy", ["run_protocol", "run_pi1", "run_pi2", "run_pi3", *ATTACKS])
def test_every_responder_policy_takes_the_scenario(policy):
    # run_trial calls each policy as policy(cfg, scenario, ch, rng, seed).
    module = protocols if policy.startswith("run_") else attacks
    bound = inspect.signature(getattr(module, policy)).bind(
        PI3, Scenario("honest", 4e4, 4e4), DEFAULT_CHANNEL, np.random.default_rng(1), 0)
    assert list(bound.arguments) == ["cfg", "scenario", "ch", "rng", "seed"]


@pytest.mark.parametrize("protocol", ["pi1", "pi2", "pi3"])
def test_honest_trial_reaches_its_run_once(monkeypatch, protocol):
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("run_pi1", "run_pi2", "run_pi3"):
        monkeypatch.setattr(protocols, name, recording(name, getattr(protocols, name)))
    cfg = PI3 if protocol == "pi3" else ProtocolConfig(protocol, e0=2000.0, k=120, beta=0.1)
    scenario = Scenario("honest", 4e4, 6e4)
    run_trial(scenario, cfg, DEFAULT_CHANNEL, np.random.default_rng(1), seed=0)
    assert [name for name, _ in calls] == ["run_" + protocol]
    assert calls[0][1][:2] == (cfg, scenario)  # the scenario itself, not a copy of its fields


@pytest.mark.parametrize("protocol", ["pi1", "pi2"])
def test_challenge_response_trial_draws_through_random_bits(protocol):
    cfg = ProtocolConfig(protocol, e0=2000.0, k=150, beta=0.1)
    t = tracer.Tracer()
    t.install()
    try:
        run_trial(Scenario("honest", 4e4, 4e4), cfg, DEFAULT_CHANNEL, np.random.default_rng(1),
                  seed=0)
    finally:
        t.uninstall()
    assert t.calls["channel.random_bits"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_warmup_passes_its_checks(workload):
    for op in workloads.build(workload).warmup:
        error = op.check(op.run(7))
        assert error is None or op.is_known_defect(error), (op.label, error)


def test_all_names_resolve():
    for info in pkgutil.iter_modules(dbvsim.__path__):
        module = importlib.import_module(f"dbvsim.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
