"""Design outputs recorded by tests/golden/make_design_outputs.py must never change.

Each case is recomputed from its recorded inputs by the generator's own case
function, and every float is compared through its ``repr``, so a change in
the last bit of any optimizer output or exact probability fails.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "design_outputs.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_design_outputs", GOLDEN_DIR / "make_design_outputs.py"
)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


class TestGoldenDesign:
    def test_fixture_covers_the_grids(self):
        equal = [c for c in GOLDEN["dfa"] if c["eps_fa"] == c["eps_fr"]]
        assert len(equal) == len(make.DFA_PSI) * len(make.DFA_EPS)
        assert len(GOLDEN["dfa"]) == len(equal) + len(make.DFA_UNEQUAL)
        assert {float(c["psi"]) for c in GOLDEN["brm"]} == set(make.BRM_PSI)
        assert len(GOLDEN["max_lambda"]) == 2 * len(make.BRM_PSI)
        assert any("condition" in c for c in GOLDEN["brm"])

    def test_optimize_dfa(self):
        got = [
            make.dfa_case(float(c["psi"]), float(c["eps_fa"]), float(c["eps_fr"]))
            for c in GOLDEN["dfa"]
        ]
        assert got == GOLDEN["dfa"]

    def test_optimize_brm(self):
        got = [
            make.brm_case(c["mode"], float(c["psi"]), float(c["lam"])) for c in GOLDEN["brm"]
        ]
        assert got == GOLDEN["brm"]

    def test_max_feasible_lambda(self):
        got = [make.lambda_case(c["mode"], float(c["psi"])) for c in GOLDEN["max_lambda"]]
        assert got == GOLDEN["max_lambda"]

    def test_analytic_exact(self):
        got = [
            make.analytic_case(float(c["lam"]), float(c["psi"]), c["kind"])
            for c in GOLDEN["analytic"]
        ]
        assert got == GOLDEN["analytic"]
