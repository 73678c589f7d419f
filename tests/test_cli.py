import contextlib
import csv
import io
import json
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbvsim import cli
from dbvsim.attacks import MFA_STRATEGIES, BlockMajorityStrategy, attack_tfa_general
from dbvsim.bounds import exact_binomial_tail_lower
from dbvsim.channel import DEFAULT_CHANNEL
from dbvsim.cli import main
from dbvsim.montecarlo import SCENARIO_KINDS, Scenario
from dbvsim.protocols import ACC, BrmParams, ProtocolConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimizeCommand:
    def test_dfa_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--mode", "dfa", "--psi", "1.1",
            "--eps-fa", "1e-3", "--eps-fr", "1e-3",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == "1"
        assert obj["result"]["k_star"] >= 1
        assert obj["result"]["e0_star_dbm"] > 0

    def test_brm_requires_lambda(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", "--mode", "brm-general", "--psi", "1.68",
            "--eps-fa", "1e-3", "--eps-fr", "1e-3",
        )
        assert code == 1
        assert "lambda" in err

    def test_infeasible_exit_2_names_condition(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--mode", "brm-general", "--psi", "1.05",
            "--eps-fa", "1e-3", "--eps-fr", "1e-3", "--lambda", "0.5",
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["error"] == "infeasible"
        assert obj["condition"] == "general-intruder-infeasible"
        assert "p_i < p_b - sqrt(2*ln2*p_b*lambda)" in obj["detail"]

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "optimize", "--mode", "bogus", "--psi", "1.1",
                             "--eps-fa", "1e-3", "--eps-fr", "1e-3")
        assert code == 1

    def test_brm_sampling_result(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--mode", "brm-sampling", "--psi", "2.0",
            "--eps-fa", "1e-2", "--eps-fr", "1e-2", "--lambda", "0.3",
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["n_star"] >= res["k_star"]
        assert res["mode"] == "sampling"


class TestCurvesCommand:
    def test_single_point(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, out, _ = run_cli(
            capsys, "curves", "--mode", "dfa", "--psi-range", "1.2:1.2:0.1",
            "--eps", "1e-3", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["psi", "eps_or_lambda", "e0_star_dbm", "beta_star",
                          "k_star_or_n_star", "feasible"]
        assert len(rows) == 2

    def test_empty_range_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "curves", "--mode", "dfa", "--psi-range", "1.5:1.2:0.1",
            "--eps", "1e-3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch, where):
        def refuse(*args, **kwargs):
            raise AssertionError("curves swept for an unwritable --out")

        monkeypatch.setattr(cli, "sweep_curves", refuse)
        path = tmp_path / "missing" / "c.csv" if where == "missing" else tmp_path
        code, out, err = run_cli(
            capsys, "curves", "--mode", "dfa", "--psi-range", "1.2:1.2:0.1",
            "--eps", "1e-3", "--out", str(path),
        )
        assert code == 1, err
        assert out == "" and str(path) in err

    def test_jobs_below_one_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "curves", "--mode", "dfa", "--psi-range", "1.2:1.2:0.1",
            "--eps", "1e-3", "--out", str(tmp_path / "x.csv"), "--jobs", "0",
        )
        assert code == 1
        assert "--jobs" in err


class TestSimulateCommand:
    ARGS = (
        "simulate", "--protocol", "pi1", "--scenario", "honest",
        "--auto", "--psi", "1.5", "--eps-fa", "1e-2", "--eps-fr", "1e-2",
        "--trials", "400", "--seed", "7",
    )

    def test_honest_auto(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["bound_satisfied"] is True
        assert obj["bound_check"]["passed"] is True
        assert obj["config"]["k"] >= 1

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_plain_single_line(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--plain")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_explicit_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", "pi1", "--scenario", "dfa",
            "--e0", "2000", "--k", "150", "--beta", "0.08",
            "--trials", "300", "--seed", "3",
            "--d-claim", "40000", "--d-real", "70000",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["scenario"] == "dfa"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, *self.ARGS, "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "--jobs" in err and ">= 1" in err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run_cli(capsys, *self.ARGS, "--trials", trials)
        assert code == 1
        assert out == ""
        assert "--trials" in err and ">= 1" in err

    @pytest.mark.parametrize("bits", ["12", "0", "256"])
    def test_unsupported_mac_bits_is_usage_error(self, capsys, bits):
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", "pi2", "--scenario", "honest",
            "--auto", "--psi", "1.5", "--trials", "10", "--mac-bits", bits,
        )
        assert code == 1
        assert out == ""
        assert "--mac-bits" in err and "invalid choice" in err

    def test_missing_params_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--protocol", "pi1", "--scenario", "honest",
            "--trials", "10",
        )
        assert code == 1
        assert "--auto" in err

    def test_mfa_vs_pi1_warns(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--protocol", "pi1", "--scenario", "mfa",
            "--e0", "2000", "--k", "100", "--beta", "0.1",
            "--trials", "50", "--seed", "1",
        )
        assert code == 0
        assert "no mafia-fraud claim" in err

    def test_relay_vs_pi3_structured_impossibility(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", "pi3", "--scenario", "tfa-relay",
            "--auto", "--psi", "2.0", "--eps-fa", "1e-2", "--eps-fr", "1e-2",
            "--lambda", "0.3", "--trials", "40", "--seed", "5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["structural_result"]["relay_blocked_by_retrieval_audit"] is True
        assert obj["summary"]["rate"] == 0.0

    def test_relay_vs_pi3_completes_when_cap_covers_source(self, capsys):
        # ceil(0.6 * 2) = 2: the audit lets the intruder capture the source
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", "pi3", "--scenario", "tfa-relay",
            "--e0", "1000", "--k", "2", "--beta", "0.4", "--lambda", "0.6", "--n", "2",
            "--eps-fa", "0.5", "--trials", "50",
        )
        assert code == 0, err
        obj = json.loads(out)
        assert obj["structural_result"]["relay_blocked_by_retrieval_audit"] is False
        assert obj["summary"]["rate"] == obj["summary"]["analytic_exact"] == 1.0

    def test_dump_transcripts(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(
            capsys, "simulate", "--protocol", "pi2", "--scenario", "honest",
            "--auto", "--psi", "2.0", "--eps-fa", "1e-2", "--eps-fr", "1e-2",
            "--trials", "15", "--seed", "2", "--dump-transcripts", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 15
        assert "challenge_hex" in json.loads(lines[0])

    def test_pi3_auto_sampling(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", "pi3", "--scenario", "tfa-sampling",
            "--auto", "--psi", "2.0", "--eps-fa", "1e-2", "--eps-fr", "1e-2",
            "--lambda", "0.3", "--trials", "200", "--seed", "11",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["bound_satisfied"] is True
        assert obj["config"]["n"] >= obj["config"]["k"]

    def test_pi3_no_mac(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", "pi3", "--scenario", "honest",
            "--auto", "--psi", "2.0", "--eps-fa", "1e-2", "--eps-fr", "1e-2",
            "--lambda", "0.3", "--no-mac", "--trials", "100", "--seed", "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["use_mac"] is False
        assert obj["summary"]["bound_satisfied"] is True

    def test_broken_channel_file_is_usage_error(self, capsys, tmp_path):
        good = {"xi": 1.0, "alpha": 3.0, "sigma_watts": 1e-12,
                "e_max_watts": 3e4, "d0_meters": 1e5}
        bad = tmp_path / "bad.json"
        for text in ("{not json",
                     json.dumps(good | {"xi": 0.5}),  # fails ChannelParams' checks
                     json.dumps(good | {"xi": "abc"}),
                     json.dumps(good | {"d0_meters": float("nan")})):
            bad.write_text(text)
            code, _, err = run_cli(
                capsys, "optimize", "--mode", "dfa", "--psi", "1.3",
                "--eps-fa", "1e-3", "--eps-fr", "1e-3", "--channel", str(bad),
            )
            assert code == 1, text
            assert "cannot load channel config" in err and str(bad) in err, text

    def test_dump_into_missing_directory_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran trials for an unwritable dump path")

        monkeypatch.setattr(cli, "estimate_rates", refuse)
        path = tmp_path / "missing" / "t.jsonl"
        code, out, err = run_cli(capsys, *self.ARGS, "--dump-transcripts", str(path))
        assert code == 1, err
        assert out == "" and str(path) in err

    def test_channel_file(self, capsys, tmp_path):
        ch_path = tmp_path / "chan.json"
        ch_path.write_text(json.dumps({
            "xi": 1.0, "alpha": 3.0, "sigma_watts": 1e-12,
            "e_max_watts": 3e4, "d0_meters": 1e5,
        }))
        code, out, _ = run_cli(
            capsys, "optimize", "--mode", "dfa", "--psi", "1.3",
            "--eps-fa", "1e-3", "--eps-fr", "1e-3", "--channel", str(ch_path),
        )
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("optimize", "--mode", "dfa", "--psi", "1.5"),
        ("optimize", "--mode", "brm-sampling", "--psi", "1.5", "--lambda", "0.3"),
        ("max-lambda", "--mode", "general", "--psi", "1.68"),
    ], ids=["dfa", "brm-sampling", "max-lambda"])
    def test_subnormal_noise_power_warns_nothing(self, capsys, tmp_path, argv):
        # e0 / (loss * sigma) passes the float range: the SNR is infinite, the
        # model's limit, on the design grid as in the scalar division.
        ch_path = tmp_path / "chan.json"
        ch_path.write_text(json.dumps({
            "xi": 1.0, "alpha": 3.0, "sigma_watts": 1e-320,
            "e_max_watts": 3e4, "d0_meters": 1e5,
        }))
        extra = ("--eps-fa", "1e-2", "--eps-fr", "1e-2") if argv[0] == "optimize" else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv, *extra, "--channel", str(ch_path))
        assert code in (0, 2), err


#: simulate with explicit pi1 parameters; each bad-input case appends to it.
_EXPLICIT = ("simulate", "--scenario", "honest", "--e0", "2000", "--k", "150",
             "--beta", "0.1", "--trials", "5", "--seed", "1")
_PI3 = ("--protocol", "pi3", "--k", "120", "--n", "400", "--lambda", "0.3")


class TestSimulateInputErrors:
    @pytest.mark.parametrize("extra", [
        ("--protocol", "pi1", "--e0", "-1"),
        ("--protocol", "pi3", "--k", "50", "--n", "400", "--lambda", "0.3"),
        ("--protocol", "pi3", "--k", "120", "--n", "400", "--lambda", "1.5"),
        ("--protocol", "pi3", "--auto", "--lambda", "1.5"),
        ("--protocol", "pi1", "--d-claim", "2e5"),
        ("--protocol", "pi1", "--d-real", "-3"),
        ("--protocol", "pi1", "--scenario", "tfa-relay", "--intruder-d", "0"),
        ("--protocol", "pi1", "--e0", "5e4"),
        ("--protocol", "pi2", "--mac-bits", "8"),
        ("--protocol", "pi2", "--no-mac", "--mac-bits", "8"),
        ("--protocol", "pi1", "--no-mac"),
        ("--protocol", "pi2", "--scenario", "tfa-general"),
        ("--protocol", "pi1", "--scenario", "tfa-sampling"),
        (*_PI3, "--scenario", "tfa-sampling", "--strategy", "parity-sketch"),
        ("--protocol", "pi1", "--d-claim-km", "40"),
        ("--protocol", "pi2", "--scenario", "impersonation", "--d-real", "70000"),
    ])
    def test_bad_input_is_usage_error(self, capsys, extra):
        code, out, err = run_cli(capsys, *_EXPLICIT, *extra)
        assert code == 1, err
        assert out == ""
        assert err.startswith("usage error: ")

    def test_digest_past_ten_million_source_bits_runs(self, capsys):
        # A digest draws only the sampled bits and their blocks' digests, so
        # a source of 2e7 bits runs like any other.
        code, out, err = run_cli(capsys, *_EXPLICIT, "--protocol", "pi3", "--k", "3",
                                 "--n", "20000000", "--lambda", "1.5e-7",
                                 "--scenario", "tfa-general", "--strategy", "parity-sketch")
        assert code == 0, err
        summary = json.loads(out)["summary"]
        assert summary["scenario"] == "tfa-general" and summary["trials"] == 5

    @pytest.mark.parametrize("kind, code", [
        ("honest", 1), ("dfa", 1), ("tfa-sampling", 1), ("tfa-general", 1),
        ("mfa", 0), ("impersonation", 0), ("tfa-relay", 0),
    ])
    def test_intruder_d_only_where_an_intruder_is_placed(self, capsys, kind, code):
        got, out, err = run_cli(capsys, *_EXPLICIT, *_PI3, "--scenario", kind,
                                "--intruder-d", "30000")
        assert got == code, err
        if code:
            assert out == "" and err.startswith("usage error: --intruder-d does not apply")
        else:
            assert json.loads(out)["summary"]["scenario"] == kind

    @pytest.mark.parametrize("extra", [
        ("--protocol", "pi1", "--theta", "0.3"),
        (*_PI3, "--theta", "0.3"),
        (*_PI3, "--gamma", "1e-5"),
        (*_PI3, "--theta", "1e-4", "--gamma", "1e-5"),
    ])
    def test_theta_gamma_need_auto(self, capsys, extra):
        code, out, err = run_cli(capsys, *_EXPLICIT, *extra)
        assert code == 1, err
        assert out == "" and err.startswith("usage error: --theta and --gamma need --auto")

    def test_auto_takes_theta_gamma(self, capsys):
        auto = ("simulate", "--protocol", "pi3", "--scenario", "honest", "--auto",
                "--psi", "2.0", "--eps-fa", "1e-2", "--eps-fr", "1e-2", "--lambda", "0.3",
                "--trials", "20", "--seed", "7", "--plain")
        outs = {}
        for name, extra in [("unset", ()), ("defaults", ("--theta", "1e-4", "--gamma", "1e-4")),
                            ("other", ("--theta", "1e-3", "--gamma", "1e-5"))]:
            code, outs[name], err = run_cli(capsys, *auto, *extra)
            assert code == 0, err
        # Unset flags fall back to theta = 1e-4 and gamma = eps_fa/100.
        assert outs["unset"] == outs["defaults"]
        assert json.loads(outs["other"])["config"] != json.loads(outs["unset"])["config"]

    def test_optimizer_value_error_is_internal(self, capsys, monkeypatch):
        def broken(spec, ch):
            raise ValueError("optimizer defect")
        monkeypatch.setattr(cli, "optimize_dfa", broken)
        code, out, err = run_cli(capsys, "simulate", "--scenario", "honest", "--auto",
                                 "--protocol", "pi1", "--trials", "5", "--seed", "1")
        assert code == 3
        assert err.startswith("internal error: ValueError")

    @pytest.mark.parametrize("extra", [
        ("--protocol", "pi1"),
        ("--protocol", "pi2", "--mac-bits", "32"),
        (*_PI3, "--no-mac", "--scenario", "tfa-general"),
    ])
    def test_valid_run_exits_zero(self, capsys, extra):
        code, out, err = run_cli(capsys, *_EXPLICIT, *extra)
        assert code == 0, err
        assert json.loads(out)["summary"]["trials"] == 5


class TestMaxLambdaCommand:
    def test_general(self, capsys):
        code, out, _ = run_cli(capsys, "max-lambda", "--mode", "general", "--psi", "1.68")
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda_star"] == pytest.approx(0.1, abs=0.01)
        assert obj["feasible"] is True


class TestHugePsi:
    """A psi whose psi**alpha overflows a float designs at the limit p_b = 1/2."""

    @pytest.mark.parametrize("argv", [
        ("optimize", "--mode", "dfa", "--psi", "1e300", "--eps-fa", "1e-3", "--eps-fr", "1e-3"),
        ("max-lambda", "--mode", "general", "--psi", "1e300"),
    ], ids=["optimize-dfa", "max-lambda-general"])
    def test_exits_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["psi"] == 1e300

    def test_simulate_far_prover_exits_zero(self, capsys):
        # d_real defaults to psi times the claim, whose path loss overflows:
        # every bit errs with probability 1/2.
        code, out, err = run_cli(capsys, "simulate", "--protocol", "pi1", "--scenario", "dfa",
                                 "--auto", "--psi", "1e300", "--trials", "20")
        assert code == 0, err
        obj = json.loads(out)
        k, beta = obj["config"]["k"], obj["config"]["beta"]
        assert obj["summary"]["trials"] == 20
        assert obj["summary"]["analytic_exact"] == exact_binomial_tail_lower(k, beta, 0.5)


_EPS = ("--eps-fa", "1e-3", "--eps-fr", "1e-3")


class TestDesignInputErrors:
    """Out-of-range design inputs are usage errors, caught before the optimizer runs."""

    @pytest.mark.parametrize("argv", [
        ("optimize", "--mode", "brm-general", "--psi", "2", "--lambda", "1.5", *_EPS),
        ("optimize", "--mode", "dfa", "--psi", "0.9", *_EPS),
        ("optimize", "--mode", "brm-sampling", "--psi", "2", "--lambda", "0.3", *_EPS,
         "--theta", "-1"),
        ("max-lambda", "--mode", "general", "--psi", "0.5"),
        ("curves", "--mode", "dfa", "--psi-range", "0.5:0.9:0.1", "--eps", "1e-3"),
        ("curves", "--mode", "dfa", "--psi-range", "1.1:1.2:0.1", "--eps", "2"),
        ("curves", "--mode", "brm-general", "--psi-range", "1.5:1.6:0.1", "--lambda", "1.5"),
        ("curves", "--mode", "dfa", "--psi-range", "1.1:1.2:0.1", "--eps", "abc"),
        ("curves", "--mode", "dfa", "--psi-range", "1e6:1e6:1e-17", "--eps", "1e-3"),
    ], ids=["optimize-lambda", "optimize-psi", "optimize-theta", "max-lambda-psi",
            "curves-psi", "curves-eps", "curves-lambda", "curves-eps-text",
            "curves-step-below-spacing"])
    def test_is_usage_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "curves.csv"
        if argv[0] == "curves":
            argv = (*argv, "--out", str(out_path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, err
        assert out == ""
        assert err.startswith("usage error: ")
        assert not out_path.exists()

    def test_oversized_psi_range_named_before_building(self, capsys, tmp_path):
        # about 1e18 points: the count is checked before any list is built
        out_path = tmp_path / "curves.csv"
        code, out, err = run_cli(capsys, "curves", "--mode", "dfa", "--psi-range",
                                 "1.1:1e9:1e-9", "--eps", "1e-3", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert "1e+18 points" in err and str(cli.MAX_RANGE_POINTS) in err
        assert not out_path.exists()


_TINY_LAMBDA = ("--psi", "2", *_EPS, "--lambda", "1e-320")
_SIM = ("simulate", "--scenario", "honest", "--e0", "2000", "--beta", "0.1", "--trials", "1")


class TestFuzzedArgvDefects:
    """Argv a grammar-driven fuzz once ended with exit 3 (an internal error)."""

    @pytest.mark.parametrize("argv, code", [
        # k/lambda overflows to inf, so ceil(k/lambda) cannot be taken.
        (("optimize", "--mode", "brm-general", *_TINY_LAMBDA), 2),
        (("optimize", "--mode", "brm-sampling", *_TINY_LAMBDA), 2),
        ((*_SIM, "--protocol", "pi3", "--k", "120", "--lambda", "1e-320", "--n", "400"), 1),
        # The transmit power for the claim underflows to 0 W.
        ((*_SIM, "--protocol", "pi1", "--k", "10", "--d-claim", "1e-300"), 1),
        # A claim (or replayed real distance) too small for the MAC's fixed point.
        ((*_SIM, "--protocol", "pi2", "--k", "10", "--d-claim", "1e-15"), 1),
        ((*_SIM[:2], "mfa", *_SIM[3:], "--protocol", "pi2", "--k", "10",
          "--mfa-strategy", "replay", "--d-real", "1e-15"), 1),
        # The path loss underflows to 0: the SNR takes its limit, infinity.
        ((*_SIM, "--protocol", "pi1", "--k", "10", "--d-claim", "4e4", "--d-real", "1e-300"),
         0),
        # A SeedSequence takes no negative entropy.
        ((*_SIM, "--protocol", "pi1", "--k", "10", "--seed", "-1"), 1),
        # 10 / eps_fr, the trial count the under-resolution warning asks for, is inf.
        ((*_SIM, "--protocol", "pi1", "--k", "10", "--eps-fr", "1e-320"), 0),
        # lambda * n, the retrieval cap, passes the float range.
        ((*_SIM, "--protocol", "pi3", "--k", "120", "--lambda", "0.3", "--n", "1" + "0" * 400),
         1),
    ], ids=["brm-general-lambda", "brm-sampling-lambda", "pi3-config-lambda",
            "claim-power-underflow", "claim-fixed-point", "mfa-replay-fixed-point",
            "path-loss-underflow", "negative-seed", "subnormal-budget", "pi3-huge-n"])
    def test_exit_code(self, capsys, argv, code):
        got, out, err = run_cli(capsys, *argv)
        assert got == code, err
        if code == 2:
            assert json.loads(out)["condition"] == "challenge-length-cap"
        if code == 1:
            assert err.startswith("usage error: ")

    def test_tfa_general_prover_at_underflowing_path_loss(self):
        # The prover's channel llr takes the infinite-SNR limit, so its
        # response is its own error-free reception.
        cfg = ProtocolConfig("pi3", e0=2000.0, k=120, beta=0.1, brm=BrmParams(lam=0.3, n=400))
        scenario = Scenario("tfa-general", 4e4, 1e-300, tfa_strategy=BlockMajorityStrategy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = attack_tfa_general(cfg, scenario, DEFAULT_CHANNEL, np.random.default_rng(3))
        assert t.hamming == 0 and t.verdict == ACC


#: Out-of-range values a fuzzed flag is set to.
_ODD = ("0", "-1", "1e300", "-1e300", "nan", "inf", "1e-320", "1e-15", "abc")
_TMP = "{tmp}"

#: Each command's numeric flags, the ones fuzzed, with valid values.  Curves
#: ranges hold at most 5 psi points; the explicit pi3 parameters of
#: simulate are consistent, and --auto ignores them.
_NUMERIC = {
    "optimize": {"--psi": ("1.1", "2"), "--eps-fa": ("1e-3",), "--eps-fr": ("1e-3",),
                 "--lambda": ("0.3", "0.05"), "--theta": ("1e-4",), "--gamma": ("1e-5",)},
    "curves": {"--psi-range": ("1.1:1.3:0.1", "1.5:2.5:0.25"), "--eps": ("1e-3", "1e-2,1e-3"),
               "--lambda": ("0.3", "0.05,0.3"), "--jobs": ("1",), "--eps-fa": ("1e-3",),
               "--eps-fr": ("1e-3",), "--theta": ("1e-4",), "--gamma": ("1e-5",)},
    "simulate": {"--trials": ("1", "2", "3"), "--jobs": ("1",), "--e0": ("2000",),
                 "--k": ("120",), "--beta": ("0.1",), "--n": ("400",), "--lambda": ("0.3",),
                 "--seed": ("7",), "--d-claim": ("4e4",), "--d-real": ("6e4",),
                 "--intruder-d": ("3e4",), "--psi": ("1.5", "2"), "--eps-fa": ("1e-2",),
                 "--eps-fr": ("1e-2",), "--theta": ("1e-4",), "--gamma": ("1e-5",),
                 "--mac-bits": ("64", "32")},
    "max-lambda": {"--psi": ("1.68", "3")},
}
#: Flags every run of the command is given (their valid values when not fuzzed).
_REQUIRED = {
    "optimize": {"--psi", "--eps-fa", "--eps-fr"},
    "curves": {"--psi-range", "--eps", "--lambda", "--jobs"},
    "simulate": {"--trials", "--jobs", "--e0", "--k", "--beta", "--n", "--lambda"},
    "max-lambda": {"--psi"},
}


@st.composite
def _fuzzed_argv(draw, command: str, fuzzed: str, odd: str):
    """``command`` with ``fuzzed`` set to ``odd`` and every other flag valid:
    the required ones and any subset of the rest.  Choices put first what
    makes the simplest run reach furthest (an authenticated honest run, a
    design that reads --lambda); simulate flags appear only with a protocol,
    scenario and --auto they apply to."""
    flags, argv = dict(_NUMERIC[command]), [command]
    if command in ("optimize", "curves"):
        argv += ["--mode", draw(st.sampled_from(("brm-general", "brm-sampling", "dfa")))]
    elif command == "max-lambda":
        argv += ["--mode", draw(st.sampled_from(("general", "sampling")))]
    else:
        protocol = draw(st.sampled_from(("pi2", "pi3", "pi1")))
        scenarios = [kind for kind in SCENARIO_KINDS
                     if (protocol == "pi3" or kind not in ("tfa-sampling", "tfa-general"))
                     and (fuzzed != "--intruder-d" or kind in cli._INTRUDER_SCENARIOS)
                     and (fuzzed != "--d-real" or kind != "impersonation")]
        scenario = draw(st.sampled_from(scenarios))
        argv += ["--protocol", protocol, "--scenario", scenario]
        if fuzzed in ("--theta", "--gamma") or draw(st.booleans()):
            argv.append("--auto")
        else:
            del flags["--theta"], flags["--gamma"]
        if scenario == "impersonation":
            del flags["--d-real"]
        if scenario not in cli._INTRUDER_SCENARIOS:
            del flags["--intruder-d"]
        strategies = sorted(cli._STRATEGIES)
        if scenario == "tfa-sampling":
            strategies = ["index-first", "index-random"]
        flags |= {"--strategy": strategies, "--mfa-strategy": MFA_STRATEGIES,
                  "--leak-sampler-key": None, "--noiseless": None}
        if protocol == "pi3":
            flags["--no-mac"] = None
    optional = [name for name in flags if name not in _REQUIRED[command] and name != fuzzed]
    present = draw(st.integers(0, 2 ** len(optional) - 1))
    for name, values in flags.items():
        if name == fuzzed:
            argv += [name, odd]
        elif name in _REQUIRED[command] or present >> optional.index(name) & 1:
            argv += [name] if values is None else [name, draw(st.sampled_from(values))]
    if command == "curves":
        argv += ["--out", _TMP + "/curves.csv"]
    if command == "simulate" and draw(st.booleans()):
        argv += ["--dump-transcripts", _TMP + "/t.jsonl"]
    return argv + ["--plain"] * draw(st.booleans())


_FUZZED = [(command, flag, odd) for command, flags in _NUMERIC.items() for flag in flags
           for odd in _ODD]


@pytest.mark.parametrize("command, flag, odd", _FUZZED,
                         ids=[" ".join(case) for case in _FUZZED])
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_flag_never_an_internal_error(command, flag, odd, data):
    argv = data.draw(_fuzzed_argv(command, flag, odd))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([arg.replace(_TMP, tmp) for arg in argv])
    assert code in (0, 1, 2), err.getvalue()
