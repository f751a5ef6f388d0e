"""CLI contract: exit codes, file schemas, determinism."""

import csv
import json
import logging
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from season import cli, verify
from season.cli import build_parser, main
from season.discriminator import (
    TrainConfig,
    discriminator_to_dict,
    exact_tabular,
    init_discriminator,
)
from season.distributions import model_from_spec
from season.errors import TrainingDivergedError
from season.experiments import identity_discrete_experiment
from season.generators import GENERATOR_NAMES, get_generator
from season.refine import refine_discrete

MIXTURE_SPEC = {"type": "gaussian_mixture", "means": [[0.0]], "covs": [[[1.0]]],
                "weights": [1.0]}
DISCRETE_NU = {"type": "discrete", "support": [[0.0], [1.0]], "weights": [0.5, 0.5]}
DISCRETE_MU = {"type": "discrete", "support": [[0.0], [1.0]], "weights": [0.25, 0.75]}


def no_fit(*args, **kwargs):
    raise AssertionError("a discriminator was fitted")


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunIdentity:
    def test_emits_csv_with_small_residuals(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "identity-discrete", "seed": 3, "n_instances": 10,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        with open(tmp_path / "out" / "identity_terms.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance_id", "d_H", "D_fH", "gain", "residual"]
        assert len(rows) == 1 + 10 * len(GENERATOR_NAMES)  # header, then instances x generators
        assert all(float(r[4]) <= 1e-9 for r in rows[1:])

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = write_json(tmp_path / f"{out.name}.json", {
                "experiment": "identity-discrete", "seed": 9, "n_instances": 5,
                "output_dir": str(out),
            })
            assert main(["run", cfg]) == 0
        assert (out1 / "identity_terms.csv").read_bytes() == \
            (out2 / "identity_terms.csv").read_bytes()

    def test_bytes_equal_to_csv_writer(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "identity-discrete", "seed": 7, "n_instances": 4,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance_id", "d_H", "D_fH", "gain", "residual"])
            for r in identity_discrete_experiment(n_instances=4, seed=7):
                writer.writerow([r["instance_id"]] + [f"{r[k]:.17g}" for k in
                                                      ("d_H", "D_fH", "gain", "residual")])
        assert (tmp_path / "out" / "identity_terms.csv").read_bytes() == want.read_bytes()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "env_out"
        monkeypatch.setenv("OUTPUT_DIR", str(override))
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "identity-discrete", "seed": 1, "n_instances": 2,
            "output_dir": str(tmp_path / "ignored"),
        })
        assert main(["run", cfg]) == 0
        assert (override / "identity_terms.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestRunValidation:
    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"experiment": "nope", "seed": 1})
        assert main(["run", cfg]) == 2
        assert "$.experiment" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"experiment": "identity-discrete"})
        assert main(["run", cfg]) == 2
        assert "$.seed" in capsys.readouterr().err

    def test_wrong_type_reports_json_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {"experiment": "identity-discrete", "seed": "three"})
        assert main(["run", cfg]) == 2
        assert "$.seed" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("experiment, field, value, path", [
        ("identity-discrete", "n_instances", 0, "$.n_instances"),
        ("identity-discrete", "n_instances", "many", "$.n_instances"),
        ("bounds", "delta", "small", "$.delta"),
        ("bounds", "n", [1], "$.n"),
        ("bounds", "n", 0, "$.n"),
        ("refine-1d", "sampler", {"k_levels": "x"}, "$.sampler.k_levels"),
        ("refine-1d", "sampler", {"k_levels": 0}, "$.sampler.k_levels"),
        ("refine-1d", "sampler", {"n_chains": 0}, "$.sampler.n_chains"),
        ("refine-1d", "discriminator", {"width": 0}, "$.discriminator.width"),
        ("refine-1d", "discriminator", {"steps": -1}, "$.discriminator.steps"),
        ("refine-1d", "sampler", [4], "$.sampler"),
        ("identity-discrete", "n_instance", 2, "$.n_instance"),
        ("identity-discrete", "generator", "kl", "$.generator"),
        ("bounds", "n_trials", 5, "$.n_trials"),
        ("refine-1d", "sampler", {"kchains": 4}, "$.sampler.kchains"),
        ("refine-1d", "discriminator", {"width": 8, "step": 60}, "$.discriminator.step"),
        ("refine-1d", "steps", 60, "$.steps"),
    ])
    def test_malformed_optional_field_exits_2(self, experiment, field, value, path,
                                              tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("season.experiments.train", no_fit)
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": experiment, "seed": 1, field: value,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_nonfinite_horizon_exits_2_before_any_fit(self, horizon, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("season.experiments.train", no_fit)
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "refine-1d", "seed": 0, "sampler": {"t_horizon": horizon},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: noise schedule needs finite")
        assert not (tmp_path / "out").exists()

    def test_unknown_experiment_creates_no_output_dir(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"experiment": "nope", "seed": 1,
                                                 "output_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert "choose from ('identity-discrete', 'refine-1d', 'bounds')" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunRefine1d:
    def test_emits_samples_and_report(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "refine-1d", "seed": 0,
            "discriminator": {"width": 8, "steps": 60, "lr": 0.25},
            "sampler": {"k_levels": 4, "n_chains": 200},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "w1_report.json").read_text())
        assert {"seed", "w1_base", "w1_refined", "improved"} <= set(report)
        with open(tmp_path / "out" / "samples_base.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["chain", "x0", "seed"]
        assert len(rows) == 201


class TestRunBounds:
    def test_emits_bound_report(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "bounds", "seed": 11, "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "bound_report.json").read_text())
        assert report["slow_rate"] == pytest.approx(0.173082, abs=1e-6)
        assert report["holds"] is True


def stub_criteria(monkeypatch, failing=None):
    """Swap every check for an instant stub; criterion `failing` reports a failed check."""
    def stub(number):
        return lambda: [verify.CheckResult(f"stub-{number}", number != failing, "stub")]
    monkeypatch.setattr(verify, "CRITERIA", tuple(
        replace(c, check=stub(c.number)) for c in verify.CRITERIA))


class TestVerify:
    # the real checks run once, in tests/test_acceptance.py
    def test_identity_suite_passes(self, capsys, monkeypatch):
        stub_criteria(monkeypatch)
        assert main(["verify", "identity"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        [suite] = payload["suites"]
        assert [c["criterion"] for c in suite["criteria"]] == [1, 2, 3]

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])  # argparse rejects the choice

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        stub_criteria(monkeypatch, failing=9)
        assert main(["verify", "bounds"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        failed = [c["criterion"] for c in payload["suites"][0]["criteria"] if not c["passed"]]
        assert failed == [9]

    def test_time_limit_overrun_exits_1(self, capsys, monkeypatch):
        stub_criteria(monkeypatch)
        monkeypatch.setattr(verify, "CRITERIA", tuple(
            replace(c, time_limit=0.0) if c.number == 8 else c for c in verify.CRITERIA))
        assert main(["verify", "samplers"]) == 1
        [_, crit8] = json.loads(capsys.readouterr().out)["suites"][0]["criteria"]
        assert [(c["name"], c["passed"]) for c in crit8["checks"]] == \
            [("stub-8", True), ("time-limit", False)]

    def test_entries_differ_only_in_seconds(self):
        delays = iter([0.0, 0.03])

        def check():
            time.sleep(next(delays))
            return [verify.CheckResult("stub", True, "stub")]

        crit = verify.Criterion(1, "stub", "identity", check, time_limit=5.0)
        first, second = crit.run(), crit.run()
        assert first["seconds"] < second["seconds"]
        assert first["checks"][-1] == {"name": "time-limit", "passed": True,
                                       "detail": "limit 5 s"}
        del first["seconds"], second["seconds"]
        assert first == second


class TestThinSubcommands:
    def test_train_refine_roundtrip_tabular(self, tmp_path):
        nu = write_json(tmp_path / "nu.json", DISCRETE_NU)
        mu = write_json(tmp_path / "mu.json", DISCRETE_MU)
        out = tmp_path / "disc.json"
        assert main(["train-discriminator", "--data", nu, "--model", mu,
                     "--generator", "kl", "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "tabular"
        assert doc["values"][0] == pytest.approx(1 + math.log(2.0))

        refined_csv = tmp_path / "refined.csv"
        assert main(["refine", "--model", mu, "--disc", str(out),
                     "--out", str(refined_csv)]) == 0
        with open(refined_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "base_weight", "ratio", "refined_weight"]
        nu_d, mu_d = model_from_spec(DISCRETE_NU), model_from_spec(DISCRETE_MU)
        kl = get_generator("kl")
        expected = refine_discrete(mu_d, exact_tabular(nu_d, mu_d, kl)).weights
        assert [float(r[3]) for r in rows[1:]] == expected.tolist()

    def test_signed_zero_support_is_the_point_zero(self, tmp_path):
        # json reads -0.0 back as -0.0; the support still aligns with 0.0
        nu = write_json(tmp_path / "nu.json", {**DISCRETE_NU, "support": [[-0.0], [1.0]]})
        mu = write_json(tmp_path / "mu.json", DISCRETE_MU)
        out = tmp_path / "disc.json"
        assert main(["train-discriminator", "--data", nu, "--model", mu,
                     "--seed", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["support"] == [[0.0], [1.0]]

    def test_signed_zero_checkpoint_refines_a_model_on_zero(self, tmp_path):
        doc = TestInputErrors._tabular_doc()
        mu = write_json(tmp_path / "mu.json", DISCRETE_MU)
        outputs = []
        for zero in (0.0, -0.0):
            doc["support"] = [[zero], [1.0]]
            disc = write_json(tmp_path / "disc.json", doc)
            out = tmp_path / f"refined{zero}.csv"
            assert main(["refine", "--model", mu, "--disc", disc, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_train_net_and_refine_csv(self, tmp_path):
        nu = write_json(tmp_path / "nu.json", {
            "type": "gaussian_mixture", "means": [[1.0]], "covs": [[[1.0]]],
            "weights": [1.0]})
        mu = write_json(tmp_path / "mu.json", MIXTURE_SPEC)
        disc_path = tmp_path / "disc.json"
        assert main(["train-discriminator", "--data", nu, "--model", mu,
                     "--width", "8", "--steps", "100", "--n-samples", "400",
                     "--seed", "1", "--out", str(disc_path)]) == 0
        target = write_json(tmp_path / "target.json", DISCRETE_MU)
        refined_csv = tmp_path / "refined.csv"
        assert main(["refine", "--model", target, "--disc", str(disc_path),
                     "--out", str(refined_csv)]) == 0
        with open(refined_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "base_weight", "ratio", "refined_weight"]
        total = sum(float(r[3]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("means", [[[49999.5], [50000.5]], [[19999.5], [20000.5]],
                                       [[99999.0], [100001.0]]],
                             ids=["5e4", "2e4", "1e5"])
    def test_train_on_far_centred_mixture(self, means, tmp_path):
        spec = write_json(tmp_path / "far.json", {
            "type": "gaussian_mixture", "means": means, "covs": [[[0.25]], [[0.25]]],
            "weights": [0.5, 0.5]})
        out = tmp_path / "disc.json"
        assert main(["train-discriminator", "--data", spec, "--model", spec, "--steps", "20",
                     "--seed", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "net"

    def test_train_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(["train-discriminator", "--data", "nu.json",
                                          "--model", "mu.json", "--seed", "0", "--out", "o"])
        assert (args.width, args.steps, args.lr) == (32, 500, 0.1)
        defaults = TrainConfig()
        assert (args.width, args.steps, args.lr) == \
            (defaults.width, defaults.steps, defaults.step_size)

    def test_sample_subcommand(self, tmp_path):
        model = write_json(tmp_path / "model.json", MIXTURE_SPEC)
        out = tmp_path / "samples.csv"
        assert main(["sample", "--model", model, "--steps", "100",
                     "--chains", "50", "--seed", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51

    def test_bounds_subcommand(self, tmp_path):
        out = tmp_path / "bound.json"
        assert main(["bounds", "--seed", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holds"] is True

    def test_bounds_subcommand_matches_run(self, tmp_path):
        out = tmp_path / "bound.json"
        assert main(["bounds", "--seed", "2", "--generator", "kl", "--out", str(out)]) == 0
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "bounds", "seed": 2, "generator": "kl",
            "output_dir": str(tmp_path / "run"),
        })
        assert main(["run", cfg]) == 0
        assert out.read_bytes() == (tmp_path / "run" / "bound_report.json").read_bytes()
        assert json.loads(out.read_text())["generator"] == "kl"

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--n", "-3"), ("--delta", "0"), ("--delta", "1.5"),
    ])
    def test_bounds_out_of_range_exits_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert main(["bounds", "--seed", "2", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need n >= 1 and delta in (0, 1)")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-samples", "0", "error: --n-samples: must be at least 1, got 0\n"),
        ("--n-samples", "-2", "error: --n-samples: must be at least 1, got -2\n"),
        ("--width", "0", "error: width must be >= 1, got 0\n"),
    ], ids=["n-samples-0", "n-samples-negative", "width-0"])
    def test_train_empty_batch_or_net_exits_2(self, flag, value, message, tmp_path,
                                              capsys):
        model = write_json(tmp_path / "mu.json", MIXTURE_SPEC)
        out = tmp_path / "disc.json"
        assert main(["train-discriminator", "--data", model, "--model", model,
                     "--steps", "5", flag, value, "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [("-0.5", "-0.5"), ("0", "0.0"), ("nan", "nan")],
                             ids=["lr-negative", "lr-0", "lr-nan"])
    @pytest.mark.parametrize("spec", [MIXTURE_SPEC, DISCRETE_MU], ids=["net", "tabular"])
    def test_train_step_size_not_finite_and_positive_exits_2(self, spec, value, shown,
                                                              tmp_path, capsys):
        model = write_json(tmp_path / "mu.json", spec)
        out = tmp_path / "disc.json"
        assert main(["train-discriminator", "--data", model, "--model", model,
                     "--steps", "5", "--lr", value, "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: step_size must be finite and > 0, got {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_sample_step_size_not_finite_and_positive_exits_2(self, value, tmp_path, capsys):
        model = write_json(tmp_path / "model.json", MIXTURE_SPEC)
        out = tmp_path / "samples.csv"
        assert main(["sample", "--model", model, "--steps", "5", "--step-size", value,
                     "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: step_size must be finite and > 0, got {float(value)}\n"
        assert not out.exists()


class TestInputErrors:
    """Bad input files exit 2 with a one-line message and no traceback."""

    def _argv(self, command, bad, tmp_path):
        good = write_json(tmp_path / "good.json", MIXTURE_SPEC)
        out = str(tmp_path / "out")
        return {
            "train-discriminator": ["train-discriminator", "--data", bad, "--model", good,
                                    "--seed", "0", "--out", out],
            "refine": ["refine", "--model", bad, "--disc", good, "--out", out],
            "sample": ["sample", "--model", bad, "--seed", "0", "--out", out],
        }[command]

    @pytest.mark.parametrize("text", [None, '{"type": "discrete", "support": [', "[1, 2]"],
                             ids=["missing", "malformed", "not-an-object"])
    @pytest.mark.parametrize("command", ["train-discriminator", "refine", "sample"])
    def test_bad_input_file_exits_2(self, command, text, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if text is not None:
            bad.write_text(text)
        assert main(self._argv(command, str(bad), tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("reader", ["run-config", "train-data", "sample-model",
                                        "refine-disc"])
    def test_deeply_nested_json_exits_2(self, reader, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)  # json raises RecursionError, not JSONDecodeError
        deep, out = str(deep), str(tmp_path / "out")
        argv = {
            "run-config": ["run", deep],
            "train-data": ["train-discriminator", "--data", deep, "--seed", "0",
                           "--model", write_json(tmp_path / "mu.json", DISCRETE_MU),
                           "--out", out],
            "sample-model": ["sample", "--model", deep, "--seed", "0", "--out", out],
            "refine-disc": ["refine", "--model", write_json(tmp_path / "mu.json", DISCRETE_MU),
                            "--disc", deep, "--out", out],
        }[reader]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: maximum recursion depth exceeded") and \
            err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_checkpoint_not_an_object_exits_2(self, tmp_path, capsys):
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", [1, 2])
        assert main(["refine", "--model", model, "--disc", disc,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "error: checkpoint must be a JSON object\n"

    @pytest.mark.parametrize("key, value, message", [
        ("activation", "identity", "error: unsupported activation 'identity'\n"),
        ("shape", [4, 4], "error: checkpoint layer shapes do not match their weights "
                          "and biases\n"),
        ("head", "clamp", "error: unsupported head 'clamp': only link-head nets load\n"),
    ])
    def test_malformed_net_checkpoint_exits_2(self, key, value, message, tmp_path, capsys):
        doc = discriminator_to_dict(init_discriminator(get_generator("js_shifted"), 1, 4))
        if key == "shape":
            doc["layers"][0]["shape"] = value  # 4 x 4 does not fit 4 weights
        else:
            doc[key] = value
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        assert main(["refine", "--model", model, "--disc", disc,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("layer, shape", [
        (0, [4.0, 1]), (1, [4.0, 4.0]), (2, [1, 4.0]), (0, [4, True]),
    ], ids=["first-float", "hidden-float", "last-float", "first-bool"])
    def test_non_integer_layer_shape_exits_2(self, layer, shape, tmp_path, capsys):
        doc = discriminator_to_dict(init_discriminator(get_generator("js_shifted"), 1, 4))
        doc["layers"][layer]["shape"] = shape  # equal to the true shape as numbers
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        assert main(["refine", "--model", model, "--disc", disc,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint layer {layer} shape {shape} must hold integers\n")

    @pytest.mark.parametrize("change, message", [
        ("width-0", "error: a net needs dim >= 1 and width >= 1, got dim=1, width=0\n"),
        ("version-true", "error: unsupported checkpoint version True\n"),
    ])
    def test_zero_width_or_boolean_version_checkpoint_exits_2(self, change, message,
                                                              tmp_path, capsys):
        doc = discriminator_to_dict(init_discriminator(get_generator("js_shifted"), 1, 4))
        if change == "width-0":
            doc["layers"] = [{"shape": [0, 1], "weights": [], "bias": []},
                             {"shape": [0, 0], "weights": [], "bias": []},
                             {"shape": [1, 0], "weights": [], "bias": [0.0]}]
        else:
            doc["version"] = True
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("spec, shown", [
        ({**MIXTURE_SPEC, "means": [[[0.0]]]}, "means: points must be (n,) or (n, d)"),
        ({**MIXTURE_SPEC, "means": [["a"]]}, "malformed distribution spec"),
        ({**MIXTURE_SPEC, "covs": 1.0}, "expected (1, 1, 1)"),
        ({**MIXTURE_SPEC, "covs": [1.0]}, "expected (1, 1, 1)"),
        ({**MIXTURE_SPEC, "covs": [[1.0]]}, "expected (1, 1, 1)"),
        ({**MIXTURE_SPEC, "covs": [[[1.0]], [[1.0]]]}, "expected (1, 1, 1)"),
        ({**DISCRETE_MU, "weights": "x"}, "malformed distribution spec"),
        ({**MIXTURE_SPEC, "weights": [0.5, 0.5]}, "weights have shape (2,), expected (1,)"),
        ({**MIXTURE_SPEC, "means": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5],
          "covs": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [0.0, 2.0]]]},
         "covariance 1 is not symmetric"),
    ], ids=["means-3-deep", "means-not-numeric", "covs-number", "covs-scalar-per-component",
            "covs-diagonal-per-component", "covs-extra", "weights-str", "weights-short",
            "covs-asymmetric"])
    def test_malformed_distribution_spec_exits_2(self, spec, shown, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", spec)
        assert main(["sample", "--model", model, "--steps", "5", "--seed", "0",
                     "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert shown in err and "Traceback" not in err

    @pytest.mark.parametrize("command, spec", [
        ("train-discriminator", {**DISCRETE_NU, "weights": [math.nan, 1.0]}),
        ("refine", {**DISCRETE_MU, "weights": [math.nan, 1.0]}),
        ("sample", {**MIXTURE_SPEC, "means": [[math.nan]]}),
        ("sample", {**MIXTURE_SPEC, "covs": [[[math.inf]]]}),
    ], ids=["train-weights-nan", "refine-weights-nan", "sample-means-nan", "sample-covs-inf"])
    def test_non_finite_distribution_spec_exits_2(self, command, spec, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", spec)  # json writes NaN and Infinity
        out = str(tmp_path / "out")
        argv = {
            "train-discriminator": ["--data", bad, "--seed", "0",
                                    "--model", write_json(tmp_path / "mu.json", DISCRETE_MU)],
            "refine": ["--model", bad,
                       "--disc", write_json(tmp_path / "disc.json", self._tabular_doc())],
            "sample": ["--model", bad, "--steps", "5", "--seed", "0"],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, *argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Warning" not in err and "Traceback" not in err and caught == []
        assert "finite" in err

    @staticmethod
    def _tabular_doc():
        js = get_generator("js_shifted")
        return discriminator_to_dict(exact_tabular(model_from_spec(DISCRETE_NU),
                                                   model_from_spec(DISCRETE_MU), js))

    @pytest.mark.parametrize("case", ["layers-str", "weight-str", "tabular-values-str",
                                      "tabular-values-bool", "net-bias-bool", "net-bias-str"])
    def test_malformed_checkpoint_value_exits_2(self, case, tmp_path, capsys):
        if case.startswith("tabular"):
            doc = self._tabular_doc()
            if case == "tabular-values-str":
                doc["values"] = "x"
            else:  # numpy would read the bools as 1.0 and 0.0
                doc["support"], doc["values"] = [[0.0], [1.0], [2.0]], [True, False, True]
        else:
            doc = discriminator_to_dict(init_discriminator(get_generator("js_shifted"), 1, 4))
            if case == "layers-str":
                doc["layers"] = "x"
            elif case == "weight-str":
                doc["layers"][0]["weights"][0] = "a"
            else:
                doc["bias"] = True if case == "net-bias-bool" else "0.5"
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed checkpoint: ") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("case", ["tabular-nan", "tabular-inf", "net-weight-nan",
                                      "net-bias-inf"])
    def test_non_finite_checkpoint_exits_2(self, case, tmp_path, capsys):
        if case.startswith("tabular"):
            doc = self._tabular_doc()
            doc["values"] = [math.nan if case == "tabular-nan" else math.inf, -0.5]
        else:
            doc = discriminator_to_dict(init_discriminator(get_generator("js_shifted"), 1, 4))
            if case == "net-weight-nan":
                doc["layers"][1]["weights"][2] = math.nan
            else:
                doc["bias"] = math.inf
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)  # json writes NaN and Infinity
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        assert "finite" in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command, spec, shown", [
        ("refine", {**DISCRETE_MU, "weights": [True, False]},
         "weights: expected numbers, got bool"),
        ("train-discriminator",
         {**DISCRETE_NU, "support": [["0"], ["1"]], "weights": ["0.5", "0.5"]},
         "support: expected numbers, got str"),
        ("sample", {**MIXTURE_SPEC, "means": [[True]], "covs": [[[True]]], "weights": [True]},
         "means: expected numbers, got bool"),
        ("train-discriminator", {**DISCRETE_NU, "weights": [10 ** 400, 0.5]},
         "int too large to convert to float"),
    ], ids=["refine-bool-weights", "train-str-support-and-weights", "sample-bool-mixture",
            "train-int-beyond-float"])
    def test_non_number_distribution_spec_exits_2(self, command, spec, shown, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", spec)
        out = tmp_path / "out"
        argv = {
            "train-discriminator": ["--data", bad, "--seed", "0",
                                    "--model", write_json(tmp_path / "mu.json", DISCRETE_MU)],
            "refine": ["--model", bad,
                       "--disc", write_json(tmp_path / "disc.json", self._tabular_doc())],
            "sample": ["--model", bad, "--steps", "5", "--seed", "0"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: malformed distribution spec: {shown}\n"
        assert not out.exists()

    def test_tabular_checkpoint_with_infinite_point_exits_2(self, tmp_path, capsys):
        doc = self._tabular_doc()
        doc["support"], doc["values"] = [[0.0], [1.0], [math.inf]], [1.0, 2.0, 3.0]
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)  # json writes Infinity
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: support points must be finite\n"
        assert not out.exists()

    def test_minus_inf_tabular_value_refines(self, tmp_path):
        doc = self._tabular_doc()
        doc["values"][0] = -math.inf  # the ratio vanishes at the first point
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert [float(r[3]) for r in rows[1:]] == [0.0, 1.0]

    @pytest.mark.parametrize("command", ["run-identity-discrete", "run-refine-1d", "run-bounds",
                                         "train-discriminator", "sample", "bounds"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        model = write_json(tmp_path / "mu.json", MIXTURE_SPEC)
        out = str(tmp_path / "out")
        if command.startswith("run-"):
            argv = ["run", write_json(tmp_path / "cfg.json", {
                "experiment": command[4:], "seed": -1, "output_dir": out})]
        else:
            argv = {
                "train-discriminator": [command, "--data", model, "--model", model],
                "sample": [command, "--model", model],
                "bounds": [command],
            }[command] + ["--seed", "-1", "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "seed: must be at least 0, got -1" in err
        if command.startswith("run-"):
            assert not Path(out).exists()

    def test_net_checkpoint_without_layers_exits_2(self, tmp_path, capsys):
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", {"version": 1, "kind": "net",
                                                   "generator": "kl", "activation": "tanh"})
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: malformed checkpoint: missing key 'layers'\n"
        assert not out.exists()

    def test_tabular_checkpoint_without_generator_exits_2(self, tmp_path, capsys):
        doc = self._tabular_doc()
        doc["generator"] = None
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        assert main(["refine", "--model", model, "--disc", disc,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: unknown generator None")

    def test_tabular_checkpoint_with_repeated_point_exits_2(self, tmp_path, capsys):
        doc = self._tabular_doc()
        doc["support"], doc["values"] = [[0.0], [0.0], [1.0]], [1.0, 2.0, 3.0]
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", doc)
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: support points must be distinct\n"
        assert not out.exists()

    def test_refine_has_no_generator_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--model", "mu.json", "--disc", "disc.json", "--generator", "kl",
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --generator kl" in capsys.readouterr().err

    def test_net_of_other_dimension_exits_2(self, tmp_path, capsys):
        model = write_json(tmp_path / "mu.json", {
            "type": "discrete", "support": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]})
        disc = write_json(tmp_path / "disc.json", discriminator_to_dict(
            init_discriminator(get_generator("js_shifted"), 1, 4)))
        out = tmp_path / "out.csv"
        assert main(["refine", "--model", model, "--disc", disc, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: points of dimension 2 do not fit a net of dimension 1\n"
        assert not out.exists()

    def test_diverging_chain_exits_3(self, tmp_path, capsys):
        model = write_json(tmp_path / "narrow.json", {
            "type": "gaussian_mixture", "means": [[0.0]], "covs": [[[1e-4]]],
            "weights": [1.0]})
        assert main(["sample", "--model", model, "--step-size", "1.0", "--steps", "50",
                     "--chains", "4", "--seed", "0", "--out", str(tmp_path / "s.csv")]) == 3
        assert "diverged" in capsys.readouterr().err


class TestOneStderrLinePerError:
    def test_numeric_failure_prints_only_its_message(self, tmp_path):
        # this fit logs a clamp line and numpy overflow warnings before it fails; run
        # in a fresh interpreter, where neither pytest nor a handler intercepts them
        cfg = write_json(tmp_path / "cfg.json", {
            "experiment": "refine-1d", "seed": 0, "output_dir": str(tmp_path / "out"),
            "discriminator": {"lr": 1e308, "steps": 5}})
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-m", "season.cli", "run", cfg],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 3
        assert out.stderr.startswith("numeric failure: ")
        assert out.stderr.count("\n") == 1 and "Warning" not in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fails", [False, True])
    def test_log_records_print_only_on_success(self, fails, tmp_path, monkeypatch, capsys):
        def command(args):
            logging.getLogger("season.discriminator").warning("clamped 1/2 outputs")
            np.log(np.zeros(1))  # a RuntimeWarning, ignored either way
            if fails:
                raise TrainingDivergedError(1)
            return 0

        monkeypatch.setattr(cli, "cmd_run", command)
        code = main(["run", write_json(tmp_path / "cfg.json", {})])
        err = capsys.readouterr().err
        if fails:
            assert (code, err) == (3, "numeric failure: objective diverged at step 1\n")
        else:
            assert (code, err) == (0, "clamped 1/2 outputs\n")
