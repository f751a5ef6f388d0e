"""CLI contract: exit codes, file schemas, determinism."""

import csv
import json
import math
import os

import numpy as np
import pytest

from season.cli import main
from season.discriminator import exact_tabular
from season.distributions import model_from_spec
from season.generators import get_generator
from season.refine import refine_discrete

MIXTURE_SPEC = {"type": "gaussian_mixture", "means": [[0.0]], "covs": [[[1.0]]],
                "weights": [1.0]}
DISCRETE_NU = {"type": "discrete", "support": [[0.0], [1.0]], "weights": [0.5, 0.5]}
DISCRETE_MU = {"type": "discrete", "support": [[0.0], [1.0]], "weights": [0.25, 0.75]}


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
        assert len(rows) == 31  # 10 instances x 3 generators
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


class TestVerify:
    def test_identity_suite_passes(self, capsys):
        assert main(["verify", "identity"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["suites"][0]["checks"]}
        assert "identity-residual" in names and "strong-duality-gap" in names

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])  # argparse rejects the choice

    def test_all_suites_pass(self, capsys):
        assert main(["verify", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["suite"] for s in payload["suites"]] == \
            ["core", "identity", "bounds", "samplers"]
        assert all(s["passed"] for s in payload["suites"])


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
        expected = refine_discrete(mu_d, exact_tabular(nu_d, mu_d, kl), kl).weights
        assert [float(r[3]) for r in rows[1:]] == expected.tolist()

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

    def test_checkpoint_not_an_object_exits_2(self, tmp_path, capsys):
        model = write_json(tmp_path / "mu.json", DISCRETE_MU)
        disc = write_json(tmp_path / "disc.json", [1, 2])
        assert main(["refine", "--model", model, "--disc", disc,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "error: checkpoint must be a JSON object\n"

    def test_diverging_chain_exits_3(self, tmp_path, capsys):
        model = write_json(tmp_path / "narrow.json", {
            "type": "gaussian_mixture", "means": [[0.0]], "covs": [[[1e-4]]],
            "weights": [1.0]})
        assert main(["sample", "--model", model, "--step-size", "1.0", "--steps", "50",
                     "--chains", "4", "--seed", "0", "--out", str(tmp_path / "s.csv")]) == 3
        assert "diverged" in capsys.readouterr().err
