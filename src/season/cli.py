"""Batch experiment runner.

    season run <config.json>        run a named experiment from a config file
    season verify <suite>           run the acceptance criteria of one suite, or all:
                                    core (4, 6), identity (1-3), bounds (5, 9-11),
                                    samplers (7, 8)
    season train-discriminator ...  fit a discriminator between two distributions
    season refine ...               refine a discrete model with a checkpoint
    season sample ...               Langevin-sample a continuous model from N(0, I)
    season bounds ...               assemble a generalization bound report

Seeds, in configs and as --seed, are integers >= 0.  A run config holds only
keys its experiment reads, and no output directory is made before the
outputs are computed and found finite.
Exit codes: 0 success, 1 verify-suite failure, 2 config/validation error
(bad config or input file, domain error), 3 numeric failure (NaN,
divergence or any other package error).  `main` maps exceptions to these
codes in one place and prints a one-line message, never a traceback.
Outputs are byte-identical for identical config + seed and the same BLAS
thread count.  Every CSV goes through one writer, `refine._write_csv`:
floats carry 17 significant digits and lines end in \\r\\n.
OUTPUT_DIR overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import logging.handlers
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Optional

from .discriminator import TrainConfig, load_discriminator, save_discriminator, train
from .distributions import DiscreteDistribution, model_from_spec
from .errors import ConfigError, DomainError, SeasonError
from .experiments import (
    bound_trial,
    identity_discrete_experiment,
    refinement_benefit_experiment,
)
from .generators import GENERATOR_NAMES, get_generator
from .refine import _write_csv, export_refined_csv
from .samplers import LangevinConfig, export_samples_csv, langevin
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


_MISSING = object()
_REAL = (int, float)


def _require(cfg: dict, key: str, types, path: str, default=_MISSING, *,
             minimum: Optional[int] = None):
    """Remove cfg[key] and return it, checked against types (bool never counts as a number).

    A missing key is an error unless a default is given; minimum bounds a count or seed.
    Removing each field as it is read leaves in cfg only the keys nothing reads.
    """
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    val = cfg.pop(key)
    if isinstance(val, bool) or not isinstance(val, types):
        names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise ConfigError(f"{path}.{key}", f"expected {names}, got {type(val).__name__}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be at least {minimum}, got {val}")
    return val


def _reject_unknown(cfg: dict, path: str) -> None:
    """Raise ConfigError on a key still in cfg once its runner has read every field."""
    if cfg:
        raise ConfigError(f"{path}.{next(iter(cfg))}", "unknown field")


def _output_dir(cfg: dict) -> Path:
    """OUTPUT_DIR, else $.output_dir; each runner creates it only once its outputs are computed."""
    configured = _require(cfg, "output_dir", str, "$", ".")
    return Path(os.environ.get("OUTPUT_DIR") or configured)


def _generator_from(cfg: dict, default: str = "js_shifted"):
    name = _require(cfg, "generator", str, "$", default)
    if name not in GENERATOR_NAMES:
        raise ConfigError("$.generator", f"unknown generator {name!r}")
    return get_generator(name)


def _run_identity(cfg: dict, out: Path) -> None:
    seed = _require(cfg, "seed", int, "$", minimum=0)
    n_instances = _require(cfg, "n_instances", int, "$", 100, minimum=1)
    _reject_unknown(cfg, "$")
    rows = identity_discrete_experiment(n_instances=n_instances, seed=seed)
    if not math.isfinite(max(r["residual"] for r in rows)):
        raise FloatingPointError("identity residual is not finite")
    out.mkdir(parents=True, exist_ok=True)
    columns = [("instance_id", False), ("d_H", True), ("D_fH", True), ("gain", True),
               ("residual", True)]
    _write_csv(out / "identity_terms.csv", columns,
               ([r[name] for name, _ in columns] for r in rows))


def _run_refine_1d(cfg: dict, out: Path) -> None:
    seed = _require(cfg, "seed", int, "$", minimum=0)
    disc_cfg = _require(cfg, "discriminator", dict, "$", {})
    sampler_cfg = _require(cfg, "sampler", dict, "$", {})
    kwargs = dict(
        k_levels=_require(sampler_cfg, "k_levels", int, "$.sampler", 16, minimum=1),
        t_horizon=float(_require(sampler_cfg, "t_horizon", _REAL, "$.sampler", 2.0)),
        n_chains=_require(sampler_cfg, "n_chains", int, "$.sampler", 2000, minimum=1),
        disc_width=_require(disc_cfg, "width", int, "$.discriminator", 16, minimum=1),
        disc_steps=_require(disc_cfg, "steps", int, "$.discriminator", 300, minimum=0),
        disc_lr=float(_require(disc_cfg, "lr", _REAL, "$.discriminator", 0.25)),
    )
    for fields, path in ((cfg, "$"), (sampler_cfg, "$.sampler"), (disc_cfg, "$.discriminator")):
        _reject_unknown(fields, path)
    result = refinement_benefit_experiment(seed, **kwargs)
    if not (math.isfinite(result.w1_guided) and math.isfinite(result.w1_unguided)):
        raise FloatingPointError("Wasserstein distances are not finite")
    out.mkdir(parents=True, exist_ok=True)
    export_samples_csv(out / "samples_base.csv", result.samples_unguided, seed)
    export_samples_csv(out / "samples_refined.csv", result.samples_guided, seed)
    _json_dump(out / "w1_report.json", {
        "seed": seed,
        "w1_base": result.w1_unguided,
        "w1_refined": result.w1_guided,
        "improved": result.improved,
    })


def _bound_report(seed: int, gen_name: str, n: int, delta: float) -> dict:
    report = bound_trial(seed, gen_name=gen_name, n=n, delta=delta)
    return {**report.to_dict(), "seed": seed, "generator": gen_name}


def _run_bounds(cfg: dict, out: Path) -> None:
    seed = _require(cfg, "seed", int, "$", minimum=0)
    gen = _generator_from(cfg)
    n = _require(cfg, "n", int, "$", 200, minimum=1)
    delta = float(_require(cfg, "delta", _REAL, "$", 0.05))
    _reject_unknown(cfg, "$")
    payload = _bound_report(seed, gen.name, n, delta)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(out / "bound_report.json", payload)


_RUNNERS = {
    "identity-discrete": _run_identity,
    "refine-1d": _run_refine_1d,
    "bounds": _run_bounds,
}


def cmd_run(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ConfigError("$", "config must be a JSON object")
    experiment = _require(cfg, "experiment", str, "$")
    if experiment not in _RUNNERS:
        raise ConfigError("$.experiment", f"unknown experiment {experiment!r}; "
                                          f"choose from {tuple(_RUNNERS)}")
    _RUNNERS[experiment](cfg, _output_dir(cfg))
    return EXIT_OK


def cmd_verify(args) -> int:
    payload = run_suite(args.suite)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK if payload["passed"] else EXIT_SUITE_FAILED


def _load_distribution(path: str):
    spec = json.loads(Path(path).read_text())
    return model_from_spec(spec)


def cmd_train(args) -> int:
    if args.n_samples < 1:
        raise ConfigError("--n-samples", f"must be at least 1, got {args.n_samples}")
    cfg = TrainConfig(width=args.width, steps=args.steps, step_size=args.lr, seed=args.seed)
    data_nu = _load_distribution(args.data)
    data_mu = _load_distribution(args.model)
    gen = get_generator(args.generator)
    if not (isinstance(data_nu, DiscreteDistribution)
            and isinstance(data_mu, DiscreteDistribution)):
        data_nu = data_nu.sample(args.seed, args.n_samples)
        data_mu = data_mu.sample(args.seed + 1, args.n_samples)
    save_discriminator(train(gen, data_nu, data_mu, cfg), args.out)
    return EXIT_OK


def cmd_refine(args) -> int:
    mu = _load_distribution(args.model)
    if not isinstance(mu, DiscreteDistribution):
        raise ConfigError("$.model", "refine subcommand expects a discrete model")
    disc = load_discriminator(args.disc)
    export_refined_csv(args.out, mu, disc)
    return EXIT_OK


def cmd_sample(args) -> int:
    """Langevin chains on the model's score, started from N(0, I).

    The chains do not move mass between well-separated modes, so they keep
    the start's split of such modes, not the model's.  On the refine-1d base
    (modes at -2 and 2, weights 0.25/0.75), 0.45-0.50 of the default chains
    end left of 0 at seeds 0-3, where the model puts 0.25.
    """
    model = _load_distribution(args.model)
    if isinstance(model, DiscreteDistribution):
        raise ConfigError("$.model", "sampling needs a continuous model")
    cfg = LangevinConfig(step_size=args.step_size, n_steps=args.steps,
                         n_chains=args.chains, dim=model.dim, seed=args.seed)
    batch = langevin(model.score, cfg)
    export_samples_csv(args.out, batch, args.seed)
    return EXIT_OK


def cmd_bounds(args) -> int:
    _json_dump(Path(args.out), _bound_report(args.seed, args.generator, args.n, args.delta))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="season", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser("train-discriminator", help="fit a discriminator")
    p_train.add_argument("--data", required=True, help="JSON distribution spec (nu)")
    p_train.add_argument("--model", required=True, help="JSON distribution spec (mu)")
    p_train.add_argument("--generator", default="js_shifted", choices=GENERATOR_NAMES)
    p_train.add_argument("--width", type=int, default=TrainConfig.width)
    p_train.add_argument("--steps", type=int, default=TrainConfig.steps,
                         help="maximum steps; training stops earlier once the objective "
                              "stalls within its Monte Carlo error")
    p_train.add_argument("--lr", type=float, default=TrainConfig.step_size)
    p_train.add_argument("--n-samples", type=int, default=2000)
    p_train.add_argument("--seed", type=int, required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_refine = sub.add_parser("refine", help="refine a discrete model")
    p_refine.add_argument("--model", required=True)
    p_refine.add_argument("--disc", required=True)
    p_refine.add_argument("--out", required=True)
    p_refine.set_defaults(func=cmd_refine)

    p_sample = sub.add_parser("sample", help="Langevin-sample a continuous model from N(0, I)",
                              description=cmd_sample.__doc__)
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--step-size", type=float, default=1e-3)
    p_sample.add_argument("--steps", type=int, default=1000)
    p_sample.add_argument("--chains", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_bounds = sub.add_parser("bounds", help="assemble a generalization bound report")
    p_bounds.add_argument("--generator", default="js_shifted", choices=GENERATOR_NAMES)
    p_bounds.add_argument("--n", type=int, default=200)
    p_bounds.add_argument("--delta", type=float, default=0.05)
    p_bounds.add_argument("--seed", type=int, required=True)
    p_bounds.add_argument("--out", required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def _run(args) -> int:
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError("--seed", f"must be at least 0, got {args.seed}")
        return args.func(args)
    # json raises RecursionError on deeply nested arrays
    except (ConfigError, DomainError, OSError, json.JSONDecodeError, RecursionError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SeasonError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv=None) -> int:
    """Run one command; an error exit prints its one-line message and nothing else.

    numpy's RuntimeWarnings are ignored, and `season` log records are held
    back and printed to stderr only when the command did not fail.
    """
    args = build_parser().parse_args(argv)
    held = logging.handlers.MemoryHandler(sys.maxsize, flushLevel=logging.CRITICAL + 1)
    log = logging.getLogger("season")
    log.addHandler(held)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = _run(args)
    finally:
        log.removeHandler(held)
    if code not in (EXIT_CONFIG, EXIT_NUMERIC):
        held.setTarget(logging.StreamHandler(sys.stderr))
    held.close()  # flushes to the target, if one was set
    return code


if __name__ == "__main__":
    sys.exit(main())
