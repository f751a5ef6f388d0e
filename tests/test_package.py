"""Package surface: every name a module exports exists on it, and each
discriminator carries the one generator its consumers use."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import season
from season.discriminator import grads, init_discriminator
from season.distributions import constant_schedule, gaussian_mixture
from season.errors import DomainError
from season.generators import get_generator
from season.refine import refine_continuous, solve_lambda
from season.samplers import ReverseDiffusionConfig, reverse_em

MODULES = [f"season.{m.name}" for m in pkgutil.iter_modules(season.__path__)]

# The benchmark's tracer and workloads pass gen to these by position, so they
# keep it until the next change to the benchmark; every other consumer reads
# disc.generator.
PINNED = {"discriminator.grads", "refine.solve_lambda", "refine.refine_continuous",
          "samplers.reverse_em"}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _public_callables(module):
    """(name, callable) for the module's own public functions, classes and methods."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_only_pinned_signatures_take_a_generator_next_to_a_discriminator():
    both = set()
    for layer in ("refine", "metrics", "samplers", "discriminator"):
        module = importlib.import_module(f"season.{layer}")
        for name, fn in _public_callables(module):
            params = inspect.signature(fn).parameters
            if "gen" in params and {"disc", "discs"} & params.keys():
                both.add(f"{layer}.{name}")
    assert both == PINNED


KL, JS = get_generator("kl"), get_generator("js_shifted")
X = np.linspace(-1.0, 1.0, 8)[:, None]
CFG = ReverseDiffusionConfig(schedule=constant_schedule(1.0, 1.0), K=2, n_chains=4)
MODEL = gaussian_mixture([[0.0]], [[[1.0]]], [1.0])


@pytest.mark.parametrize("gen, call", [
    (KL, lambda disc, gen: grads(disc, gen, X, X)),
    (KL, lambda disc, gen: solve_lambda(disc, gen, X)),
    (KL, lambda disc, gen: refine_continuous(MODEL, disc, gen, n_mc=16)),
    (KL, lambda disc, gen: reverse_em(lambda x, k: -x, CFG, gen, [disc] * CFG.K)),
    (None, lambda disc, gen: reverse_em(lambda x, k: -x, CFG, gen, [disc] * CFG.K)),
], ids=["grads", "solve_lambda", "refine_continuous", "reverse_em", "reverse_em-no-gen"])
def test_pinned_gen_other_than_the_discriminators_raises(gen, call):
    disc = init_discriminator(JS, 1, 4, seed=0)
    shown = "kl" if gen is not None else None
    with pytest.raises(DomainError, match=f"generator {shown!r} does not match the "
                                          "discriminator's generator 'js_shifted'"):
        call(disc, gen)
    call(disc, JS)  # the discriminator's own generator passes
