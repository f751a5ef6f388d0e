"""Semantic exception hierarchy shared across the package."""

from contextlib import contextmanager


class SeasonError(Exception):
    """Base class for all package errors."""


class DomainError(SeasonError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AbsoluteContinuityError(SeasonError):
    """nu puts mass where mu has none, so the density ratio does not exist."""


class DegenerateDistributionError(SeasonError):
    """A construction produced an all-zero or otherwise unusable distribution."""


class LambdaSolveError(SeasonError):
    """The normalizer equation E_mu[f'^-1(h - lambda)] = 1 could not be bracketed or solved."""


class TrainingDivergedError(SeasonError):
    """Training objective became NaN or infinite."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"objective diverged at step {step}")


class ChainDivergenceError(SeasonError):
    """A sampling chain left the guard region."""

    def __init__(self, chain_index: int, step: int):
        self.chain_index = chain_index
        self.step = step
        super().__init__(f"chain {chain_index} diverged at step {step} (|x| > 1e6 or not finite)")


class ConfigError(SeasonError, ValueError):
    """An experiment configuration violates the schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@contextmanager
def malformed_input(what: str):
    """Re-raise KeyError, ValueError, TypeError and OverflowError from outside as DomainError.

    Decorates the readers of JSON input, where a missing key, numpy
    conversions and unpacking raise on malformed values, and an integer
    beyond float range overflows; package errors pass unchanged.
    """
    try:
        yield
    except SeasonError:
        raise
    except KeyError as exc:
        raise DomainError(f"malformed {what}: missing key {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(f"malformed {what}: {exc}") from None
