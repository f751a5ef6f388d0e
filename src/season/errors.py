"""Semantic exception hierarchy shared across the package."""


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
