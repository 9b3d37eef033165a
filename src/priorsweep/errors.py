"""Exception and warning types shared across the package, and the integer
and number checks of the files it reads."""

import math


class PriorsweepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidHyperparameterError(PriorsweepError, ValueError):
    """Hyperparameter outside the family's domain (e.g. w not in (0,1))."""


class SingularDesignError(PriorsweepError):
    """X_gamma'X_gamma is singular for a visited model."""


class ConnectivityError(PriorsweepError):
    """The pooled samples do not connect all skeleton densities."""


class SupportViolationError(PriorsweepError):
    """A pooled sample has zero density under every skeleton prior."""


class ConvergenceError(PriorsweepError):
    """An iterative solver failed to reach its tolerance."""


class ConfigError(PriorsweepError, ValueError):
    """Invalid study configuration."""


def integer(value, name: str) -> int:
    """value if it is a YAML or JSON integer (not a boolean), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def number(value, name: str, finite: bool = True) -> float:
    """value as a float if it is a YAML or JSON number (not a boolean) or a
    string that float() reads (PyYAML reads a float without a dot, such as
    1e-3, as a string), and with `finite` if it is finite; else
    ConfigError."""
    x = None
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if x is None or (finite and not math.isfinite(x)):
        raise ConfigError(f"{name} must be a {'finite ' if finite else ''}number, "
                          f"got {value!r}")
    return x


class SupportWarning(UserWarning):
    """Numerator support is disjoint from the sampled mixture at some h."""


class DegenerateDesignWarning(UserWarning):
    """Control-variate regression design is rank deficient."""
