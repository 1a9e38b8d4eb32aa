"""Exception hierarchy.

Four broad categories.  Each carries its command-line exit code and the label
`cli.main` prints as the class attributes `exit_code` and `label`, and every
subclass inherits its family's; an error of no narrower family, a bare
RingStarError, exits as a validation failure:

  ConfigError          malformed input files or schemas        (exit 2, config)
  ValidationError      inputs violate a documented contract    (exit 3, validation)
  InfeasibleError      valid inputs, but the requested physics
                       has no solution                         (exit 4, infeasible)
  DimensionCapError    requested Hilbert space exceeds the cap (exit 5, dimension-cap)
"""
from __future__ import annotations


class RingStarError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3  # ValidationError's values, which it inherits
    label = "validation"


class ConfigError(RingStarError):
    """A configuration file is malformed or violates the schema."""

    exit_code = 2
    label = "config"


class ValidationError(RingStarError, ValueError):
    """An input violates a documented precondition.

    Also a ValueError so plain value checks read naturally to callers that
    do not know this package's hierarchy.
    """


class GroundDoubletError(ValidationError):
    """The ring's low-energy spectrum is not a total-S_z = +-1/2 doublet."""


class ConstraintError(ValidationError):
    """An operation requiring the uniform-coupling constraint was given a
    network that violates it."""


class InfeasibleError(RingStarError):
    """The requested protocol or coupling regime has no solution."""

    exit_code = 4
    label = "infeasible"


class AnisotropyDivergenceError(InfeasibleError):
    """The transverse matrix-element sum vanishes, so the anisotropy is
    undefined (no effective coupling exists for these linkers)."""


class DimensionCapError(RingStarError):
    """The requested Hilbert-space dimension exceeds the configured cap."""

    exit_code = 5
    label = "dimension-cap"
