"""Exception types shared across the package.

Plain ``ValueError`` is reserved for structural misuse of the library API (dimension
mismatches, NaN inputs). A pool, reward schedule or policy given with a target must have its
state space and horizon, else the error names the part: ``contributors and target use
different state spaces`` or ``reward horizon 1 != target horizon 2``. A reward schedule whose
per-step largest magnitudes, summed over the steps, reach ``model.REWARD_LIMIT`` is refused
when it is built, with a ``ValueError`` naming the step; every route answers every schedule
admitted. The classes below mark conditions the command line maps to dedicated exit codes;
``ValidationError`` comes only from reading files.
"""


class CrowdPolicyError(Exception):
    """Base class for domain errors raised by this package."""


class ValidationError(CrowdPolicyError, ValueError):
    """A scenario or policy file failed parsing or validation."""


class InfeasibleError(CrowdPolicyError):
    """No admissible contributor remains for some decision."""


class OracleGuardError(CrowdPolicyError):
    """An exhaustive oracle refused an instance that is too large."""


__all__ = ["CrowdPolicyError", "ValidationError", "InfeasibleError", "OracleGuardError"]
