"""Exception types shared across the package.

Numerical routines never return NaN/Inf to signal trouble; they raise.
Overflow of an exponential factor raises the built-in OverflowError so
callers can distinguish "mathematically huge" from "invalid input".
The type carries the command line's exit code: ConfigError (a run option
or config value out of range) exits 2, any other DomainError (a model
value outside its domain) exits 1.
"""

__all__ = ["BranchCutError", "CertificationError", "ConfigError", "DomainError", "OracleError"]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class BranchCutError(DomainError):
    """A complex argument lies on (or within tolerance of) a branch cut."""


class OracleError(RuntimeError):
    """The adaptive-quadrature oracle could not certify the requested accuracy."""


class CertificationError(RuntimeError):
    """A sampled bound check failed; the message names the offending point."""


class ConfigError(DomainError):
    """A run option or config value is out of range, or a config file is
    malformed (unknown key, bad value, missing field); exit 2.
    """
