"""Exception hierarchy.

Exit-code mapping used by the CLI: ConfigError -> 2, DataError -> 3,
anything else raised past the command handler -> 4.
"""

import math
import numbers


class OalsimError(Exception):
    """Base class for all package errors."""


class ConfigError(OalsimError):
    """Bad configuration: unknown keys, invalid values, unresolvable names."""


class DataError(OalsimError):
    """Problems with corpus files, splits or sampling; a bad setting is a ConfigError."""


class CorpusError(DataError):
    """Malformed or inconsistent region data (dimension mismatch, duplicate id)."""


class ParseError(CorpusError):
    """Unparseable record; message names the offending line/record."""


class SplitError(DataError):
    """Split construction failed (e.g. no predicate meets the frequency threshold)."""


class SamplingError(DataError):
    """Interaction sampling failed (subset too small, no describable target)."""


class GenerationError(DataError):
    """Synthetic generation exhausted its resample budget on a region."""


class ProtocolError(OalsimError):
    """Episode protocol violation (action on terminated episode, query outside O_A)."""


class ContractError(OalsimError):
    """Internal contract violation (conflicting oracle labels, unterminated transcript)."""


class PolicyUpdateError(OalsimError):
    """Policy update rejected (non-finite gradient)."""


class CheckpointError(OalsimError):
    """Checkpoint file unreadable, truncated, or version-incompatible."""


class DegenerateVarianceError(OalsimError):
    """A t-test on a sample of fewer than 2 elements, which has no variance."""


def check_int(where: str, value, minimum: int | None = None) -> None:
    """ConfigError unless `value` is an integer (not a bool), and >= minimum if given."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where} must be an integer{bound}, got {value!r}")


def check_bool(where: str, value) -> None:
    """ConfigError unless `value` is true or false (a string such as "false" is neither)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")


def check_real(where: str, value) -> None:
    """ConfigError unless `value` is a finite real number (not a bool)."""
    if (
        not isinstance(value, numbers.Real)
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
