"""Exception types shared across the package, and the one value check for a scalar that
comes from outside: a config leaf, a record field, a checkpoint header entry or an
argument of a public function or constructor.  The module imports no numpy.
"""

import numbers
import sys


class CdpamError(Exception):
    """Base class for all package errors."""


class FormatError(CdpamError):
    """A file is structurally malformed (bad magic, truncated chunk, ...)."""


class UnsupportedFormatError(FormatError):
    """The file parses but uses an encoding we do not handle."""


class VersionError(FormatError):
    """A checkpoint was written with an incompatible format version."""


class ShapeError(CdpamError, ValueError):
    """Tensor shapes do not conform to an operation's contract."""


class ContractError(CdpamError, ValueError):
    """A precondition on an operation's arguments was violated."""


class DegenerateInputError(ContractError):
    """The input is valid in shape but degenerate (zero vector, constant series)."""


class CapacityError(ContractError):
    """A dataset or corpus is too small for the requested operation."""


class DataError(CdpamError, ValueError):
    """A training or evaluation dataset is empty or missing required entries."""


class NumericError(CdpamError, ArithmeticError):
    """A non-finite value (NaN/Inf) appeared in a numeric computation."""


class TrainingError(CdpamError, RuntimeError):
    """Training diverged or was otherwise aborted; carries the epoch index."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


# the builtin types come first: isinstance tries them before the slower ABC check
_KIND_TYPES = {"bool": bool, "int": (int, numbers.Integral),
               "number": (float, int, numbers.Real), "str": str}
_KIND_NAMES = {"bool": "true or false", "int": "an integer", "number": "a finite number",
               "str": "a string"}
_FLOAT_MAX = sys.float_info.max


def check_value(where: str, value, kind: str, lo=None, hi=None, ends: str = "[]"):
    """Return `value` if it is a `kind`: "bool", "int", "number" or "str".

    A bool is never an int or a number, and an int is a number.  A number is finite: NaN,
    an infinity and an int too large for a float are not.  `lo` and `hi` bound a number
    when given, and `ends` says in interval notation which of them the range holds: "[]"
    both, "(]" not `lo`, "[)" not `hi`, "()" neither.  Otherwise raise
    ``ContractError(f"{where} must be {what}, got {value!r}")``, where an int too long for
    its decimal repr shows as "an integer of <n> bits".
    """
    ok = isinstance(value, _KIND_TYPES[kind])
    if ok and (kind == "int" or kind == "number"):
        # chained comparisons allocate nothing, and NaN fails them
        ok = (not isinstance(value, bool) and -_FLOAT_MAX <= value <= _FLOAT_MAX
              and (lo is None or (lo <= value if ends[0] == "[" else lo < value))
              and (hi is None or (value <= hi if ends[1] == "]" else value < hi)))
    if not ok:
        what = _KIND_NAMES[kind]
        if lo is not None and hi is not None:
            what += f" in {ends[0]}{lo}, {hi}{ends[1]}"
        elif lo is not None:
            what += f" {'>=' if ends[0] == '[' else '>'} {lo}"
        elif hi is not None:
            what += f" {'<=' if ends[1] == ']' else '<'} {hi}"
        try:
            got = repr(value)
        except ValueError:  # an int past sys.get_int_max_str_digits() has no decimal repr
            got = f"an integer of {value.bit_length()} bits"
        raise ContractError(f"{where} must be {what}, got {got}")
    return value
