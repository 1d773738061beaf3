"""Exception types shared across the package."""


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
