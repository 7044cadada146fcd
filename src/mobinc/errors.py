"""Exception types raised by the library."""


class Error(Exception):
    """Base class for all mobinc errors."""


class ModulusMismatchError(Error):
    """Objects built over different prime moduli were mixed."""


class SingularMatrixError(Error):
    """A matrix with zero determinant cannot define a transformation."""


class DegenerateTripleError(Error):
    """Triple interpolation needs three pairwise-distinct points."""


class ThresholdError(Error):
    """The requested richness threshold is outside the supported range."""


class WrongBranchError(Error):
    """An affine (c = 0) transformation reached a curved-only operation."""


class PivotMismatchError(Error):
    """The transformation does not pass through the pivot point."""


class OracleSizeError(Error):
    """Input exceeds the configured cap of a brute-force oracle."""


class EmptyFamilyError(Error):
    """An operation that needs at least one member got an empty family."""


class UnbalancedInputError(Error):
    """The packaged representation report needs |A| = |B|."""


class DegenerateInputError(Error):
    """The dichotomy statistics need at least three points."""


class DegeneratePatternError(Error):
    """Equivalence counting needs a pattern of at least three scalars."""


class MissingParameterError(Error):
    """A bound identifier was given without one of its required parameters."""


class WorkLimitError(Error):
    """The requested work exceeds a limit set where that work is done."""


class InfeasibleSizeError(Error):
    """A generator was asked for more distinct values than the field holds."""


class FileFormatError(Error):
    """An input file does not follow its documented line format."""


class ConfigError(Error):
    """A sweep configuration is malformed or inconsistent."""
