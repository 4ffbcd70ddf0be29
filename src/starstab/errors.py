"""Exception types shared across the package."""


class StabilityError(Exception):
    """Base class for all package errors."""


class PreconditionError(StabilityError, ValueError):
    """An operation was called outside its admissible hypothesis."""


class GapError(StabilityError):
    """Spectral rounding refused: eigenvalues too close to the threshold."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class SnapError(StabilityError):
    """A matrix was too far from the target manifold to be snapped onto it."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularMapError(StabilityError):
    """An operator that must be invertible is (numerically) singular."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MultiplicityMismatch(StabilityError):
    """Two embeddings are not unitarily equivalent (K-theory obstruction)."""

    def __init__(self, left, right):
        super().__init__(f"multiplicity vectors differ: {left} vs {right}")
        self.left = left
        self.right = right


class ContractionError(StabilityError):
    """Averaging failed to contract within the Monte-Carlo error budget."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class StageAbort(StabilityError):
    """A pipeline stage aborted; carries the partial report."""

    def __init__(self, stage, cause, report=None):
        super().__init__(f"stage '{stage}' aborted: {cause}")
        self.stage = stage
        self.cause = cause
        self.report = report


class EvaluationError(StabilityError):
    """A map evaluator failed; carries the offending input."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class ConfigError(StabilityError, ValueError):
    """Malformed configuration input."""
