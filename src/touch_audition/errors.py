"""Domain exceptions shared across the package."""


class TouchAuditionError(Exception):
    """Base class for all domain errors (CLI maps these to exit code 1)."""


class AudioFormatError(TouchAuditionError):
    """WAV file is not 16-bit PCM mono at the expected rate, or features do
    not have the model's mel-bin count."""


class InputTooShortError(TouchAuditionError):
    """Input shorter than the architecture's minimum length contract."""


class CheckpointFormatError(TouchAuditionError):
    """Checkpoint bytes do not parse, or config/shape mismatch on load."""


class ManifestError(TouchAuditionError):
    """Manifest CSV missing, malformed, or with unknown labels."""


class TrainingDivergedError(TouchAuditionError):
    """Training produced a non-finite loss, parameter or batch-norm buffer;
    the run stops instead of going on."""
