"""Exception hierarchy shared across the package."""


class CodesumError(Exception):
    """Base class for all errors raised by this package."""


# corpus

class UnbalancedBraces(CodesumError):
    """A source file whose braces never balance; the file is skipped."""


class EmptyCorpus(CodesumError):
    """A vocabulary or index build received no examples."""


class MalformedDataset(CodesumError):
    """A dataset line that is not a JSON method record."""


# tensorcore

class KernelTooLong(CodesumError):
    """A narrow convolution kernel is wider than its input."""


class DimensionMismatch(CodesumError):
    """Tensor extents disagree with the parameter layout."""


# model

class VariantDisabled(CodesumError):
    """A model variant was requested but its parameters are absent."""


# trainer

class InvalidConfig(CodesumError, ValueError):
    """A training configuration value out of range."""


class NonFiniteGradient(CodesumError):
    """``sgd_update`` was handed a gradient containing NaN or Inf."""


class EmptyTrainingSet(CodesumError):
    """Training was asked to run with zero examples."""


# eval

class EmptyIndex(CodesumError):
    """A tf-idf index was built from zero examples."""


# checkpoint

class CheckpointError(CodesumError):
    """Base class for checkpoint file problems."""


class BadMagic(CheckpointError):
    """The file does not start with the checkpoint magic bytes."""


class UnsupportedVersion(CheckpointError):
    """The checkpoint version is not one this code can read."""


class CorruptManifest(CheckpointError):
    """The manifest JSON is missing, malformed, or inconsistent."""


class TruncatedPayload(CheckpointError):
    """The tensor payload is shorter than the manifest promises."""
