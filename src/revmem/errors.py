"""Exception types shared across the package."""


class RevmemError(Exception):
    """Base class for all package errors."""


class ShapeError(RevmemError):
    """Operands have incompatible dimensions."""


class ConfigError(RevmemError):
    """A network/layer/run configuration is invalid."""


class StateError(RevmemError):
    """Required captured state (saved store, batch statistics) is missing or stale."""


class QuantizationError(RevmemError):
    """Input cannot be quantized (e.g. non-finite elements)."""


class StateOverflowError(QuantizationError):
    """An 8-bit optimizer step could push its state past the float32 block scale."""
