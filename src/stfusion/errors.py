"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """A caller violated an operation's precondition."""


class ConfigurationError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class UninitializedStateError(RuntimeError):
    """Stateful machinery was used before it was initialized."""


class DomainError(ValueError):
    """A numeric argument lies outside the function's domain."""


class FormatError(ValueError):
    """A serialized artifact is corrupt or has the wrong format."""


class SizeGuardError(ValueError):
    """An enumeration would exceed the configured size guard."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged (non-finite loss) at epoch {epoch}")

    def __reduce__(self):
        # Worker processes return errors pickled; rebuild from (epoch, message),
        # not from `args`, which holds only the message.
        return type(self), (self.epoch, self.args[0])
