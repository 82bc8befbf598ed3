"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions do not agree."""


class StatisticsError(ValueError):
    """A statistic was requested on empty data."""


class DegenerateInputError(ValueError):
    """A point cloud or a geometry setting is unusable: an empty pyramid
    level, cell coordinates beyond int64, a kernel sigma whose 2 sigma^2 is
    0 or inf."""


class ParseError(ValueError):
    """Malformed text input. Carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid experiment configuration. Carries the key path."""

    def __init__(self, message, key=None):
        self.key = key
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)


class ParamFileError(ValueError):
    """Malformed or mismatched parameter file. Carries the tensor name."""

    def __init__(self, message, tensor=None):
        self.tensor = tensor
        super().__init__(message if tensor is None else f"tensor '{tensor}': {message}")


class MissingCacheError(RuntimeError):
    """A backward ran without the cache of a training forward: none came
    before it, or an earlier backward already released it."""


class TrainingFault(RuntimeError):
    """Non-finite value encountered during training."""

    def __init__(self, message, step=None, tensor=None):
        self.step = step
        self.tensor = tensor
        parts = []
        if step is not None:
            parts.append(f"step {step}")
        if tensor is not None:
            parts.append(f"tensor '{tensor}'")
        if parts:
            message = f"{message} ({', '.join(parts)})"
        super().__init__(message)
