"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, LogFormatError -> 3
(every data or file error: a bad input, a failed write, a trainer command
that fails) and the trainer's FloatingPointError on a diverging loss -> 4.
A MixtureFitError does not reach the CLI: the selection round that fits
falls back to ratio selection.
"""


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class LogFormatError(Exception):
    """A data error: an input that cannot be read or breaks its format, an
    output that cannot be written, or an external trainer command that fails."""

    def __init__(self, message, path=None, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class MixtureFitError(Exception):
    """Base class for failures while fitting the two-component mixture."""


class DegenerateSamplesError(MixtureFitError):
    """Sample set cannot support a maximum-likelihood fit (e.g. zero spread)."""


class NewtonDivergenceError(MixtureFitError):
    """Shape-parameter solver failed to converge; carries the last iterate."""

    def __init__(self, message, last_beta):
        super().__init__(f"{message} (last iterate beta={last_beta:.6g})")
        self.last_beta = last_beta


class ComponentCollapseError(MixtureFitError):
    """One mixture component lost all its mass during EM."""

    def __init__(self, component, reason):
        self.component = component
        super().__init__(f"component {component!r} collapsed: {reason}")
