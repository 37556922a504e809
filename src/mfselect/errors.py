"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, LogFormatError -> 3
(every data or file error: a bad input, a failed write, a trainer command
that fails) and the trainer's FloatingPointError on a diverging loss -> 4.
A MixtureFitError does not reach the CLI: the selection round that fits
falls back to ratio selection and prints the error's message.
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


class MixtureFitError(Exception):
    """No two-component fit can be made; the message says why."""
