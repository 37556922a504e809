"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, log/data format
errors -> 3, and the trainer's FloatingPointError on a diverging loss -> 4.
A MixtureFitError does not reach the CLI: the selection round that fits
falls back to ratio selection.
"""


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class LogFormatError(Exception):
    """A prediction log or dataset file violates its documented format."""

    def __init__(self, message, path=None, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class MissingIdsError(LogFormatError):
    """A prediction log does not cover every requested instance id."""

    def __init__(self, ids, path=None):
        self.ids = sorted(ids, key=str)
        shown = ", ".join(str(i) for i in self.ids[:10])
        more = "" if len(self.ids) <= 10 else f" (+{len(self.ids) - 10} more)"
        super().__init__(f"log is missing ids: {shown}{more}", path=path)


class RaggedSequenceError(LogFormatError):
    """Prediction sequences within one round differ in length."""


class TrainerCommandError(Exception):
    """An external trainer command exited abnormally."""

    def __init__(self, command, returncode, stderr=""):
        self.command = command
        self.returncode = returncode
        self.stderr = stderr
        tail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        detail = f": {tail}" if tail else ""
        super().__init__(f"trainer command exited with status {returncode}{detail}")


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
