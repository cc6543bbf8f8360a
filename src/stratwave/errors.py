"""Exception hierarchy for stratwave.

Every error raised by the library derives from StratwaveError so callers
(and the CLI) can separate science failures from programming errors.
"""


class StratwaveError(Exception):
    """Base class for all stratwave errors."""


class InvalidN(StratwaveError):
    """n = 5 + 4d: the kernel spectrum grows like exp(eta |xi|^n t)."""


class InvalidRange(StratwaveError):
    """A model parameter is outside its admissible range."""


class UnknownPreset(StratwaveError):
    """Preset name not in the catalogue."""


class GridMismatch(StratwaveError):
    """Two fields on different grids were combined."""


class UnderResolved(StratwaveError):
    """Grid Nyquist frequency cannot resolve the kernel decay scale."""


class WindowContaminated(StratwaveError):
    """Measurement window extends into the wrap-around region."""


class InsufficientDecades(StratwaveError):
    """Tail-fit window has too few sample points per decade."""


class NonFinite(StratwaveError):
    """NaN/Inf appeared during time stepping (instability)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class NoContraction(StratwaveError):
    """Picard iteration stopped contracting (horizon too large)."""


class ExcludedParameters(StratwaveError):
    """(m, n) pair outside the validity range of the dichotomy result."""


class ZeroMean(StratwaveError):
    """Operation requires a datum with nonzero integral."""


class BadParameter(StratwaveError):
    """A library call's parameter outside its declared range."""


class ConfigInvalid(StratwaveError):
    """A config or option value failed validation (a schema, or validate_params)."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
