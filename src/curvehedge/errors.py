"""Exception types shared across the toolkit.

Everything derives from ValueError so callers that do not care about the
distinction can catch the builtin. The distinct classes name the failure for
callers that branch on it. The backtester does not catch ExtrapolationError
to truncate a series: it works out ahead how long every bond stays above the
curve's shortest tenor, and re-raises any error that still occurs with the
bond (while marking) or the strategy (while planning) and the date prepended.
"""


class CurveHedgeError(ValueError):
    """Base class for all toolkit errors."""


class ExtrapolationError(CurveHedgeError):
    """A maturity or tenor falls outside the supported range."""


class FitError(CurveHedgeError):
    """Polynomial segment fit failed (too few knots or ill-conditioned system)."""


class DegenerateSpanError(CurveHedgeError):
    """Maturity span or node spacing below the minimum tolerance."""


class CollinearInstrumentError(CurveHedgeError):
    """Hedging instruments carry proportional risk; the ratio system is singular."""


class SingularSystemError(CurveHedgeError):
    """General constraint system is numerically singular."""


class ValidationError(CurveHedgeError):
    """Input file or configuration failed validation; message lists every failure."""
