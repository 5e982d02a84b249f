"""Exception types raised by the toolkit.

Each type declares ``code``, the machine-readable code the command line
reports for it in ``{"error": {"code": ..., "message": ...}}``.
"""


class LapcovError(Exception):
    """Base class for all toolkit errors."""
    code = "internal_error"


class GridTooLarge(LapcovError):
    """A semigroup product exceeded the supported integer range."""
    code = "grid_too_large"


class PrimeOutOfRange(LapcovError):
    """An integer has a prime factor beyond the retained prime list."""
    code = "prime_out_of_range"


class ZeroWeightAtom(LapcovError):
    """An operation requiring nonzero weights met a zero-weight atom."""
    code = "zero_weight_atom"


class SymbolUndefinedAtAtom(LapcovError):
    """A table symbol has no value at one of the measure's atoms."""
    code = "symbol_undefined"


class MissingGridValue(LapcovError):
    """A table was probed at an element outside its domain."""
    code = "missing_grid_value"


class MassZero(LapcovError):
    """The total mass is numerically zero, so there is no Dirac constant to recover."""
    code = "mass_zero"


class FMuIntegralZero(LapcovError):
    """The symbol-weighted total integral vanishes; the recovery ratio is undefined."""
    code = "f_mu_integral_zero"


class RankDeficientPencil(LapcovError):
    """The restricted matrix pencil is singular beyond tolerance."""
    code = "rank_deficient_pencil"


class ExpectationYZero(LapcovError):
    """The scalar weight variable has (numerically) zero expectation."""
    code = "expectation_y_zero"


class NumericOverflow(LapcovError, OverflowError):
    """A character, monomial or kernel value, or a product of them, overflowed the float range."""
    code = "numeric_overflow"


class ScenarioError(LapcovError):
    """A scenario file violates the published schema."""
    code = "scenario_invalid"
