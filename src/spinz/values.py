"""Non-negative scalars carried in one of two numeric backends.

Inequality verification needs exact rational arithmetic (a false
counterexample produced by rounding is the worst possible failure mode),
while large instances need log-domain floats.  ``NonNegValue`` carries a
quantity in exactly one backend; arithmetic never mixes backends
silently.  ``PowerProduct`` represents products of rational powers of
such values -- the shape every upper bound here takes -- and
``compare_product`` decides inequalities between them exactly, using a
float screen with a wide safety margin and an arbitrary-precision
integer fallback for near-ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Tuple, Union

NEG_INF = float("-inf")

RationalLike = Union[int, str, Fraction]


class Backend(str, Enum):
    EXACT = "exact"
    LOG = "log"


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def nonneg_rational(value: RationalLike) -> Fraction:
    """An int, Fraction or ``p/q`` text as a Fraction; refuses negatives."""
    if type(value) is not Fraction:
        value = Fraction(parse_rational(value) if isinstance(value, str) else value)
    if value.numerator < 0:
        raise ValueError(f"negative value not allowed: {value}")
    return value


def log_of_fraction(x: Fraction) -> float:
    num = x.numerator  # a Fraction's sign and zero are its numerator's
    if num < 0:
        raise ValueError("log of negative rational")
    if num == 0:
        return NEG_INF
    return math.log(num) - math.log(x.denominator)  # math.log takes big ints exactly


class NonNegValue:
    """A non-negative number, either an exact rational or a log float.

    EXACT payload is a canonical ``Fraction`` (gcd-reduced, positive
    denominator, value >= 0), whose log is worked out once, when first
    asked for.  LOG payload is the natural log of the magnitude, with
    ``-inf`` as the distinguished zero, which compares below every
    finite value.
    """

    __slots__ = ("_frac", "_log")

    def __init__(self, frac: Fraction | None, logv: float | None):
        self._frac = frac
        self._log = logv

    @classmethod
    def exact(cls, value: RationalLike) -> "NonNegValue":
        return cls(nonneg_rational(value), None)

    @classmethod
    def from_log(cls, logv: float) -> "NonNegValue":
        if math.isnan(logv) or logv == math.inf:
            raise ValueError(f"invalid log magnitude: {logv}")
        return cls(None, float(logv))

    @classmethod
    def one(cls, backend: Backend) -> "NonNegValue":
        if backend is Backend.EXACT:
            return cls.exact(1)
        return cls.from_log(0.0)

    @property
    def backend(self) -> Backend:
        return Backend.EXACT if self._frac is not None else Backend.LOG

    @property
    def is_zero(self) -> bool:
        if self._frac is not None:
            return self._frac.numerator == 0
        return self._log == NEG_INF

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("log-backend value has no exact rational payload")
        return self._frac

    def log(self) -> float:
        if self._log is None:
            self._log = log_of_fraction(self._frac)
        return self._log

    def to_log(self) -> "NonNegValue":
        if self._frac is not None:
            return NonNegValue.from_log(self.log())
        return self

    def __mul__(self, other: "NonNegValue") -> "NonNegValue":
        if self.backend is not other.backend:
            raise TypeError("cannot mix exact and log backends; convert explicitly")
        if self._frac is not None:
            return NonNegValue(self._frac * other._frac, None)
        return NonNegValue(None, self._log + other._log)

    def __eq__(self, other):
        if not isinstance(other, NonNegValue):
            return NotImplemented
        if self.backend is not other.backend:
            return False
        if self._frac is not None:
            return self._frac == other._frac
        return self._log == other._log

    def __hash__(self):
        return hash((self.backend, self._log if self._frac is None else self._frac))

    def __repr__(self):
        if self._frac is not None:
            return f"NonNegValue({self._frac})"
        return f"NonNegValue(log={self._log!r})"


Factor = Tuple[NonNegValue, Fraction]


@dataclass(frozen=True)
class PowerProduct:
    """A product of factors ``value ** exponent`` with exponents > 0.

    This is the shape of every upper bound evaluated here: a product of
    complete-bipartite partition functions or homomorphism counts raised
    to rational powers.  Keeping the factored form lets EXACT-backend
    comparisons clear denominators once, and keeps serialized reports
    small even when the cleared-exponent integers would be enormous.
    """

    factors: Tuple[Factor, ...]

    def __post_init__(self):
        backends = {v.backend for v, _ in self.factors}
        if len(backends) > 1:
            raise TypeError("mixed backends in product")
        for _, e in self.factors:
            if e.numerator <= 0:  # denominators are positive
                raise ValueError("exponents must be positive")

    @property
    def backend(self) -> Backend:
        if not self.factors:
            return Backend.EXACT
        return self.factors[0][0].backend

    @property
    def is_zero(self) -> bool:
        return any(v.is_zero for v, _ in self.factors)

    def log(self) -> float:
        if self.is_zero:
            return NEG_INF
        return _log_sum(self.factors)


# Absolute log-gap below which the float screen refuses to decide and the
# exact integer comparison runs instead.  math.log on big ints is within a
# few ulp, so accumulated error over <=buckets of factors stays orders of
# magnitude below this.
_SCREEN_MARGIN = 1e-6


def _log_sum(factors: Sequence[Factor]) -> float:
    """sum of e * log v; e.numerator / e.denominator is float(e), exactly."""
    return sum(e.numerator / e.denominator * v.log() for v, e in factors)


def _screen(la: float, lb: float) -> int | None:
    gap = lb - la
    margin = _SCREEN_MARGIN + 3e-13 * (abs(la) + abs(lb))
    if gap > margin:
        return -1
    if gap < -margin:
        return 1
    return None


def _cleared_ints(factors: Sequence[Factor], lcm_exp: int) -> tuple[int, int]:
    """(numerator, denominator) of product(f ** (e * lcm_exp)), exactly."""
    num = 1
    den = 1
    for v, e in factors:
        power = e * lcm_exp
        if power.denominator != 1:
            raise AssertionError("lcm did not clear exponent denominators")
        k = power.numerator
        frac = v.fraction
        num *= frac.numerator ** k
        den *= frac.denominator ** k
    return num, den


def compare_product(
    a_factors: Sequence[Factor],
    b_factors: Sequence[Factor],
    logs: tuple[float, float] | None = None,
) -> int:
    """Exact three-way comparison of two products of rational powers.

    Both sides must be EXACT backend.  Returns -1, 0, or 1 for a < b,
    a == b, a > b.  Decides with a float screen when the log gap is wide,
    otherwise clears all exponent denominators via their lcm and compares
    arbitrary-precision integers.  ``logs``, when given, holds both sides'
    logs as ``PowerProduct.log`` computes them, which the screen then
    reuses instead of summing them again.
    """
    a_zero = any(v.is_zero for v, _ in a_factors)
    b_zero = any(v.is_zero for v, _ in b_factors)
    if a_zero and b_zero:
        return 0
    if a_zero:
        return -1
    if b_zero:
        return 1

    la, lb = logs if logs is not None else (_log_sum(a_factors), _log_sum(b_factors))
    screened = _screen(la, lb)
    if screened is not None:
        return screened

    lcm_exp = 1
    for _, e in list(a_factors) + list(b_factors):
        lcm_exp = math.lcm(lcm_exp, e.denominator)
    a_num, a_den = _cleared_ints(a_factors, lcm_exp)
    b_num, b_den = _cleared_ints(b_factors, lcm_exp)
    left = a_num * b_den
    right = b_num * a_den
    if left < right:
        return -1
    if left > right:
        return 1
    return 0
