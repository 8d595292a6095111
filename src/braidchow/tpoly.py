"""Dense univariate polynomials with exact rational coefficients.

Used both for the Chow variable t and for the counting variable q (the two
are identified throughout).  A coefficient is held as a Python ``int`` when
it is integral and as a ``fractions.Fraction`` with denominator > 1
otherwise, so the integer polynomials -- Poincaré polynomials, Schur
coefficients, stratum sums -- never build a Fraction.  There is no floating
point anywhere: ``exact`` is the one rule that admits a scalar (an int or a
Fraction, never a bool, float or string), ``check_exponent`` the one that
admits a t-exponent, and ``symseries`` and ``serialize`` apply them too.
Instances are immutable: coefficients live in a tuple with the trailing
zeros stripped, so equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def exact(c, what: str = "coefficient") -> Scalar:
    """``c`` in normal form: an int as it is, a Fraction with denominator 1 as
    its numerator, any other Fraction as it is.  Anything else (a bool, a
    float, a string, ...) raises ValueError naming ``what`` and the value."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise ValueError(f"{what} must be an int or a Fraction, got {c!r}")


def check_exponent(k, what: str) -> int:
    """A t-exponent: a non-negative int (not a bool, not a float)."""
    if type(k) is not int or k < 0:
        raise ValueError(f"{what}: t must be a non-negative integer")
    return k


def ratio(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly, in normal form: an int when b divides a.  b is nonzero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(Fraction(a, b))


def _strip(coeffs: list) -> tuple[Scalar, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class TPoly:
    """Polynomial in one variable over Q, coefficient i = coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs = _strip([c if type(c) is int else exact(c) for c in coeffs])

    @classmethod
    def const(cls, c: Scalar) -> "TPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return TPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TPoly":
        if n < 0:
            raise ValueError("negative power")
        result = TPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, divisor: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Euclidean division. Raises on division by zero."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.coeffs[-1]
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = ratio(rem[i], lead)
            if c:
                q[i - dd] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i - dd + j] -= c * b
        return TPoly(q), TPoly(rem)

    def divexact(self, divisor: "TPoly") -> "TPoly":
        """Exact division; raises ValueError on nonzero remainder."""
        q, r = self.divmod(divisor)
        if r:
            raise ValueError(f"nonzero remainder {r!r} dividing {self!r} by {divisor!r}")
        return q

    def compose(self, inner: "TPoly") -> "TPoly":
        """Substitute ``inner`` for the variable (Horner)."""
        result = TPoly()
        for c in reversed(self.coeffs):
            result = result * inner + c
        return result

    def eval(self, x: Scalar) -> Scalar:
        """The value at the exact scalar x, in normal form (see ``exact``)."""
        x = exact(x, "evaluation point")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return exact(acc)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_palindromic(self) -> bool:
        """Coefficients read the same forwards and backwards (zero counts as palindromic)."""
        return self.coeffs == tuple(reversed(self.coeffs))

    def is_unimodal(self) -> bool:
        """Coefficients weakly rise then weakly fall."""
        c = self.coeffs
        i = 0
        while i + 1 < len(c) and c[i] <= c[i + 1]:
            i += 1
        while i + 1 < len(c) and c[i] >= c[i + 1]:
            i += 1
        return i + 1 >= len(c)

    def has_integer_coeffs(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TPoly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)


def _coerce(x) -> "TPoly | None":
    """The operand x as a TPoly: a TPoly as it is, an exact scalar as a
    constant.  A number or string that is not exact raises ValueError (see
    ``exact``); None for any other object, which may take the reflected
    operation itself."""
    if isinstance(x, TPoly):
        return x
    if type(x) is int or isinstance(x, (Number, str, bytes)):
        return TPoly((exact(x, "scalar"),))
    return None


T = TPoly((0, 1))
T_MINUS_ONE = TPoly((-1, 1))


def format_poly(p: TPoly, var: str = "t") -> str:
    """Human-readable form, lowest degree first: ``1 + 3t + t^2``."""
    if not p:
        return "0"
    pieces = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            pieces.append(str(c))
            continue
        v = var if i == 1 else f"{var}^{i}"
        if c == 1:
            pieces.append(v)
        elif c == -1:
            pieces.append(f"-{v}")
        else:
            pieces.append(f"{c}{v}")
    out = " + ".join(pieces)
    return out.replace("+ -", "- ")
