"""Dense univariate polynomials with exact rational coefficients.

Used both for the Chow variable t and for the counting variable q (the two
are identified throughout).  Coefficients are ``fractions.Fraction``; there
is no floating point anywhere.  Instances are immutable: coefficients live
in a tuple with the trailing zeros stripped, so equality and hashing are
structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class TPoly:
    """Polynomial in one variable over Q, coefficient i = coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs = _strip([Fraction(c) for c in coeffs])

    @classmethod
    def const(cls, c: Scalar) -> "TPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly([self[i] + other[i] for i in range(n)])

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
        if isinstance(other, (int, Fraction)):
            return TPoly([c * other for c in self.coeffs])
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
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
        q = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / lead
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
            result = result * inner + TPoly.const(c)
        return result

    def eval(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        return all(c.denominator == 1 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TPoly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)


def _coerce(x) -> "TPoly | None":
    if isinstance(x, TPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return TPoly.const(x)
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
