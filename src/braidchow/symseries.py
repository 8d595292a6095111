"""Truncated symmetric functions over Q[t] in the power-sum basis.

A SymSeries is a finite collection of terms ``(lambda, k) -> coefficient``
standing for ``sum coeff * t^k * p_lambda``, where ``lambda`` is a partition
and coefficients are exact rationals.  Every series carries a truncation
degree ``n_max``: terms whose partition size exceeds it are discarded eagerly
by all operations, so a series is a faithful representative of its image in
the quotient by symmetric-function degree > n_max.  t-exponents are never
truncated.

The power-sum basis is the canonical internal form because both plethysm and
the Frobenius characteristic are diagonal there; complete homogeneous and
Schur inputs are converted on construction.

Fractions live at the edges only.  ``SymSeries.terms`` always maps to
``Fraction``, and the public constructor validates every partition and
exponent; results computed here are built through ``SymSeries._trusted``,
which skips that re-validation.  Inside, products and plethysms run on plain
integers: each operand is scaled to a common denominator (products of
series), or each term of degree d is held as an integer multiple of 1/d!
(``PlethysmCache``), so the inner loops neither divide nor reduce, and one
``Fraction`` is built per output term.  The integer scalings are checked
where they are made: a psi image that would not scale to an integer raises
``ArithmeticError``.  ``_numerators`` and ``_fractions`` convert between a
series and integer rows over one denominator; the solver uses them to sum
its right-hand sides on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .partitions import Partition, check_partition, merge, partitions_of, z_lambda
from .tpoly import TPoly

Term = tuple[Partition, int]

# term order for serialization: degree, then partition reverse-lex, then t-exponent
def term_sort_key(term: Term):
    parts, k = term
    return (sum(parts), tuple(-p for p in parts), k)


class SymSeries:
    """Element of Q[t][p_1, p_2, ...] truncated at symmetric-function degree n_max."""

    __slots__ = ("n_max", "terms")

    def __init__(self, n_max: int, terms: dict[Term, Fraction] | None = None):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        clean: dict[Term, Fraction] = {}
        if terms:
            for (parts, k), c in terms.items():
                c = Fraction(c)
                if c == 0 or sum(parts) > n_max:
                    continue
                if k < 0:
                    raise ValueError("negative t-exponent")
                clean[(check_partition(parts), k)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, n_max: int, terms: dict[Term, Fraction]) -> "SymSeries":
        """Wrap a computed result without re-validating it: every key is a
        partition of size <= n_max with a non-negative exponent, every value a
        nonzero Fraction, and the dict is not shared with the caller."""
        s = object.__new__(cls)
        s.n_max = n_max
        s.terms = terms
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_max: int) -> "SymSeries":
        return cls(n_max)

    @classmethod
    def one(cls, n_max: int) -> "SymSeries":
        return cls(n_max, {((), 0): Fraction(1)})

    @classmethod
    def p(cls, parts: Partition | int, n_max: int | None = None) -> "SymSeries":
        """The power-sum monomial p_lambda (an int means the single part (n))."""
        if isinstance(parts, int):
            parts = (parts,)
        parts = tuple(parts)
        if n_max is None:
            n_max = sum(parts)
        return cls(n_max, {(parts, 0): Fraction(1)})

    @classmethod
    def h(cls, n: int, n_max: int | None = None) -> "SymSeries":
        """Complete homogeneous h_n = sum over partitions of p_lambda / z_lambda."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n_max is None:
            n_max = n
        if n > n_max:
            return cls.zero(n_max)
        return cls._trusted(n_max, {(lam, 0): Fraction(1, z_lambda(lam)) for lam in partitions_of(n)})

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymSeries)
            and self.n_max == other.n_max
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, parts: Partition, k: int) -> Fraction:
        return self.terms.get((tuple(parts), k), Fraction(0))

    def p_coefficient(self, parts: Partition) -> TPoly:
        """All t-exponents of one p-monomial collected into a polynomial."""
        parts = tuple(parts)
        coeffs: dict[int, Fraction] = {}
        for (lam, k), c in self.terms.items():
            if lam == parts:
                coeffs[k] = c
        if not coeffs:
            return TPoly()
        return TPoly([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])

    def homogeneous_part(self, n: int) -> "SymSeries":
        """Terms of symmetric-function degree exactly n (keeps n_max)."""
        return SymSeries._trusted(
            self.n_max, {tk: c for tk, c in self.terms.items() if sum(tk[0]) == n}
        )

    def by_degree(self) -> dict[int, "SymSeries"]:
        """Every homogeneous part, keyed by degree, in one pass over the terms."""
        parts_by_deg: dict[int, dict[Term, Fraction]] = {}
        for tk, c in self.terms.items():
            d = sum(tk[0])
            bucket = parts_by_deg.get(d)
            if bucket is None:
                bucket = parts_by_deg[d] = {}
            bucket[tk] = c
        return {d: SymSeries._trusted(self.n_max, ts) for d, ts in parts_by_deg.items()}

    def degrees(self) -> set[int]:
        return {sum(parts) for (parts, _k) in self.terms}

    def is_homogeneous(self, n: int) -> bool:
        return all(sum(parts) == n for (parts, _k) in self.terms)

    def t_degree(self) -> int:
        """Largest t-exponent present; -1 for the zero series."""
        return max((k for (_parts, k) in self.terms), default=-1)

    def truncate(self, n_max: int) -> "SymSeries":
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if n_max >= self.n_max:
            return SymSeries._trusted(n_max, dict(self.terms))
        return SymSeries._trusted(
            n_max, {tk: c for tk, c in self.terms.items() if sum(tk[0]) <= n_max}
        )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "SymSeries":
        if isinstance(other, (int, Fraction)):
            other = SymSeries(self.n_max, {((), 0): Fraction(other)})
        if not isinstance(other, SymSeries):
            return NotImplemented
        n_max = min(self.n_max, other.n_max)
        acc = self.truncate(n_max).terms
        for tk, c in other.truncate(n_max).terms.items():
            s = acc.get(tk)
            if s is None:
                acc[tk] = c
            elif s + c:
                acc[tk] = s + c
            else:
                del acc[tk]
        return SymSeries._trusted(n_max, acc)

    __radd__ = __add__

    def __neg__(self) -> "SymSeries":
        return SymSeries._trusted(self.n_max, {tk: -c for tk, c in self.terms.items()})

    def __sub__(self, other) -> "SymSeries":
        return self + (-other if isinstance(other, SymSeries) else -Fraction(other))

    def __mul__(self, other) -> "SymSeries":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return SymSeries.zero(self.n_max)
            return SymSeries._trusted(self.n_max, {tk: c * other for tk, c in self.terms.items()})
        if isinstance(other, TPoly):
            acc: dict[Term, Fraction] = {}
            for (parts, k), c in self.terms.items():
                for i, ci in enumerate(other.coeffs):
                    if ci:
                        key = (parts, k + i)
                        acc[key] = acc.get(key, 0) + c * ci
            return SymSeries._trusted(self.n_max, {tk: c for tk, c in acc.items() if c})
        if not isinstance(other, SymSeries):
            return NotImplemented
        return _mul_series(self, other)

    __rmul__ = __mul__

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: term_sort_key(item[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SymSeries(n_max={self.n_max}, 0)"
        bits = []
        for (parts, k), c in self.sorted_terms():
            t = "" if k == 0 else ("*t" if k == 1 else f"*t^{k}")
            bits.append(f"{c}*p{list(parts)}{t}")
        return f"SymSeries(n_max={self.n_max}, {' + '.join(bits)})"


# -- integer numerators -----------------------------------------------------

# partition -> t-exponent -> integer numerator, over a denominator held apart
Rows = dict[Partition, dict[int, int]]


def _numerators(s: SymSeries, n_max: int) -> tuple[int, Rows]:
    """(D, rows): the terms of s of degree <= n_max as integer numerators over
    D, the lcm of their denominators; rows maps partition -> t-exponent -> N."""
    rows: dict[Partition, dict[int, Fraction]] = {}
    for (parts, e), c in s.terms.items():
        if sum(parts) <= n_max:
            rows.setdefault(parts, {})[e] = c
    den = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    for row in rows.values():
        for e, c in row.items():
            row[e] = c.numerator * (den // c.denominator)
    return den, rows


def _fractions(rows: Rows, den: int) -> dict[Term, Fraction]:
    """Terms of integer rows over the denominator den, zero entries dropped."""
    return {(q, k): Fraction(v, den) for q, row in rows.items() for k, v in row.items() if v}


def _mul_series(a: SymSeries, b: SymSeries) -> SymSeries:
    n_max = min(a.n_max, b.n_max)
    # integer numerators over each factor's common denominator; pairs beyond
    # the truncation are never formed
    den_a, rows_a = _numerators(a, n_max)
    den_b, rows_b = _numerators(b, n_max)
    acc: dict[Term, int] = {}
    for pa, ta in rows_a.items():
        room = n_max - sum(pa)
        for pb, tb in rows_b.items():
            if sum(pb) > room:
                continue
            q = merge(pa, pb)
            for ka, na in ta.items():
                for kb, nb in tb.items():
                    key = (q, ka + kb)
                    acc[key] = acc.get(key, 0) + na * nb
    den = den_a * den_b
    return SymSeries._trusted(n_max, {tk: Fraction(v, den) for tk, v in acc.items() if v})


# -- degree-scaling and plethysm ------------------------------------------


def psi(k: int, f: SymSeries) -> SymSeries:
    """Adams-type operation: t-exponent e -> k*e and every part d -> k*d."""
    if k < 1:
        raise ValueError("psi index must be positive")
    if k == 1:
        return f
    # (parts, e) -> (k*parts, k*e) is injective, so no two terms collide
    return SymSeries._trusted(
        f.n_max,
        {
            (tuple(k * p for p in parts), k * e): c
            for (parts, e), c in f.terms.items()
            if k * sum(parts) <= f.n_max
        },
    )


# An integer table: degree -> partition -> t-exponent -> integer numerator.
IntTable = dict[int, Rows]


def _int_product(a: IntTable, b: IntTable, n_max: int) -> IntTable:
    """Product of two tables held at scale d!: a degree-da piece times a
    degree-db piece picks up C(da + db, da), and nothing is divided.  Entries
    that cancel to 0 stay in the table; plethysm drops them."""
    acc: IntTable = {}
    for da, by_pa in a.items():
        for db, by_pb in b.items():
            d = da + db
            if d > n_max:
                continue
            binom = comb(d, da)
            acc_d = acc.setdefault(d, {})
            for pa, ta in by_pa.items():
                for pb, tb in by_pb.items():
                    q = merge(pa, pb)
                    out = acc_d.get(q)
                    if out is None:
                        out = acc_d[q] = {}
                    for ka, na in ta.items():
                        nab = na * binom
                        for kb, nb in tb.items():
                            k = ka + kb
                            out[k] = out.get(k, 0) + nab * nb
    return acc


class PlethysmCache:
    """Reusable per-inner-series state: psi images and partition products.

    All plethysms against one fixed inner series g share the expensive
    pieces: the products prod_i psi(lambda_i, g) depend only on g and the
    partition, not on the outer series.  They are held as integers: a term
    c * t^k * p_q of degree d in a product of l psi factors is stored as
    N = c * L^l * d!, where ``scale`` L is the least positive integer making
    c * L * |mu|! integral for every term c * t^k * p_mu of g.  L = 1 for every
    series with z_mu-type denominators, which divide |mu|!, as for every
    inner series the solver builds; psi_j maps degree |mu| to j*|mu|, and |mu|!
    divides (j*|mu|)!, so the same L serves every psi image.
    """

    def __init__(self, g: SymSeries):
        if g.coefficient((), 0) != 0:
            raise ValueError("inner series of a plethysm must have no constant term")
        self.g = g
        self.scale = 1
        for (parts, _k), c in g.terms.items():
            den = c.denominator
            self.scale = lcm(self.scale, den // gcd(den, factorial(sum(parts))))
        self._psi: dict[int, IntTable] = {}
        self._prod: dict[Partition, IntTable] = {(): {0: {(): {0: 1}}}}

    def psi_table(self, k: int) -> IntTable:
        """psi(k, g) at scale L * d!, truncated at g.n_max."""
        table = self._psi.get(k)
        if table is None:
            table = self._psi[k] = {}
            for (q, e), c in psi(k, self.g).terms.items():
                d = sum(q)
                n, rem = divmod(c.numerator * self.scale * factorial(d), c.denominator)
                if rem:
                    raise ArithmeticError(
                        f"term {c} t^{e} p_{q} of psi_{k} of the inner series does not"
                        f" scale to an integer: times {self.scale} * {d}!"
                    )
                table.setdefault(d, {}).setdefault(q, {})[e] = n
        return table

    def product(self, parts: Partition) -> IntTable:
        """prod_i psi(parts_i, g) at scale L^len(parts) * d!, truncated at g.n_max."""
        table = self._prod.get(parts)
        if table is None:
            table = self._prod[parts] = _int_product(
                self.product(parts[1:]), self.psi_table(parts[0]), self.g.n_max
            )
        return table


def plethysm(f: SymSeries, g: SymSeries, cache: PlethysmCache | None = None) -> SymSeries:
    """Plethysm f o g: substitute p_k -> psi(k, g); t-powers of f are scalars.

    g must have no constant term.  The result is truncated at
    min(f.n_max, g.n_max).  f's coefficients are brought to one denominator F,
    the sums run over integers, and each output term of degree d is one
    Fraction over F * L^l * d!, l the longest partition of f.
    """
    if cache is None or cache.g is not g:
        cache = PlethysmCache(g)
    n_max = min(f.n_max, g.n_max)
    den_f, rows = _numerators(f, n_max)
    longest = max(map(len, rows), default=0)
    acc: IntTable = {}
    for parts, row in rows.items():
        lift = cache.scale ** (longest - len(parts))
        weights = [(e, w * lift) for e, w in row.items()]
        for d, by_q in cache.product(parts).items():
            if d > n_max:
                continue
            acc_d = acc.setdefault(d, {})
            for q, tq in by_q.items():
                out = acc_d.get(q)
                if out is None:
                    out = acc_d[q] = {}
                for k, n in tq.items():
                    for e, w in weights:
                        ke = k + e
                        out[ke] = out.get(ke, 0) + w * n
    terms: dict[Term, Fraction] = {}
    for d, by_q in acc.items():
        terms.update(_fractions(by_q, den_f * cache.scale**longest * factorial(d)))
    return SymSeries._trusted(n_max, terms)


# -- Frobenius characteristic and the rank specialization ------------------


def frobenius_from_character(n: int, char: dict[Partition, TPoly | int | Fraction]) -> SymSeries:
    """Symmetric function of a (graded) character: sum char(lambda) p_lambda / z_lambda.

    ``char`` must assign a value (a polynomial in t for graded characters) to
    every partition of n.
    """
    acc: dict[Term, Fraction] = {}
    for lam in partitions_of(n):
        if lam not in char:
            raise KeyError(f"character value missing for cycle type {lam}")
        val = char[lam]
        if not isinstance(val, TPoly):
            val = TPoly.const(val)
        z = z_lambda(lam)
        for k, c in enumerate(val.coeffs):
            if c:
                acc[(lam, k)] = c / z
    return SymSeries._trusted(n, acc)


def rk(f: SymSeries) -> dict[int, TPoly]:
    """Dimension extraction: p_1 -> x, p_n -> 0 for n > 1.

    Returns, for each n with a surviving term, n! times the coefficient of
    p_(1^n) as a polynomial in t; for the characteristic of a representation
    this is its dimension.
    """
    by_n: dict[int, dict[int, Fraction]] = {}
    for (parts, k), c in f.terms.items():
        if all(p == 1 for p in parts):
            n = len(parts)
            by_n.setdefault(n, {})[k] = by_n.get(n, {}).get(k, Fraction(0)) + c
    out: dict[int, TPoly] = {}
    for n, coeffs in by_n.items():
        fact = factorial(n)
        poly = TPoly([coeffs.get(i, Fraction(0)) * fact for i in range(max(coeffs) + 1)])
        if poly:
            out[n] = poly
    return out
