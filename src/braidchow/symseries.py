"""Truncated symmetric functions over Q[t] in the power-sum basis.

A SymSeries is a finite collection of terms ``(lambda, k) -> coefficient``
standing for ``sum coeff * t^k * p_lambda``, where ``lambda`` is a partition
and coefficients are exact rationals.  Every series carries a truncation
degree ``n_max``: terms whose partition size exceeds it are discarded eagerly
by all operations, so a series is a faithful representative of its image in
the quotient by symmetric-function degree > n_max.  t-exponents are never
truncated.  The terms of degree d are the homogeneous component of degree d
(``component(d)``; all of them: ``components``), so a graded series such as
the input series M or the solution B = sum_n B_n is one SymSeries.

The power-sum basis is the canonical internal form because both plethysm and
the Frobenius characteristic are diagonal there; complete homogeneous and
Schur inputs are converted on construction.

Every series is held in one integer form, degree -> (denominator, ``Rows``):
the terms of degree d are integer numerators over one positive denominator.
All arithmetic runs on it.  A sum lifts the two parts of a degree to the lcm
of their denominators, drops what cancels and reduces the result to its
least denominator (``_lowest_terms``), so a sum is canonical wherever it
summed something; a product multiplies numerators and denominators; ``psi``
relabels; ``==`` compares each degree at its least denominator, so it is
exact equality of rational series whatever denominators the two forms hold.
Fractions live at the edges only: the public constructor takes terms as
Fractions and validates every partition, exponent and coefficient
(coefficients by ``tpoly.exact``: ints and Fractions only, no floats, bools
or strings), and ``terms`` is a view built afresh on each read, for
serialization, ``repr`` and tests.  Products and plethysms neither divide
nor reduce in their inner loops: each term of degree d of a plethysm table
is held as an integer multiple of 1/d! (``PlethysmCache``), a scaling that
is checked where it is made: a psi image that would not scale to an integer
raises ``ArithmeticError``.  A cache holds one family of tables, the
products of psi images keyed by partition, and the table of a one-part
partition (k) is psi(k, g) itself.  The exact division of an integer t-row
by (t - 1), which the solver and the input series both need, is
``_over_tminus1``.

Inside ``PlethysmCache`` and ``plethysm`` every integer t-row is one Python
int packed at a width W (Kronecker substitution, evaluation at t = 2^W), so
a product of two rows is one bigint multiplication.  W is proved from l1
norms: each table carries per degree a bound on the sum of its rows' l1
norms, and each plethysm bounds its sums by the l1 norms of f's rows times
those bounds.  W stays above every bound's bit length, so every coefficient
unpacks as a balanced W-bit digit; a bound that does not fit widens the
cache, and one past ``PlethysmCache.max_width`` raises ``ArithmeticError``.
There, too, every cell is keyed by one int, the partition's multiplicity
vector packed s bits to a part size (``PlethysmCache.key``), so the product
of two cells is keyed by the sum of their keys: no tuple is built or sorted
in the product loop, and each output cell is turned back into its partition
once, at the end of ``plethysm``.
"""

from __future__ import annotations

from math import comb, factorial, gcd, lcm
from typing import TYPE_CHECKING

from .partitions import Partition, check_partition, merge, partitions_of, z_lambda
from .tpoly import TPoly, check_exponent, exact, is_fraction, ratio

if TYPE_CHECKING:
    from fractions import Fraction

Term = tuple[Partition, int]

# term order for serialization: degree, then partition reverse-lex, then t-exponent
def term_sort_key(term: Term):
    parts, k = term
    return (sum(parts), tuple(-p for p in parts), k)


class SymSeries:
    """Element of Q[t][p_1, p_2, ...] truncated at symmetric-function degree n_max."""

    # _int: the integer form, degree -> (denominator, Rows)
    __slots__ = ("n_max", "_int")

    def __init__(self, n_max: int, terms: dict[Term, Fraction] | None = None):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        by_deg: dict[int, dict[Term, int | Fraction]] = {}
        if terms:
            for (parts, k), c in terms.items():
                what = f"term {parts!r} t^{k!r}"
                check_exponent(k, what)
                c = exact(c, f"{what}: coefficient")
                d = sum(check_partition(parts))
                if c and d <= n_max:
                    by_deg.setdefault(d, {})[(parts, k)] = c
        form: dict[int, tuple[int, Rows]] = {}
        for d, cs in by_deg.items():
            # the lcm of reduced denominators: the least denominator
            den = lcm(*(c.denominator for c in cs.values()))
            rows: Rows = {}
            for (parts, k), c in cs.items():
                rows.setdefault(parts, {})[k] = c.numerator * (den // c.denominator)
            form[d] = (den, rows)
        self.n_max = n_max
        self._int = form

    @classmethod
    def _from_int(cls, n_max: int, form: dict[int, tuple[int, Rows]]) -> "SymSeries":
        """Wrap a computed result held as degree -> (D, rows): the terms of
        degree d are rows' integer numerators over D > 0.  Every partition of
        degree d has size d <= n_max, every degree held has a row, and every
        row is nonempty and free of zero entries.  The parts are shared, not
        copied: no one changes them once they are wrapped."""
        s = object.__new__(cls)
        s.n_max = n_max
        s._int = form
        return s

    @property
    def terms(self) -> dict[Term, Fraction]:
        """Every term as a Fraction, in a new dict built on each read: the
        view for serialization, repr and tests.  No arithmetic reads it."""
        parts = self._int.values()
        return {tk: c for den, rows in parts for tk, c in _fractions(rows, den).items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_max: int) -> "SymSeries":
        return cls(n_max)

    @classmethod
    def one(cls, n_max: int) -> "SymSeries":
        return cls(n_max, {((), 0): 1})

    @classmethod
    def p(cls, parts: Partition | int, n_max: int | None = None) -> "SymSeries":
        """The power-sum monomial p_lambda (an int means the single part (n))."""
        if isinstance(parts, int):
            parts = (parts,)
        parts = tuple(parts)
        if n_max is None:
            n_max = sum(parts)
        return cls(n_max, {(parts, 0): 1})

    @classmethod
    def h(cls, n: int, n_max: int | None = None) -> "SymSeries":
        """Complete homogeneous h_n = sum over partitions of p_lambda / z_lambda."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n_max is None:
            n_max = n
        if n > n_max:
            return cls.zero(n_max)
        # n!/z_lambda is a class size, 1 for the identity: n! is the least denominator
        fact = factorial(n)
        rows = {lam: {0: fact // z_lambda(lam)} for lam in partitions_of(n)}
        return cls._from_int(n_max, {n: (fact, rows)})

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._int)

    def __eq__(self, other) -> bool:
        """Exact equality of rational series: each degree is compared at its
        least denominator, whatever denominators the two forms hold."""
        if not isinstance(other, SymSeries) or self.n_max != other.n_max:
            return False
        a, b = self._int, other._int
        return a.keys() == b.keys() and all(
            a[d] is b[d] or _lowest_terms(*a[d]) == _lowest_terms(*b[d]) for d in a
        )

    def _known(self, d: int) -> tuple[int, Rows]:
        """The (denominator, rows) of degree d, empty where the series has
        no terms.  A series is unknown past its own n_max, so reading a
        degree there raises ValueError."""
        if d > self.n_max:
            raise ValueError(
                f"cannot read degree {d}: the series is known only through degree {self.n_max}"
            )
        return self._int.get(d, (1, {}))

    def p_coefficient(self, parts: Partition) -> TPoly:
        """All t-exponents of one p-monomial collected into a polynomial."""
        parts = tuple(parts)
        den, rows = self._known(sum(parts))
        row = rows.get(parts)
        if not row:
            return TPoly()
        return TPoly([ratio(row.get(i, 0), den) for i in range(max(row) + 1)])

    def component(self, n: int) -> "SymSeries":
        """The homogeneous component of degree n, B_n of B (keeps n_max);
        past n_max it raises ValueError."""
        part = self._known(n)
        return SymSeries._from_int(self.n_max, {n: part} if part[1] else {})

    @property
    def components(self) -> dict[int, "SymSeries"]:
        """Every nonzero homogeneous component, keyed by degree, in a new
        dict built on each read: changing it leaves the series as it is."""
        return {d: SymSeries._from_int(self.n_max, {d: part}) for d, part in self._int.items()}

    def degrees(self) -> set[int]:
        return set(self._int)

    def is_homogeneous(self, n: int) -> bool:
        return all(d == n for d in self._int)

    def t_degree(self) -> int:
        """Largest t-exponent present; -1 for the zero series."""
        rows = [row for _den, by_q in self._int.values() for row in by_q.values()]
        return max(map(max, rows), default=-1)

    def truncate(self, n_max: int) -> "SymSeries":
        """The terms of degree <= n_max.  A series is unknown past its own
        n_max, so truncating it higher raises ValueError."""
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if n_max > self.n_max:
            raise ValueError(
                f"cannot truncate at degree {n_max}: the series is known only"
                f" through degree {self.n_max}"
            )
        return SymSeries._from_int(n_max, {d: p for d, p in self._int.items() if d <= n_max})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "SymSeries":
        """The sum, truncated at the smaller n_max.  A degree both summands
        hold is summed and reduced to its least denominator; a degree only
        one of them holds is shared as that one holds it."""
        if isinstance(other, int) or is_fraction(other):
            other = SymSeries(self.n_max, {((), 0): other})
        if not isinstance(other, SymSeries):
            return NotImplemented
        n_max = min(self.n_max, other.n_max)
        form = {d: part for d, part in self._int.items() if d <= n_max}
        for d, part in other._int.items():
            if d > n_max:
                continue
            mine = form.get(d)
            if mine is None:
                form[d] = part
            else:
                summed = _add_parts(mine, part)
                if summed[1]:
                    form[d] = _lowest_terms(*summed)
                else:
                    del form[d]
        return SymSeries._from_int(n_max, form)

    __radd__ = __add__

    def __neg__(self) -> "SymSeries":
        return self._scaled(-1, 1)

    def __sub__(self, other) -> "SymSeries":
        return self + (-other if isinstance(other, SymSeries) else -exact(other, "scalar"))

    def __mul__(self, other) -> "SymSeries":
        if isinstance(other, int) or is_fraction(other):
            other = exact(other, "scalar")
            if not other:
                return SymSeries.zero(self.n_max)
            return self._scaled(other.numerator, other.denominator)
        if isinstance(other, TPoly):
            nonzero = [(i, c) for i, c in enumerate(other.coeffs) if c]
            if len(nonzero) == 1:  # c t^i: a scaling and a shift of exponents
                i, c = nonzero[0]
                return self._scaled(c.numerator, c.denominator, i)
            other = SymSeries(self.n_max, {((), i): c for i, c in nonzero})  # of degree 0
        if not isinstance(other, SymSeries):
            return NotImplemented
        return _mul_series(self, other)

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int, shift: int = 0) -> "SymSeries":
        """The series times t^shift num / den, num nonzero and den positive."""
        form = {}
        for d, (den_d, rows) in self._int.items():
            rows = {q: {k + shift: v * num for k, v in row.items()} for q, row in rows.items()}
            form[d] = (den_d * den, rows)
        return SymSeries._from_int(self.n_max, form)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: term_sort_key(item[0]))

    def __repr__(self) -> str:
        if not self:
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
    D, the lcm of the held degrees' denominators (`_add_parts`: the degrees
    share no partition, so nothing cancels)."""
    return _add_parts(*(part for d, part in s._int.items() if d <= n_max))


def _add_parts(*parts: tuple[int, Rows]) -> tuple[int, Rows]:
    """The sum of parts, over the lcm of their denominators; entries and rows
    that cancel are dropped.  A lone part is returned as it is, not copied:
    read it, never change it."""
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(den_p for den_p, _rows in parts))
    rows: Rows = {}
    for den_p, rows_p in parts:
        lift = den // den_p
        for q, row in rows_p.items():
            acc = rows.get(q)
            if acc is None:
                rows[q] = {k: v * lift for k, v in row.items()}
                continue
            for k, v in row.items():
                v = acc.get(k, 0) + v * lift
                if v:
                    acc[k] = v
                else:
                    del acc[k]
            if not acc:
                del rows[q]
    return den, rows


def _lowest_terms(den: int, rows: Rows) -> tuple[int, Rows]:
    """(den, rows) divided through by the gcd of den and every numerator: the
    least denominator, and so one canonical form for each rational part."""
    g = gcd(den, *(v for row in rows.values() for v in row.values()))
    if g == 1:
        return den, rows
    return den // g, {q: {k: v // g for k, v in row.items()} for q, row in rows.items()}


def _over_tminus1(row: dict[int, int]) -> tuple[dict[int, int], int]:
    """(quotient, remainder) of the integer t-row divided by (t - 1), by
    synthetic division: the quotient's coefficient of t^(k-1) is the sum of
    the coefficients of t^k and above, and the remainder is the sum of all
    of them.  The quotient holds no zero entry."""
    quotient = {}
    carry = 0
    for k in range(max(row, default=0), 0, -1):
        carry += row.get(k, 0)
        if carry:
            quotient[k - 1] = carry
    return quotient, carry + row.get(0, 0)


def _fractions(rows: Rows, den: int) -> dict[Term, Fraction]:
    """Terms of integer rows over the denominator den, zero entries dropped."""
    from fractions import Fraction

    return {(q, k): Fraction(v, den) for q, row in rows.items() for k, v in row.items() if v}


def _mul_series(a: SymSeries, b: SymSeries) -> SymSeries:
    n_max = min(a.n_max, b.n_max)
    # integer numerators over each factor's common denominator; pairs beyond
    # the truncation are never formed
    den_a, rows_a = _numerators(a, n_max)
    den_b, rows_b = _numerators(b, n_max)
    acc: dict[int, Rows] = {}
    for pa, ta in rows_a.items():
        room = n_max - sum(pa)
        for pb, tb in rows_b.items():
            if sum(pb) > room:
                continue
            q = merge(pa, pb)
            row = acc.setdefault(sum(q), {}).setdefault(q, {})
            for ka, na in ta.items():
                for kb, nb in tb.items():
                    row[ka + kb] = row.get(ka + kb, 0) + na * nb
    form: dict[int, tuple[int, Rows]] = {}
    for d, by_q in acc.items():
        rows = {q: kept for q, row in by_q.items() if (kept := {k: v for k, v in row.items() if v})}
        if rows:
            form[d] = (den_a * den_b, rows)
    return SymSeries._from_int(n_max, form)


# -- degree-scaling and plethysm ------------------------------------------


def psi(k: int, f: SymSeries) -> SymSeries:
    """Adams-type operation: t-exponent e -> k*e and every part d -> k*d."""
    if k < 1:
        raise ValueError("psi index must be positive")
    if k == 1:
        return f
    # degree d goes to k*d and (parts, e) -> (k*parts, k*e) is injective, so
    # no two terms collide
    form = {}
    for d, (den, rows) in f._int.items():
        if k * d <= f.n_max:
            rows = {tuple(k * p for p in q): row.items() for q, row in rows.items()}
            form[k * d] = (den, {q: {k * e: v for e, v in row} for q, row in rows.items()})
    return SymSeries._from_int(f.n_max, form)


# -- Kronecker-packed t-rows -------------------------------------------------


def _pack(row: dict[int, int], width: int) -> int:
    """The t-row sum c_k t^k evaluated at t = 2^width: coefficient k sits at
    bit k * width.  Each |c_k| must be below 2^(width - 1), the range that
    `_unpack` reads back; a coefficient outside it raises ArithmeticError."""
    half = 1 << (width - 1)
    x = 0
    for k, c in row.items():
        if not -half < c < half:
            raise ArithmeticError(f"coefficient {c} of t^{k} does not fit a {width}-bit digit")
        x += c << (k * width)
    return x


def _unpack(x: int, width: int) -> dict[int, int]:
    """The nonzero coefficients of a packed t-row, read as balanced digits in
    [-2^(width - 1), 2^(width - 1)): a digit at or above 2^(width - 1) is
    negative and borrows one from the next.  Exact inverse of `_pack`."""
    row = {}
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    k = 0
    while x:
        c = x & mask
        x >>= width
        if c >= half:
            c -= mask + 1
            x += 1
        if c:
            row[k] = c
        k += 1
    return row


# An integer table: degree -> partition key (`PlethysmCache.key`) -> packed t-row.
IntTable = dict[int, dict[int, int]]
# Per degree of a table, a bound on the sum of the l1 norms of its t-rows.
L1Bound = dict[int, int]


def _int_product(a: IntTable, b: IntTable, n_max: int) -> IntTable:
    """Product of two tables held at scale d!: a degree-da piece times a
    degree-db piece picks up C(da + db, da), and nothing is divided.  Each
    pair of cells is one multiply-add of packed rows, exact whenever every
    coefficient of the result fits the width (see `PlethysmCache`).  Cells
    that cancel to 0 stay in the table; plethysm drops them.  The key of a
    product cell is the sum of its factors' keys (see `PlethysmCache`).  b's
    cells run in the outer loop, so each is scaled by the binomial once: in
    `PlethysmCache.product` b is a psi image, which has the fewer cells."""
    acc: IntTable = {}
    for da, by_pa in a.items():
        for db, by_pb in b.items():
            d = da + db
            if d > n_max:
                continue
            binom = comb(d, da)
            acc_d = acc.setdefault(d, {})
            get = acc_d.get
            for pb, tb in by_pb.items():
                tb *= binom
                for pa, ta in by_pa.items():
                    q = pa + pb
                    acc_d[q] = get(q, 0) + ta * tb
    return acc


def _product_bound(a: L1Bound, b: L1Bound, n_max: int) -> L1Bound:
    """The l1 bound of `_int_product`(a, b): every cell of degree d is a sum of
    C(d, da) times products of a degree-da and a degree-db cell, and the l1
    norm of a product of polynomials is at most the product of their norms."""
    out: L1Bound = {}
    for da, sa in a.items():
        for db, sb in b.items():
            d = da + db
            if d <= n_max:
                out[d] = out.get(d, 0) + comb(d, da) * sa * sb
    return out


class PlethysmCache:
    """Reusable per-inner-series state: one family of tables, the partition
    products, keyed by partition.

    g has no degree-0 part, neither a constant nor a term in t alone (a cache
    refuses one): p_lambda o g would have low-degree parts however large
    lambda is, so f o g would read terms of f past f.n_max.

    All plethysms against one fixed inner series g share the expensive
    pieces: the products prod_i psi(lambda_i, g) depend only on g and the
    partition, not on the outer series.  The table of a one-part partition
    (k) is the psi image psi(k, g) itself (``psi``, scaled), a longer
    partition's table is the product of the tables of its tail and of its
    first part, and the empty partition's is the unit.  They are held as
    integers: a term c * t^k * p_q of degree d in a product of l psi factors
    is stored as N = c * L^l * d!, where ``scale`` L is the least positive
    integer making c * L * |mu|! integral for every term c * t^k * p_mu of g.
    L = 1 for every series with z_mu-type denominators, which divide |mu|!,
    as for every inner series the solver builds; psi_j maps degree |mu| to
    j*|mu|, and |mu|! divides (j*|mu|)!, so the same L serves every psi image.

    Each t-row is one int packed at ``width`` W (`_pack`), so a row product is
    one multiplication.  W is proved, not guessed: every table carries, per
    degree, a bound on the sum of its rows' l1 norms (exact for psi images,
    `_product_bound` for longer products), and W stays above the bit length
    of every bound, so each coefficient is a balanced W-bit digit.  A table
    or a plethysm whose bound does not fit widens the cache: W at least
    triples, and every table is repacked in place.  (In the solver the last
    plethysm's bound needs 2.0 to 2.5 times the bits of the first psi image,
    n = 8..20, so a cache widens once after its first tables.)  A width past
    ``max_width`` bits raises ArithmeticError instead.

    Each cell is keyed by an int, not by its partition: the key of lambda is
    the sum of 2^(p * s) over its parts p, with s the bit length of
    max(g.n_max, 1), so bits p*s to p*s + s - 1 hold the multiplicity of the
    part p.  A cell of a table has size at most g.n_max, so each multiplicity
    is at most g.n_max < 2^s, and ``_int_product`` forms only pairs whose
    sizes sum to at most g.n_max: adding two keys never carries from one
    field into the next, and the sum is the key of the merged partition.
    Keys are made for the partitions the cache meets, psi images on the way
    in and plethysm outputs on the way out (``partition`` decodes each once),
    never for every partition up to g.n_max.

    The cache also keeps the rows of the outer series it has read
    (``outer``), keyed by the held part (den, rows) of a degree they came
    from, which no one changes once it is held: per row its l1 norm, its
    product table and, once a plethysm's bound has covered it, the row
    packed at W.  The solver's B_<n holds the same part for B_k in every
    later degree, so each solved row is packed once per width, not once per
    degree that reads it; ``fit`` repacks the kept rows with the tables.
    """

    max_width = 1 << 16  # a packed row of k + 1 coefficients then takes (k + 1) * 8 KiB

    def __init__(self, g: SymSeries):
        if 0 in g._int:
            raise ValueError(
                "inner series of a plethysm must have no degree-0 part,"
                " neither a constant nor a term in t alone"
            )
        self.g = g
        self.scale = 1
        for d, (den, rows) in g._int.items():
            fact = factorial(d)
            for row in rows.values():
                for v in row.values():
                    # the least L making v / den * L * d! an integer
                    self.scale = lcm(self.scale, den // gcd(den, v * fact))
        self.width = 2
        self.shift = max(g.n_max, 1).bit_length()  # s: bits per multiplicity in a key
        self._parts: dict[int, Partition] = {}  # key -> partition, filled as keys are decoded
        self._prod: dict[Partition, IntTable] = {(): {0: {0: 1}}}
        self._prod_l1: dict[Partition, L1Bound] = {(): {0: 1}}
        # id(part) -> (part, longest, its rows) for each part of an outer series read
        self._outer: dict[int, tuple[tuple[int, Rows], int, list[_OuterRow]]] = {}

    def key(self, parts: Partition) -> int:
        """The int a cell of partition ``parts`` is keyed by."""
        return sum(1 << (p * self.shift) for p in parts)

    def partition(self, key: int) -> Partition:
        """The partition keyed by ``key``, decoded once and remembered."""
        parts = self._parts.get(key)
        if parts is None:
            shift = self.shift
            mask = (1 << shift) - 1
            ascending = []
            rest, p = key, 0
            while rest:
                rest >>= shift
                p += 1
                ascending += [p] * (rest & mask)
            parts = self._parts[key] = tuple(reversed(ascending))
        return parts

    def fit(self, bound: int):
        """Make every coefficient of absolute value <= bound a W-bit digit,
        widening and repacking the tables if W is too narrow."""
        need = bound.bit_length() + 1
        if need <= self.width:
            return
        width = max(need, 3 * self.width)
        if width > self.max_width:
            raise ArithmeticError(
                f"packed t-rows need {need} bits per coefficient, more than {self.max_width}"
            )
        for table in self._prod.values():
            for by_q in table.values():
                for q, x in by_q.items():
                    by_q[q] = _pack(_unpack(x, self.width), width)
        for _part, _longest, kept in self._outer.values():
            for row in kept:
                if row.packed is not None:
                    row.packed = _pack(row.row, width)
        self.width = width

    def product(self, parts: Partition) -> IntTable:
        """prod_i psi(parts_i, g) at scale L^len(parts) * d!, truncated at
        g.n_max.  The table of one part k is the integer form of psi(k, g)
        itself, scaled; a longer product is the product of the tables of its
        tail and of its first part."""
        table = self._prod.get(parts)
        if table is None:
            if len(parts) == 1:
                rows: dict[int, dict[int, dict[int, int]]] = {}  # degree -> key -> t-row
                for d, (den, image) in psi(parts[0], self.g)._int.items():
                    lift = self.scale * factorial(d)
                    by_q = rows[d] = {}
                    for q, row in image.items():
                        cell = by_q[self.key(q)] = {}
                        for e, v in row.items():
                            # the term v / den t^e p_q of the psi image, times L * d!
                            n, rem = divmod(v * lift, den)
                            if rem:
                                from fractions import Fraction

                                raise ArithmeticError(
                                    f"term {Fraction(v, den)} t^{e} p_{q} of psi_{parts[0]} of"
                                    f" the inner series does not scale to an integer: times"
                                    f" {self.scale} * {d}!"
                                )
                            cell[e] = n
                l1 = {
                    d: sum(abs(n) for row in by_q.values() for n in row.values())
                    for d, by_q in rows.items()
                }
                self.fit(max(l1.values(), default=0))
                table = {
                    d: {q: _pack(row, self.width) for q, row in by_q.items()}
                    for d, by_q in rows.items()
                }
            else:
                n_max = self.g.n_max
                rest = self.product(parts[1:])
                head = self.product(parts[:1])
                l1 = _product_bound(self._prod_l1[parts[1:]], self._prod_l1[parts[:1]], n_max)
                self.fit(max(l1.values(), default=0))  # repacks rest and head in place
                table = _int_product(rest, head, n_max)
            self._prod_l1[parts] = l1
            self._prod[parts] = table
        return table

    def outer(self, part: tuple[int, Rows]) -> tuple[int, list[_OuterRow]]:
        """(longest, rows) of one held part (den, rows) of an outer series:
        the length of its longest partition, and its rows as this cache
        keeps them for every later plethysm that reads the same part, which
        no one changes once it is held."""
        kept = self._outer.get(id(part))  # holds the part, so no other part gets its id
        if kept is None:
            rows = [
                _OuterRow(len(q), row, self.product(q), self._prod_l1[q])
                for q, row in part[1].items()
            ]
            kept = self._outer[id(part)] = (part, max(map(len, part[1]), default=0), rows)
        return kept[1], kept[2]


class _OuterRow:
    """One t-row of an outer series, as a PlethysmCache keeps it: the length
    of its partition q, the row, the product table of q and that table's l1
    bound, the row's l1 norm, and the row packed at the cache width, or None
    until a plethysm's bound first covers it.  ``fit`` repacks it."""

    __slots__ = ("length", "row", "table", "l1", "norm", "packed")

    def __init__(self, length: int, row: dict[int, int], table: IntTable, l1: L1Bound):
        self.length = length
        self.row = row
        self.table = table
        self.l1 = l1
        self.norm = sum(map(abs, row.values()))
        self.packed: int | None = None


def plethysm(
    f: SymSeries, g: SymSeries, cache: PlethysmCache | None = None, degree: int | None = None
) -> SymSeries:
    """Plethysm f o g: substitute p_k -> psi(k, g); t-powers of f are scalars.

    g must have no degree-0 part.  The result is truncated at
    min(f.n_max, g.n_max) and comes in integer form: the terms of degree d
    are integers over F * L^l * d!, F the lcm of the denominators f holds
    through the truncation and l the longest partition of f.  Each row of f
    is read packed as the cache keeps it (``PlethysmCache.outer``), scaled by
    one integer, (F / its degree's denominator) * L^(l - its length), and
    multiplied into every cell of its product table; each output cell is
    unpacked once.  The cache is first widened to the l1 bound of the sums,
    and a row is packed only once it meets a nonempty cell, so the bound
    covers it.  The sums are keyed like the cache's cells, and an output
    cell's key is decoded to its partition by the cache, which remembers
    each one.

    With ``degree`` = d the result is the degree-d component of f o g alone:
    only the degree-d cell of each product table is read and multiplied, the
    bound is summed over degree d only, and only the degree-d sums are
    unpacked.  A degree outside 0..min(f.n_max, g.n_max) raises ValueError.
    """
    if cache is None or cache.g is not g:
        cache = PlethysmCache(g)
    n_max = min(f.n_max, g.n_max)
    if degree is not None and not 0 <= degree <= n_max:
        raise ValueError(f"degree {degree} is outside the truncation 0..{n_max} of the plethysm")
    degrees = range(n_max + 1) if degree is None else (degree,)
    held = [(part[0], cache.outer(part)) for d, part in f._int.items() if d <= n_max]
    den_f = lcm(*(den for den, _outer in held))
    longest = max((longest for _den, (longest, _rows) in held), default=0)
    scale = cache.scale
    # each row that meets a nonempty cell of an output degree, with its
    # factor and those cells; fit repacks their dicts in place, so they stay
    # the cache's cells
    picked = []
    bound: L1Bound = {}
    for den, (_longest, rows) in held:
        lift = den_f // den
        for row in rows:
            get = row.table.get
            cells = [(d, by_q) for d in degrees if (by_q := get(d))]
            if cells:
                factor = lift * scale ** (longest - row.length)
                norm = row.norm * factor
                l1 = row.l1
                for d, _by_q in cells:
                    bound[d] = bound.get(d, 0) + norm * l1[d]
                picked.append((row, factor, cells))
    cache.fit(max(bound.values(), default=0))  # repacks the tables and kept rows in place
    width = cache.width
    acc: IntTable = {}
    for row, factor, cells in picked:
        x = row.packed
        if x is None:  # packed only once a bound covers it
            x = row.packed = _pack(row.row, width)
        if factor != 1:
            x *= factor
        for d, by_q in cells:
            acc_d = acc.get(d)
            if acc_d is None:
                acc_d = acc[d] = {}
            get = acc_d.get
            for q, cell in by_q.items():
                acc_d[q] = get(q, 0) + x * cell
    form: dict[int, tuple[int, Rows]] = {}
    partition = cache.partition
    for d in list(acc):
        cells = acc.pop(d)  # freed degree by degree as it is unpacked
        out = {partition(q): _unpack(x, width) for q, x in cells.items() if x}
        if out:
            form[d] = (den_f * scale**longest * factorial(d), out)
    return SymSeries._from_int(n_max, form)


# -- Frobenius characteristic and the rank specialization ------------------


def frobenius_from_character(n: int, char: dict[Partition, TPoly | int | Fraction]) -> SymSeries:
    """Symmetric function of a (graded) character: sum char(lambda) p_lambda / z_lambda.

    ``char`` must assign a value (a polynomial in t for graded characters) to
    every partition of n.
    """
    acc: dict[Term, int | Fraction] = {}
    for lam in partitions_of(n):
        if lam not in char:
            raise KeyError(f"character value missing for cycle type {lam}")
        val = char[lam]
        if not isinstance(val, TPoly):
            val = TPoly.const(val)
        z = z_lambda(lam)
        for k, c in enumerate(val.coeffs):
            if c:
                acc[(lam, k)] = ratio(c, z)
    return SymSeries(n, acc)


def rk(f: SymSeries) -> dict[int, TPoly]:
    """Dimension extraction: p_1 -> x, p_n -> 0 for n > 1.

    Returns, for each n with a surviving term, n! times the coefficient of
    p_(1^n) as a polynomial in t; for the characteristic of a representation
    this is its dimension.
    """
    out: dict[int, TPoly] = {}
    for n, (den, rows) in f._int.items():
        row = rows.get((1,) * n)
        if row:
            fact = factorial(n)
            out[n] = TPoly([ratio(row.get(i, 0) * fact, den) for i in range(max(row) + 1)])
    return out
