"""Series graded by symmetric-function degree, one homogeneous component per n.

Each component is a ``SymSeries`` whose integer form holds the one degree n,
so ``total`` joins the components' forms without adding anything, and a sum
adds the totals degree by degree.  The components mapping is read-only,
since cached series (``m_series``, ``solved_series``) are shared."""

from __future__ import annotations

from types import MappingProxyType

from .symseries import SymSeries


class GradedSeries:
    """Components indexed by n >= 2, each homogeneous of degree n."""

    __slots__ = ("n_max", "components")

    def __init__(self, n_max: int, components: dict[int, SymSeries]):
        self.n_max = n_max
        comps: dict[int, SymSeries] = {}
        for n, s in components.items():
            if n > n_max:
                continue
            if not s.is_homogeneous(n):
                raise ValueError(f"component {n} is not homogeneous of degree {n}")
            if s:
                comps[n] = s.truncate(n_max)
        self.components = MappingProxyType(comps)  # read-only: cached series are shared

    def component(self, n: int) -> SymSeries:
        return self.components.get(n, SymSeries.zero(self.n_max))

    def total(self) -> SymSeries:
        """All components summed into a single series: their integer forms
        hold disjoint degrees, so the sum is one form holding each."""
        return SymSeries._from_int(
            self.n_max, {n: self.components[n]._int[n] for n in sorted(self.components)}
        )

    @classmethod
    def split(cls, s: SymSeries) -> "GradedSeries":
        """Slice a series into its homogeneous degree components from 2 up."""
        comps = {n: part for n, part in s.by_degree().items() if n >= 2}
        return cls(s.n_max, comps)

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries.split(self.total() + other.total())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSeries)
            and self.n_max == other.n_max
            and self.components == other.components
        )

    def is_zero(self) -> bool:
        return not self.components

    def __repr__(self) -> str:
        ns = sorted(self.components)
        return f"GradedSeries(n_max={self.n_max}, degrees={ns})"
