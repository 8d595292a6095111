"""Exact engine for equivariant Chow polynomials of braid matroids.

The interesting objects live in:

- :mod:`braidchow.symseries` -- truncated symmetric functions over Q[t] and
  plethysm;
- :mod:`braidchow.pointcounts` -- the open-curves input series from twisted
  point counts;
- :mod:`braidchow.solver` -- the plethystic fixed-point solver and every
  independent numerical route;
- :mod:`braidchow.leveltrees` -- brute-force stratum sums over level trees;
- :mod:`braidchow.cli` -- the command-line interface.
"""

from .graded import GradedSeries
from .partitions import Partition, partitions_of, z_lambda
from .pointcounts import MSeries, m_component, m_series, necklace, twisted_count
from .solver import (
    equivariant_table,
    euler_chars,
    hnum_bell,
    hnum_from_solver,
    hnum_lattice,
    hnum_stirling,
    level_filtration,
    solve_B,
    solved_series,
    verify_functional_equation,
)
from .symseries import PlethysmCache, SymSeries, frobenius_from_character, plethysm, psi, rk
from .tpoly import TPoly

__all__ = [
    "GradedSeries",
    "MSeries",
    "Partition",
    "PlethysmCache",
    "SymSeries",
    "TPoly",
    "equivariant_table",
    "euler_chars",
    "frobenius_from_character",
    "hnum_bell",
    "hnum_from_solver",
    "hnum_lattice",
    "hnum_stirling",
    "level_filtration",
    "m_component",
    "m_series",
    "necklace",
    "partitions_of",
    "plethysm",
    "psi",
    "rk",
    "solve_B",
    "solved_series",
    "twisted_count",
    "verify_functional_equation",
    "z_lambda",
]
