"""Exact engine for equivariant Chow polynomials of braid matroids.

The interesting objects live in:

- :mod:`braidchow.symseries` -- truncated symmetric functions over Q[t] and
  plethysm; ``SymSeries`` is the one series type, from the input series M
  to the solution B;
- :mod:`braidchow.pointcounts` -- the open-curves input series from twisted
  point counts;
- :mod:`braidchow.solver` -- the plethystic fixed-point solver;
- :mod:`braidchow.numeric` -- the independent numerical routes to the rank
  polynomials;
- :mod:`braidchow.leveltrees` -- brute-force stratum sums over level trees;
- :mod:`braidchow.cli` -- the command-line interface.

The names below are loaded from their modules on first access, so importing
one module of the package (say the data in :mod:`braidchow.reference`)
compiles no other.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    "euler_chars": "numeric",
    "hnum_bell": "numeric",
    "hnum_lattice": "numeric",
    "hnum_stirling": "numeric",
    "Partition": "partitions",
    "partitions_of": "partitions",
    "z_lambda": "partitions",
    "m_component": "pointcounts",
    "m_series": "pointcounts",
    "necklace": "pointcounts",
    "twisted_count": "pointcounts",
    "hnum_from_solver": "solver",
    "level_filtration": "solver",
    "solve_B": "solver",
    "solved_series": "solver",
    "verify_functional_equation": "solver",
    "PlethysmCache": "symseries",
    "SymSeries": "symseries",
    "frobenius_from_character": "symseries",
    "plethysm": "symseries",
    "psi": "symseries",
    "rk": "symseries",
    "TPoly": "tpoly",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
