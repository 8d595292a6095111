import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

import pytest

from braidchow import cli, numeric, solver, symseries
from braidchow.characters import schur_expand
from braidchow.combinat import omega_shifted, set_partition_sizes, set_partitions
from braidchow.numeric import euler_chars, hnum_bell, hnum_lattice, hnum_stirling
from braidchow.pointcounts import m_series
from braidchow.reference import REFERENCE_TABLE
from braidchow.serialize import series_to_obj
from braidchow.solver import (
    growth_series,
    hnum_from_solver,
    level_filtration,
    solve_B,
    solved_series,
    verify_functional_equation,
)
from braidchow.symseries import PlethysmCache, SymSeries, _numerators, plethysm
from braidchow.tpoly import T_MINUS_ONE, TPoly


@pytest.fixture(scope="module")
def M8():
    return m_series(8)


@pytest.fixture(scope="module")
def B8(M8):
    return solve_B(M8)


def hook_length_dimension(lam):
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])]
    dim = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            dim //= (row - j) + (conj[j] - i) - 1
    return dim


# -- the solver and its table --------------------------------------------------


def test_component_2_emerges_as_h2(B8):
    assert B8.component(2) == SymSeries.h(2, 8)


def test_component_3(B8):
    assert schur_expand(B8.component(3), 3) == {(3,): TPoly((1, 1))}


def test_component_5(B8):
    assert schur_expand(B8.component(5), 5) == {
        (5,): TPoly((1, 5, 5, 1)),
        (4, 1): TPoly((0, 4, 4)),
        (3, 2): TPoly((0, 3, 3)),
        (2, 2, 1): TPoly((0, 1, 1)),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reference_table_rows(B8, n):
    got = schur_expand(B8.component(n), n)
    assert got == {lam: TPoly(cs) for lam, cs in REFERENCE_TABLE[n].items()}


def test_component_t_degrees(B8):
    for n in range(2, 9):
        comp = B8.component(n)
        assert comp.is_homogeneous(n)
        assert comp.t_degree() == n - 2
        # both end slices of the table are exactly s_n
        table = schur_expand(comp, n)
        for lam, poly in table.items():
            expected = 1 if lam == (n,) else 0
            assert poly[0] == expected, (n, lam)
            assert poly[n - 2] == expected, (n, lam)


def test_schur_coefficients_palindromic(B8):
    for n in range(2, 9):
        for lam, poly in schur_expand(B8.component(n), n).items():
            coeffs = [poly[i] for i in range(n - 1)]
            assert coeffs == coeffs[::-1], (n, lam)


def test_equivariant_poincare_duality_and_hard_lefschetz_through_12():
    """Every Schur coefficient of B_n, n = 2..12, reads the same at t^i and
    t^(n-2-i) (equivariant Poincaré duality) and is unimodal (equivariant hard
    Lefschetz)."""
    B = solve_B(m_series(12))
    for n in range(2, 13):
        table = schur_expand(B.component(n), n)
        assert table, n
        for lam, poly in table.items():
            assert poly.degree <= n - 2, (n, lam)
            assert all(poly[i] == poly[n - 2 - i] for i in range(n - 1)), (n, lam)
            assert poly.is_unimodal(), (n, lam)


# -- the functional equation ----------------------------------------------------


def test_functional_equation_holds(B8, M8):
    assert verify_functional_equation(B8, M8)


def test_functional_equation_minimal_truncation():
    M = m_series(2)
    B = solve_B(M)
    assert verify_functional_equation(B, M)
    assert B.component(2) == SymSeries.h(2, 2)


def test_solve_any_input_series():
    """Not only the point counts: an input whose denominators differ from
    those of the composed pieces is solved too, and B_2 equals M_2."""
    M = sum(
        (SymSeries(6, {((n,), 0): 1, ((1,) * n, 1): Fraction(1, 3)}) for n in range(2, 7)),
        SymSeries.zero(6),
    )
    B = solve_B(M)
    assert verify_functional_equation(B, M)
    assert B.component(2) == M.component(2)


def test_perturbation_breaks_equation(B8, M8):
    s4t = SymSeries.h(4, 8) * TPoly((0, 1))
    assert not verify_functional_equation(B8 + s4t, M8)


@pytest.mark.parametrize("n", range(2, 9))
def test_any_component_perturbation_detected(B8, M8, n):
    bump = SymSeries.h(n, 8) * TPoly((0, 1))
    assert not verify_functional_equation(B8 + bump, M8)


def test_the_series_routes_return_one_symseries(M8, B8):
    assert isinstance(M8, SymSeries) and isinstance(B8, SymSeries)
    assert all(isinstance(layer, SymSeries) for layer in level_filtration(M8))


@pytest.mark.parametrize("cached", [m_series, solved_series])
def test_changing_the_components_leaves_a_cached_series_as_it_is(cached):
    series = cached(6)
    terms = series.terms
    comps = series.components
    comps[2] = comps.pop(3)
    comps[7] = SymSeries.h(7)
    comps.clear()
    assert cached(6) is series
    assert series.terms == terms and set(series.components) == set(range(2, 7))


def test_solve_on_a_corrupted_kernel_raises_on_the_tminus1_division(monkeypatch):
    """Every input series gives an exact division; a wrong plethysm does not.
    Here the integer psi image of G gains 1/2 p_2 at t = 1, which the
    degree-3 division by (t - 1) must reject."""

    class CorruptedCache(PlethysmCache):
        def __init__(self, g):
            super().__init__(g)
            self.product((1,))[2][self.key((2,))] += 1  # packed: bit 0 holds the t^0 coefficient

    monkeypatch.setattr(solver, "PlethysmCache", CorruptedCache)
    with pytest.raises(ValueError, match=r"nonzero remainder .* p_\(2, 1\) \(degree 3\)"):
        solve_B(m_series(5))


def test_the_solver_cache_widens_twice_at_degree_12(monkeypatch):
    """The packed width starts at 2 bits, fits the first psi image of G at
    33, and triples once, to 99, for the bound of a later plethysm."""
    widenings = []

    class RecordingCache(PlethysmCache):
        def fit(self, bound):
            width = self.width
            super().fit(bound)
            if self.width != width:
                widenings.append((width, self.width))

    monkeypatch.setattr(solver, "PlethysmCache", RecordingCache)
    solve_B(m_series(12))
    assert widenings == [(2, 33), (33, 99)]


def test_solve_matches_the_route_of_one_plethysm_per_component():
    """Each B_n = M_n + sum_{k<n} [B_k o G]_n / (t - 1), with every piece
    B_k o G composed whole and its degree-n component read off."""
    M = m_series(10)
    G = growth_series(M)
    cache = PlethysmCache(G)
    B = SymSeries.zero(10)
    for n in range(2, 11):
        pieces = [plethysm(B.component(k), G, cache).component(n) for k in range(2, n)]
        B = B + M.component(n) + solver._divexact_tminus1(sum(pieces, SymSeries.zero(10)))
    assert solve_B(M) == B


@pytest.mark.parametrize("n_max", [2, 3, 8, 12])
def test_solve_makes_one_plethysm_call_per_degree(monkeypatch, n_max):
    """The benchmark's tracer counts `symseries.plethysm` calls through the
    name `solver.plethysm`: degrees 3..n_max, one call each."""
    degrees = []

    def counted(f, g, cache=None, degree=None):
        degrees.append(degree)
        return plethysm(f, g, cache, degree)

    monkeypatch.setattr(solver, "plethysm", counted)
    solve_B(m_series(n_max))
    assert degrees == list(range(3, n_max + 1))


@pytest.mark.parametrize(
    "M",
    # the second input has a degree-1 part, where h_1 and (t - 1) M_1 are summed
    [m_series(8), SymSeries(3, {((1,), 1): 1, ((2,), 0): 1})],
    ids=["m_series(8)", "degree-1 part"],
)
def test_growth_series_on_integers_matches_the_fraction_route(M):
    assert growth_series(M) == SymSeries.p(1, M.n_max) + M * T_MINUS_ONE


def test_solve_builds_no_fraction_for_a_composed_piece(monkeypatch):
    """Every B_k o G goes from plethysm to the right-hand side as integer
    rows: no series in integer form has its Fraction terms built."""

    def no_terms(*args):
        raise AssertionError("the terms of a series in integer form were built")

    monkeypatch.setattr(symseries, "_fractions", no_terms)
    B = solve_B(m_series(12))
    monkeypatch.undo()
    text = json.dumps([series_to_obj(n, B.component(n)) for n in range(2, 13)], indent=2)
    # the stdout of `table --max-n 12 --basis p` without its final newline,
    # taken while the composed pieces still went through Fractions
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "adac0a6fb0da48f886cf6615d99781e709d6210be721f6e0a7a251537ef2e973"
    )

    # the whole `table` path, from the input series to stdout, builds no
    # Fraction at all: every series stays in integer form, and every Schur
    # coefficient is an integer
    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    out = io.StringIO()
    monkeypatch.setattr(symseries, "_fractions", no_terms)
    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    with redirect_stdout(out):
        code = cli.main(["table", "--max-n", "12"])
    monkeypatch.undo()
    assert code == 0
    assert (
        hashlib.sha256(out.getvalue().encode()).hexdigest()
        == "142ab3db68fae4199f7eb3085f66e89e75ed13f61df2d51b3c8c747dfc47346b"
    )


def test_integer_forms_are_at_the_least_denominator():
    """Each M_n and B_n is held at the lcm of its terms' reduced
    denominators: the form `_numerators` reads off the same terms as
    Fractions, so every plethysm is packed as it was from Fraction input."""
    M = m_series(12)
    B = solve_B(M)
    for series in (M, B):
        for n in range(2, 13):
            c = series.component(n)
            as_fractions = SymSeries(c.n_max, c.terms)
            assert _numerators(c, n) == _numerators(as_fractions, n)


def _held_form_digest(s: SymSeries) -> str:
    held = [
        (d, den, sorted((q, sorted(row.items())) for q, row in rows.items()))
        for d, (den, rows) in sorted(s._int.items())
    ]
    return hashlib.sha256(repr(held).encode()).hexdigest()


@pytest.mark.parametrize(
    "build, digest",
    [
        (solve_B, "d2dcbeb3debf2ac2d356805d0e66f15ad0c96a20c007e6c307c3789b9fe06773"),
        (growth_series, "45d4b8ad1d93986dd2753d34d242c2087d7a15317140aeb9566ac6fa8df03cdc"),
    ],
)
def test_held_forms_are_pinned(build, digest):
    """The denominator and integer rows held for each degree at n = 14, not
    only the rational series: every output normalizes the denominators, but
    they set the widths of the plethysms that read the series."""
    assert _held_form_digest(build(m_series(14))) == digest


@pytest.mark.parametrize("n_max", [0, 1])
def test_solve_below_degree_2_is_the_zero_series(n_max):
    assert solve_B(m_series(4).truncate(n_max)) == SymSeries.zero(n_max)


@pytest.mark.parametrize(
    "low, degree",
    [(SymSeries(5, {((1,), 1): 1}), 1), (SymSeries(5, {((), 0): Fraction(1, 2)}), 0)],
    ids=["degree-1 part", "constant term"],
)
def test_solve_refuses_a_part_below_degree_2(monkeypatch, low, degree):
    """The linearization holds only while G_1 = h_1: with a part of degree 1
    the returned B would fail the functional equation.  The input is refused
    before any plethysm."""
    monkeypatch.setattr(solver, "plethysm", None)  # any plethysm call would fail differently
    with pytest.raises(ValueError, match=rf"part of degree {degree}"):
        solve_B(m_series(5) + low)
    with pytest.raises(ValueError, match=rf"part of degree {degree}"):
        solve_B(low.truncate(1))


def test_solve_packs_each_solved_row_once_per_width(monkeypatch):
    """The rows of B_2..B_15 are packed as they are held, by the cache that
    keeps them: at most once per cache width, not once per degree that reads
    them.  A row of p_q with a part 1 meets the degree |q| + 1 cell of its
    table, so it is packed at least once."""
    packed = []  # (row, width); the rows are kept alive, so ids stay distinct
    pack = symseries._pack

    def recording_pack(row, width):
        packed.append((row, width))
        return pack(row, width)

    monkeypatch.setattr(symseries, "_pack", recording_pack)
    B = solve_B(m_series(16))
    held = {id(row): q for n in range(2, 16) for q, row in B._int[n][1].items()}
    per_width = Counter((id(row), width) for row, width in packed if id(row) in held)
    times = Counter(row_id for row_id, _width in per_width)
    widths = {width for _row, width in packed}
    assert max(per_width.values()) == 1
    assert all(times[row_id] <= len(widths) for row_id in held)
    assert all(times[row_id] for row_id, q in held.items() if q[-1] == 1)


def test_tminus1_division_is_exact_or_loud():
    f = SymSeries.h(3, 4) + SymSeries(4, {((2, 1), 2): Fraction(5, 3), ((4,), 0): Fraction(1, 7)})
    assert solver._divexact_tminus1(f * T_MINUS_ONE) == f
    with pytest.raises(ValueError, match="nonzero remainder 1/7"):
        solver._divexact_tminus1(f * T_MINUS_ONE + SymSeries(4, {((4,), 1): Fraction(1, 7)}))


# -- the level filtration ---------------------------------------------------------


def test_filtration_first_layer_is_input(M8):
    layers = level_filtration(M8)
    assert layers[0] == M8


def test_filtration_sums_to_solution(B8, M8):
    layers = level_filtration(M8)
    total = layers[0]
    for layer in layers[1:]:
        total = total + layer
    assert total == B8


def test_filtration_depth_bound(M8):
    layers = level_filtration(M8)
    assert len(layers) == 7  # layers 1..7; a degree-n part needs k <= n-1
    for idx, layer in enumerate(layers):
        k = idx + 1
        for n in range(2, 9):
            if k > n - 1:
                assert not layer.component(n)
    # the deepest layer survives only in the top degree
    assert set(layers[-1].components) == {8}


def test_filtration_layers_match_stratum_sums(M8):
    # rank polynomial of layer k at degree n = sum of stratum counts over
    # level trees with exactly k levels
    from braidchow.leveltrees import enumerate_level_trees, stratum_epoly
    from braidchow.symseries import rk

    layers = level_filtration(M8)
    for n in (3, 4, 5):
        by_length = {}
        for tree in enumerate_level_trees(n):
            acc = by_length.get(tree.length, TPoly())
            by_length[tree.length] = acc + stratum_epoly(tree)
        for idx, layer in enumerate(layers):
            poly = rk(layer.component(n)).get(n, TPoly())
            assert poly == by_length.get(idx + 1, TPoly()), (n, idx + 1)


# -- numeric routes ----------------------------------------------------------------


def reference_hnum(n):
    """Dimension oracle: hook-length dimensions against the reference table."""
    total = TPoly()
    for lam, coeffs in REFERENCE_TABLE[n].items():
        total = total + TPoly(coeffs) * hook_length_dimension(lam)
    return total


@pytest.mark.parametrize("route", [hnum_stirling, hnum_bell, hnum_lattice])
def test_hnum_routes_match_reference_dimensions(route):
    hnum = route(6)
    for n in range(2, 7):
        assert hnum[n] == reference_hnum(n), n
    assert hnum[1] == TPoly.const(1)


def test_hnum_spot_values():
    hnum = hnum_stirling(6)
    assert hnum[2] == TPoly.const(1)
    assert hnum[3] == TPoly((1, 1))
    assert hnum[4] == TPoly((1, 8, 1))
    assert hnum[5] == TPoly((1, 41, 41, 1))
    assert hnum[6] == TPoly((1, 187, 732, 187, 1))


def test_four_routes_agree(B8):
    solver = hnum_from_solver(B8)
    stirling = hnum_stirling(8)
    bell = hnum_bell(8)
    lattice = hnum_lattice(8)
    assert solver == stirling == bell == lattice


def per_partition_lattice(n_max):
    """The lattice recursion with one product chain per set partition."""
    hnum = {1: TPoly.const(1)}
    for n in range(2, n_max + 1):
        rhs = TPoly()
        for blocks in set_partitions(range(1, n + 1)):
            if len(blocks) == n:
                continue
            prod = hnum[len(blocks)]
            for block in blocks:
                prod = prod * omega_shifted(len(block))
            rhs = rhs + prod
        hnum[n] = rhs.divexact(T_MINUS_ONE)
    return hnum


def test_lattice_shape_grouping_matches_per_partition_sum():
    assert hnum_lattice(7) == per_partition_lattice(7)


def test_lattice_walks_every_set_partition(monkeypatch):
    walked = Counter()
    original = numeric.set_partition_sizes

    def counting(n):
        for sizes in original(n):
            walked[n] += 1
            yield sizes

    monkeypatch.setattr(numeric, "set_partition_sizes", counting)
    hnum_lattice(10)
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]  # OEIS A000110
    assert walked == {n: bell[n] for n in range(2, 11)}


@pytest.mark.parametrize("n", range(10))
def test_set_partition_sizes_walk_set_partitions_in_order(n):
    walked = [tuple(map(len, p)) for p in set_partitions(range(1, n + 1))]
    assert list(set_partition_sizes(n)) == walked


def test_lattice_cap():
    with pytest.raises(ValueError):
        hnum_lattice(13)


def test_euler_characteristics():
    chi = euler_chars(12)
    assert [chi[n] for n in range(1, 6)] == [1, 1, 2, 10, 84]
    hnum = hnum_stirling(12)
    for n in range(1, 13):
        assert chi[n] == hnum[n].eval(1)


def test_structural_properties():
    hnum = hnum_stirling(10)
    for n in range(2, 11):
        p = hnum[n]
        assert p.degree == n - 2
        assert p.is_monic()
        assert p.is_palindromic()
        assert p.is_unimodal()
        assert p.has_integer_coeffs()


def test_character_values_nonnegative(B8):
    from braidchow.characters import character_table
    from braidchow.partitions import partitions_of

    for n in range(2, 9):
        table = schur_expand(B8.component(n), n)
        chars = character_table(n)
        for lam, poly in table.items():
            assert poly.has_integer_coeffs()
            assert all(c >= 0 for c in poly.coeffs), (n, lam)
        for mu in partitions_of(n):
            value = TPoly()
            for lam, poly in table.items():
                value = value + poly * chars[lam, mu]
            assert all(c >= 0 for c in value.coeffs), (n, mu)
            assert value.has_integer_coeffs()
