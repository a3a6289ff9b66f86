import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchtool import (
    NumericalError,
    adjacency_matrix,
    cesaro_average,
    char_poly,
    gd_polynomial,
    induced_subgraph,
    perron,
    perron_projection,
    rho_equal,
    scc_decompose,
    spectrum_small,
)
from branchtool.examples import polycycle, simple_cycle
from branchtool.spectral import poly_gcd, square_free_factors

import oracles

PHI = oracles.PHI


def _blocks(graphs):
    out = []
    for g in graphs:
        dec = scc_decompose(g)
        for comp in dec.components:
            block = adjacency_matrix(induced_subgraph(g, comp))
            if len(comp) > 1 or block[0][0] > 0:
                out.append(block)
    return out


def test_perron_fibonacci(fib):
    pd = perron(adjacency_matrix(fib))
    assert abs(pd.rho - PHI) <= 1e-12
    assert abs(sum(pd.v) - 1.0) <= 1e-12
    assert abs(sum(a * b for a, b in zip(pd.v, pd.w)) - 1.0) <= 1e-12
    assert all(x > 0 for x in pd.v) and all(x > 0 for x in pd.w)
    assert abs(pd.v[1] / pd.v[0] - PHI) <= 1e-9
    assert pd.normalized and pd.iterations > 0
    assert pd.residual <= 1e-11


def test_perron_left_right_orientation():
    block = [[0, 2], [1, 0]]
    pd = perron(block)
    assert abs(pd.rho - math.sqrt(2)) <= 1e-12
    assert abs(pd.v[1] / pd.v[0] - math.sqrt(2)) <= 1e-9
    assert abs(pd.w[0] / pd.w[1] - math.sqrt(2)) <= 1e-9


def test_perron_scalar_blocks():
    pd = perron([[5]])
    assert (pd.rho, pd.v, pd.w) == (5.0, (1.0,), (1.0,))
    assert (pd.lower, pd.upper) == (5.0, 5.0)
    trivial = perron([[0]])
    assert (trivial.rho, trivial.v, trivial.w) == (0.0, (), ())


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_perron_cycle_normalization(n):
    pd = perron(adjacency_matrix(simple_cycle(n)))
    assert abs(pd.rho - 1.0) <= 1e-12
    assert np.allclose(pd.v, [1 / n] * n, atol=1e-9)
    assert np.allclose(pd.w, [1.0] * n, atol=1e-9)


def test_perron_polycycle(pc23):
    pd = perron(adjacency_matrix(pc23))
    assert abs(pd.rho - math.sqrt(6)) <= 1e-12


def test_perron_rejects_reducible_block():
    with pytest.raises(NumericalError):
        perron([[1, 1], [0, 1]], max_iter=3000)


@pytest.mark.parametrize("n", [90, 300, 1000])
def test_perron_polycycle_two_ones(n):
    # polycycle(2,1,...,1): every eigenvalue has modulus 2**(1/n), so the
    # spectral gap is zero; the exact root is the real n-th root of 2.
    pd = perron(adjacency_matrix(polycycle((2,) + (1,) * (n - 1))))
    assert Fraction(pd.lower) ** n <= 2 <= Fraction(pd.upper) ** n
    assert pd.lower <= pd.rho <= pd.upper
    assert pd.upper - pd.lower <= 1e-12 * pd.upper
    assert abs(pd.rho - 2 ** (1 / n)) <= 1e-15
    assert pd.iterations <= 40


def test_perron_rejects_non_square():
    with pytest.raises(ValueError):
        perron([[0, 1]])


@st.composite
def chorded_cycles(draw):
    """A weighted n-cycle plus random chords and self-loops."""
    n = draw(st.integers(2, 8))
    block = [[0] * n for _ in range(n)]
    for v in range(n):
        block[v][(v + 1) % n] = draw(st.integers(1, 3))
    node = st.integers(0, n - 1)
    for i, j, m in draw(st.lists(st.tuples(node, node, st.integers(1, 3)), max_size=2 * n)):
        block[i][j] += m
    return block


@st.composite
def weighted_cycles(draw):
    """Weighted cycles up to 40 nodes, polycycle(2,1,...,1) among them:
    periodic, with the whole spectrum on one circle."""
    n = draw(st.integers(2, 40))
    weights = draw(
        st.one_of(
            st.just((2,) + (1,) * (n - 1)),
            st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple),
        )
    )
    return adjacency_matrix(polycycle(weights))


@st.composite
def bipartite_blocks(draw):
    """``[[0, X], [Y, 0]]`` with ``X`` positive and every row and column of
    ``Y`` non-zero: strongly connected, period 2."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = [[draw(st.integers(1, 3)) for _ in range(q)] for _ in range(p)]
    y = [[draw(st.integers(0, 2)) for _ in range(p)] for _ in range(q)]
    for j in range(q):
        y[j][j % p] += 1
    for a in range(p):
        y[a % q][a] += 1
    return [[0] * p + row for row in x] + [row + [0] * q for row in y]


IRREDUCIBLE_BLOCKS = st.one_of(chorded_cycles(), weighted_cycles(), bipartite_blocks())


@settings(max_examples=80, deadline=None)
@given(IRREDUCIBLE_BLOCKS)
def test_perron_bracket_contains_exact_root(block):
    pd = perron(block)
    assert pd.lower <= pd.rho <= pd.upper
    assert pd.upper - pd.lower <= 1e-12 * pd.upper
    assert oracles.perron_root_within(block, pd.lower, pd.upper)


@settings(max_examples=80, deadline=None)
@given(IRREDUCIBLE_BLOCKS)
def test_perron_matches_numpy_with_normalized_positive_vectors(block):
    pd = perron(block)
    top = max(abs(z) for z in np.linalg.eigvals(np.array(block, dtype=float)))
    assert abs(pd.rho - top) <= 1e-12 * max(1.0, top)
    v, w = np.array(pd.v), np.array(pd.w)
    assert v.min() > 0.0 and w.min() > 0.0
    assert abs(v.sum() - 1.0) <= 1e-12
    assert abs(v @ w - 1.0) <= 1e-12


def _cesaro_term_by_term(block, rho, k):
    """The reference sum ``(1/k) * sum_{ell=0..k} (B/rho)**ell``, one power
    at a time."""
    b = np.array(block, dtype=float)
    term = np.eye(len(block))
    acc = np.eye(len(block))
    for _ in range(k):
        term = term @ b / rho
        acc += term
    return acc / k


@settings(max_examples=80, deadline=None)
@given(IRREDUCIBLE_BLOCKS, st.integers(1, 300))
def test_cesaro_doubling_matches_term_by_term(block, k):
    pd = perron(block)
    ref = _cesaro_term_by_term(block, pd.rho, k)
    got = cesaro_average(block, pd, k)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_perron_matches_numpy_on_corpus_blocks():
    for block in _blocks(oracles.corpus(seed=41, count=40)):
        rho = perron(block).rho
        top = max(abs(z) for z in np.linalg.eigvals(np.array(block, dtype=float)))
        assert abs(rho - top) <= 1e-8 * max(1.0, top)


def test_char_poly_fixtures(fib, six, pc23):
    assert char_poly(adjacency_matrix(fib)) == (-1, -1, 1)
    assert char_poly(adjacency_matrix(six)) == (0, 0, 0, -2, 0, 0, 1)
    assert char_poly(adjacency_matrix(pc23)) == (-6, 0, 1)
    assert char_poly([[2]]) == (-2, 1)
    assert char_poly(adjacency_matrix(simple_cycle(4))) == (-1, 0, 0, 0, 1)
    assert char_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (-1, 3, -3, 1)


def test_char_poly_matches_numpy_on_corpus():
    for g in oracles.corpus(seed=42, count=30):
        if g.n == 0:
            continue
        exact = char_poly(adjacency_matrix(g))
        approx = np.poly(np.array(adjacency_matrix(g), dtype=float))[::-1]
        scale = max(1.0, max(abs(c) for c in exact))
        assert np.allclose(exact, approx, atol=1e-6 * scale)


def test_spectrum_six_node(six):
    est = spectrum_small(adjacency_matrix(six))
    assert est.char_coefficients == (0, 0, 0, -2, 0, 0, 1)
    assert est.method == "char-poly-roots"
    top = est.eigenvalues[:3]
    rho = 2 ** (1 / 3)
    for z, angle in zip(top, (0.0, 2 * math.pi / 3, -2 * math.pi / 3)):
        assert abs(abs(z) - rho) <= 1e-9
    phases = sorted(math.atan2(z.imag, z.real) for z in top)
    expected = sorted((0.0, 2 * math.pi / 3, -2 * math.pi / 3))
    assert np.allclose(phases, expected, atol=1e-9)
    assert all(abs(z) <= 1e-4 for z in est.eigenvalues[3:])


@pytest.mark.parametrize("n", [3, 5, 8])
def test_spectrum_cycle_roots_of_unity(n):
    est = spectrum_small(adjacency_matrix(simple_cycle(n)))
    assert len(est.eigenvalues) == n
    got = sorted((round(z.real, 7), round(z.imag, 7)) for z in est.eigenvalues)
    expected = sorted(
        (round(math.cos(2 * math.pi * k / n), 7), round(math.sin(2 * math.pi * k / n), 7))
        for k in range(n)
    )
    assert got == expected


@pytest.mark.parametrize("n", [5, 8, 12, 16])
def test_spectrum_cycle_order_starts_at_perron_root(n):
    # Equal moduli, so the order is by argument in [0, 2*pi): the k-th
    # eigenvalue is exp(2*pi*i*k/n), the Perron root 1 first.
    est = spectrum_small(adjacency_matrix(simple_cycle(n)))
    for k, z in enumerate(est.eigenvalues):
        assert abs(z - cmath.exp(2j * math.pi * k / n)) <= 1e-9


def test_spectrum_matches_numpy_on_corpus_blocks():
    for block in _blocks(oracles.corpus(seed=43, count=30)):
        est = spectrum_small(block)
        mine = sorted(est.eigenvalues, key=lambda z: (z.real, z.imag))
        ref = sorted(
            np.linalg.eigvals(np.array(block, dtype=float)),
            key=lambda z: (z.real, z.imag),
        )
        # Multiple roots (clusters of zeros) limit root-finding accuracy.
        assert np.allclose(mine, ref, atol=5e-4)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_upstream_spectrum_is_product_of_block_spectra():
    # The eigenvalue multiset of an upstream matrix is the union over its
    # SCC blocks: exact characteristic polynomials must multiply out.
    from branchtool import upstream

    graphs = [oracles.THREE, oracles.LEFT, oracles.RIGHT, oracles.AB23,
              oracles.LINKED] + oracles.corpus(seed=46, count=25)
    for g in graphs:
        for i in range(g.n):
            u = upstream(g, i)
            dec = scc_decompose(u.subgraph)
            product = [1]
            for comp in dec.components:
                block = adjacency_matrix(induced_subgraph(u.subgraph, comp))
                product = _poly_mul(product, list(char_poly(block)))
            assert tuple(product) == char_poly(adjacency_matrix(u.subgraph))


# Characteristic polynomials (ascending) of three SCC blocks from seeded
# DAG-of-SCC graphs; each has the triple root -1, and the first also a
# triple root 0.
REPEATED_ROOT_POLYS = [
    (0, 0, 0, 2, 4, 1, -4, -7, -5, 0, 1),
    (-2, -4, 2, 8, 4, -1, -4, -4, 0, 1),
    (1, 5, 7, 0, -5, -2, -3, -4, 0, 1),
]


def _companion(coeffs):
    """Integer companion matrix whose characteristic polynomial is the monic
    ``coeffs`` (ascending)."""
    n = len(coeffs) - 1
    block = [[0] * n for _ in range(n)]
    for i in range(1, n):
        block[i][i - 1] = 1
    for i in range(n):
        block[i][n - 1] = -coeffs[i]
    return block


def _exact_roots(coeffs):
    """Roots with multiplicity from sympy's exact real/complex root isolation."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    return [complex(r.evalf(30)) for r in poly.all_roots()]


def _same_multiset(got, want, tol):
    remaining = list(want)
    for z in got:
        k = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        assert abs(remaining[k] - z) <= tol, (z, remaining[k])
        remaining.pop(k)
    assert not remaining


@pytest.mark.parametrize("coeffs", REPEATED_ROOT_POLYS)
def test_square_free_factors_match_sympy(coeffs):
    import sympy

    x = sympy.Symbol("x")
    _, expected = sympy.sqf_list(sympy.Poly(list(reversed(coeffs)), x))
    want = {k: tuple(reversed(f.monic().all_coeffs())) for f, k in expected}
    got = dict((k, f) for f, k in square_free_factors(coeffs))
    assert got == want
    assert got[3] in ((1, 1), (0, 1, 1))  # (x + 1)**3, times x**3 in the first


@pytest.mark.parametrize("coeffs", REPEATED_ROOT_POLYS)
def test_spectrum_repeated_roots_match_sympy(coeffs):
    est = spectrum_small(_companion(coeffs))
    assert est.char_coefficients == coeffs
    _same_multiset(est.eigenvalues, _exact_roots(coeffs), 1e-9)


def test_spectrum_complete_digraph_triple_root():
    # The complete digraph on four nodes: eigenvalues 3, -1, -1, -1.
    block = [[int(i != j) for j in range(4)] for i in range(4)]
    est = spectrum_small(block)
    assert est.eigenvalues == (3 + 0j, -1 + 0j, -1 + 0j, -1 + 0j)


def test_spectrum_doubled_blocks_match_numpy():
    import random

    rng = random.Random(48)
    for _ in range(25):
        b = oracles.random_irreducible_block(rng, max_nodes=5)
        n = len(b)
        doubled = [row + [0] * n for row in b] + [[0] * n + row for row in b]
        est = spectrum_small(doubled)
        ref = np.linalg.eigvals(np.array(b, dtype=float))
        _same_multiset(est.eigenvalues, list(ref) * 2, 1e-7)


def test_spectrum_deterministic(six):
    block = adjacency_matrix(six)
    assert spectrum_small(block) == spectrum_small(block)
    alt = spectrum_small(block, seed=7)
    assert np.allclose(alt.eigenvalues, spectrum_small(block).eigenvalues, atol=1e-9)


def test_spectrum_size_cap():
    big = [[0] * 17 for _ in range(17)]
    with pytest.raises(ValueError):
        spectrum_small(big)


def test_cesaro_scalar_exact():
    pd = perron([[3]])
    for k in (1, 10, 100):
        avg = cesaro_average([[3]], pd, k)
        assert avg.shape == (1, 1)
        assert abs(avg[0, 0] - (k + 1) / k) <= 1e-12
    assert np.allclose(perron_projection(pd), [[1.0]])


def test_cesaro_two_cycle_exact():
    block = adjacency_matrix(simple_cycle(2))
    pd = perron(block)
    avg = cesaro_average(block, pd, 10)
    assert np.allclose(avg, [[0.6, 0.5], [0.5, 0.6]], atol=1e-12)
    assert np.allclose(perron_projection(pd), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_cesaro_deviation_shrinks(fib, six):
    for block in (adjacency_matrix(fib), adjacency_matrix(six)):
        pd = perron(block)
        target = perron_projection(pd)
        devs = [
            float(np.max(np.abs(cesaro_average(block, pd, k) - target)))
            for k in (100, 1000, 10000)
        ]
        assert devs[2] < devs[1] < devs[0]
        fitted = devs[0] * 100 * 1.5
        assert devs[1] <= fitted / 1000
        assert devs[2] <= fitted / 10000


def test_cesaro_orientation():
    block = [[0, 2], [1, 0]]
    pd = perron(block)
    avg = cesaro_average(block, pd, 4000)
    assert np.allclose(avg, perron_projection(pd), atol=1e-2)
    flipped = np.outer(pd.v, pd.w)
    assert not np.allclose(avg, flipped, atol=1e-2)


def test_cesaro_validation():
    pd = perron([[3]])
    with pytest.raises(ValueError):
        cesaro_average([[3]], pd, 0)
    with pytest.raises(ValueError):
        cesaro_average([[0]], perron([[0]]), 10)


def test_gd_small_literals():
    assert gd_polynomial(0).coefficients == (1,)
    assert gd_polynomial(1).coefficients == (0, 1)
    assert gd_polynomial(2).coefficients == (0, 1, 1)
    assert gd_polynomial(3).coefficients == (0, 1, 4, 1)
    assert gd_polynomial(4).coefficients == (0, 1, 11, 11, 1)


def test_gd_value_at_one_is_factorial():
    for d in range(21):
        assert sum(gd_polynomial(d).coefficients) == math.factorial(d)
        assert gd_polynomial(d).eval(1.0) == pytest.approx(math.factorial(d), rel=1e-12)


def test_gd_matches_series_oracle():
    # Exact rational arithmetic: the only discrepancy allowed is the tail of
    # the truncated series, which is far below 1e-9 at these sample points.
    for d in range(11):
        gd = gd_polynomial(d)
        for z in (Fraction(1, 10), Fraction(1, 2), Fraction(-3, 10)):
            numerator = sum(c * z**j for j, c in enumerate(gd.coefficients))
            closed_form = numerator / (1 - z) ** (d + 1)
            truncated = sum(Fraction(ell**d) * z**ell for ell in range(200))
            assert abs(closed_form - truncated) <= Fraction(1, 10**9)


def test_gd_range():
    with pytest.raises(ValueError):
        gd_polynomial(21)
    with pytest.raises(ValueError):
        gd_polynomial(-1)


def test_poly_gcd_cases():
    assert poly_gcd([-1, 0, 1], [1, -2, 1]) == (-1, 1)
    assert poly_gcd([-1, 0, 1], [2, 1]) == (1,)
    assert poly_gcd([2, 4], [0]) == (Fraction(1, 2), Fraction(1))
    assert poly_gcd([-6, 0, 1], [-36, 0, 0, 0, 1]) == (-6, 0, 1)
    assert poly_gcd([-6, 0, 1], [-2, 0, 1]) == (1,)


def test_rho_equal_cases(fib):
    fib_block = adjacency_matrix(fib)
    assert rho_equal([[2]], 2.0, [[0, 2], [2, 0]], 2.0)
    assert rho_equal([[2]], 2.0, [[0, 1], [4, 0]], 2.0)
    assert rho_equal([[0, 3], [2, 0]], math.sqrt(6), [[0, 6], [1, 0]], math.sqrt(6))
    assert not rho_equal([[2]], 2.0, fib_block, PHI)
    assert not rho_equal(
        [[0, 1], [2, 0]], math.sqrt(2), [[0, 1], [3, 0]], math.sqrt(3)
    )
    assert rho_equal(fib_block, PHI, fib_block, PHI)
