"""Perron eigendata, exact characteristic polynomials, small-block spectra,
Cesaro averages, and the polynomial family behind polynomial-times-power
growth laws."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

import numpy as np

Block = Sequence[Sequence[int]]


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


@dataclass(frozen=True)
class PerronData:
    """Perron eigendata of one irreducible block.

    ``rho`` is the Perron eigenvalue; ``v`` (left, row) and ``w`` (right,
    column) are the strictly positive eigenvectors normalized so that
    ``sum(v) = 1`` and ``v @ w = 1``.  For a trivial acyclic singleton block
    ``rho = 0`` and the vectors are empty.  ``residual`` is the final
    infinity-norm of ``v @ B - rho * v``.
    """

    rho: float
    v: tuple[float, ...]
    w: tuple[float, ...]
    normalized: bool
    iterations: int
    residual: float


def _power_iterate(m: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float, int]:
    """Left power iteration on a non-negative matrix; returns (vector, eigenvalue
    estimate, iterations)."""
    n = m.shape[0]
    x = np.full(n, 1.0 / n)
    y = x @ m
    for iteration in range(1, max_iter + 1):
        lam = float(y.sum())
        if lam <= 0.0:
            raise NumericalError("power iteration collapsed to zero")
        x = y / lam
        # The product for the residual is also the next step's iterate.
        y = x @ m
        residual = float(np.max(np.abs(y - lam * x)))
        if residual <= tol * lam:
            return x, lam, iteration
    raise NumericalError(
        f"power iteration did not reach tolerance {tol} in {max_iter} steps "
        "(was the block really irreducible?)"
    )


def perron(
    block: Block,
    irreducible: bool = True,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> PerronData:
    """Perron eigenvalue and eigenvectors of one SCC adjacency block.

    The iteration runs on ``B + I``: the shift makes the block primitive, so
    the power method converges even for periodic blocks, and ``rho(B) =
    rho(B + I) - 1`` because the shift moves every eigenvalue by one.
    """
    n = len(block)
    if n == 0:
        raise ValueError("empty block")
    if any(len(row) != n for row in block):
        raise ValueError("block must be square")
    if n == 1:
        m = int(block[0][0])
        if m == 0:
            return PerronData(0.0, (), (), True, 0, 0.0)
        return PerronData(float(m), (1.0,), (1.0,), True, 0, 0.0)
    if not irreducible:
        raise ValueError("a non-irreducible block must be a trivial singleton")
    b = np.array(block, dtype=float)
    shifted = b + np.eye(n)
    v, _, iter_left = _power_iterate(shifted, tol, max_iter)
    w, _, iter_right = _power_iterate(shifted.T, tol, max_iter)
    # Two-sided Rayleigh quotient: with both vectors converged to residual r,
    # the eigenvalue estimate error is O(r**2), i.e. float-precision here.
    lam = float(v @ shifted @ w) / float(v @ w)
    rho = lam - 1.0
    if float(v.min()) <= 0.0 or float(w.min()) <= 0.0:
        raise NumericalError("eigenvector has non-positive entries; block not irreducible")
    v = v / v.sum()
    w = w / float(v @ w)
    residual = float(np.max(np.abs(v @ b - rho * v)))
    return PerronData(
        rho=rho,
        v=tuple(float(x) for x in v),
        w=tuple(float(x) for x in w),
        normalized=True,
        iterations=iter_left + iter_right,
        residual=residual,
    )


def char_poly(block: Block) -> tuple[int, ...]:
    """Exact integer characteristic polynomial det(lam*I - B).

    Faddeev-LeVerrier recurrence in arbitrary-precision integers; all
    divisions are exact.  Coefficients are returned in ascending order of
    powers (the leading coefficient, 1, is last).
    """
    n = len(block)
    a = [[int(x) for x in row] for row in block]
    if any(len(row) != n for row in a):
        raise ValueError("block must be square")
    coeffs = [1]  # descending: coefficient of lam^(n-k) at position k
    m = [[0] * n for _ in range(n)]
    c_prev = 1
    for k in range(1, n + 1):
        step = [row[:] for row in m]
        for i in range(n):
            step[i][i] += c_prev
        m = [
            [sum(a[i][t] * step[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(m[i][i] for i in range(n))
        quotient, remainder = divmod(-trace, k)
        assert remainder == 0, "Faddeev-LeVerrier division must be exact"
        c_prev = quotient
        coeffs.append(c_prev)
    return tuple(reversed(coeffs))


def _eval_poly(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _durand_kerner(
    coeffs: Sequence[float], seed: int, tol: float = 1e-13, max_iter: int = 5000
) -> tuple[complex, ...]:
    """All roots of a monic polynomial by simultaneous iteration.

    Stagnation triggers a small random perturbation of the current root set
    (seeded, so runs are reproducible); persistent failure raises
    :class:`NumericalError`.
    """
    degree = len(coeffs) - 1
    if degree <= 0:
        return ()
    if degree == 1:
        # Adding 0.0 turns the root -0.0 of the factor ``lam`` into 0.0.
        return (complex(-coeffs[0]) + 0.0,)
    rng = random.Random(seed)
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [
        radius * cmath.exp(1j * (0.7 + 2.0 * math.pi * k / degree))
        for k in range(degree)
    ]
    best = math.inf
    since_best = 0
    for _ in range(max_iter):
        shift = 0.0
        for i in range(degree):
            zi = roots[i]
            denom = 1.0 + 0j
            for j in range(degree):
                if j != i:
                    denom *= zi - roots[j]
            if denom == 0:
                roots[i] = zi + (1e-8 + 1e-8j)
                shift = math.inf
                continue
            delta = _eval_poly(coeffs, zi) / denom
            roots[i] = zi - delta
            shift = max(shift, abs(delta))
        scale = max(1.0, max(abs(z) for z in roots))
        if shift <= tol * scale:
            return tuple(roots)
        if shift < best * 0.999:
            best = shift
            since_best = 0
        else:
            since_best += 1
            if since_best >= 120:
                # Stuck cluster: nudge every root and restart the descent.
                roots = [
                    z
                    * (
                        1.0
                        + 1e-6 * (rng.random() - 0.5)
                        + 1e-6j * (rng.random() - 0.5)
                    )
                    + 1e-9 * (rng.random() - 0.5)
                    for z in roots
                ]
                best = math.inf
                since_best = 0
    raise NumericalError("root iteration did not converge")


@dataclass(frozen=True)
class SpectrumEstimate:
    """All complex eigenvalues of a small block, with multiplicity."""

    eigenvalues: tuple[complex, ...]
    char_coefficients: tuple[int, ...]
    method: str = "char-poly-roots"


def spectrum_small(block: Block, seed: int = 0, max_size: int = 16) -> SpectrumEstimate:
    """Eigenvalues of a block of size <= ``max_size``.

    The exact integer characteristic polynomial is computed first and split
    into square-free factors; their roots are then found by simultaneous
    iteration.  Eigenvalues are sorted by
    (-modulus, phase) so the peripheral ones come first, deterministically.
    """
    n = len(block)
    if n > max_size:
        raise ValueError(f"block size {n} exceeds the supported bound {max_size}")
    coeffs = char_poly(block)
    # Simultaneous iteration stalls on a repeated root, so it runs on the
    # square-free factors and each root is repeated by its multiplicity.
    roots: list[complex] = []
    for factor, multiplicity in square_free_factors(coeffs):
        roots.extend(_durand_kerner([float(c) for c in factor], seed=seed) * multiplicity)
    ordered = tuple(sorted(roots, key=lambda z: (-abs(z), cmath.phase(z), z.real)))
    return SpectrumEstimate(eigenvalues=ordered, char_coefficients=coeffs)


def cesaro_average(block: Block, pd: PerronData, k: int) -> np.ndarray:
    """``(1/k) * sum_{ell=0..k} rho**(-ell) B**ell`` as a float matrix.

    Converges (at rate O(1/k)) to the spectral projector ``outer(w, v)``
    regardless of the block's period.
    """
    if pd.rho <= 0.0:
        raise ValueError("Cesaro average requires a positive Perron eigenvalue")
    if k < 1:
        raise ValueError("k must be at least 1")
    b = np.array(block, dtype=float)
    n = b.shape[0]
    term = np.eye(n)
    acc = np.eye(n)
    for _ in range(k):
        term = term @ b / pd.rho
        acc += term
    return acc / k


def perron_projection(pd: PerronData) -> np.ndarray:
    """The Cesaro limit ``outer(w, v)``: entry (i, j) equals ``w[i] * v[j]``."""
    if not pd.v:
        raise ValueError("trivial block has no Perron projection")
    return np.outer(np.array(pd.w), np.array(pd.v))


@dataclass(frozen=True)
class GdPolynomial:
    """Numerator polynomial of ``sum_ell ell**d z**ell = G_d(z)/(1-z)**(d+1)``.

    Coefficients are exact integers in ascending order; ``G_d(1) = d!``.
    """

    d: int
    coefficients: tuple[int, ...]

    def eval(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def series_value(self, z: complex) -> complex:
        """Value of the full generating function ``G_d(z)/(1-z)**(d+1)``."""
        return self.eval(z) / (1.0 - z) ** (self.d + 1)


def gd_polynomial(d: int) -> GdPolynomial:
    """Exact ``G_d`` via the recurrence G_{d+1} = z(1-z)G_d' + (d+1) z G_d."""
    if not 0 <= d <= 20:
        raise ValueError("d must be between 0 and 20")
    coeffs = [1]
    for k in range(d):
        # Building G_{k+1}[j] = j*G_k[j] + (k+2-j)*G_k[j-1].
        nxt = [0] * (len(coeffs) + 1)
        for j in range(len(coeffs) + 1):
            if j < len(coeffs):
                nxt[j] += j * coeffs[j]
            if 0 <= j - 1 < len(coeffs):
                nxt[j] += (k + 2 - j) * coeffs[j - 1]
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        coeffs = nxt
    return GdPolynomial(d=d, coefficients=tuple(coeffs))


def _poly_mod(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = num[:]
    deg_d = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= deg_d and any(c != 0 for c in num):
        shift = len(num) - 1 - deg_d
        factor = num[-1] / lead
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    if not num:
        return [Fraction(0)]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _trimmed(coeffs: list[Fraction]) -> list[Fraction]:
    out = coeffs[:]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[Fraction, ...]:
    """Monic gcd of two integer polynomials over the rationals (exact)."""
    fa = _trimmed([Fraction(c) for c in a])
    fb = _trimmed([Fraction(c) for c in b])
    while not (len(fb) == 1 and fb[0] == 0):
        fa, fb = fb, _poly_mod(fa, fb)
    if len(fa) == 1 and fa[0] == 0:
        return (Fraction(0),)
    lead = fa[-1]
    return tuple(c / lead for c in fa)


def _derivative(p: Sequence[Fraction]) -> list[Fraction]:
    return _trimmed([k * c for k, c in enumerate(p)][1:] or [Fraction(0)])


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    return _trimmed([x - y for x, y in zip_longest(a, b, fillvalue=Fraction(0))])


def _poly_div_exact(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    """Quotient of ``num`` by a divisor ``den`` with a non-zero leading
    coefficient; the remainder must be zero."""
    rem = list(num)
    quotient = [Fraction(0)] * max(1, len(rem) - len(den) + 1)
    for shift in range(len(rem) - len(den), -1, -1):
        factor = rem[shift + len(den) - 1] / den[-1]
        quotient[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    assert not any(rem), "exact polynomial division left a remainder"
    return _trimmed(quotient)


def square_free_factors(coeffs: Sequence[int]) -> list[tuple[tuple[Fraction, ...], int]]:
    """Yun's square-free decomposition of a monic integer polynomial.

    Returns ``(f_k, k)`` pairs, coefficients ascending, with every ``f_k``
    monic, square-free and of positive degree, pairwise coprime, and
    ``p = prod f_k**k``.  Exact over the rationals.
    """
    p = _trimmed([Fraction(c) for c in coeffs])
    if p[-1] != 1:
        raise ValueError("polynomial must be monic")
    dp = _derivative(p)
    common = list(poly_gcd(p, dp))
    rest = _poly_div_exact(p, common)
    slope = _poly_sub(_poly_div_exact(dp, common), _derivative(rest))
    factors: list[tuple[tuple[Fraction, ...], int]] = []
    k = 1
    while len(rest) > 1:
        factor = list(poly_gcd(rest, slope))
        if len(factor) > 1:
            factors.append((tuple(factor), k))
        rest = _poly_div_exact(rest, factor)
        slope = _poly_sub(_poly_div_exact(slope, factor), _derivative(rest))
        k += 1
    return factors


def rho_close(rho_a: float, rho_b: float, rel_tol: float = 1e-9) -> bool:
    """The float screen of :func:`rho_equal`: ``rho_a`` and ``rho_b`` agree
    to ``rel_tol`` relative to ``max(1, |rho_a|, |rho_b|)``."""
    return abs(rho_a - rho_b) <= rel_tol * max(1.0, abs(rho_a), abs(rho_b))


def common_root_near(poly_a: Sequence[int], poly_b: Sequence[int], rho: float) -> bool:
    """The exact half of :func:`rho_equal`: the integer polynomials share a
    common factor (rational gcd) that vanishes at ``rho``."""
    common = poly_gcd(poly_a, poly_b)
    if len(common) < 2:
        return False
    value = 0.0
    for c in reversed(common):
        value = value * rho + float(c)
    scale = 0.0
    power = 1.0
    for c in common:
        scale += abs(float(c)) * power
        power *= max(1.0, rho)
    return abs(value) <= 1e-6 * max(1.0, scale)


def rho_equal(
    block_a: Block,
    rho_a: float,
    block_b: Block,
    rho_b: float,
    rel_tol: float = 1e-9,
) -> bool:
    """Decide whether two SCC blocks share their Perron eigenvalue.

    The float comparison at ``rel_tol`` is a necessary screen; equality is
    confirmed exactly by requiring the integer characteristic polynomials to
    share a common factor (rational gcd) with a root at the common value.
    """
    if not rho_close(rho_a, rho_b, rel_tol):
        return False
    return common_root_near(char_poly(block_a), char_poly(block_b), 0.5 * (rho_a + rho_b))
