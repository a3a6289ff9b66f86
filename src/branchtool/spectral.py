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
    ``sum(v) = 1`` and ``v @ w = 1``.  ``lower <= rho <= upper`` is a
    Collatz-Wielandt bracket, rounded outward, that contains the exact Perron
    root of a block whose entries are below 2**53 (so that binary64 holds
    them exactly).  For a trivial acyclic singleton block ``rho = 0`` and the vectors
    are empty; a 1x1 block is its own exact root.  ``iterations`` counts the
    linear solves; ``residual`` is the infinity-norm of ``v @ B - rho * v``.
    """

    rho: float
    v: tuple[float, ...]
    w: tuple[float, ...]
    normalized: bool
    iterations: int
    residual: float
    lower: float
    upper: float


# Unit roundoff and smallest normal number of IEEE binary64.
_UNIT = 2.0**-53
_TINY = float(np.finfo(float).tiny)
# Noda steps whose bracket is no narrower than the best so far before the
# tolerance is declared out of reach.
_STALL_STEPS = 3


def _strongly_connected(b: np.ndarray) -> bool:
    """Whether the non-zero pattern of ``b`` is strongly connected: every
    node reaches node 0 and is reached from it."""
    n = b.shape[0]
    for pattern in (b, b.T):
        succ = [np.flatnonzero(row) for row in pattern]
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            for t in succ[stack.pop()]:
                if not seen[t]:
                    seen[t] = True
                    stack.append(t)
        if not seen.all():
            return False
    return True


def _collatz_wielandt(x: np.ndarray, m: np.ndarray, terms: int) -> tuple[float, float]:
    """``[min (x m)_i / x_i, max (x m)_i / x_i]``, computed in floats and
    widened so that it contains the ratios of the exact product.

    Every ``(x m)_i`` is a sum of at most ``terms`` non-negative products of
    normal floats and integers, so its float value is within
    ``gamma(terms) = terms * u / (1 - terms * u)`` of the exact one; the
    division adds one rounding.  The widening covers both, and the rounding
    of the widening itself.
    """
    ratios = (x @ m) / x
    slack = 3.0 * (terms + 3) * _UNIT
    lower = float(np.nextafter(float(ratios.min()) * (1.0 - slack), 0.0))
    upper = float(np.nextafter(float(ratios.max()) * (1.0 + slack), math.inf))
    return lower, upper


def _noda(m: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float, float, int]:
    """Noda iteration for the left Perron vector of ``m`` (``x m = rho x``):
    the vector, normalized to sum 1, its certified bracket and the number of
    linear solves."""
    n = m.shape[0]
    terms = int((m != 0.0).sum(axis=0).max())
    shifted = -m.T
    x = np.full(n, 1.0 / n)
    best = math.inf
    since_best = 0
    for solves in range(max_iter + 1):
        lower, upper = _collatz_wielandt(x, m, terms)
        width = upper - lower
        if width <= tol * upper:
            return x, lower, upper, solves
        if width < best:
            best, since_best = width, 0
        else:
            since_best += 1
            if since_best >= _STALL_STEPS:
                break
        # Solve z (sigma I - m) = x with sigma = upper > rho.
        z = np.linalg.solve(shifted + upper * np.eye(n), x)
        x = z / z.sum()
        if not float(x.min()) >= _TINY:
            raise NumericalError("Perron iterate lost positivity")
    raise NumericalError(
        f"Perron bracket stalled at relative width {width / upper:.3g}, "
        f"above the tolerance {tol}"
    )


def perron(block: Block, tol: float = 1e-12, max_iter: int = 200) -> PerronData:
    """Perron eigenvalue and eigenvectors of one SCC adjacency block.

    Noda iteration (Numer. Math. 17, 1971): from a positive vector ``x``,
    the shift ``sigma`` is the upper Collatz-Wielandt bound
    ``max (x B)_i / x_i``, which is at least the Perron root, and the next
    iterate solves ``z (sigma I - B) = x``.  For irreducible ``B`` the
    inverse ``(sigma I - B)^-1`` is positive, so every iterate stays
    positive, and the bracket ``[min (x B)_i / x_i, max (x B)_i / x_i]``
    closes quadratically (Elsner 1976), for periodic blocks too.  The left
    and right vectors each iterate until their own bracket has relative
    width ``tol``; the reported bracket is the intersection of the two.

    Raises :class:`NumericalError` when the block is not irreducible, when
    an iterate loses positivity, and when the bracket stops narrowing before
    it reaches ``tol`` (or after ``max_iter`` solves per vector).
    """
    n = len(block)
    if n == 0:
        raise ValueError("empty block")
    if any(len(row) != n for row in block):
        raise ValueError("block must be square")
    if n == 1:
        m = float(block[0][0])
        if m == 0.0:
            return PerronData(0.0, (), (), True, 0, 0.0, 0.0, 0.0)
        return PerronData(m, (1.0,), (1.0,), True, 0, 0.0, m, m)
    b = np.array(block, dtype=float)
    if not _strongly_connected(b):
        raise NumericalError("block is not irreducible")
    v, lower_v, upper_v, solves_v = _noda(b, tol, max_iter)
    w, lower_w, upper_w, solves_w = _noda(b.T, tol, max_iter)
    lower, upper = max(lower_v, lower_w), min(upper_v, upper_w)
    # Two-sided Rayleigh quotient, kept inside the certified bracket.
    rho = min(max(float(v @ b @ w) / float(v @ w), lower), upper)
    w = w / float(v @ w)
    residual = float(np.max(np.abs(v @ b - rho * v)))
    return PerronData(
        rho=rho,
        v=tuple(float(x) for x in v),
        w=tuple(float(x) for x in w),
        normalized=True,
        iterations=solves_v + solves_w,
        residual=residual,
        lower=lower,
        upper=upper,
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
    iteration.  Eigenvalues are sorted by modulus, largest first, with
    moduli that agree to a relative 1e-9 counted as equal, then by argument
    in ``[0, 2*pi)``: the peripheral ones come first, led by the Perron root,
    whatever the rounding noise in the roots.
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
    return SpectrumEstimate(eigenvalues=_spectral_order(roots), char_coefficients=coeffs)


def _argument(z: complex) -> float:
    """The argument of ``z`` in ``[0, 2*pi)``; within 1e-9 below ``2*pi`` it
    is noise around the positive real axis and counts as 0."""
    angle = cmath.phase(z) % (2.0 * math.pi)
    return 0.0 if angle >= 2.0 * math.pi - 1e-9 else angle


def _spectral_order(roots: Sequence[complex]) -> tuple[complex, ...]:
    """``roots`` in groups of equal modulus (relative 1e-9), largest first,
    each group in order of argument."""
    ordered: list[complex] = []
    group: list[complex] = []
    for z in sorted(roots, key=abs, reverse=True):
        if group and abs(group[0]) - abs(z) > 1e-9 * abs(group[0]):
            ordered.extend(sorted(group, key=_argument))
            group = []
        group.append(z)
    ordered.extend(sorted(group, key=_argument))
    return tuple(ordered)


def cesaro_average(block: Block, pd: PerronData, k: int) -> np.ndarray:
    """``(1/k) * sum_{ell=0..k} rho**(-ell) B**ell`` as a float matrix.

    Converges (at rate O(1/k)) to the spectral projector ``outer(w, v)``
    regardless of the block's period.  The sum is built by binary doubling:
    with ``P = B / rho`` and ``S_m = sum_{ell<m} P**ell``, ``S_{2m} = S_m +
    P**m S_m`` and ``S_{m+1} = S_m + P**m``, so about ``2 log2(k)`` matrix
    products replace ``k``.
    """
    if pd.rho <= 0.0:
        raise ValueError("Cesaro average requires a positive Perron eigenvalue")
    if k < 1:
        raise ValueError("k must be at least 1")
    p = np.array(block, dtype=float) / pd.rho
    n = p.shape[0]
    total = np.eye(n)  # S_m, from m = 1
    power = p  # P**m
    # The bits of k + 1, the number of terms, after the leading one.
    for bit in bin(k + 1)[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ p
    return total / k


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
