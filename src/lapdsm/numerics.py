"""Plane waves, Fourier modes and the quadrature rules used throughout the package.

Every probe in the package is built from two arrays: the plane wave
e^{-ik xhat . z} and the Fourier modes e^{in theta} on the aperture.  Both,
and the far-field Green amplitude that turns a plane wave into G_inf, are
evaluated here and nowhere else in the package.  The receiver quadrature
is a per-arc uniform-weight Riemann sum, the same discrete rule the training
loss uses, so that reconstruction and learning agree on the meaning of an
inner product on the aperture.  Inner products over the full circle S^1 use
the trapezoid rule of circle_angles, which replaces every Bessel closed form
outside the forward solver.  On a sampling grid the plane wave splits into
one factor per axis, and grid_band_waves multiplies it out for one band of
whole grid rows at a time, so a finite-space probe is filled in its one
n * n x Q buffer and the network probe is never built for the whole grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# grid rows per band of grid_bands: 2,048 points at grid 128
GRID_BLOCK_ROWS = 16


def directions(angles) -> np.ndarray:
    """Unit vectors xhat(theta) = (cos theta, sin theta), shape (n_angles, 2)."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def plane_waves(points, xhat, k: float) -> np.ndarray:
    """e^{-ik xhat . p} for points p (..., 2) and unit directions xhat (Q, 2), shape (..., Q).

    The one plane-wave evaluation of the package: probes, far-field Green
    functions and radiation sums use it as is, and an incident wave
    e^{ik d . x} is the plane wave of direction -d.  It fills one complex
    array with cos - i sin of the real phase k (p . xhat), which is ~10x
    cheaper than exp of an imaginary array and needs no complex temporaries.
    """
    phase = np.asarray(points, dtype=float) @ np.asarray(xhat, dtype=float).T
    phase *= k
    waves = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=waves.real)
    # 0 - sin, not -sin: a zero phase keeps the +0 imaginary part that cos - 1j * sin gives
    np.subtract(0.0, np.sin(phase, out=phase), out=waves.imag)
    return waves


def grid_plane_waves(grid, xhat, k: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{-ik xhat . z} = e^{-ik x cos t} e^{-ik y sin t} on a grid: the factors ex, ey, each (n, Q)."""
    xhat = np.asarray(xhat, dtype=float)
    return plane_waves(grid.xs[:, None], xhat[:, :1], k), plane_waves(grid.ys[:, None], xhat[:, 1:], k)


def grid_bands(resolution: int) -> list[slice]:
    """Bands of GRID_BLOCK_ROWS whole grid rows, as slices of the row-major grid points.

    The last band takes the remainder, so none is shorter than that or the
    whole grid: BLAS rounds a product of a few rows by other kernels than one
    of many (OpenBLAS's small-matrix and thread-split paths), and at this
    length a band's products keep the bits of the whole-grid product.  A
    matrix-vector product may still split a band at other rows than the whole
    grid, which moves a few of its entries by an ulp.
    """
    n = resolution
    edges = [*range(0, max(n // GRID_BLOCK_ROWS, 1) * GRID_BLOCK_ROWS, GRID_BLOCK_ROWS), n]
    return [slice(start * n, stop * n) for start, stop in zip(edges[:-1], edges[1:])]


def grid_band_waves(grid, xhat, k: float) -> Callable[[slice], np.ndarray]:
    """The plane waves ey x ex of one band of grid_bands, as a function of the band's slice of grid.points.

    Each call returns shape (band points, Q): plane_waves of those points to
    rounding.  Only the axis factors are held between calls, so a grid probe
    is built band by band and no array of the whole grid's waves exists.
    """
    ex, ey = grid_plane_waves(grid, xhat, k)
    n = grid.resolution

    def waves(rows: slice) -> np.ndarray:
        band = ey[rows.start // n : rows.stop // n]
        return (band[:, None, :] * ex[None, :, :]).reshape(-1, ex.shape[1])

    return waves


def green_far_prefactor(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 k pi), the 2-D far-field Green amplitude: G_inf(z, xhat) is it times e^{-ik xhat . z}."""
    return np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * k * np.pi)


def fourier_modes(order: int, angles) -> np.ndarray:
    """e^{in theta} for n = -order..order, shape (2*order+1, n_angles), as cos + i sin."""
    phase = np.outer(np.arange(-order, order + 1), angles)
    return np.cos(phase) + 1j * np.sin(phase)


def reach(points) -> float:
    """Largest distance of the points (..., 2) from the origin, 0 for no points."""
    p = np.asarray(points, dtype=float)
    return float(np.max(np.hypot(p[..., 0], p[..., 1]), initial=0.0))


def circle_angles(k: float, reach: float, order: int = 0) -> np.ndarray:
    """T equispaced angles 2 pi t / T, the trapezoid rule for full-circle inner products.

    T is order plus the first nu with (k reach / 2)^nu / nu! < 1e-16, a bound on
    |J_nu(k reach)| (DLMF 10.14.4).  The Fourier coefficients of a plane wave of
    a point within reach are J_nu (Jacobi-Anger), so against modes up to order
    every aliased term of the rule is below 1e-16.
    """
    half = 0.5 * k * reach
    if not math.isfinite(half):
        raise ValidationError(f"circle rule needs a finite k * reach, got {k} * {reach}")
    nu = 1  # compared in logs: the bound itself overflows for large k reach
    while half > 0.0 and nu * math.log(half) - math.lgamma(nu + 1) >= math.log(1e-16):
        nu += 1
    t = order + nu
    return 2.0 * np.pi * np.arange(t) / t


def circle_modes(order: int, size: int) -> np.ndarray:
    """e^{in t} for n = -order..order at the size angles of circle_angles, shape (2*order+1, size).

    The phase is reduced to 2 pi (n j mod size) / size in integers first, so
    it stays below 2 pi: at the float angles fourier_modes loses |n t| ulps
    of phase, which the cancelling circle sums would carry into their
    smallest entries.
    """
    phase = np.outer(np.arange(-order, order + 1), np.arange(size)) % size * (2.0 * np.pi / size)
    return np.cos(phase) + 1j * np.sin(phase)


def arc_quadrature(values, aperture) -> complex:
    """Riemann sum of receiver samples against the aperture's arc weights.

    Weight of each receiver is (arc length) / (receivers on that arc), so a
    constant 1 integrates to the measure of the aperture.
    """
    values = np.asarray(values)
    w = aperture.quadrature_weights()
    if values.shape[-1] != w.shape[0]:
        raise ValidationError(
            f"value count {values.shape[-1]} does not match receiver count {w.shape[0]}"
        )
    return values @ w


def arc_norm(values, aperture) -> np.ndarray:
    """Discrete L2(Gamma) norm of receiver samples, row by row over the last axis, shape values.shape[:-1]."""
    squares = np.abs(values)
    np.square(squares, out=squares)  # in place: no second array of the values' size
    return np.sqrt(np.real(arc_quadrature(squares, aperture)))


@lru_cache(maxsize=16)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only and cached per count.

    Newton's method on P_n, evaluated by the three-term recurrence, from
    Tricomi's asymptotic guesses (cf. Hale & Townsend 2013) converges in about
    three steps, so the rule costs O(n^2) where a companion-matrix eigensolve
    costs O(n^3).  The nodes are symmetric, so only those in [0, 1) are solved for.
    """
    n = points
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-14:  # quadratic convergence: the next step is rounding
            break
    odd = n % 2
    if odd:
        x[-1] = 0.0
    w = 2.0 / ((1.0 - x * x) * _legendre(n, x)[1] ** 2)
    x = np.concatenate([-x, x[::-1][odd:]])
    w = np.concatenate([w, w[::-1][odd:]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    p_below, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_below, p = p, ((2 * k + 1) * x * p - k * p_below) / (k + 1)
    return p, n * (x * p - p_below) / (x * x - 1.0)


def gauss_arc_nodes(aperture, points_per_arc: int):
    """Gauss-Legendre nodes/weights over every arc, for analysis-grade integrals.

    Returns (angles, weights) concatenated over arcs.  Used by the kernel
    diagnostics and by test oracles; measurement-data pairings stick to the
    receiver Riemann rule above.
    """
    x, w = _leggauss(points_per_arc)
    angles, weights = [], []
    for arc in aperture.arcs:
        half = arc.alpha
        angles.append(arc.beta + half * x)
        weights.append(half * w)
    return np.concatenate(angles), np.concatenate(weights)
