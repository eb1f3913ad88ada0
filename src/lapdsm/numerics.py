"""Plane waves, Fourier modes and the quadrature rules used throughout the package.

Every probe in the package is built from two arrays: the plane wave
e^{-ik xhat . z} and the Fourier modes e^{in theta} on the aperture.  Both
are evaluated here and nowhere else in the package.  The receiver quadrature
is a per-arc uniform-weight Riemann sum, the same discrete rule the training
loss uses, so that reconstruction and learning agree on the meaning of an
inner product on the aperture.  Inner products over the full circle S^1 use
the trapezoid rule of circle_angles, which replaces every Bessel closed form
outside the forward solver.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError


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
    return np.sqrt(np.real(arc_quadrature(np.abs(values) ** 2, aperture)))


@lru_cache(maxsize=16)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached per count."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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
