"""Finite-space construction of probing functions (FFSM and FSSM).

Both schemes pick a trial space of Fourier modes e^{in theta}/sqrt(2 pi) on
the aperture and differ in the testing space: FFSM tests against the same
Fourier modes on the full circle, FSSM against far-field Green functions of
a source lattice.  The FFSM right-hand side B_q(y) is the q-th Fourier
coefficient of G_inf(y, .), so the FSSM matrix is the FFSM one in the source
basis: conj(B_ffsm(y)) times a Gram block of the same arc-mode table.  Both
right-hand sides are full-circle inner products, evaluated by the trapezoid
rule of numerics.circle_angles over plane waves.  The resulting linear
system A F(z) ~ B(z) is solved with Tikhonov regularization, factored once
and back-substituted for every sampling point.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .dsm import IndexField, ProbingSet, averaged_index
from .errors import NumericalError, ValidationError
from .numerics import circle_angles, circle_modes, directions, fourier_modes, plane_waves, reach
from .scene import ApertureSet, Box, FarFieldData, SamplingGrid


@dataclass(frozen=True)
class SourceTestingSpace:
    """Far-field Green functions of a lattice of source points."""

    points: np.ndarray  # (n_sources, 2)
    wavenumber: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "points", p)


def source_lattice(domain: Box, per_side: int, k: float) -> SourceTestingSpace:
    """Equispaced per_side x per_side cell-center lattice over the domain."""
    grid = SamplingGrid(domain, per_side)
    return SourceTestingSpace(points=grid.points, wavenumber=k)


def _mode_gram(aperture: ApertureSet, rows: int, order: int) -> np.ndarray:
    """G_qm = (1/2pi) <e^{imt}, e^{iqt}>_Gamma = I[m - q]/pi for q = -rows..rows, m = -order..order.

    I[d] = sum_l e^{i d beta_l} * (alpha_l if d == 0 else sin(alpha_l d)/d) is half the
    aperture integral of e^{i d t}; both Gram matrices gather from one table of it.
    """
    if order < 1:
        raise ValidationError("Fourier space order must be >= 1")
    d = np.arange(-(order + rows), order + rows + 1)
    table = np.zeros(d.shape, dtype=np.complex128)
    for arc in aperture.arcs:
        c = np.where(d == 0, arc.alpha, np.sin(arc.alpha * d) / np.where(d == 0, 1, d))
        table += np.exp(1j * d * arc.beta) * c
    table /= np.pi
    qs, ms = np.arange(2 * rows + 1), np.arange(2 * order + 1)
    return table[ms[None, :] - qs[:, None] + 2 * rows]


def ffsm_matrix(aperture: ApertureSet, order: int) -> np.ndarray:
    """Closed-form Gram matrix A_nm = (1/2pi) <e^{im t}, e^{in t}>_Gamma, the Toeplitz I[m - n]/pi."""
    return _mode_gram(aperture, order, order)


def _ffsm_rhs(points: np.ndarray, order: int, k: float) -> np.ndarray:
    """B_n(z) = <G_inf(z, .), e^{int}/sqrt(2pi)>_{S^1} by the trapezoid rule, shape (n_points, 2P+1)."""
    pts = np.asarray(points, dtype=float)
    t = circle_angles(k, reach(pts), order)
    pre = np.exp(1j * np.pi / 4.0) / (2.0 * np.sqrt(k) * t.size)
    return plane_waves(pts, directions(t), k) @ (pre * np.conj(circle_modes(order, t.size)).T)


def ffsm_rhs_field(points: np.ndarray, order: int, k: float) -> np.ndarray:
    """B_n(z) = i^{-n} e^{i pi/4}/(2 sqrt(k)) J_n(k|z|) e^{-i n theta_z}, shape (n_points, 2P+1).

    fssm_matrix evaluates the same rule at the sources through _ffsm_rhs, so
    every call of this function is the right-hand side of a sampling grid.
    """
    return _ffsm_rhs(points, order, k)


def fssm_matrix(aperture: ApertureSet, order: int, sources: SourceTestingSpace) -> np.ndarray:
    """A_nm = (1/sqrt(2pi)) <e^{im t}, G_inf(y_n, .)>_Gamma = sum_q conj(B_q(y_n)) G_qm.

    The FFSM right-hand side B_q(y) holds the Fourier coefficients of
    G_inf(y, .), so FSSM is FFSM in the source basis; coefficients beyond the
    rows of circle_angles at the sources' reach are below 1e-16.
    """
    k = sources.wavenumber
    rows = circle_angles(k, reach(sources.points)).size
    gram = _mode_gram(aperture, rows, order)
    return np.conj(_ffsm_rhs(sources.points, rows, k)) @ gram


def fssm_rhs_field(points: np.ndarray, sources: SourceTestingSpace) -> np.ndarray:
    """B_n(z) = <G_inf(z, .), G_inf(y_n, .)>_{S^1} = J_0(k |z - y_n|) / (4k), shape (n_points, n_sources)."""
    pts = np.asarray(points, dtype=float)
    k = sources.wavenumber
    t = circle_angles(k, reach(pts) + reach(sources.points))
    xhat = directions(t)
    return plane_waves(pts, xhat, k) @ (np.conj(plane_waves(sources.points, xhat, k)).T / (4.0 * k * t.size))


def tikhonov_solve(a: np.ndarray, sigma: float, rhs_field: np.ndarray) -> np.ndarray:
    """F(z) = (sigma I + A* A)^{-1} A* B(z), factored once for all z; shape (n_points, 2P+1)."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"regularization parameter must be finite and positive, got {sigma}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("framework matrix must be finite")
    normal = sigma * np.eye(a.shape[1]) + a.conj().T @ a
    try:
        cho = linalg.cho_factor(normal)
    except linalg.LinAlgError as e:
        raise NumericalError(
            f"Tikhonov factorization failed at sigma={sigma:.3e} "
            f"(cond(A*A) ~ {np.linalg.cond(a.conj().T @ a):.2e})"
        ) from e
    rhs = a.conj().T @ np.asarray(rhs_field, dtype=np.complex128).T  # (2P+1, n_points)
    return linalg.cho_solve(cho, rhs).T


def probing_from_coefficients(coefficients: np.ndarray, aperture: ApertureSet) -> ProbingSet:
    """G_Gamma(z, theta_q) = sum_n f_n(z) e^{i n theta_q} / sqrt(2 pi)."""
    order = (coefficients.shape[1] - 1) // 2
    basis = fourier_modes(order, aperture.receiver_angles()) / np.sqrt(2.0 * np.pi)  # (2P+1, Q)
    return ProbingSet(coefficients @ basis, aperture)


def finite_space_probings(
    method: str,
    aperture: ApertureSet,
    grid: SamplingGrid,
    order: int,
    sigmas: Sequence[float],
    k: float,
    sources: SourceTestingSpace | None = None,
) -> Iterator[ProbingSet]:
    """Yield the probing set on a grid for each sigma in turn.

    The matrix A and the right-hand side B(z) do not depend on sigma, so they
    are assembled once; each sigma costs one Tikhonov solve and one evaluation.
    """
    if method == "ffsm":
        a, rhs = ffsm_matrix(aperture, order), ffsm_rhs_field(grid.points, order, k)
    elif method == "fssm":
        if sources is None:
            raise ValidationError("FSSM needs a source testing space")
        a, rhs = fssm_matrix(aperture, order, sources), fssm_rhs_field(grid.points, sources)
    else:
        raise ValidationError(f"unknown finite-space method {method!r}")
    for sigma in sigmas:
        yield probing_from_coefficients(tikhonov_solve(a, sigma, rhs), aperture)


def reconstruct_finite_space(
    data: FarFieldData,
    method: str,
    order: int,
    sigmas: Sequence[float],
    grid: SamplingGrid,
    k: float,
    sources: SourceTestingSpace | None = None,
) -> list[IndexField]:
    """End-to-end Algorithm per sigma: probing construction, pairing, averaging, normalizing."""
    probings = finite_space_probings(method, data.aperture, grid, order, sigmas, k, sources)
    return [averaged_index(data, probing, grid) for probing in probings]
