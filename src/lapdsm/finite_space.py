"""Finite-space construction of probing functions (FFSM and FSSM).

Both schemes pick a trial space of Fourier modes e^{in theta}/sqrt(2 pi) on
the aperture and differ in the testing space: FFSM tests against the same
Fourier modes on the full circle, FSSM against far-field Green functions of
a source lattice.  The FFSM right-hand side B_q(y) is the q-th Fourier
coefficient of G_inf(y, .), so the FSSM matrix is the FFSM one in the source
basis: conj(B_ffsm(y)) times a Gram block of the same arc-mode table.  Both
right-hand sides are full-circle inner products by the trapezoid rule of
numerics.circle_angles, kept as B(z) = P(z) M: the plane waves P(z) at the
rule's T directions times a T x rows matrix M.  The Tikhonov SVD filter of
A F(z) ~ B(z) acts on M once per sigma, so every probe is P(z) K_sigma.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .dsm import IndexField, ProbingSet, averaged_index
from .errors import NumericalError, ValidationError
from .numerics import circle_angles, circle_modes, directions, fourier_modes, grid_plane_waves, plane_waves, reach
from .scene import ApertureSet, Box, FarFieldData, SamplingGrid


def source_lattice(domain: Box, per_side: int) -> np.ndarray:
    """Equispaced per_side x per_side cell-center lattice over the domain, shape (n_sources, 2)."""
    return SamplingGrid(domain, per_side).points


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


def _ffsm_rhs(points: np.ndarray, order: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """B_n(z) = <G_inf(z, .), e^{int}/sqrt(2pi)>_{S^1} by the trapezoid rule, as (xhat, M): M is (T, 2P+1)."""
    t = circle_angles(k, reach(points), order)
    pre = np.exp(1j * np.pi / 4.0) / (2.0 * np.sqrt(k) * t.size)
    return directions(t), pre * np.conj(circle_modes(order, t.size)).T


def ffsm_rhs_field(points: np.ndarray, order: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, M) of B = plane_waves(z, xhat, k) @ M, B_n(z) = i^{-n} e^{i pi/4} J_n(k|z|) e^{-in theta_z} / 2 sqrt(k).

    fssm_matrix evaluates the same rule at the sources through _ffsm_rhs, so
    every call of this function is the right-hand side of a sampling grid.
    """
    return _ffsm_rhs(points, order, k)


def fssm_matrix(aperture: ApertureSet, order: int, sources: np.ndarray, k: float) -> np.ndarray:
    """A_nm = (1/sqrt(2pi)) <e^{im t}, G_inf(y_n, .)>_Gamma = sum_q conj(B_q(y_n)) G_qm.

    The FFSM right-hand side B_q(y) holds the Fourier coefficients of
    G_inf(y, .), so FSSM is FFSM in the source basis; coefficients beyond the
    rows of circle_angles at the sources' reach are below 1e-16.
    """
    rows = circle_angles(k, reach(sources)).size
    gram = _mode_gram(aperture, rows, order)
    xhat, m = _ffsm_rhs(sources, rows, k)
    return np.conj(plane_waves(sources, xhat, k) @ m) @ gram


def fssm_rhs_field(points: np.ndarray, sources: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, M) of B = plane_waves(z, xhat, k) @ M, B_n(z) = <G_inf(z,.), G_inf(y_n,.)>_{S^1} = J_0(k|z - y_n|)/4k."""
    t = circle_angles(k, reach(points) + reach(sources))
    xhat = directions(t)
    return xhat, np.conj(plane_waves(sources, xhat, k)).T / (4.0 * k * t.size)


def tikhonov_solve(a: np.ndarray, sigma: float, rhs_field: np.ndarray) -> np.ndarray:
    """F(z) = (sigma I + A* A)^{-1} A* B(z) for every row B(z) of rhs_field at once; shape (rows, 2P+1).

    With A = U S V* it is V diag(s / (s^2 + sigma)) U* B(z), the Tikhonov filter
    factors (Hansen 1998): A is decomposed rather than A* A, whose condition
    number is the square of A's, and s^2 + sigma > 0 leaves no breakdown.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"regularization parameter must be finite and positive, got {sigma}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("framework matrix must be finite")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover - LAPACK's SVD converges on finite input
        raise NumericalError(f"Tikhonov SVD failed at sigma={sigma:.3e}: {e}") from e
    rhs = np.asarray(rhs_field, dtype=np.complex128)  # (rows, rows of A)
    return ((rhs @ u.conj()) * (s / (s * s + sigma))) @ vh.conj()


def probing_from_coefficients(kernel: np.ndarray, aperture: ApertureSet, waves: np.ndarray) -> ProbingSet:
    """G_Gamma(z, theta_q) = sum_n f_n(z) e^{i n theta_q} / sqrt(2 pi), f(z) = P(z) K: waves P, kernel K (T, 2P+1)."""
    order = (kernel.shape[1] - 1) // 2
    basis = fourier_modes(order, aperture.receiver_angles()) / np.sqrt(2.0 * np.pi)  # (2P+1, Q)
    return ProbingSet(waves @ (kernel @ basis), aperture)


def finite_space_probings(
    method: str,
    aperture: ApertureSet,
    grid: SamplingGrid,
    order: int,
    sigmas: Sequence[float],
    k: float,
    sources: np.ndarray | None = None,
) -> Iterator[ProbingSet]:
    """Yield the probing set on a grid for each sigma in turn.

    A, M and the grid's plane waves P do not depend on sigma, so they are
    built once; each sigma costs one Tikhonov solve on M and one evaluation.
    """
    if method == "ffsm":
        a, (xhat, m) = ffsm_matrix(aperture, order), ffsm_rhs_field(grid.points, order, k)
    elif method == "fssm":
        if sources is None:
            raise ValidationError("FSSM needs a source lattice")
        a, (xhat, m) = fssm_matrix(aperture, order, sources, k), fssm_rhs_field(grid.points, sources, k)
    else:
        raise ValidationError(f"unknown finite-space method {method!r}")
    waves = grid_plane_waves(grid, xhat, k, product=True)
    for sigma in sigmas:
        yield probing_from_coefficients(tikhonov_solve(a, sigma, m), aperture, waves)


def reconstruct_finite_space(
    data: FarFieldData,
    method: str,
    order: int,
    sigmas: Sequence[float],
    grid: SamplingGrid,
    k: float,
    sources: np.ndarray | None = None,
) -> list[IndexField]:
    """End-to-end Algorithm per sigma: probing construction, pairing, averaging, normalizing."""
    probings = finite_space_probings(method, data.aperture, grid, order, sigmas, k, sources)
    return [averaged_index(data, probing, grid) for probing in probings]
