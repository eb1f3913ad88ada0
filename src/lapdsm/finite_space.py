"""Finite-space construction of probing functions (FFSM and FSSM).

Both schemes pick a trial space of Fourier modes e^{in theta}/sqrt(2 pi) on
the aperture and differ in the testing space: FFSM tests against the same
Fourier modes on the full circle, FSSM against far-field Green functions of
a source lattice.  The resulting linear system A F(z) ~ B(z) is solved with
Tikhonov regularization, factored once and back-substituted for every
sampling point.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy import special as sp

from .dsm import IndexField, ProbingSet, averaged_index
from .errors import NumericalError, ValidationError
from .numerics import fourier_modes
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


def _arc_mode_table(aperture: ApertureSet, order: int, reach: int) -> np.ndarray:
    """I[d] = sum_l e^{i d beta_l} * (alpha_l if d == 0 else sin(alpha_l d)/d) at entry d + order + reach.

    I[d] is half the aperture integral of e^{i d t}; |d| <= order + reach covers every
    entry of both Gram matrices, so their shared order check sits here.
    """
    if order < 1:
        raise ValidationError("Fourier space order must be >= 1")
    d = np.arange(-(order + reach), order + reach + 1)
    table = np.zeros(d.shape, dtype=np.complex128)
    for arc in aperture.arcs:
        c = np.where(d == 0, arc.alpha, np.sin(arc.alpha * d) / np.where(d == 0, 1, d))
        table += np.exp(1j * d * arc.beta) * c
    return table


def ffsm_matrix(aperture: ApertureSet, order: int) -> np.ndarray:
    """Closed-form Gram matrix A_nm = (1/2pi) <e^{im t}, e^{in t}>_Gamma, the Toeplitz I[m - n]/pi."""
    table = _arc_mode_table(aperture, order, order) / np.pi
    ns = np.arange(2 * order + 1)
    return table[ns[None, :] - ns[:, None] + 2 * order]


def ffsm_rhs_field(points: np.ndarray, order: int, k: float) -> np.ndarray:
    """B_n(z) = i^{-n} e^{i pi/4}/(2 sqrt(k)) J_n(k|z|) e^{-i n theta_z}, shape (n_points, 2P+1)."""
    p = order
    pts = np.asarray(points, dtype=float)
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    theta[r == 0.0] = 0.0
    ns = np.arange(-p, p + 1)
    jn = sp.jv(np.arange(p + 1)[None, :], (k * r)[:, None])[:, np.abs(ns)]
    sign = np.where((ns < 0) & (np.abs(ns) % 2 == 1), -1.0, 1.0)
    pre = (1j) ** (-ns) * np.exp(1j * np.pi / 4.0) / (2.0 * np.sqrt(k))
    return pre[None, :] * sign[None, :] * jn * np.conj(fourier_modes(p, theta)).T


def default_fssm_truncation(k: float, sources: SourceTestingSpace) -> int:
    rmax = float(np.max(np.hypot(sources.points[:, 0], sources.points[:, 1])))
    return int(np.ceil(k * max(rmax, 1.0))) + 30


def fssm_matrix(
    aperture: ApertureSet,
    order: int,
    sources: SourceTestingSpace,
    truncation: int | None = None,
) -> np.ndarray:
    """Jacobi-Anger series for A_nm = (1/sqrt(2pi)) <e^{im t}, G_inf(y_n, .)>_Gamma."""
    k = sources.wavenumber
    pts = sources.points
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    theta[r == 0.0] = 0.0
    if truncation is None:
        truncation = default_fssm_truncation(k, sources)
    table = _arc_mode_table(aperture, order, truncation)
    tail = np.abs(sp.jv(truncation, k * r.max())) if r.max() > 0 else 0.0
    if tail >= 1e-14:
        raise ValidationError(
            f"series truncation {truncation} insufficient: tail term {tail:.2e} >= 1e-14"
        )
    a = np.zeros((pts.shape[0], 2 * order + 1), dtype=np.complex128)
    pre = np.exp(-1j * np.pi / 4.0) / (2.0 * np.pi * np.sqrt(k))
    modes = fourier_modes(truncation, theta)  # (2T+1, n_sources)
    for q in range(-truncation, truncation + 1):
        radial = (1j) ** q * sp.jv(q, k * r) * modes[q + truncation]  # (n_sources,)
        angular = table[truncation - q : truncation - q + 2 * order + 1]  # I[m - q], m = -P..P
        a += np.outer(radial, angular)
    return pre * a


def fssm_rhs_field(points: np.ndarray, sources: SourceTestingSpace) -> np.ndarray:
    """B_n(z) = J_0(k |z - y_n|) / (4k) against each source, shape (n_points, n_sources)."""
    pts = np.asarray(points, dtype=float)
    k = sources.wavenumber
    d = np.hypot(
        pts[:, None, 0] - sources.points[None, :, 0],
        pts[:, None, 1] - sources.points[None, :, 1],
    )
    return (sp.j0(k * d) / (4.0 * k)).astype(np.complex128)


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
