"""Dense probing sets and right-hand sides (test helpers).

`index_classical` pairs the far-field Green probe with the data through a
separable product on the sampling grid and never builds the n_points x Q
matrix of probe values, and `finite_space` keeps each right-hand side as
B(z) = P(z) M and solves on M alone.  These helpers build the dense arrays
the program avoids, so the tests can check the factored paths against the
plain ones: G_inf as a probing set of its own, B on every point, the
finite-space pipeline B -> tikhonov_solve -> coefficients @ basis, and the
network probe at arbitrary points.  The grid probes themselves are built
band by band of grid rows; the whole-grid products below are the one-shot
evaluations they must reproduce bit for bit, and gathered_bands stacks the
network's bands into the array the program never holds.
"""

import numpy as np

from lapdsm.dpn import NetworkParams, _probe, network_forward
from lapdsm.dsm import BandedProbe, ProbingSet
from lapdsm.finite_space import ffsm_matrix, ffsm_rhs_field, fssm_matrix, fssm_rhs_field, tikhonov_solve
from lapdsm.numerics import directions, fourier_modes, green_far_prefactor, grid_bands, grid_plane_waves, plane_waves
from lapdsm.scene import ApertureSet, SamplingGrid


def green_probing_set(grid: SamplingGrid, aperture: ApertureSet, k: float) -> ProbingSet:
    """Classical probing set: G_inf sampled at every (z, receiver) pair."""
    angles = aperture.receiver_angles()
    xhat = np.column_stack([np.cos(angles), np.sin(angles)])
    phase = k * grid.points @ xhat.T
    return ProbingSet(green_far_prefactor(k) * (np.cos(phase) - 1j * np.sin(phase)), aperture)


def ffsm_rhs_dense(points, order: int, k: float) -> np.ndarray:
    """ffsm_rhs_field multiplied out, plane_waves(points, xhat, k) @ M; shape (n_points, 2P+1)."""
    xhat, m = ffsm_rhs_field(points, order, k)
    return plane_waves(points, xhat, k) @ m


def fssm_rhs_dense(points, sources: np.ndarray, k: float) -> np.ndarray:
    """fssm_rhs_field multiplied out, plane_waves(points, xhat, k) @ M; shape (n_points, n_sources)."""
    xhat, m = fssm_rhs_field(points, sources, k)
    return plane_waves(points, xhat, k) @ m


def dense_finite_space_samples(method, aperture, grid, order, sigma, k, sources=None) -> np.ndarray:
    """Probe samples (n_points, Q) the dense way: B on the grid, F = tikhonov_solve(A, sigma, B), F @ basis."""
    if method == "ffsm":
        a, rhs = ffsm_matrix(aperture, order), ffsm_rhs_dense(grid.points, order, k)
    else:
        a, rhs = fssm_matrix(aperture, order, sources, k), fssm_rhs_dense(grid.points, sources, k)
    basis = fourier_modes(order, aperture.receiver_angles()) / np.sqrt(2.0 * np.pi)
    return tikhonov_solve(a, sigma, rhs) @ basis


def probing_eval(params: NetworkParams, z, angles, k: float) -> np.ndarray:
    """The network probe at points z (n, 2) and angles, shape (n_points, n_angles), as training evaluates it."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return _probe(network_forward(params, z), z, angles, k)


def whole_grid_waves(grid: SamplingGrid, xhat, k: float) -> np.ndarray:
    """The grid's plane waves on every point at once, ey x ex in row-major order, shape (n * n, Q)."""
    ex, ey = grid_plane_waves(grid, xhat, k)
    return (ey[:, None, :] * ex[None, :, :]).reshape(-1, ex.shape[1])


def whole_grid_network_probe(params: NetworkParams, grid: SamplingGrid, aperture: ApertureSet, k: float) -> np.ndarray:
    """network_probe's bands in one evaluation: plane waves plus coefficients @ modes."""
    angles = aperture.receiver_angles()
    modes = fourier_modes(params.order, angles)
    return whole_grid_waves(grid, directions(angles), k) + network_forward(params, grid.points) @ modes


def whole_grid_coefficient_probe(kernel: np.ndarray, aperture: ApertureSet, grid: SamplingGrid, xhat, k: float):
    """probing_from_coefficients's samples in one evaluation: P (K basis) over every grid point."""
    order = (kernel.shape[1] - 1) // 2
    basis = fourier_modes(order, aperture.receiver_angles()) / np.sqrt(2.0 * np.pi)
    return whole_grid_waves(grid, xhat, k) @ (kernel @ basis)


def gathered_bands(probe: BandedProbe, grid: SamplingGrid) -> np.ndarray:
    """A banded probe's bands stacked into the whole-grid array the program never builds, (n * n, Q)."""
    return np.concatenate([probe.band(rows) for rows in grid_bands(grid.resolution)])
