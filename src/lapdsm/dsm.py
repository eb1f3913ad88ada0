"""Classical direct sampling: index functions, translation kernel, diagnostics.

The index function pairs a probing function with measured far-field data
through the aperture inner product <f, g> = int f conj(g); its modulus is
large near the scatterers.  The probing function is either the far-field
Green function, paired by a separable product on the grid, or a probe given
one band of grid rows at a time (a finite-space ProbingSet or the trained
network's BandedProbe), which one band loop pairs and another norms.  The
aperture kernel K_Gamma of the diagnostics is evaluated in closed form, as
the full-circle trapezoid rule weighted by the arc-mode table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import (
    arc_mode_table,
    arc_norm,
    blocks,
    circle_angles,
    directions,
    green_far_prefactor,
    grid_bands,
    grid_plane_waves,
    plane_waves,
    reach,
)
from .scene import ApertureSet, FarFieldData, SamplingGrid


@dataclass(frozen=True)
class IndexField:
    """Real-valued indicator values on the sampling grid."""

    grid: SamplingGrid
    values: np.ndarray  # (n_points,)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape[0] != self.grid.resolution**2:
            raise ValidationError("index values do not match the grid size")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValidationError("index values must be finite and nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ProbingSet:
    """Per-sampling-point probing samples at the aperture receivers."""

    samples: np.ndarray  # (n_grid_points, n_receivers) complex
    aperture: ApertureSet

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.shape[1] != self.aperture.total_receivers:
            raise ValidationError("probing sample count does not match receiver count")
        if not np.all(np.isfinite(s)):
            raise ValidationError("probing samples must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def band(self, rows: slice) -> np.ndarray:
        """The samples at a band of grid rows, a view."""
        return self.samples[rows]


@dataclass(frozen=True)
class BandedProbe:
    """A grid probe built one band of grid rows at a time and never held whole.

    band(rows) returns the probe at a band of numerics.grid_bands, shape
    (band points, n_receivers); its consumer reduces it before asking for
    the next.
    """

    band: Callable[[slice], np.ndarray]
    aperture: ApertureSet


def index_classical(
    data: FarFieldData, probing: ProbingSet | BandedProbe | None, grid: SamplingGrid, k: float | None = None
) -> np.ndarray:
    """|<G_probe(z, .), u_j>_Gamma| per incidence j and sampling point z, shape (n_incidences, n_points).

    With probing=None the probe is G_inf for the wavenumber k.  On the grid it
    splits as c e^{-ik x cos t} e^{-ik y sin t}, so each pairing is one
    (n x Q) @ (Q x n) product and no n_points x Q array is built.  Any other
    probe is paired band by band of grid rows, each band with every incidence
    before the next is built.  The receivers serve as quadrature nodes.
    """
    angles = data.aperture.receiver_angles()
    vs = np.conj(data.samples) * data.aperture.quadrature_weights()
    if probing is None:
        if k is None:
            raise ValidationError("k is required when probing defaults to G_inf")
        ex, ey = grid_plane_waves(grid, directions(angles), k)
        return np.array([np.abs(green_far_prefactor(k) * ((ey * v) @ ex.T)).ravel() for v in vs])
    probe_angles = probing.aperture.receiver_angles()
    if probe_angles.shape != angles.shape or not np.allclose(probe_angles, angles):
        raise ValidationError("data and probing apertures disagree on receiver angles")
    values = np.empty((len(vs), grid.resolution**2))
    for rows in grid_bands(grid.resolution):
        samples = probing.band(rows)
        for j, v in enumerate(vs):
            values[j, rows] = np.abs(samples @ v)
        del samples  # so the next band is not built beside this one
    return values


def kernel_gamma(z, y, aperture: ApertureSet, k: float):
    """K_Gamma(z, y) = <G_inf(z, .), G_inf(y, .)>_Gamma for points y (..., 2), in closed form; shape (...).

    K_Gamma = (1/8k pi) int_Gamma e^{-ik xhat . (z - y)}.  By Jacobi-Anger the
    integrand's Fourier coefficients fall below 1e-16 beyond the nu of
    circle_angles at the points' reach, and int_Gamma e^{int} = 2 I[n]
    (arc_mode_table).  So the integral is a circle rule of T angles with
    weights w_t = (2/T) sum_{|n| <= nu} I[n] e^{-int_t}, one FFT of the table
    placed mod T.  Any T > 2 nu keeps every aliased term below 1e-16; T = 8 nu
    also averages the ~1e-16 k |z - y| rounding of each plane wave's phase
    over enough angles on a short arc.  The plane waves are made one block of
    numerics.blocks at a time (24 bytes an entry: the waves and their phase),
    each a 2-D matrix-vector product whose rows round as in the whole one.
    """
    p = np.asarray(z, dtype=float) - np.asarray(y, dtype=float)
    nu = circle_angles(k, reach(p)).size
    angles = circle_angles(k, reach(p), 7 * nu)
    table = arc_mode_table(aperture, nu)  # I[n] for n = -nu..nu
    folded = np.zeros(angles.size, dtype=np.complex128)
    folded[: nu + 1], folded[-nu:] = table[nu:], table[:nu]  # I[n] at n mod T
    weights = np.fft.fft(folded) * (2.0 / angles.size)
    xhat, flat = directions(angles), p.reshape(-1, 2)
    values = np.empty(len(flat), dtype=np.complex128)
    for rows in blocks(len(flat), 24 * angles.size):
        values[rows] = plane_waves(flat[rows], xhat, k) @ weights
    return values.reshape(p.shape[:-1]) / (8.0 * k * np.pi)


def green_norm_on_aperture(aperture: ApertureSet, k: float) -> float:
    """||G_inf(z, .)||_{L2(Gamma)} = sqrt(|Gamma| / (8 k pi)), independent of z."""
    return float(np.sqrt(aperture.measure / (8.0 * k * np.pi)))


def relative_norm(probing: ProbingSet | BandedProbe, k: float, grid: SamplingGrid) -> IndexField:
    """RN(z) = ||G_Gamma(z, .)||_{L2(Gamma)} / ||G_inf(z, .)||_{L2(Gamma)}.

    The probe is reduced to norms band by band of grid rows, so no float copy
    of the whole probe is made beside it, and a BandedProbe is never whole.
    """
    num = np.empty(grid.resolution**2)
    for rows in grid_bands(grid.resolution):
        num[rows] = arc_norm(probing.band(rows), probing.aperture)
    return IndexField(grid=grid, values=num / green_norm_on_aperture(probing.aperture, k))


def averaged_index(
    data: FarFieldData, probing: ProbingSet | BandedProbe | None, grid: SamplingGrid, k=None
) -> IndexField:
    """index_classical for every incidence, averaged pointwise, then divided by the global maximum."""
    mean = np.mean(index_classical(data, probing, grid, k), axis=0)
    peak = mean.max()
    if peak == 0.0:
        raise ValidationError("all-zero index field cannot be normalized")
    return IndexField(grid=grid, values=mean / peak)
