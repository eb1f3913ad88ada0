"""Classical direct sampling: index functions, translation kernel, diagnostics.

The index function pairs a probing function with measured far-field data
through the aperture inner product <f, g> = int f conj(g); its modulus is
large near the scatterers.  The probing function is either the far-field
Green function itself (classical choice) or any ProbingSet produced by the
finite-space framework or the trained network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import arc_norm, directions, gauss_arc_nodes, green_far_prefactor, grid_plane_waves, plane_waves
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


def index_classical(
    data: FarFieldData,
    probing: ProbingSet | None,
    grid: SamplingGrid,
    k: float | None = None,
    incidence: int = 0,
) -> IndexField:
    """|<G_probe(z, .), u_inf>_Gamma| per sampling point, one incidence.

    With probing=None the probe is G_inf for the wavenumber k.  On the grid it
    splits as c e^{-ik x cos t} e^{-ik y sin t}, so the pairing is one
    (n x Q) @ (Q x n) product and no n_points x Q array is built.  The
    receivers themselves serve as quadrature nodes.
    """
    angles = data.aperture.receiver_angles()
    v = np.conj(data.samples[incidence]) * data.aperture.quadrature_weights()
    if probing is not None:
        probe_angles = probing.aperture.receiver_angles()
        if probe_angles.shape != angles.shape or not np.allclose(probe_angles, angles):
            raise ValidationError("data and probing apertures disagree on receiver angles")
        vals = np.abs(probing.samples @ v)
    elif k is None:
        raise ValidationError("k is required when probing defaults to G_inf")
    else:
        ex, ey = grid_plane_waves(grid, directions(angles), k)
        vals = np.abs(green_far_prefactor(k) * ((ey * v) @ ex.T)).ravel()
    return IndexField(grid=grid, values=vals)


def kernel_gamma(z, y, aperture: ApertureSet, k: float, quadrature_points: int = 256) -> complex:
    """K_Gamma(z, y) = <G_inf(z, .), G_inf(y, .)>_Gamma by Gauss quadrature.

    Analysis-only; quadrature_points Gauss-Legendre nodes per arc, so the
    value is accurate far beyond the receiver sampling.
    """
    if quadrature_points < 64:
        raise ValidationError("kernel_gamma needs at least 64 quadrature points per arc")
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    angles, weights = gauss_arc_nodes(aperture, quadrature_points)
    integrand = plane_waves(z - y, directions(angles), k) / (8.0 * k * np.pi)
    return complex(integrand @ weights)


def green_norm_on_aperture(aperture: ApertureSet, k: float) -> float:
    """||G_inf(z, .)||_{L2(Gamma)} = sqrt(|Gamma| / (8 k pi)), independent of z."""
    return float(np.sqrt(aperture.measure / (8.0 * k * np.pi)))


def relative_norm(probing: ProbingSet, k: float, grid: SamplingGrid) -> IndexField:
    """RN(z) = ||G_Gamma(z, .)||_{L2(Gamma)} / ||G_inf(z, .)||_{L2(Gamma)}."""
    num = arc_norm(probing.samples, probing.aperture)
    den = green_norm_on_aperture(probing.aperture, k)
    if den <= 0:
        raise ValidationError("degenerate aperture: zero Green-function norm")
    return IndexField(grid=grid, values=num / den)


def average_and_normalize(fields: list[IndexField]) -> IndexField:
    """Pointwise mean over incidences, then division by the global maximum."""
    if not fields:
        raise ValidationError("no index fields to average")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValidationError("index fields live on different grids")
    mean = np.mean([f.values for f in fields], axis=0)
    peak = mean.max()
    if peak == 0.0:
        raise ValidationError("all-zero index field cannot be normalized")
    return IndexField(grid=grid, values=mean / peak)


def averaged_index(data: FarFieldData, probing: ProbingSet | None, grid: SamplingGrid, k=None) -> IndexField:
    """index_classical for every incidence, averaged and normalized."""
    fields = [index_classical(data, probing, grid, k, j) for j in range(data.n_incidences)]
    return average_and_normalize(fields)

