"""Reference helpers (test only).

Pointwise forms of what the package evaluates on whole grids -- the
far-field Green function, the FFSM and FSSM right-hand sides, the refractive
index at one point, the forward kernel between every pair of contrast cells,
the total field on every forward cell -- and range-checked wrappers of
scipy's Bessel and Hankel functions.  No program code calls them; the tests
pin the vectorized program paths and scipy against them.
"""

import numpy as np
from scipy import special as sp

from lapdsm.errors import ValidationError
from lapdsm.finite_space import SourceTestingSpace, ffsm_rhs_field, fssm_rhs_field
from lapdsm.forward import ForwardSolution, _self_term, green_far_prefactor
from lapdsm.numerics import plane_waves
from lapdsm.scene import Scene

MAX_BESSEL_ORDER = 200


def bessel_j(order: int, x) -> float | np.ndarray:
    """Bessel function of the first kind J_order(x) for order >= 0, x >= 0."""
    if order < 0 or order > MAX_BESSEL_ORDER:
        raise ValidationError(f"bessel_j order must be in [0, {MAX_BESSEL_ORDER}], got {order}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValidationError("bessel_j argument must be nonnegative")
    out = sp.jv(order, x)
    return float(out) if out.ndim == 0 else out


def bessel_j_signed(order: int, x) -> float | np.ndarray:
    """J_n for any integer n, via J_{-n}(x) = (-1)^n J_n(x)."""
    n = abs(order)
    val = bessel_j(n, x)
    return -val if (order < 0 and n % 2 == 1) else val


def hankel1(order: int, x) -> complex | np.ndarray:
    """Hankel function of the first kind H^(1)_order(x), order in {0, 1}, x > 0."""
    if order not in (0, 1):
        raise ValidationError(f"hankel1 supports orders 0 and 1 only, got {order}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValidationError("hankel1 argument must be positive (log singularity at 0)")
    out = sp.hankel1(order, x)
    return complex(out) if out.ndim == 0 else out


def green_far_field(z, angle, k: float):
    """G_inf(z, xhat) = e^{i pi/4}/sqrt(8 k pi) * e^{-i k xhat . z} in 2-D."""
    z = np.asarray(z, dtype=float)
    angle = np.asarray(angle, dtype=float)
    xhat_dot_z = np.cos(angle) * z[..., 0] + np.sin(angle) * z[..., 1]
    out = green_far_prefactor(k) * np.exp(-1j * k * xhat_dot_z)
    return complex(out) if out.ndim == 0 else out


def bessel_j0_kernel(k: float, r) -> np.ndarray:
    """J_0(k r) / (4 k): the full-circle translation kernel K_{S^1}."""
    return bessel_j(0, k * np.abs(np.asarray(r, dtype=float))) / (4.0 * k)


def ffsm_rhs(z, order: int, k: float) -> np.ndarray:
    """B_n(z) = i^{-n} e^{i pi/4}/(2 sqrt(k)) J_n(k|z|) e^{-i n theta_z}."""
    return ffsm_rhs_field(np.asarray(z, dtype=float)[None, :], order, k)[0]


def fssm_rhs(z, sources: SourceTestingSpace) -> np.ndarray:
    """B_n(z) = J_0(k |z - y_n|) / (4k), the full-circle kernel against each source."""
    return fssm_rhs_field(np.asarray(z, dtype=float)[None, :], sources)[0]


def refractive_index_at(scene: Scene, point) -> float:
    """Index of the innermost scatterer containing the point, else 1 (background)."""
    pt = np.asarray(point, dtype=float)
    best = None
    for s in scene.scatterers:
        if bool(s.contains(pt)):
            if best is None or s.area < best.area:
                best = s
    return best.refractive_index if best is not None else 1.0


def pairwise_interaction_matrix(k: float, pts: np.ndarray, h: float) -> np.ndarray:
    """Integrated Green kernel from the distance of every cell pair (self cell regularized).

    The pairwise form that the offset-table gather replaced, kept as its oracle.
    """
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)  # placeholder, overwritten below
    g = (1j / 4.0) * sp.hankel1(0, k * r) * h * h
    np.fill_diagonal(g, _self_term(k, h))
    return g


def total_field(scene: Scene, incidence_index: int, solution: ForwardSolution) -> np.ndarray:
    """u at every forward cell: u^i plus the field the contrast cells radiate.

    On the contrast cells u = I / (k^2 q); the passive cells get u^i plus the
    scattered field of the induced current, summed over every cell pair.
    """
    k = scene.wavenumber
    grid = solution.grid
    d = np.asarray(scene.incidences[incidence_index])
    mask = grid.q != 0.0
    u = plane_waves(grid.points, -d[None, :], k)[:, 0]  # u^i = e^{ik d . x}
    if np.any(mask):
        diff = grid.points[~mask][:, None, :] - grid.points[mask][None, :, :]
        r = np.hypot(diff[..., 0], diff[..., 1])
        g_out = (1j / 4.0) * sp.hankel1(0, k * np.maximum(r, 1e-300)) * grid.h**2
        u[~mask] += g_out @ solution.current[mask]  # k^2 G (q u) = G I
        u[mask] = solution.current[mask] / (k**2 * grid.q[mask])
    return u
