"""Reference helpers (test only).

Pointwise forms of what the package evaluates on whole grids -- the
far-field Green function, the FFSM and FSSM right-hand sides, the FFSM and
FSSM matrices entry by entry, the refractive index at one point, the forward
kernel between every pair of contrast cells, the total field on every forward
cell -- the Born and penetrable-disk far fields the forward solver is
checked against, the Bessel closed forms of the full-circle inner products the package
evaluates by the trapezoid rule, range-checked wrappers of scipy's Bessel and
Hankel functions, a QR least-squares Tikhonov solve, and the peak finder and
preset centres of the localization checks.  No program code calls them; the tests pin the vectorized program
paths and scipy against them.
"""

import numpy as np
from scipy import special as sp

from dense_probing import ffsm_rhs_dense, fssm_rhs_dense
from lapdsm.errors import ValidationError
from lapdsm.dsm import IndexField
from lapdsm.forward import ContrastGrid, ForwardSolution, _self_term
from lapdsm.numerics import fourier_modes, green_far_prefactor, plane_waves
from lapdsm.presets import preset_scene
from lapdsm.scene import ApertureSet, Scene

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
    return ffsm_rhs_dense(np.asarray(z, dtype=float)[None, :], order, k)[0]


def fssm_rhs(z, sources: np.ndarray, k: float) -> np.ndarray:
    """B_n(z) = J_0(k |z - y_n|) / (4k), the full-circle kernel against each source."""
    return fssm_rhs_dense(np.asarray(z, dtype=float)[None, :], sources, k)[0]


def ffsm_rhs_bessel(points, order: int, k: float) -> np.ndarray:
    """ffsm_rhs_dense's closed form: one J_|n| per order, with the J_{-n} sign and theta = 0 at the origin."""
    pts = np.asarray(points, dtype=float)
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    theta[r == 0.0] = 0.0
    ns = np.arange(-order, order + 1)
    jn = sp.jv(np.abs(ns)[None, :], (k * r)[:, None])
    sign = np.where((ns < 0) & (np.abs(ns) % 2 == 1), -1.0, 1.0)
    pre = (1j) ** (-ns) * np.exp(1j * np.pi / 4.0) / (2.0 * np.sqrt(k))
    return pre[None, :] * sign[None, :] * jn * np.exp(-1j * np.outer(theta, ns))


def fssm_rhs_bessel(points, sources: np.ndarray, k: float) -> np.ndarray:
    """fssm_rhs_dense's closed form J_0(k |z - y_n|) / (4k), shape (n_points, n_sources)."""
    pts = np.asarray(points, dtype=float)
    d = np.hypot(
        pts[:, None, 0] - sources[None, :, 0],
        pts[:, None, 1] - sources[None, :, 1],
    )
    return bessel_j0_kernel(k, d)


def batch_target_bessel(batch, k: float) -> np.ndarray:
    """The DPN target 2 pi sum_n conj(c_nm) J_0(k |z_l - y_nm|), shape (L, M)."""
    diff = batch.eval_points[:, None, None, :] - batch.source_points[None, :, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])  # (L, M, N)
    return 2.0 * np.pi * np.einsum("mn,lmn->lm", np.conj(batch.source_coeffs), bessel_j(0, k * dist))


def arc_mode_integral(aperture: ApertureSet, d: int) -> complex:
    """sum_l e^{i d beta_l} * (alpha_l if d == 0 else sin(alpha_l d)/d), one d at a time."""
    total = 0.0 + 0.0j
    for arc in aperture.arcs:
        c = arc.alpha if d == 0 else np.sin(arc.alpha * d) / d
        total += np.exp(1j * d * arc.beta) * c
    return total


def ffsm_matrix_entrywise(aperture: ApertureSet, order: int) -> np.ndarray:
    """A_nm = arc_mode_integral(m - n) / pi, entry by entry: the form the Toeplitz gather replaced."""
    ns = np.arange(-order, order + 1)
    a = np.empty((2 * order + 1, 2 * order + 1), dtype=np.complex128)
    for i, n in enumerate(ns):
        for j, m in enumerate(ns):
            a[i, j] = arc_mode_integral(aperture, m - n) / np.pi
    return a


def fssm_matrix_entrywise(aperture: ApertureSet, order: int, sources: np.ndarray, k: float) -> np.ndarray:
    """The Jacobi-Anger series for fssm_matrix with each I[m - q] evaluated on its own.

    The series stops at |q| = k max(|y|, 1) + 30, where J_q(k|y|) is far below 1e-16.
    """
    pts = sources
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    theta[r == 0.0] = 0.0
    truncation = int(np.ceil(k * max(r.max(), 1.0))) + 30
    ms = np.arange(-order, order + 1)
    a = np.zeros((pts.shape[0], 2 * order + 1), dtype=np.complex128)
    pre = np.exp(-1j * np.pi / 4.0) / (2.0 * np.pi * np.sqrt(k))
    modes = fourier_modes(truncation, theta)
    for q in range(-truncation, truncation + 1):
        radial = (1j) ** q * sp.jv(q, k * r) * modes[q + truncation]
        angular = np.array([arc_mode_integral(aperture, m - q) for m in ms])
        a += np.outer(radial, angular)
    return pre * a


def tikhonov_qr(a: np.ndarray, sigma: float, rhs_field: np.ndarray) -> np.ndarray:
    """F(z) minimizing |A F - B(z)|^2 + sigma |F|^2, by a QR solve of [A; sqrt(sigma) I] F = [B(z); 0].

    The stacked least-squares form never squares A's condition number, so it
    is the oracle of tikhonov_solve; shape (n_points, 2P+1) as there.
    """
    rows, cols = a.shape
    stacked = np.vstack([a, np.sqrt(sigma) * np.eye(cols)])
    rhs = np.vstack([np.asarray(rhs_field, dtype=np.complex128).T, np.zeros((cols, rhs_field.shape[0]))])
    q, r = np.linalg.qr(stacked)
    return np.linalg.solve(r, q.conj().T @ rhs).T


def born_far_field(scene: Scene, incidence_index: int, angles, grid: ContrastGrid) -> np.ndarray:
    """Weak-scattering oracle: induced current with u replaced by u^i."""
    k = scene.wavenumber
    d = np.asarray(scene.incidences[incidence_index])
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    mask = grid.q != 0.0
    if not np.any(mask):
        return np.zeros(angles.shape, dtype=np.complex128)
    pts = grid.points[mask]
    src = grid.q[mask] * k**2 * np.exp(1j * k * pts @ d)
    xhat = np.column_stack([np.cos(angles), np.sin(angles)])
    phase = np.exp(-1j * k * (xhat @ pts.T))
    return green_far_prefactor(k) * grid.cell_area * (phase @ src)


def disk_far_field_series(
    k: float,
    radius: float,
    refractive_index: float,
    incidence_dir,
    angles,
    center=(0.0, 0.0),
    n_terms: int | None = None,
) -> np.ndarray:
    """Separation-of-variables far field of a penetrable disk (independent oracle).

    Fourier-Bessel matching of u and du/dr across the circle boundary; the
    scattered exterior field sum(b_n H_n^(1)(kr) e^{in phi}) radiates to
    u_inf(phi) = sqrt(2/(pi k)) e^{-i pi/4} sum(b_n (-i)^n e^{in phi}).
    """
    d = np.asarray(incidence_dir, dtype=float)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    k1 = k * np.sqrt(refractive_index)
    ka, k1a = k * radius, k1 * radius
    if n_terms is None:
        n_terms = int(np.ceil(k1a)) + 25
    phi_d = np.arctan2(d[1], d[0])
    ns = np.arange(-n_terms, n_terms + 1)
    jn_ka = sp.jv(ns, ka)
    jnp_ka = sp.jvp(ns, ka)
    jn_k1a = sp.jv(ns, k1a)
    jnp_k1a = sp.jvp(ns, k1a)
    hn_ka = sp.hankel1(ns, ka)
    hnp_ka = sp.h1vp(ns, ka)
    inc = (1j) ** ns * np.exp(-1j * ns * phi_d)
    num = k1 * jnp_k1a * jn_ka - k * jnp_ka * jn_k1a
    den = k * hnp_ka * jn_k1a - k1 * jnp_k1a * hn_ka
    b = inc * num / den
    pre = np.sqrt(2.0 / (np.pi * k)) * np.exp(-1j * np.pi / 4.0)
    u_inf = pre * np.exp(1j * np.outer(angles, ns)) @ (b * (-1j) ** ns)
    c = np.asarray(center, dtype=float)
    if np.any(c != 0.0):
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        u_inf = u_inf * np.exp(1j * k * (d @ c - xhat @ c))
    return u_inf


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


def dominant_peaks(
    field: IndexField,
    min_separation: float = 0.3,
    threshold: float = 0.5,
    max_peaks: int | None = None,
) -> list[tuple[float, float, float]]:
    """Separated local maxima of the (normalized) field, strongest first.

    A grid point qualifies if it is a local maximum over its 8-neighborhood,
    its value is at least threshold * max, and no stronger retained peak
    lies within min_separation (greedy non-maximum suppression).
    """
    n = field.grid.resolution
    v = field.values.reshape(n, n)
    pad = np.pad(v, 1, constant_values=-np.inf)
    is_max = np.ones((n, n), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            is_max &= v >= pad[1 + dy : 1 + dy + n, 1 + dx : 1 + dx + n]
    cut = threshold * v.max()
    iy, ix = np.nonzero(is_max & (v >= cut))
    xs, ys = field.grid.xs, field.grid.ys
    cand = sorted(
        ((float(v[a, b]), float(xs[b]), float(ys[a])) for a, b in zip(iy, ix)),
        reverse=True,
    )
    kept: list[tuple[float, float, float]] = []
    for val, x, y in cand:
        if all(np.hypot(x - px, y - py) >= min_separation for px, py, _ in kept):
            kept.append((x, y, val))
            if max_peaks is not None and len(kept) >= max_peaks:
                break
    return kept


def true_centers(name: str) -> list[tuple[float, float]]:
    """Scatterer centers of a preset, for localization checks."""
    return [s.center for s in preset_scene(name).scatterers]
