"""Independent checks of lapdsm CLI outputs.

Nothing here imports lapdsm.  Each check recomputes what a command wrote by a
different route than the program takes, or tests a property the method must
have:

- far field: the optical theorem on the full circle, the separation-of-
  variables series of a penetrable disk, and the noise model's size;
- classical indices: the pairing done as one separable matmul over the grid;
- FFSM/FSSM: the system assembled by Gauss-Legendre quadrature on the arcs
  and the right-hand sides by the trapezoid rule on the full circle (the
  program uses closed forms and Bessel series), with the Tikhonov problem
  solved as an augmented least-squares problem by QR (the program uses a
  Cholesky factor of the normal equations);
- kernel: the Jacobi-Anger series (the program uses Gauss quadrature);
- DPN: the checkpoint parsed and evaluated here in numpy;
- localization: separated peaks near the known scatterer centres.

Every check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def arc_angles(arcs) -> np.ndarray:
    """Midpoint receiver angles of (alpha, beta, receivers) arcs, in arc order."""
    out = []
    for alpha, beta, q in arcs:
        j = np.arange(q) + 0.5
        out.append(beta - alpha + j * (2.0 * alpha / q))
    return np.concatenate(out)


def arc_weights(arcs) -> np.ndarray:
    return np.concatenate([np.full(q, 2.0 * alpha / q) for alpha, _, q in arcs])


def gauss_nodes(arcs, points: int = 96):
    x, w = np.polynomial.legendre.leggauss(points)
    t = np.concatenate([beta + alpha * x for alpha, beta, _ in arcs])
    wt = np.concatenate([alpha * w for alpha, _, _ in arcs])
    return t, wt


def grid_axis(n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


# --------------------------------------------------------------------------
# Reading CLI outputs
# --------------------------------------------------------------------------
def read_farfield(path, arcs) -> np.ndarray:
    """Samples (n_incidences, Q); checks the header, row counts and angles."""
    with open(path) as f:
        header = f.readline().strip()
    require(header == "incidence_index,theta_radians,re,im", f"{path}: bad header {header!r}")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    angles = arc_angles(arcs)
    q = angles.size
    require(raw.shape[0] % q == 0 and raw.shape[0] > 0, f"{path}: {raw.shape[0]} rows for {q} receivers")
    n_inc = raw.shape[0] // q
    idx = raw[:, 0].reshape(n_inc, q)
    require(np.all(idx == np.arange(n_inc)[:, None]), f"{path}: incidence column out of order")
    theta = raw[:, 1].reshape(n_inc, q)
    require(np.allclose(theta, angles[None, :], rtol=0, atol=1e-12), f"{path}: receiver angles differ")
    u = (raw[:, 2] + 1j * raw[:, 3]).reshape(n_inc, q)
    require(np.all(np.isfinite(u)), f"{path}: non-finite far field")
    return u


def read_index(path, n: int) -> np.ndarray:
    """Index values on the n x n grid (row-major); checks coordinates and normalization."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(raw.shape == (n * n, 3), f"{path}: shape {raw.shape}, want {(n * n, 3)}")
    axis = grid_axis(n)
    require(np.allclose(raw[:, 0], np.tile(axis, n), rtol=0, atol=1e-12), f"{path}: x column")
    require(np.allclose(raw[:, 1], np.repeat(axis, n), rtol=0, atol=1e-12), f"{path}: y column")
    return raw[:, 2]


def check_pgm(path, values: np.ndarray, n: int) -> None:
    with open(path) as f:
        tokens = f.read().split()
    require(tokens[:4] == ["P2", str(n), str(n), "255"], f"{path}: bad PGM header")
    pix = np.array(tokens[4:], dtype=int)
    want = np.rint(255.0 * values / values.max()).astype(int)
    require(pix.shape == want.shape and np.array_equal(pix, want), f"{path}: pixels do not match the CSV")


def read_checkpoint(path):
    """(weights, biases, order, k) from the DPN v1 text checkpoint."""
    with open(path) as f:
        lines = f.read().splitlines()
    head = lines[0].split()
    require(len(head) == 5 and head[:2] == ["DPN", "v1"], f"{path}: bad checkpoint header")
    order = int(head[2][2:])
    dims = [int(d) for d in head[3][len("layers="):].split(",")]
    k = float(head[4][2:])
    weights, biases, i = [], [], 1
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        require(lines[i].split() == ["layer", str(fan_in), str(fan_out)], f"{path}: bad layer tag")
        w = np.array([[float(v) for v in lines[i + 1 + r].split()] for r in range(fan_in)])
        b = np.array([float(v) for v in lines[i + 1 + fan_in].split()])
        require(w.shape == (fan_in, fan_out) and b.shape == (fan_out,), f"{path}: bad layer shape")
        weights.append(w)
        biases.append(b)
        i += fan_in + 2
    return weights, biases, order, k


def read_loss(path) -> np.ndarray:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(np.array_equal(raw[:, 0], np.arange(1, raw.shape[0] + 1)), f"{path}: iteration column")
    return raw[:, 1]


# --------------------------------------------------------------------------
# Far field
# --------------------------------------------------------------------------
def optical_theorem_error(u: np.ndarray, k: float, direction) -> float:
    """Relative defect of int |u_inf|^2 = -sqrt(8 pi/k) Re(e^{i pi/4} u_inf(d)).

    u holds the full-circle midpoint samples theta_j = -pi + (j + 1/2) 2 pi/Q;
    u_inf(d) is their trigonometric interpolant at the incidence angle.
    """
    q = u.size
    theta = -np.pi + (np.arange(q) + 0.5) * (2.0 * np.pi / q)
    energy = (2.0 * np.pi / q) * np.sum(np.abs(u) ** 2)
    modes = np.arange(-((q - 1) // 2), (q - 1) // 2 + 1)  # the Nyquist mode of even q is ~0 here
    coef = np.exp(-1j * np.outer(modes, theta)) @ u / q
    angle = np.arctan2(direction[1], direction[0])
    forward = np.sum(coef * np.exp(1j * modes * angle))
    rhs = -np.sqrt(8.0 * np.pi / k) * np.real(np.exp(1j * np.pi / 4.0) * forward)
    return abs(energy - rhs) / abs(energy)


def disk_series(k, radius, n_index, direction, angles, center) -> np.ndarray:
    """Far field of a penetrable disk by separation of variables.

    Inside, u = sum a_n J_n(k1 r) e^{in phi}; outside, incident plus
    sum b_n H_n(k r) e^{in phi}; u and du/dr continuous at r = radius.
    """
    k1 = k * np.sqrt(n_index)
    ka, k1a = k * radius, k1 * radius
    ns = np.arange(-int(k1a) - 30, int(k1a) + 31)
    phi_d = np.arctan2(direction[1], direction[0])
    j, jp = sp.jv(ns, ka), sp.jvp(ns, ka)
    j1, j1p = sp.jv(ns, k1a), sp.jvp(ns, k1a)
    h, hp = sp.hankel1(ns, ka), sp.h1vp(ns, ka)
    inc = 1j**ns * np.exp(-1j * ns * phi_d)
    b = np.empty(ns.size, dtype=complex)
    for i in range(ns.size):  # 2x2 system per mode: [J1 -H; k1 J1' -k H'] [a; b] = inc [J; k J']
        m = np.array([[j1[i], -h[i]], [k1 * j1p[i], -k * hp[i]]])
        b[i] = np.linalg.solve(m, inc[i] * np.array([j[i], k * jp[i]]))[1]
    pre = np.sqrt(2.0 / (np.pi * k)) * np.exp(-1j * np.pi / 4.0)
    u = pre * (np.exp(1j * np.outer(angles, ns)) @ (b * (-1j) ** ns))
    c = np.asarray(center, dtype=float)
    xhat = np.column_stack([np.cos(angles), np.sin(angles)])
    return u * np.exp(1j * k * (np.asarray(direction) @ c - xhat @ c))


def check_full_simulation(noiseless: np.ndarray, k: float, incidences, tol: float = 1e-4) -> list[float]:
    require(noiseless.shape[0] == len(incidences), "one far-field row per incidence")
    errs = [optical_theorem_error(u, k, d) for u, d in zip(noiseless, incidences)]
    require(max(errs) < tol, f"optical theorem defect {max(errs):.2e} >= {tol:.0e}")
    return errs


def check_noise(noiseless: np.ndarray, noisy: np.ndarray, arcs, delta: float) -> None:
    """noisy - noiseless has the model's mean square 2 delta^2 ||u||^2 / |Gamma| per receiver."""
    w = arc_weights(arcs)
    measure = w.sum()
    for u, v in zip(noiseless, noisy):
        expected = 2.0 * delta**2 * np.real(np.abs(u) ** 2 @ w) / measure
        ratio = np.mean(np.abs(v - u) ** 2) / expected
        require(0.4 < ratio < 1.6, f"noise mean square is {ratio:.2f} x the model's")


def check_disk(noiseless, arcs, k, radius, n_index, direction, center, tol=0.01) -> float:
    ref = disk_series(k, radius, n_index, direction, arc_angles(arcs), center)
    err = float(np.linalg.norm(noiseless[0] - ref) / np.linalg.norm(ref))
    require(err < tol, f"disk far field off the series by {err:.2%}")
    return err


# --------------------------------------------------------------------------
# Probing functions and indices
# --------------------------------------------------------------------------
def green_prefactor(k: float) -> complex:
    return np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * k * np.pi)


def plane_waves(points: np.ndarray, angles: np.ndarray, k: float) -> np.ndarray:
    """exp(-i k xhat(angle) . z), shape (n_points, n_angles)."""
    phase = k * (np.outer(points[:, 0], np.cos(angles)) + np.outer(points[:, 1], np.sin(angles)))
    return np.exp(-1j * phase)


def grid_points(n: int) -> np.ndarray:
    axis = grid_axis(n)
    xx, yy = np.meshgrid(axis, axis)
    return np.column_stack([xx.ravel(), yy.ravel()])


def pair(probe: np.ndarray, data: np.ndarray, arcs) -> np.ndarray:
    """Average over incidences of |<probe(z, .), u_j>_Gamma|, divided by its maximum."""
    w = arc_weights(arcs)
    vals = np.mean(np.abs(probe @ (np.conj(data) * w).T), axis=1)
    return vals / vals.max()


def classical_index(data: np.ndarray, arcs, n: int, k: float) -> np.ndarray:
    """Green-function pairing as a separable (n x Q) @ (Q x n) product per incidence."""
    angles = arc_angles(arcs)
    axis = grid_axis(n)
    ex = np.exp(-1j * k * np.outer(axis, np.cos(angles)))  # x factor
    ey = np.exp(-1j * k * np.outer(axis, np.sin(angles)))  # y factor
    w = arc_weights(arcs)
    total = np.zeros((n, n))
    for u in data:
        a = green_prefactor(k) * np.conj(u) * w
        total += np.abs((ey * a) @ ex.T)  # [iy, ix]
    vals = (total / len(data)).ravel()
    return vals / vals.max()


def _circle_nodes(count: int = 128):
    t = 2.0 * np.pi * np.arange(count) / count
    return t, 2.0 * np.pi / count


def _augmented_solve(a: np.ndarray, rhs: np.ndarray, sigma: float) -> np.ndarray:
    """argmin ||A F - B||^2 + sigma ||F||^2 per column of B, via QR of [A; sqrt(sigma) I]."""
    n = a.shape[1]
    aug = np.vstack([a, np.sqrt(sigma) * np.eye(n)])
    q, r = np.linalg.qr(aug)
    rhs_aug = np.vstack([rhs, np.zeros((n, rhs.shape[1]), dtype=complex)])
    return np.linalg.solve(r, q.conj().T @ rhs_aug)


def finite_space_coefficients(method, arcs, points, order, sigma, k, sources=None) -> np.ndarray:
    """Trial-space coefficients F(z), shape (n_points, 2P+1)."""
    ns = np.arange(-order, order + 1)
    tg, wg = gauss_nodes(arcs)
    tc, wc = _circle_nodes()
    ez = plane_waves(points, tc, k)  # e^{-ik xhat . z} on the full circle
    if method == "ffsm":
        # A_nm = (1/2pi) int_Gamma e^{i(m-n)t} dt ; B_n(z) = <G_inf(z,.), e^{in.}/sqrt(2pi)>_{S^1}
        a = (np.exp(-1j * np.outer(ns, tg)) * wg) @ np.exp(1j * np.outer(tg, ns)) / (2.0 * np.pi)
        b = green_prefactor(k) * wc / np.sqrt(2.0 * np.pi) * (ez @ np.exp(-1j * np.outer(tc, ns)))
    elif method == "fssm":
        # A_nm = (1/sqrt(2pi)) int_Gamma e^{imt} conj(G_inf(y_n, t)) dt ; B_n(z) = <G_inf(z,.), G_inf(y_n,.)>_{S^1}
        ey_gamma = np.conj(green_prefactor(k) * plane_waves(sources, tg, k))  # (n_src, n_gauss)
        a = (ey_gamma * wg) @ np.exp(1j * np.outer(tg, ns)) / np.sqrt(2.0 * np.pi)
        ey_circle = plane_waves(sources, tc, k)
        b = wc / (8.0 * k * np.pi) * (ez @ ey_circle.conj().T)
    else:
        raise ValueError(method)
    return _augmented_solve(a, b.T, sigma).T


def fourier_probe(coeffs: np.ndarray, order: int, angles: np.ndarray) -> np.ndarray:
    ns = np.arange(-order, order + 1)
    return coeffs @ np.exp(1j * np.outer(ns, angles)) / np.sqrt(2.0 * np.pi)


def finite_space_probe(method, arcs, n, order, sigma, k, sources_per_side=20) -> np.ndarray:
    sources = grid_points(sources_per_side) if method == "fssm" else None  # the FSSM source lattice
    coeffs = finite_space_coefficients(method, arcs, grid_points(n), order, sigma, k, sources)
    return fourier_probe(coeffs, order, arc_angles(arcs))


def network_probe(ckpt, n: int, arcs, k: float) -> np.ndarray:
    """ReLU chain, then the Fourier sum, then the plane-wave term."""
    weights, biases, order, _ = ckpt
    act = grid_points(n)
    for i, (w, b) in enumerate(zip(weights, biases)):
        act = act @ w + b
        if i < len(weights) - 1:
            act = np.maximum(act, 0.0)
    half = 2 * order + 1
    coeffs = act[:, :half] + 1j * act[:, half:]
    angles = arc_angles(arcs)
    ns = np.arange(-order, order + 1)
    return coeffs @ np.exp(1j * np.outer(ns, angles)) + plane_waves(grid_points(n), angles, k)


def relative_norm(probe: np.ndarray, arcs, k: float) -> np.ndarray:
    w = arc_weights(arcs)
    num = np.sqrt(np.abs(probe) ** 2 @ w)
    return num / np.sqrt(w.sum() / (8.0 * k * np.pi))


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> float:
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    require(err < tol, f"{name}: differs from the independent value by {err:.2e} (tol {tol:.0e})")
    return err


# --------------------------------------------------------------------------
# Kernel, training, localization
# --------------------------------------------------------------------------
def kernel_series(alpha: float, beta_dir: float, radii: np.ndarray, k: float) -> np.ndarray:
    """|K_Gamma(0, R e_beta)| for one arc centred at 0, by Jacobi-Anger.

    K = (1/8k pi) sum_n i^n J_n(kR) e^{-in beta} int_{-alpha}^{alpha} e^{int} dt.
    """
    nmax = int(np.ceil(k * radii.max())) + 40
    ns = np.arange(-nmax, nmax + 1)
    arc = np.where(ns == 0, 2.0 * alpha, 2.0 * np.sin(ns * alpha) / np.where(ns == 0, 1, ns))
    terms = (1j**ns * np.exp(-1j * ns * beta_dir) * arc)[None, :] * sp.jv(ns[None, :], k * radii[:, None])
    return np.abs(terms.sum(axis=1)) / (8.0 * k * np.pi)


def check_kernel(path, alpha: float, betas, k: float, tol: float = 1e-9) -> None:
    with open(path) as f:
        header = f.readline().strip().split(",")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    want_header = ["R"] + [f"beta={b:g}" for b in betas]
    require(header == want_header and raw.shape[1] == len(header), f"{path}: bad header {header}")
    radii = raw[:, 0]
    scale = alpha / (4.0 * k * np.pi)
    for col, beta in enumerate(betas, start=1):
        want = kernel_series(alpha, beta, radii, k)
        err = float(np.max(np.abs(raw[:, col] - want)) / scale)
        require(err < tol, f"{path}: beta={beta:g} column off the Jacobi-Anger series by {err:.2e}")
        require(abs(raw[0, col] - scale) < 1e-12 * scale, f"{path}: K(0) != alpha/(4 k pi)")


def check_loss(trace: np.ndarray, iterations: int) -> None:
    require(trace.size == iterations, f"loss trace has {trace.size} rows, want {iterations}")
    require(np.all(np.isfinite(trace)), "loss trace is not finite")
    tail = trace[-max(1, iterations // 10):].mean()
    require(tail < 0.5 * trace[0], f"loss tail {tail:.3g} is not below half the first {trace[0]:.3g}")


def peaks(values: np.ndarray, n: int, separation: float = 0.3, threshold: float = 0.5):
    """Separated 8-neighbour local maxima above threshold * max, strongest first."""
    v = values.reshape(n, n)
    padded = np.pad(v, 1, constant_values=-np.inf)
    neighbours = [padded[1 + dy : 1 + dy + n, 1 + dx : 1 + dx + n] for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    local = v >= np.max(neighbours, axis=0)
    iy, ix = np.nonzero(local & (v >= threshold * v.max()))
    axis = grid_axis(n)
    order = np.argsort(-v[iy, ix], kind="stable")
    kept = []
    for i in order:
        x, y = axis[ix[i]], axis[iy[i]]
        if all(np.hypot(x - px, y - py) >= separation for px, py in kept):
            kept.append((x, y))
    return kept


def check_localization(values: np.ndarray, n: int, centres, tol: float = 0.25) -> None:
    """The len(centres) strongest separated peaks sit within tol of distinct centres."""
    found = peaks(values, n)
    require(len(found) >= len(centres), f"{len(found)} separated peaks for {len(centres)} scatterers")
    used = set()
    for x, y in found[: len(centres)]:
        d = [np.hypot(x - cx, y - cy) for cx, cy in centres]
        j = int(np.argmin(d))
        require(d[j] <= tol and j not in used, f"peak ({x:.2f}, {y:.2f}) matches no scatterer")
        used.add(j)
