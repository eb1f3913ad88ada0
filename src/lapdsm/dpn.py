"""Unsupervised deep probing network.

A small fully connected network maps a sampling point z to the Fourier
coefficients of a probing function; adding the plane-wave initial guess
exp(-i k xhat . z) gives the probing value.  Training needs no measured
data: random point-source combinations v_m are synthesized on the fly and
the network is pushed to make the aperture inner product <G(z,.), v_m>,
paired with the receiver weights reconstruct uses, reproduce the known
full-circle value 2 pi sum(conj(c_n) J_0(k |z - y_n|)), evaluated as the
trapezoid rule of numerics.circle_angles.

Gradients are exact hand-written reverse mode (the loss is a quadratic
form in the network outputs), and the optimizer is Adam with the staircase
learning-rate schedule.  Everything draws from the counter-based generator
so training is bitwise reproducible for a fixed seed.  A training step
subtracts the target from the L x M residual one block of rows at a time.
On a sampling grid the trained probe is built one band of grid rows at a
time, for dsm to pair or norm before it asks for the next, so no n * n x Q
array is built, and the network runs over a band one block of points at a
time.  The blocks are numerics.blocks, near-equal and within BLOCK_BYTES;
every row has the bits of one pass over all the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsm import BandedProbe
from .errors import NumericalError, ValidationError
from .numerics import blocks, circle_angles, directions, fourier_modes, grid_band_waves, plane_waves, reach
from .scene import ApertureSet, Box, pollute
from .rng import CounterRng

DIVERGENCE_FACTOR = 1e3

# Adam's published defaults (Kingma & Ba 2015) and the staircase schedule:
# the learning rate falls by LR_DECAY every LR_DECAY_EVERY iterations.
LEARNING_RATE = 0.005
LR_DECAY = 0.9
LR_DECAY_EVERY = 100
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


def learning_rate(iteration: int) -> float:
    """Staircase schedule: LEARNING_RATE times LR_DECAY per LR_DECAY_EVERY steps."""
    return LEARNING_RATE * LR_DECAY ** (iteration // LR_DECAY_EVERY)


@dataclass(frozen=True)
class TrainConfig:
    order: int = 20  # P; network emits 4P+2 real outputs
    hidden: tuple[int, ...] = (200, 200, 200, 200)
    batch_functions: int = 400  # M test functions per iteration
    sources_per_function: int = 3  # N point sources per test function
    points_per_iteration: int = 400  # L sampling points per iteration
    iterations: int = 5000
    max_noise: float = 0.05  # lambda; per-iteration noise ~ U(0, lambda)
    seed: int = 0
    checkpoint_every: int = 500

    def __post_init__(self):
        if min(
            self.batch_functions,
            self.sources_per_function,
            self.points_per_iteration,
            self.order,
        ) < 1 or self.iterations < 0:
            raise ValidationError("train config sizes must be positive")
        if not (0.0 <= self.max_noise < 1.0):
            raise ValidationError("max training noise must lie in [0, 1)")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (2, *self.hidden, 4 * self.order + 2)


@dataclass
class NetworkParams:
    """Affine-rectifier chain; output pairs into 2P+1 complex coefficients.

    Each layer is one (fan_in + 1) x fan_out array: the weights, then the
    bias as the last row, the layout of the checkpoint file.
    """

    layers: list[np.ndarray]
    order: int

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.layers[0].shape[0] - 1, *(w.shape[1] for w in self.layers))

    @classmethod
    def initialize(cls, config: TrainConfig, rng: CounterRng) -> "NetworkParams":
        """Fan-in-scaled uniform init with rectifier gain, U(+-sqrt(6/fan_in)), bias included."""
        dims = config.layer_dims
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = (rng.uniforms((fan_in + 1) * fan_out) * 2.0 - 1.0) * np.sqrt(6.0 / fan_in)
            layers.append(w.reshape(fan_in + 1, fan_out))
        return cls(layers=layers, order=config.order)


def _layers(params: NetworkParams, a: np.ndarray):
    """Yield each hidden layer's rectified activation, then the linear output."""
    last = len(params.layers) - 1
    for i, w in enumerate(params.layers):
        a = a @ w[:-1]
        a += w[-1]
        if i < last:
            np.maximum(a, 0.0, out=a)
        yield a


def _forward_cached(params: NetworkParams, z: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping the input and every activation for reverse mode."""
    z = np.asarray(z, dtype=float)
    return [z, *_layers(params, z)]


def _coefficients(y: np.ndarray, order: int) -> np.ndarray:
    """Pair the 4P+2 real network outputs into 2P+1 complex coefficients."""
    half = 2 * order + 1
    return y[:, :half] + 1j * y[:, half:]


def network_forward(params: NetworkParams, z) -> np.ndarray:
    """Complex Fourier coefficients f_{-P..P}(z) for points z of shape (n, 2).

    Unlike _forward_cached it holds the activations of one block of
    numerics.blocks at a time (1,024 points of the paper's 200 units), the
    last beside the next, and writes each block's coefficients into one
    n x (2P+1) array: every row has the bits of one pass over all the points.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    coeffs = np.empty((len(z), 2 * params.order + 1), dtype=np.complex128)
    for rows in blocks(len(z), 8 * max(params.layer_dims)):
        for y in _layers(params, z[rows]):
            pass
        coeffs[rows] = _coefficients(y, params.order)
    return coeffs


def _backward(params: NetworkParams, acts, dout: np.ndarray) -> list[np.ndarray]:
    """Gradient of a scalar loss per layer given d(loss)/d(output), matching _forward_cached.

    acts[i].T @ delta and delta's column sums go straight into the weight and
    bias rows of each (fan_in + 1) x fan_out gradient.
    """
    grads = [None] * len(params.layers)
    delta = dout
    for i in range(len(params.layers) - 1, -1, -1):
        grads[i] = g = np.empty_like(params.layers[i])
        np.matmul(acts[i].T, delta, out=g[:-1])
        delta.sum(axis=0, out=g[-1])
        if i > 0:
            delta = delta @ params.layers[i][:-1].T
            # a rectified activation is positive exactly where its pre-activation is
            delta *= acts[i] > 0.0
    return grads


def _probe(coeffs: np.ndarray, z: np.ndarray, angles: np.ndarray, k: float) -> np.ndarray:
    """Fourier sum of the coefficients plus the plane-wave initial guess, shape (n_points, n_angles).

    Training evaluates the probe here; network_probe is the same probe on a grid.
    """
    order = (coeffs.shape[1] - 1) // 2
    probe = plane_waves(z, directions(angles), k)
    probe += coeffs @ fourier_modes(order, angles)
    return probe


@dataclass(frozen=True)
class TrainingBatch:
    """One iteration's synthesized sources, test functions, and z samples."""

    source_points: np.ndarray  # (M, N, 2)
    source_coeffs: np.ndarray  # (M, N) complex
    eval_points: np.ndarray  # (L, 2)
    v_noisy: np.ndarray  # (M, Q) complex, at receiver angles


def _test_functions(coeffs: np.ndarray, sources: np.ndarray, angles: np.ndarray, k: float) -> np.ndarray:
    """v_m(xhat) = sum_n c_nm exp(-i k xhat . y_nm) at the given angles, shape (M, n_angles)."""
    return np.einsum("mn,mnq->mq", coeffs, plane_waves(sources, directions(angles), k))


def sample_batch(
    config: TrainConfig,
    domain: Box,
    aperture: ApertureSet,
    k: float,
    rng: CounterRng,
) -> TrainingBatch:
    """Draw one training batch; draw order is fixed for reproducibility."""
    m, n, l = config.batch_functions, config.sources_per_function, config.points_per_iteration
    y = rng.uniform_box(m * n, domain.xmin, domain.xmax, domain.ymin, domain.ymax).reshape(m, n, 2)
    c = (rng.normals(m * n) + 1j * rng.normals(m * n)).reshape(m, n)
    delta = float(rng.uniforms(1)[0] * config.max_noise)
    v_noisy = pollute(_test_functions(c, y, aperture.receiver_angles(), k), delta, aperture, rng)
    z = rng.uniform_box(l, domain.xmin, domain.xmax, domain.ymin, domain.ymax)
    return TrainingBatch(source_points=y, source_coeffs=c, eval_points=z, v_noisy=v_noisy)


def _target_rule(batch: TrainingBatch, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The batch's circle rule: its directions (T, 2) and the conjugate test functions at its angles, (T, M)."""
    t = circle_angles(k, reach(batch.eval_points) + reach(batch.source_points))
    return directions(t), np.conj(_test_functions(batch.source_coeffs, batch.source_points, t, k)).T


def _batch_target(batch: TrainingBatch, k: float, rows: slice, rule) -> np.ndarray:
    """<e^{-ik xhat . z_l}, v_m>_{S^1} = 2 pi sum_n conj(c_nm) J_0(k |z_l - y_nm|) for the points z_l of rows.

    Shape (rows, M).  The trapezoid rule pairs the plane waves of z with the
    test functions at the circle_angles directions of rule, _target_rule's.
    """
    xhat, conj_v = rule
    target = plane_waves(batch.eval_points[rows], xhat, k) @ conj_v
    target *= 2.0 * np.pi / len(xhat)
    return target


def _residual(params: NetworkParams, batch: TrainingBatch, aperture: ApertureSet, k: float):
    """Residual matrix of the discrete loss plus the caches reverse mode needs.

    The target is subtracted from the inner products in their buffer, one
    block of numerics.blocks rows at a time with the batch's one circle
    rule, so beside the L x M residual a step holds one block's target only.
    """
    angles = aperture.receiver_angles()
    acts = _forward_cached(params, batch.eval_points)
    g = _probe(_coefficients(acts[-1], params.order), batch.eval_points, angles, k)  # (L, Q)
    w = aperture.quadrature_weights()
    r = g @ (w * np.conj(batch.v_noisy)).T  # (L, M) inner products
    del g
    rule = _target_rule(batch, k)
    for rows in blocks(len(r), r.itemsize * r.shape[1]):
        r[rows] -= _batch_target(batch, k, rows, rule)
    return r, acts, w


def loss_gradient(
    params: NetworkParams, batch: TrainingBatch, aperture: ApertureSet, k: float
) -> tuple[float, list[np.ndarray]]:
    """Loss value plus the exact gradient of every layer."""
    r, acts, w = _residual(params, batch, aperture, k)
    basis = fourier_modes(params.order, aperture.receiver_angles())
    l_pts, m_fns = r.shape
    # Wirtinger: d loss / d conj(G_{lq}) = (w_q/(ML)) (R V)_{lq}
    d_conj_g = r @ batch.v_noisy  # (L, Q)
    d_conj_g *= w / (l_pts * m_fns)
    m_mat = np.conj(d_conj_g, out=d_conj_g) @ basis.T  # (L, 2P+1): sum_q conj(D_lq) e^{i n theta_q}
    dout = np.concatenate([2.0 * np.real(m_mat), -2.0 * np.imag(m_mat)], axis=1)
    squares = np.abs(r)
    squares **= 2
    value = float(np.mean(squares))
    del r, squares, d_conj_g, m_mat  # the backward pass needs none of them
    return value, _backward(params, acts, dout)


def _adam_step(params: NetworkParams, m: list, v: list, grads: list, t: int, lr: float) -> None:
    """Adam update of step t >= 1; the moment lists m and v are updated in place.

    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and w -= lr (m / c1) /
    (sqrt(v / c2) + eps), one operation at a time in that order, each into the
    moments, one scratch array per layer or the gradient, which the step uses up.
    """
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for w, m_i, v_i, g in zip(params.layers, m, v, grads):
        s = np.multiply(1 - BETA1, g)
        m_i *= BETA1
        m_i += s
        v_i *= BETA2
        v_i += np.multiply(1 - BETA2, np.square(g, out=g), out=g)
        np.multiply(lr, np.divide(m_i, c1, out=s), out=s)
        s /= np.add(np.sqrt(np.divide(v_i, c2, out=g), out=g), ADAM_EPS, out=g)
        w -= s


def train(
    config: TrainConfig,
    aperture: ApertureSet,
    domain: Box,
    k: float,
    callback=None,
) -> tuple[NetworkParams, np.ndarray]:
    """Run the full training loop; returns final parameters and the loss trace.

    callback(iteration, params) fires every checkpoint_every steps.
    """
    rng = CounterRng(config.seed)
    params = NetworkParams.initialize(config, rng.spawn(0))
    batch_rng = rng.spawn(1)
    m = [np.zeros_like(w) for w in params.layers]
    v = [np.zeros_like(w) for w in params.layers]
    trace = np.empty(config.iterations)
    initial = None
    for j in range(config.iterations):
        batch = sample_batch(config, domain, aperture, k, batch_rng)
        value, grads = loss_gradient(params, batch, aperture, k)
        trace[j] = value
        if initial is None:
            initial = value
        elif value > DIVERGENCE_FACTOR * initial:
            raise NumericalError(
                f"training diverged at iteration {j}: loss {value:.3e} vs initial {initial:.3e}"
            )
        _adam_step(params, m, v, grads, j + 1, learning_rate(j))
        if callback is not None and (j + 1) % config.checkpoint_every == 0:
            callback(j + 1, params)
    return params, trace


def network_probe(params: NetworkParams, grid, aperture: ApertureSet, k: float) -> BandedProbe:
    """_probe over a sampling grid from a trained network, one band of grid rows per call.

    A band is its network coefficients times the Fourier modes, into which
    its plane waves are added one grid row at a time.  So the coefficients
    and the probe exist for one band of points at a time, the activations
    for one block of network_forward, and the plane waves for one grid row,
    once the activations are gone.
    """
    angles = aperture.receiver_angles()
    modes = fourier_modes(params.order, angles)
    points = grid.points
    waves = grid_band_waves(grid, directions(angles), k)

    def band(rows: slice) -> np.ndarray:
        samples = waves(rows, add_to=network_forward(params, points[rows]) @ modes)
        if not np.all(np.isfinite(samples)):
            raise ValidationError("probing samples must be finite")
        return samples

    return BandedProbe(band, aperture)
