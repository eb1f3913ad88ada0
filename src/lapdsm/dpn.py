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
so training is bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dsm import ProbingSet
from .errors import NumericalError, ValidationError
from .numerics import circle_angles, directions, fourier_modes, grid_plane_waves, plane_waves, reach
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

    @classmethod
    def zeros(cls, config: TrainConfig) -> "NetworkParams":
        dims = config.layer_dims
        return cls(layers=[np.zeros((a + 1, b)) for a, b in zip(dims[:-1], dims[1:])], order=config.order)


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

    Unlike _forward_cached it holds one activation at a time.
    """
    for y in _layers(params, np.atleast_2d(np.asarray(z, dtype=float))):
        pass
    return _coefficients(y, params.order)


def _backward(params: NetworkParams, acts, dout: np.ndarray) -> list[np.ndarray]:
    """Gradient of a scalar loss per layer given d(loss)/d(output), matching _forward_cached."""
    grads = [None] * len(params.layers)
    delta = dout
    for i in range(len(params.layers) - 1, -1, -1):
        grads[i] = np.vstack([acts[i].T @ delta, delta.sum(axis=0)])
        if i > 0:
            # a rectified activation is positive exactly where its pre-activation is
            delta = (delta @ params.layers[i][:-1].T) * (acts[i] > 0.0)
    return grads


def _probe(coeffs: np.ndarray, z: np.ndarray, angles: np.ndarray, k: float) -> np.ndarray:
    """Fourier sum of the coefficients plus the plane-wave initial guess, shape (n_points, n_angles).

    Training evaluates the probe here; probing_set_from_network is the same probe on a grid.
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
    noise_level: float
    v_clean: np.ndarray  # (M, Q) complex, at receiver angles
    v_noisy: np.ndarray  # (M, Q) complex


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
    v = _test_functions(c, y, aperture.receiver_angles(), k)
    v_noisy = pollute(v, delta, aperture, rng)
    z = rng.uniform_box(l, domain.xmin, domain.xmax, domain.ymin, domain.ymax)
    return TrainingBatch(
        source_points=y,
        source_coeffs=c,
        eval_points=z,
        noise_level=delta,
        v_clean=v,
        v_noisy=v_noisy,
    )


def _batch_target(batch: TrainingBatch, k: float) -> np.ndarray:
    """<e^{-ik xhat . z_l}, v_m>_{S^1} = 2 pi sum_n conj(c_nm) J_0(k |z_l - y_nm|), shape (L, M).

    The trapezoid rule pairs the plane waves of z with the test functions
    at the circle_angles directions.
    """
    t = circle_angles(k, reach(batch.eval_points) + reach(batch.source_points))
    v = _test_functions(batch.source_coeffs, batch.source_points, t, k)  # (M, T)
    return plane_waves(batch.eval_points, directions(t), k) @ np.conj(v).T * (2.0 * np.pi / t.size)


def _residual(params: NetworkParams, batch: TrainingBatch, aperture: ApertureSet, k: float):
    """Residual matrix of the discrete loss plus the caches reverse mode needs."""
    angles = aperture.receiver_angles()
    acts = _forward_cached(params, batch.eval_points)
    g = _probe(_coefficients(acts[-1], params.order), batch.eval_points, angles, k)  # (L, Q)
    w = aperture.quadrature_weights()
    inner = g @ (w * np.conj(batch.v_noisy)).T  # (L, M)
    r = inner - _batch_target(batch, k)
    return r, acts, w


def loss(params: NetworkParams, batch: TrainingBatch, aperture: ApertureSet, k: float) -> float:
    r, *_ = _residual(params, batch, aperture, k)
    return float(np.mean(np.abs(r) ** 2))


def loss_gradient(
    params: NetworkParams, batch: TrainingBatch, aperture: ApertureSet, k: float
) -> tuple[float, list[np.ndarray]]:
    """Loss value plus the exact gradient of every layer."""
    r, acts, w = _residual(params, batch, aperture, k)
    basis = fourier_modes(params.order, aperture.receiver_angles())
    l_pts, m_fns = r.shape
    # Wirtinger: d loss / d conj(G_{lq}) = (w_q/(ML)) (R V)_{lq}
    d_conj_g = (r @ batch.v_noisy) * (w / (l_pts * m_fns))  # (L, Q)
    m_mat = np.conj(d_conj_g) @ basis.T  # (L, 2P+1): sum_q conj(D_lq) e^{i n theta_q}
    dout = np.concatenate([2.0 * np.real(m_mat), -2.0 * np.imag(m_mat)], axis=1)
    return float(np.mean(np.abs(r) ** 2)), _backward(params, acts, dout)


def _adam_step(params: NetworkParams, m: list, v: list, grads: list, t: int, lr: float) -> None:
    """Adam update of step t >= 1; the moment lists m and v are updated in place."""
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for w, m_i, v_i, g in zip(params.layers, m, v, grads):
        m_i *= BETA1
        m_i += (1 - BETA1) * g
        v_i *= BETA2
        v_i += (1 - BETA2) * g**2
        w -= lr * (m_i / c1) / (np.sqrt(v_i / c2) + ADAM_EPS)


def train(
    config: TrainConfig,
    aperture: ApertureSet,
    domain: Box,
    k: float,
    callback=None,
) -> tuple[NetworkParams, np.ndarray]:
    """Run the full training loop; returns final parameters and the loss trace.

    callback(iteration, params, trace) fires every checkpoint_every steps.
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
            callback(j + 1, params, trace[: j + 1])
    return params, trace


def validation_residual(
    params: NetworkParams,
    config: TrainConfig,
    aperture: ApertureSet,
    domain: Box,
    k: float,
    n_functions: int = 100,
    seed: int = 12345,
) -> float:
    """Mean squared loss bracket on fresh unpolluted test functions."""
    cfg = replace(config, batch_functions=n_functions, max_noise=0.0)
    rng = CounterRng(seed, stream=777)
    batch = sample_batch(cfg, domain, aperture, k, rng)
    return loss(params, batch, aperture, k)


def probing_set_from_network(params: NetworkParams, grid, aperture: ApertureSet, k: float):
    """ProbingSet over a sampling grid from a trained network: _probe, with separable plane waves."""
    angles = aperture.receiver_angles()
    samples = grid_plane_waves(grid, directions(angles), k, product=True)
    samples += network_forward(params, grid.points) @ fourier_modes(params.order, angles)
    return ProbingSet(samples, aperture)
