"""The DPN loss, the validation residual and its attainable floor (test helpers).

The network's output at a sampling point z is nothing but the 2P+1 complex
Fourier coefficients f(z), and the loss is a quadratic form in them.  So at
each z of the validation batch the best coefficients solve a small linear
least-squares problem over the M test functions, and the batch mean of those
minima is a lower bound for the validation residual of every network of
order P, trained or not.
"""

from dataclasses import replace

import numpy as np

from lapdsm import dpn
from lapdsm.numerics import fourier_modes
from lapdsm.rng import CounterRng


def zero_network(config):
    """The network whose every weight and bias is zero: its probe is the plane-wave initial guess."""
    dims = config.layer_dims
    return dpn.NetworkParams(layers=[np.zeros((a + 1, b)) for a, b in zip(dims[:-1], dims[1:])], order=config.order)


def loss(params, batch, aperture, k):
    """Mean squared residual of the batch, the value dpn.loss_gradient returns without its gradient."""
    r, *_ = dpn._residual(params, batch, aperture, k)
    return float(np.mean(np.abs(r) ** 2))


def validation_batch(config, aperture, domain, k, n_functions=100, seed=12345):
    """The batch `validation_residual` scores: fresh unpolluted test functions from their own stream."""
    cfg = replace(config, batch_functions=n_functions, max_noise=0.0)
    return dpn.sample_batch(cfg, domain, aperture, k, CounterRng(seed, stream=777))


def validation_residual(params, config, aperture, domain, k, **batch_kw):
    """The loss on the validation batch."""
    return loss(params, validation_batch(config, aperture, domain, k, **batch_kw), aperture, k)


def attainable_floor(config, aperture, domain, k, **batch_kw):
    """Lower bound of `validation_residual` for any network of this order.

    Returns (coeffs, floor): coeffs, shape (L, 2P+1), are the per-z
    least-squares coefficients and floor is the mean of |residual|^2 over the
    validation batch with those coefficients.
    """
    batch = validation_batch(config, aperture, domain, k, **batch_kw)
    # the zero network's residual is the plane-wave pairing minus the target
    r0, _, w = dpn._residual(zero_network(config), batch, aperture, k)
    basis = fourier_modes(config.order, aperture.receiver_angles())
    # residual(f) = f @ a + r0, with a the weighted pairing of each Fourier mode with v_m
    a = basis @ (w * np.conj(batch.v_noisy)).T  # (2P+1, M)
    coeffs = np.linalg.lstsq(a.T, -r0.T, rcond=None)[0].T  # (L, 2P+1)
    floor = float(np.mean(np.abs(coeffs @ a + r0) ** 2))
    return coeffs, floor
