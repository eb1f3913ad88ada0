"""Attainable floor of the DPN validation residual (test helper).

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


def validation_batch(config, aperture, domain, k, n_functions=100, seed=12345):
    """The batch `dpn.validation_residual` scores, drawn with the same arguments."""
    cfg = replace(config, batch_functions=n_functions, max_noise=0.0)
    return dpn.sample_batch(cfg, domain, aperture, k, CounterRng(seed, stream=777))


def attainable_floor(config, aperture, domain, k, **batch_kw):
    """Lower bound of `dpn.validation_residual` for any network of this order.

    Returns (coeffs, floor): coeffs, shape (L, 2P+1), are the per-z
    least-squares coefficients and floor is the mean of |residual|^2 over the
    validation batch with those coefficients.
    """
    batch = validation_batch(config, aperture, domain, k, **batch_kw)
    # the zero network's residual is the plane-wave pairing minus the target
    r0, _, w = dpn._residual(dpn.NetworkParams.zeros(config), batch, aperture, k)
    basis = fourier_modes(config.order, aperture.receiver_angles())
    # residual(f) = f @ a + r0, with a the weighted pairing of each Fourier mode with v_m
    a = basis @ (w * np.conj(batch.v_noisy)).T  # (2P+1, M)
    coeffs = np.linalg.lstsq(a.T, -r0.T, rcond=None)[0].T  # (L, 2P+1)
    floor = float(np.mean(np.abs(coeffs @ a + r0) ** 2))
    return coeffs, floor
