"""The DPN training step written out of place (test only).

Each function is the formula the in-place training step in `lapdsm.dpn`
evaluates, with a fresh array for every intermediate: the same IEEE
operations on the same operands in the same order.  The in-place step must
equal it under np.array_equal, so a rewrite that only chooses where a result
goes passes and one that reorders or reassociates an operation fails.
"""

import numpy as np

from lapdsm import dpn
from lapdsm.numerics import circle_angles, directions, fourier_modes, plane_waves, reach


def batch_target(batch, k):
    t = circle_angles(k, reach(batch.eval_points) + reach(batch.source_points))
    v = dpn._test_functions(batch.source_coeffs, batch.source_points, t, k)
    return plane_waves(batch.eval_points, directions(t), k) @ np.conj(v).T * (2.0 * np.pi / t.size)


def residual(params, batch, aperture, k):
    angles = aperture.receiver_angles()
    acts = dpn._forward_cached(params, batch.eval_points)
    g = dpn._probe(dpn._coefficients(acts[-1], params.order), batch.eval_points, angles, k)
    w = aperture.quadrature_weights()
    inner = g @ (w * np.conj(batch.v_noisy)).T
    return inner - batch_target(batch, k), acts, w


def backward(params, acts, dout):
    grads = [None] * len(params.layers)
    delta = dout
    for i in range(len(params.layers) - 1, -1, -1):
        grads[i] = np.vstack([acts[i].T @ delta, delta.sum(axis=0)])
        if i > 0:
            delta = (delta @ params.layers[i][:-1].T) * (acts[i] > 0.0)
    return grads


def loss_gradient(params, batch, aperture, k):
    r, acts, w = residual(params, batch, aperture, k)
    basis = fourier_modes(params.order, aperture.receiver_angles())
    l_pts, m_fns = r.shape
    d_conj_g = (r @ batch.v_noisy) * (w / (l_pts * m_fns))
    m_mat = np.conj(d_conj_g) @ basis.T
    dout = np.concatenate([2.0 * np.real(m_mat), -2.0 * np.imag(m_mat)], axis=1)
    return float(np.mean(np.abs(r) ** 2)), backward(params, acts, dout)


def adam_step(layers, m, v, grads, t, lr):
    """New layers and moments of Adam step t; the inputs are left as they are."""
    c1 = 1.0 - dpn.BETA1**t
    c2 = 1.0 - dpn.BETA2**t
    new_layers, new_m, new_v = [], [], []
    for w, m_i, v_i, g in zip(layers, m, v, grads):
        new_m.append(m_i * dpn.BETA1 + (1 - dpn.BETA1) * g)
        new_v.append(v_i * dpn.BETA2 + (1 - dpn.BETA2) * g**2)
        new_layers.append(w - lr * (new_m[-1] / c1) / (np.sqrt(new_v[-1] / c2) + dpn.ADAM_EPS))
    return new_layers, new_m, new_v
