"""Dense classical probing set (test helper).

`index_classical` pairs the far-field Green probe with the data through a
separable product on the sampling grid and never builds the n_points x Q
matrix of probe values.  This helper builds exactly that matrix, so the
tests can check the separable path against the plain pairing
`|samples @ (conj(u) w)|` and use G_inf as a probing set of its own.
"""

import numpy as np

from lapdsm.dsm import ProbingSet
from lapdsm.numerics import green_far_prefactor
from lapdsm.scene import ApertureSet, SamplingGrid


def green_probing_set(grid: SamplingGrid, aperture: ApertureSet, k: float) -> ProbingSet:
    """Classical probing set: G_inf sampled at every (z, receiver) pair."""
    angles = aperture.receiver_angles()
    xhat = np.column_stack([np.cos(angles), np.sin(angles)])
    phase = k * grid.points @ xhat.T
    return ProbingSet(green_far_prefactor(k) * (np.cos(phase) - 1j * np.sin(phase)), aperture)
