"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from lapdsm.scene import ApertureSet, Arc, Disk, Rectangle


@st.composite
def apertures(draw):
    """One to three disjoint arcs, each inside its own sector of the circle."""
    n = draw(st.integers(1, 3))
    offset = draw(st.floats(-np.pi / n, np.pi / n))
    arcs = []
    for i in range(n):
        alpha = draw(st.floats(0.05, 0.95)) * np.pi / n
        beta = np.pi - (np.pi - offset - 2.0 * np.pi * i / n) % (2.0 * np.pi)  # in [-pi, pi]: % may round up to 2 pi
        beta = beta if beta > -np.pi else np.pi  # the same direction, in the (-pi, pi] an Arc takes
        arcs.append(Arc(alpha=alpha, beta=beta, receivers=draw(st.integers(1, 40))))
    return ApertureSet(tuple(arcs))


def shapes():
    """A disk or a rectangle inside [-0.95, 0.95]^2 with refractive index in [1.1, 3]."""
    return st.one_of(
        st.builds(
            Disk,
            center=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
            radius=st.floats(0.05, 0.35),
            refractive_index=st.floats(1.1, 3.0),
        ),
        st.builds(
            Rectangle,
            center=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
            width=st.floats(0.05, 0.7),
            height=st.floats(0.05, 0.7),
            refractive_index=st.floats(1.1, 3.0),
        ),
    )
