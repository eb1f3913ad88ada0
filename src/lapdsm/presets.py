"""Experiment presets: the two receiver configurations and four scenes.

Geometry values stated by the source experiments are reproduced exactly;
the rectangle example leaves sizes/positions open, so the shipped pair of
well-separated axis-aligned rectangles is a recorded default, not ground
truth (echoed as such in CLI metadata).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .scene import ApertureSet, Arc, Box, Disk, Rectangle, Ring, Scene

WAVENUMBER = 8.0
DOMAIN = Box(-1.0, 1.0, -1.0, 1.0)


def config1_aperture(receivers: int = 100) -> ApertureSet:
    """Configuration I: one arc of half-width 2*pi/5 centered at angle 0."""
    return ApertureSet((Arc(alpha=2.0 * np.pi / 5.0, beta=0.0, receivers=receivers),))


def config2_aperture(receivers_per_arc: int = 30) -> ApertureSet:
    """Configuration II: three arcs of half-width pi/8 at 0 and +-2*pi/3.

    The 90 receivers are assumed to split equally (30/30/30); override
    receivers_per_arc to change that.
    """
    return ApertureSet(
        (
            Arc(alpha=np.pi / 8.0, beta=0.0, receivers=receivers_per_arc),
            Arc(alpha=np.pi / 8.0, beta=2.0 * np.pi / 3.0, receivers=receivers_per_arc),
            Arc(alpha=np.pi / 8.0, beta=-2.0 * np.pi / 3.0, receivers=receivers_per_arc),
        )
    )


CONFIG_APERTURES = {1: config1_aperture, 2: config2_aperture}

_SQRT3_2 = np.sqrt(3.0) / 2.0

_PRESETS = {
    "ex1_1": dict(
        scatterers=(
            Disk((-0.8, -0.4), 0.15, 2.0),
            Disk((0.0, -0.4), 0.15, 2.0),
            Disk((0.8, -0.4), 0.15, 2.0),
        ),
        incidences=((1.0, 0.0),),
        config=1,
    ),
    "ex1_2": dict(
        scatterers=(Ring((0.2, -0.2), 0.3, 0.4, 2.0),),
        incidences=((1.0, 0.0), (0.0, 1.0)),
        config=1,
    ),
    "ex2_1": dict(
        scatterers=(Disk((-0.6, -0.6), 0.15, 2.0), Disk((-0.2, -0.2), 0.15, 2.0)),
        incidences=((1.0, 0.0),),
        config=2,
    ),
    "ex2_2": dict(
        scatterers=(
            Rectangle((-0.45, 0.45), 0.5, 0.3, 2.0),
            Rectangle((0.45, -0.45), 0.5, 0.3, 2.0),
        ),
        incidences=((1.0, 0.0), (-0.5, _SQRT3_2), (-0.5, -_SQRT3_2)),
        config=2,
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_scene(name: str) -> Scene:
    """Scene for a named preset, measured by its receiver configuration."""
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    spec = _PRESETS[name]
    return Scene(
        wavenumber=WAVENUMBER,
        domain=DOMAIN,
        scatterers=spec["scatterers"],
        incidences=spec["incidences"],
        aperture=CONFIG_APERTURES[spec["config"]](),
    )

