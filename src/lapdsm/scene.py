"""Experiment description: scatterers, incident waves, aperture, grid, noise.

A Scene is immutable after construction and fully serializable to JSON, so
every CLI artifact can record exactly what produced it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass
from typing import Union

import numpy as np

from .errors import ValidationError, text_input
from .numerics import arc_norm
from .rng import CounterRng

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Arc:
    """One measurement arc: half-width alpha, center angle beta, receiver count."""

    alpha: float
    beta: float
    receivers: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= np.pi):
            raise ValidationError(f"arc half-width must be in (0, pi], got {self.alpha}")
        if not (-np.pi < self.beta <= np.pi):
            raise ValidationError(f"arc center must be in (-pi, pi], got {self.beta}")
        if not isinstance(self.receivers, int) or isinstance(self.receivers, bool) or self.receivers < 1:
            raise ValidationError(f"arc receiver count must be a positive int, got {self.receivers!r}")

    def receiver_angles(self) -> np.ndarray:
        """Midpoint-rule receiver positions inside the open arc interval."""
        q = self.receivers
        j = np.arange(1, q + 1)
        return self.beta - self.alpha + (j - 0.5) * (2.0 * self.alpha / q)


@dataclass(frozen=True)
class ApertureSet:
    """Union of pairwise-disjoint arcs on the unit circle."""

    arcs: tuple[Arc, ...]

    def __post_init__(self):
        arcs = tuple(self.arcs)
        object.__setattr__(self, "arcs", arcs)
        if not arcs:
            raise ValidationError("aperture needs at least one arc")
        if self.measure > _TWO_PI + 1e-12:
            raise ValidationError("total aperture measure exceeds 2*pi")
        starts = [(a.beta - a.alpha) % _TWO_PI for a in arcs]
        lengths = [2.0 * a.alpha for a in arcs]
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                dij = (starts[j] - starts[i]) % _TWO_PI
                dji = (starts[i] - starts[j]) % _TWO_PI
                if dij < lengths[i] - 1e-12 or dji < lengths[j] - 1e-12:
                    raise ValidationError(f"arcs {i} and {j} overlap on the circle")

    @property
    def measure(self) -> float:
        """Total angular measure |Gamma| = sum of 2*alpha_l."""
        return sum(2.0 * a.alpha for a in self.arcs)

    @property
    def total_receivers(self) -> int:
        return sum(a.receivers for a in self.arcs)

    def is_full_circle(self) -> bool:
        return abs(self.measure - _TWO_PI) < 1e-9

    def receiver_angles(self) -> np.ndarray:
        """All receiver angles, arc order then increasing angle within each arc."""
        return np.concatenate([a.receiver_angles() for a in self.arcs])

    def quadrature_weights(self) -> np.ndarray:
        """Per-receiver Riemann weights |Gamma_l| / Q_l."""
        return np.concatenate(
            [np.full(a.receivers, 2.0 * a.alpha / a.receivers) for a in self.arcs]
        )


def full_circle(receivers: int) -> ApertureSet:
    """The full-aperture S^1 measurement set (single arc of half-width pi)."""
    return ApertureSet((Arc(alpha=np.pi, beta=0.0, receivers=receivers),))


# --------------------------------------------------------------------------
# Scatterer shapes
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float
    refractive_index: float

    def __post_init__(self):
        _check_center(self, "disk center")
        _check_positive("disk radius", self.radius)
        _check_index(self.refractive_index)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = np.hypot(pts[..., 0] - self.center[0], pts[..., 1] - self.center[1])
        return d <= self.radius

    @property
    def area(self) -> float:
        return np.pi * self.radius**2

    def bounding_box(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cx + r, cy - r, cy + r)


@dataclass(frozen=True)
class Ring:
    center: tuple[float, float]
    inner_radius: float
    outer_radius: float
    refractive_index: float

    def __post_init__(self):
        _check_center(self, "ring center")
        _check_finite("ring outer radius", self.outer_radius)
        if not (0 < self.inner_radius < self.outer_radius):
            raise ValidationError("ring needs 0 < inner_radius < outer_radius")
        _check_index(self.refractive_index)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = np.hypot(pts[..., 0] - self.center[0], pts[..., 1] - self.center[1])
        return (d >= self.inner_radius) & (d <= self.outer_radius)

    @property
    def area(self) -> float:
        return np.pi * (self.outer_radius**2 - self.inner_radius**2)

    def bounding_box(self):
        cx, cy = self.center
        r = self.outer_radius
        return (cx - r, cx + r, cy - r, cy + r)


@dataclass(frozen=True)
class Rectangle:
    center: tuple[float, float]
    width: float
    height: float
    refractive_index: float

    def __post_init__(self):
        _check_center(self, "rectangle center")
        _check_positive("rectangle width", self.width)
        _check_positive("rectangle height", self.height)
        _check_index(self.refractive_index)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return (np.abs(pts[..., 0] - self.center[0]) <= self.width / 2) & (
            np.abs(pts[..., 1] - self.center[1]) <= self.height / 2
        )

    @property
    def area(self) -> float:
        return self.width * self.height

    def bounding_box(self):
        cx, cy = self.center
        return (cx - self.width / 2, cx + self.width / 2, cy - self.height / 2, cy + self.height / 2)


Scatterer = Union[Disk, Ring, Rectangle]


def _check_center(shape, what: str) -> None:
    """Store the center as a tuple, as read from a JSON list, and reject a non-finite one."""
    object.__setattr__(shape, "center", tuple(shape.center))
    _check_finite(what, shape.center)


def _check_finite(what: str, value) -> None:
    """Reject a NaN or infinite number, or a tuple holding one, naming the field."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{what} must be finite, got {value!r}")


def _check_positive(what: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be finite and positive, got {value!r}")


def _check_index(n: float):
    _check_positive("refractive index", n)
    if abs(n - 1.0) < 1e-12:
        raise ValidationError("refractive index 1 gives no contrast")


# --------------------------------------------------------------------------
# Scene, sampling grid, far-field data
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Box:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        _check_finite("domain box", (self.xmin, self.xmax, self.ymin, self.ymax))
        if self.xmin >= self.xmax or self.ymin >= self.ymax:
            raise ValidationError("degenerate domain box")


@dataclass(frozen=True)
class Scene:
    wavenumber: float
    domain: Box
    scatterers: tuple[Scatterer, ...]
    incidences: tuple[tuple[float, float], ...]
    aperture: ApertureSet

    def __post_init__(self):
        _check_positive("wavenumber", self.wavenumber)
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        object.__setattr__(
            self, "incidences", tuple(tuple(float(c) for c in d) for d in self.incidences)
        )
        if not self.incidences:
            raise ValidationError("scene needs at least one incidence direction")
        for d in self.incidences:
            _check_finite("incidence direction", d)
            if abs(np.hypot(*d) - 1.0) > 1e-9:
                raise ValidationError(f"incidence direction {d} is not a unit vector")
        dom = self.domain
        for s in self.scatterers:
            x0, x1, y0, y1 = s.bounding_box()
            if x0 < dom.xmin or x1 > dom.xmax or y0 < dom.ymin or y1 > dom.ymax:
                raise ValidationError(f"scatterer {s} is not contained in the domain")


def refractive_index_grid(scene: Scene, pts: np.ndarray) -> np.ndarray:
    """Vectorized refractive index over points (n, 2); innermost shape wins."""
    n = np.ones(pts.shape[0])
    order = sorted(scene.scatterers, key=lambda s: -s.area)
    for s in order:
        n[s.contains(pts)] = s.refractive_index
    return n


@dataclass(frozen=True)
class SamplingGrid:
    """Row-major lattice of cell centers covering the domain box."""

    domain: Box
    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValidationError("grid resolution must be positive")

    @property
    def xs(self) -> np.ndarray:
        d, n = self.domain, self.resolution
        h = (d.xmax - d.xmin) / n
        return d.xmin + (np.arange(n) + 0.5) * h

    @property
    def ys(self) -> np.ndarray:
        d, n = self.domain, self.resolution
        h = (d.ymax - d.ymin) / n
        return d.ymin + (np.arange(n) + 0.5) * h

    @property
    def points(self) -> np.ndarray:
        """(n*n, 2) cell centers, row-major: index = iy * n + ix."""
        xx, yy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class FarFieldData:
    """Complex far-field samples per incidence at the aperture's receivers."""

    samples: np.ndarray  # (n_incidences, n_receivers)
    aperture: ApertureSet

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim == 1:
            s = s[None, :]
        if s.shape[1] != self.aperture.total_receivers:
            raise ValidationError(
                f"sample count {s.shape[1]} != receiver count {self.aperture.total_receivers}"
            )
        if not np.all(np.isfinite(s)):
            raise ValidationError("far-field samples must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


def pollute(u: np.ndarray, delta: float, aperture: ApertureSet, rng: CounterRng) -> np.ndarray:
    """The pointwise Gaussian noise model, row by row over the last axis of u.

    Each receiver sample gains delta * (eta_r + i eta_i) * ||u||_{L2(Gamma)}
    / |Gamma|^{1/2}: u.size standard-normal draws for eta_r, then as many for
    eta_i.  With delta = 0 it returns a copy of u and draws nothing.
    """
    if delta == 0.0:
        return u.copy()
    eta_r = rng.normals(u.size).reshape(u.shape)
    eta_i = rng.normals(u.size).reshape(u.shape)
    scale = arc_norm(u, aperture) / np.sqrt(aperture.measure)
    return u + delta * (eta_r + 1j * eta_i) * scale[..., None]


def add_noise(data: FarFieldData, delta: float, seed: int) -> FarFieldData:
    """Far-field data polluted by the seeded noise model, one incidence at a time."""
    if delta < 0:
        raise ValidationError("noise level must be nonnegative")
    rng = CounterRng(seed)
    out = [pollute(u, delta, data.aperture, rng) for u in data.samples]
    return FarFieldData(np.array(out), data.aperture)


# --------------------------------------------------------------------------
# JSON serialization
# --------------------------------------------------------------------------
# Each scatterer type's class and the JSON keys of its fields, in field order.
_SHAPES = {
    "disk": (Disk, ("center", "radius", "n")),
    "ring": (Ring, ("center", "inner", "outer", "n")),
    "rectangle": (Rectangle, ("center", "width", "height", "n")),
}


def aperture_to_dict(aperture: ApertureSet) -> dict:
    return {"arcs": [asdict(a) for a in aperture.arcs]}


def scene_to_dict(scene: Scene) -> dict:
    scat = []
    for s in scene.scatterers:
        kind, keys = next((kind, keys) for kind, (cls, keys) in _SHAPES.items() if type(s) is cls)
        scat.append({"type": kind, **dict(zip(keys, astuple(s)))})
    return {
        "wavenumber": scene.wavenumber,
        "domain": asdict(scene.domain),
        "scatterers": scat,
        "incidences": [list(d) for d in scene.incidences],
        "aperture": aperture_to_dict(scene.aperture),
    }


def scene_from_dict(d: dict) -> Scene:
    """Scene from its JSON form; a missing key or a value of the wrong type raises ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"scene must be a JSON object, got {type(d).__name__}")
    try:
        dom = Box(**d["domain"])
        scat = []
        for s in d["scatterers"]:
            if s["type"] not in _SHAPES:
                raise ValidationError(f"unknown scatterer type {s['type']!r}")
            cls, keys = _SHAPES[s["type"]]
            scat.append(cls(*(s[key] for key in keys)))
        arcs = tuple(Arc(a["alpha"], a["beta"], a["receivers"]) for a in d["aperture"]["arcs"])
        return Scene(
            wavenumber=d["wavenumber"],
            domain=dom,
            scatterers=tuple(scat),
            incidences=tuple(tuple(v) for v in d["incidences"]),
            aperture=ApertureSet(arcs),
        )
    except KeyError as e:
        raise ValidationError(f"scene file missing key {e}") from e
    except ValidationError:
        raise
    except (TypeError, ValueError, IndexError) as e:
        raise ValidationError(f"malformed scene: {e}") from e


def load_scene(path) -> Scene:
    with text_input(path) as f:
        return scene_from_dict(json.load(f))
