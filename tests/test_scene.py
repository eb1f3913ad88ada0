"""Scene geometry, receiver layouts, noise model, serialization."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapdsm.errors import ValidationError
from lapdsm.scene import (
    ApertureSet,
    Arc,
    Box,
    Disk,
    FarFieldData,
    Rectangle,
    Ring,
    SamplingGrid,
    Scene,
    add_noise,
    full_circle,
    refractive_index_grid,
    scene_from_dict,
    scene_to_dict,
)
from lapdsm.numerics import arc_norm
from lapdsm.presets import config1_aperture, config2_aperture, preset_scene
from reference import refractive_index_at
from strategies import apertures


class TestArcs:
    def test_receiver_angles_midpoint_rule(self):
        arc = Arc(alpha=np.pi / 2, beta=0.0, receivers=2)
        np.testing.assert_allclose(arc.receiver_angles(), [-np.pi / 4, np.pi / 4])

    def test_config1_layout(self):
        ap = config1_aperture()
        assert ap.total_receivers == 100
        t = ap.receiver_angles()
        assert t.shape == (100,)
        assert t[0] == pytest.approx(-2 * np.pi / 5 + np.pi / 250)
        assert t[-1] == pytest.approx(2 * np.pi / 5 - np.pi / 250)
        assert ap.measure == pytest.approx(4 * np.pi / 5)

    def test_config2_layout(self):
        ap = config2_aperture()
        assert ap.total_receivers == 90
        assert len(ap.arcs) == 3
        assert ap.measure == pytest.approx(3 * np.pi / 4)

    def test_full_circle_measure(self):
        ap = full_circle(64)
        assert ap.is_full_circle()
        assert np.all(np.diff(ap.receiver_angles()) > 0)

    def test_overlapping_arcs_rejected(self):
        with pytest.raises(ValidationError):
            ApertureSet((Arc(0.5, 0.0, 4), Arc(0.5, 0.3, 4)))

    def test_disjoint_arcs_accepted(self):
        ApertureSet((Arc(0.5, 0.0, 4), Arc(0.5, 2.0, 4)))

    @settings(max_examples=100, deadline=None)
    @given(ap=apertures())
    @example(ap=config2_aperture())
    def test_weights_sum_to_measure(self, ap):
        assert abs(ap.quadrature_weights().sum() - ap.measure) <= 1e-12


class TestShapes:
    def test_disk_contains(self):
        d = Disk((0.5, 0.0), 0.2, 2.0)
        pts = np.array([[0.5, 0.0], [0.5, 0.19], [0.5, 0.21]])
        np.testing.assert_array_equal(d.contains(pts), [True, True, False])

    def test_ring_contains(self):
        r = Ring((0.0, 0.0), 0.3, 0.4, 2.0)
        pts = np.array([[0.0, 0.0], [0.35, 0.0], [0.45, 0.0]])
        np.testing.assert_array_equal(r.contains(pts), [False, True, False])

    def test_rectangle_contains(self):
        r = Rectangle((0.0, 0.0), 0.5, 0.3, 2.0)
        pts = np.array([[0.24, 0.14], [0.26, 0.0], [0.0, 0.16]])
        np.testing.assert_array_equal(r.contains(pts), [True, False, False])

    def test_invalid_shapes(self):
        with pytest.raises(ValidationError):
            Disk((0, 0), -0.1, 2.0)
        with pytest.raises(ValidationError):
            Ring((0, 0), 0.4, 0.3, 2.0)
        with pytest.raises(ValidationError):
            Disk((0, 0), 0.1, 1.0)  # no contrast


class TestSceneValidation:
    def test_non_unit_incidence_rejected(self):
        with pytest.raises(ValidationError):
            Scene(8.0, Box(-1, 1, -1, 1), (Disk((0, 0), 0.1, 2.0),), ((1.0, 1.0),), full_circle(8))

    def test_scatterer_outside_domain_rejected(self):
        with pytest.raises(ValidationError):
            Scene(8.0, Box(-1, 1, -1, 1), (Disk((0.95, 0), 0.1, 2.0),), ((1.0, 0.0),), full_circle(8))

    def test_refractive_index_lookup(self):
        sc = preset_scene("ex1_2")
        assert refractive_index_at(sc, (0.2, 0.15)) == pytest.approx(2.0)  # in the ring
        assert refractive_index_at(sc, (0.2, -0.2)) == pytest.approx(1.0)  # ring hole
        assert refractive_index_at(sc, (0.9, 0.9)) == pytest.approx(1.0)

    def test_refractive_index_grid_matches_pointwise(self):
        sc = preset_scene("ex2_2")
        grid = SamplingGrid(sc.domain, 20)
        vec = refractive_index_grid(sc, grid.points)
        point = np.array([refractive_index_at(sc, p) for p in grid.points])
        np.testing.assert_array_equal(vec, point)

    def test_innermost_shape_wins(self):
        sc = Scene(
            8.0,
            Box(-1, 1, -1, 1),
            (Disk((0, 0), 0.5, 2.0), Disk((0, 0), 0.1, 3.0)),
            ((1.0, 0.0),),
            full_circle(8),
        )
        assert refractive_index_at(sc, (0.0, 0.0)) == pytest.approx(3.0)
        assert refractive_index_at(sc, (0.3, 0.0)) == pytest.approx(2.0)


class TestSamplingGrid:
    def test_row_major_ordering(self):
        g = SamplingGrid(Box(0, 1, 0, 1), 2)
        np.testing.assert_allclose(
            g.points, [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        )


class TestNoise:
    def test_zero_delta_is_identity(self):
        ap = config1_aperture()
        data = FarFieldData(np.ones((1, 100)), ap)
        noisy = add_noise(data, 0.0, 3)
        np.testing.assert_array_equal(noisy.samples, data.samples)

    def test_determinism(self):
        ap = config1_aperture()
        data = FarFieldData(np.exp(1j * np.linspace(0, 1, 100))[None, :], ap)
        a = add_noise(data, 0.05, 17).samples
        b = add_noise(data, 0.05, 17).samples
        np.testing.assert_array_equal(a, b)
        c = add_noise(data, 0.05, 18).samples
        assert not np.allclose(a, c)

    def test_linearity_in_delta(self):
        ap = config1_aperture()
        data = FarFieldData(np.exp(1j * np.linspace(0, 2, 100))[None, :], ap)
        d1 = add_noise(data, 0.01, 5).samples - data.samples
        d2 = add_noise(data, 0.02, 5).samples - data.samples
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12)

    def test_expected_relative_error_is_sqrt2_delta(self):
        # E ||u - u_d||^2 = delta^2 * 2 * ||u||^2  =>  relative error ~ sqrt(2) delta
        ap = config1_aperture()
        u = np.exp(1j * 3.0 * np.linspace(0, 2, 100))
        data = FarFieldData(u[None, :], ap)
        delta = 0.05
        ratios = []
        for seed in range(200):
            diff = add_noise(data, delta, seed).samples[0] - u
            ratios.append((arc_norm(diff, ap) / arc_norm(u, ap)) ** 2)
        assert np.mean(ratios) == pytest.approx(2.0 * delta**2, rel=0.1)


class TestSerialization:
    @pytest.mark.parametrize("name", ["ex1_1", "ex1_2", "ex2_1", "ex2_2"])
    def test_round_trip(self, name):
        sc = preset_scene(name)
        assert scene_from_dict(scene_to_dict(sc)) == sc

    def test_missing_key_rejected(self):
        d = scene_to_dict(preset_scene("ex1_1"))
        del d["wavenumber"]
        with pytest.raises(ValidationError):
            scene_from_dict(d)

    def test_unknown_scatterer_rejected(self):
        d = scene_to_dict(preset_scene("ex1_1"))
        d["scatterers"][0]["type"] = "pentagon"
        with pytest.raises(ValidationError):
            scene_from_dict(d)


# the JSON key of each scatterer field, as scene files have always spelled them
JSON_KEYS = {
    "disk": {"center": "center", "radius": "radius", "n": "refractive_index"},
    "ring": {"center": "center", "inner": "inner_radius", "outer": "outer_radius", "n": "refractive_index"},
    "rectangle": {"center": "center", "width": "width", "height": "height", "n": "refractive_index"},
}


@st.composite
def scenes(draw):
    """Disks, rings and rectangles inside [-1, 1]^2, in a random box around it, with random incidences."""
    center = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    size = st.floats(0.01, 0.5)
    index = st.floats(0.1, 10.0).filter(lambda n: abs(n - 1.0) >= 1e-12)
    shape = st.one_of(
        st.builds(Disk, center, size, index),
        st.builds(lambda c, r, t, n: Ring(c, r / 2, r / 2 + t / 2, n), center, size, size, index),
        st.builds(Rectangle, center, size.map(lambda w: 2 * w), size.map(lambda h: 2 * h), index),
    )
    angles = draw(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=3))
    return Scene(
        wavenumber=draw(st.floats(0.1, 50.0)),
        domain=Box(*(draw(st.floats(1.0, 3.0)) * sign for sign in (-1, 1, -1, 1))),
        scatterers=tuple(draw(st.lists(shape, max_size=4))),
        incidences=tuple((np.cos(t), np.sin(t)) for t in angles),
        aperture=draw(apertures()),
    )


@settings(max_examples=100, deadline=None)
@given(scenes())
def test_scene_json_round_trip(scene):
    d = json.loads(json.dumps(scene_to_dict(scene)))
    assert scene_from_dict(d) == scene
    for s, sd in zip(scene.scatterers, d["scatterers"]):
        keys = JSON_KEYS[sd.pop("type")]
        assert sd.keys() == keys.keys()
        assert all(np.array_equal(getattr(s, field), sd[key]) for key, field in keys.items())
