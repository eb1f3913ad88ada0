"""Text file formats: byte-exact CSVs and checkpoints, and the checked far-field reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdsm.dpn import NetworkParams
from lapdsm.dsm import IndexField
from lapdsm.errors import ValidationError
from lapdsm.fileio import (
    read_checkpoint,
    read_farfield_csv,
    write_checkpoint,
    write_farfield_csv,
    write_index_csv,
    write_pgm,
)
from lapdsm.presets import config1_aperture, config2_aperture
from lapdsm.scene import Box, FarFieldData, SamplingGrid


def per_row_index_csv(path, field):
    """The row-at-a-time writer that write_index_csv replaced, kept as its oracle."""
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for (x, y), v in zip(field.grid.points, field.values):
            f.write(f"{'%.17g' % x},{'%.17g' % y},{'%.17g' % v}\n")


@settings(max_examples=40, deadline=None)
@given(
    resolution=st.integers(1, 20),
    corner=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    size=st.floats(1e-6, 1e3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 1e300]),
)
def test_index_csv_is_byte_identical_to_per_row_writer(tmp_path_factory, resolution, corner, size, seed, scale):
    x0, y0 = corner
    grid = SamplingGrid(Box(x0, x0 + size, y0, y0 + 2.0 * size), resolution)
    values = scale * np.random.default_rng(seed).uniform(0.0, 1.0, resolution**2)
    field = IndexField(grid, values)
    d = tmp_path_factory.mktemp("csv")
    write_index_csv(d / "new.csv", field)
    per_row_index_csv(d / "old.csv", field)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def per_row_farfield_csv(path, data):
    """The value-at-a-time writer that write_farfield_csv replaced, kept as its oracle."""
    angles = data.aperture.receiver_angles()
    with open(path, "w") as f:
        f.write("incidence_index,theta_radians,re,im\n")
        for j in range(data.n_incidences):
            for theta, u in zip(angles, data.samples[j]):
                f.write(f"{j},{'%.17g' % theta},{'%.17g' % u.real},{'%.17g' % u.imag}\n")


@settings(max_examples=40, deadline=None)
@given(
    config=st.sampled_from([1, 2]),
    receivers=st.integers(1, 40),
    incidences=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, -0.0, 1e-300, 1e-8, 1.0, 1e300]),
)
def test_farfield_csv_is_byte_identical_to_per_row_writer(tmp_path_factory, config, receivers, incidences, seed, scale):
    ap = config1_aperture(receivers=receivers) if config == 1 else config2_aperture(receivers_per_arc=receivers)
    rng = np.random.default_rng(seed)
    shape = (incidences, ap.total_receivers)
    samples = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    data = FarFieldData(samples, ap)
    d = tmp_path_factory.mktemp("csv")
    write_farfield_csv(d / "new.csv", data)
    per_row_farfield_csv(d / "old.csv", data)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_farfield_csv_roundtrip_is_exact(tmp_path):
    ap = config2_aperture()
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(3, ap.total_receivers)) + 1j * rng.normal(size=(3, ap.total_receivers))
    write_farfield_csv(tmp_path / "u.csv", FarFieldData(samples, ap))
    back = read_farfield_csv(tmp_path / "u.csv", ap)
    np.testing.assert_array_equal(back.samples, samples)


def test_farfield_csv_from_another_aperture_is_rejected(tmp_path):
    ap = config2_aperture()
    samples = np.ones((1, ap.total_receivers), dtype=complex)
    write_farfield_csv(tmp_path / "u.csv", FarFieldData(samples, ap))
    with pytest.raises(ValidationError, match="angle"):
        read_farfield_csv(tmp_path / "u.csv", config1_aperture(receivers=ap.total_receivers))


def per_value_checkpoint(path, params, k):
    """The value-at-a-time writer that write_checkpoint replaced, kept as its oracle."""
    dims = params.layer_dims
    with open(path, "w") as f:
        f.write(f"DPN v1 P={params.order} layers={','.join(str(d) for d in dims)} k={'%.17g' % k}\n")
        for layer in params.layers:
            w, b = layer[:-1], layer[-1]
            f.write(f"layer {w.shape[0]} {w.shape[1]}\n")
            for row in w:
                f.write(" ".join("%.17g" % v for v in row) + "\n")
            f.write(" ".join("%.17g" % v for v in b) + "\n")


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 12), min_size=0, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, -0.0, 1e-300, 1e-8, 1.0, 1e300]),
    k=st.floats(0.5, 20.0),
)
def test_checkpoint_is_byte_identical_to_per_value_writer(tmp_path_factory, order, hidden, seed, scale, k):
    dims = [2, *hidden, 4 * order + 2]
    rng = np.random.default_rng(seed)
    weights = [scale * rng.normal(size=(i, o)) for i, o in zip(dims[:-1], dims[1:])]
    biases = [scale * rng.normal(size=o) for o in dims[1:]]
    params = NetworkParams(layers=[np.vstack([w, b]) for w, b in zip(weights, biases)], order=order)
    d = tmp_path_factory.mktemp("ckpt")
    write_checkpoint(d / "new.ckpt", params, k)
    per_value_checkpoint(d / "old.ckpt", params, k)
    assert (d / "new.ckpt").read_bytes() == (d / "old.ckpt").read_bytes()
    back, back_k = read_checkpoint(d / "new.ckpt")
    assert back_k == k
    for got, w, b in zip(back.layers, weights, biases):
        np.testing.assert_array_equal(got[:-1], w)
        np.testing.assert_array_equal(got[-1], b)


def per_row_pgm(path, field):
    """The row-at-a-time writer that write_pgm replaced, kept as its oracle."""
    n = field.grid.resolution
    pix = np.rint(255.0 * field.values / field.values.max()).astype(int).reshape(n, n)
    with open(path, "w") as f:
        f.write(f"P2\n{n} {n}\n255\n")
        for row in pix:
            f.write(" ".join(str(v) for v in row) + "\n")


@settings(max_examples=40, deadline=None)
@given(resolution=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_pgm_is_byte_identical_to_per_row_writer(tmp_path_factory, resolution, seed):
    pixels = np.random.default_rng(seed).integers(0, 256, resolution**2)
    pixels[0] = 255  # the peak, so the pixels are the random image itself
    field = IndexField(SamplingGrid(Box(-1.0, 1.0, -1.0, 1.0), resolution), pixels / 255.0)
    d = tmp_path_factory.mktemp("pgm")
    write_pgm(d / "new.pgm", field)
    per_row_pgm(d / "old.pgm", field)
    assert (d / "new.pgm").read_bytes() == (d / "old.pgm").read_bytes()
    body = (d / "new.pgm").read_text().split()[4:]
    np.testing.assert_array_equal(np.array(body, dtype=int), pixels)
