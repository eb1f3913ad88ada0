"""Text file formats: byte-exact CSVs and checkpoints, and the checked far-field reader."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdsm.dpn import NetworkParams, TrainConfig
from lapdsm.dsm import IndexField
from lapdsm.errors import ValidationError
from lapdsm.fileio import (
    read_checkpoint,
    read_farfield_csv,
    write_checkpoint,
    write_farfield_csv,
    write_index_csv,
    write_kernel_csv,
    write_pgm,
)
from lapdsm.presets import config1_aperture, config2_aperture
from lapdsm.rng import CounterRng
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


def column_index_csv(path, field):
    """The writer that formatted every coordinate of every row, kept as the oracle of the shared-prefix writer."""
    rows = np.column_stack([field.grid.points, field.values])
    with open(path, "w") as f:
        f.write("x,y,value\n")
        f.write(("%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist()))


@settings(max_examples=40, deadline=None)
@given(
    resolution=st.integers(1, 40),
    corner=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    size=st.tuples(st.floats(1e-9, 1e6), st.floats(1e-9, 1e6)),
    values=st.data(),
)
def test_index_csv_is_byte_identical_to_column_writer(tmp_path_factory, resolution, corner, size, values):
    (x0, y0), (w, h) = corner, size
    grid = SamplingGrid(Box(x0, x0 + w, y0, y0 + h), resolution)
    field = IndexField(grid, values.draw(st.lists(st.floats(0.0, 1e300), min_size=resolution**2, max_size=resolution**2)))
    d = tmp_path_factory.mktemp("csv")
    write_index_csv(d / "new.csv", field)
    column_index_csv(d / "old.csv", field)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def per_row_kernel_csv(path, betas, radii, columns):
    """The row-at-a-time writer the kernel command used before fileio wrote its CSV, kept as its oracle."""
    with open(path, "w") as f:
        f.write("R," + ",".join(f"beta={b:g}" for b in betas) + "\n")
        for i, r in enumerate(radii):
            f.write("%.17g" % r + "," + ",".join("%.17g" % c[i] for c in columns) + "\n")


@settings(max_examples=40, deadline=None)
@given(
    betas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    r_max=st.floats(-5.0, 5.0),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-300, 1e-2, 1e300]),
)
def test_kernel_csv_is_byte_identical_to_per_row_writer(tmp_path_factory, betas, r_max, steps, seed, scale):
    radii = np.linspace(0.0, r_max, steps)
    values = scale * np.random.default_rng(seed).uniform(0.0, 1.0, (steps, len(betas)))
    d = tmp_path_factory.mktemp("csv")
    write_kernel_csv(d / "new.csv", betas, radii, values)
    per_row_kernel_csv(d / "old.csv", betas, radii, [values[:, j].tolist() for j in range(len(betas))])
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def per_row_farfield_csv(path, data):
    """The value-at-a-time writer that write_farfield_csv replaced, kept as its oracle."""
    angles = data.aperture.receiver_angles()
    with open(path, "w") as f:
        f.write("incidence_index,theta_radians,re,im\n")
        for j in range(len(data.samples)):
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


def test_checkpoint_is_written_row_by_row(tmp_path):
    # a paper-size network (2 -> 4 x 200 -> 82): tracemalloc peaks at 1.26 MiB when a whole
    # layer is turned into Python floats first, 0.03 MiB one row at a time
    params = NetworkParams.initialize(TrainConfig(), CounterRng(0))
    tracemalloc.start()
    try:
        write_checkpoint(tmp_path / "net.ckpt", params, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


@pytest.mark.parametrize(
    "edit,message",
    [
        # one value moved from line 4 to line 3: the block's count is right, its rows are not
        (lambda lines: lines[:2] + [lines[2] + " " + lines[3].split(" ", 1)[0], lines[3].split(" ", 1)[1]] + lines[4:],
         ":3: malformed checkpoint: expected 12 values, got 13"),
        (lambda lines: lines[:4], ":5: malformed checkpoint: list index out of range"),
        (lambda lines: lines[:3] + [lines[3].replace(" ", " nan ", 1)] + lines[4:],
         ":4: malformed checkpoint: expected 12 values, got 13"),
        (lambda lines: lines[:4] + [lines[4].rsplit(" ", 1)[0] + " -inf"] + lines[5:],
         ":5: malformed checkpoint: values must be finite"),
        (lambda lines: lines[:18] + [lines[18] + " 1"] + lines[19:], ":19: malformed checkpoint: expected 2 values, got 3"),
    ],
    ids=["value-moved-between-rows", "truncated", "extra-nan", "infinite-bias", "last-layer-long-row"],
)
def test_malformed_checkpoint_names_its_line(tmp_path, edit, message):
    # layers 2 -> 12 -> 2 (order 0): line 2 is 'layer 2 12', lines 3-5 its rows, line 6 'layer 12 2', lines 7-19
    params = NetworkParams(layers=[np.full((3, 12), 0.5), np.full((13, 2), -0.25)], order=0)
    write_checkpoint(tmp_path / "net.ckpt", params, 8.0)
    lines = (tmp_path / "net.ckpt").read_text().splitlines()
    (tmp_path / "bad.ckpt").write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValidationError) as info:
        read_checkpoint(tmp_path / "bad.ckpt")
    assert str(info.value) == f"{tmp_path / 'bad.ckpt'}{message}"


def test_header_naming_more_lines_than_the_file_has_is_malformed_before_allocation(tmp_path):
    # the second layer alone would need 10^15 + 2 lines; allocating the first would take 21 PiB
    lines = ["DPN v1 P=1 layers=2,1000000000000000,6 k=8", "layer 2 1000000000000000", "0.5 0.5"]
    (tmp_path / "huge.ckpt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as info:
        read_checkpoint(tmp_path / "huge.ckpt")
    assert str(info.value) == f"{tmp_path / 'huge.ckpt'}:4: malformed checkpoint: list index out of range"


def test_header_naming_a_wider_layer_than_its_first_row_is_malformed_before_allocation(tmp_path):
    # the line count is right; allocating the layer the header names would take 85 PiB
    lines = ["DPN v1 P=1000000000000000 layers=2,4000000000000002 k=8", "layer 2 4000000000000002", *["0.5 0.5 0.5"] * 3]
    (tmp_path / "hugep.ckpt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as info:
        read_checkpoint(tmp_path / "hugep.ckpt")
    assert str(info.value) == f"{tmp_path / 'hugep.ckpt'}:3: malformed checkpoint: expected 4000000000000002 values, got 3"


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 6), min_size=0, max_size=3),
    spot=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    fault=st.sampled_from(["short", "long", "x", "0x10", "1.0.0", "--1", "nan", "inf", "-inf"]),
)
def test_corrupt_row_names_exactly_its_line(tmp_path_factory, hidden, spot, fault):
    # one row of one layer: too short, too long, or one value replaced by a non-number or a non-finite number
    dims = [2, *hidden, 6]  # order 1
    params = NetworkParams(layers=[np.full((i + 1, o), 0.5) for i, o in zip(dims[:-1], dims[1:])], order=1)
    d = tmp_path_factory.mktemp("ckpt")
    write_checkpoint(d / "net.ckpt", params, 8.0)
    lines = (d / "net.ckpt").read_text().splitlines()
    layer = spot[0] % len(params.layers)
    fan_in, fan_out = dims[layer], dims[layer + 1]
    row = spot[1] % (fan_in + 1)
    lineno = 1 + sum(i + 2 for i in dims[:layer]) + 1 + row + 1  # header, earlier layers, this layer's tag, rows
    values = lines[lineno - 1].split()
    if fault == "short":
        values, message = values[:-1], f"expected {fan_out} values, got {fan_out - 1}"
    elif fault == "long":
        values, message = values + ["0.5"], f"expected {fan_out} values, got {fan_out + 1}"
    else:
        values[spot[2] % fan_out] = fault
        finite = fault in ("nan", "inf", "-inf")
        message = "values must be finite" if finite else f"could not convert string to float: {fault!r}"
    lines[lineno - 1] = " ".join(values)
    (d / "bad.ckpt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as info:
        read_checkpoint(d / "bad.ckpt")
    assert str(info.value) == f"{d / 'bad.ckpt'}:{lineno}: malformed checkpoint: {message}"


def test_checkpoint_values_may_be_split_by_any_whitespace(tmp_path):
    params = NetworkParams(layers=[np.arange(36.0).reshape(3, 12) / 7, np.arange(26.0).reshape(13, 2) / 3], order=0)
    write_checkpoint(tmp_path / "net.ckpt", params, 8.0)
    text = (tmp_path / "net.ckpt").read_text().splitlines()
    spaced = text[:3] + ["  " + text[3].replace(" ", " \t ") + " "] + text[4:]
    (tmp_path / "spaced.ckpt").write_text("\n".join(spaced) + "\n")
    back, k = read_checkpoint(tmp_path / "spaced.ckpt")
    assert k == 8.0
    for got, want in zip(back.layers, params.layers):
        np.testing.assert_array_equal(got, want)


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
