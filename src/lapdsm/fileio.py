"""File formats for CLI artifacts: CSV, ASCII PGM, checkpoints, metadata.

All numeric output uses repr-faithful decimal (%.17g) so reruns with the
same seed are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .dpn import NetworkParams
from .dsm import IndexField
from .errors import ValidationError, text_input
from .scene import ApertureSet, FarFieldData, SamplingGrid


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_farfield_csv(path, data: FarFieldData) -> None:
    """Rows: incidence_index,theta_radians,re,im in receiver order."""
    angles = data.aperture.receiver_angles()
    n_inc, q = data.samples.shape
    u = data.samples.ravel()
    rows = np.column_stack([np.repeat(np.arange(n_inc), q), np.tile(angles, n_inc), u.real, u.imag])
    with open(path, "w") as f:
        f.write("incidence_index,theta_radians,re,im\n")
        f.write(("%d,%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist()))


def read_farfield_csv(path, aperture: ApertureSet) -> FarFieldData:
    """Far-field samples, checked row by row against the aperture's receivers.

    Each incidence 0..J-1 must list every receiver once, in receiver order,
    at its angle to within 1e-12.
    """
    angles = aperture.receiver_angles()
    q = angles.shape[0]
    rows: dict[int, list[complex]] = {}
    with text_input(path) as f:
        header = f.readline().strip()
        if header != "incidence_index,theta_radians,re,im":
            raise ValidationError(f"unexpected far-field CSV header: {header!r}")
        for lineno, line in enumerate(f, start=2):
            try:
                idx, theta, re, im = line.strip().split(",")
                j, theta, u = int(idx), float(theta), float(re) + 1j * float(im)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: expected incidence_index,theta_radians,re,im; got {line.strip()!r}"
                ) from None
            col = rows.setdefault(j, [])
            if len(col) == q:
                raise ValidationError(f"{path}:{lineno}: incidence {j} has more than {len(col)} receivers")
            want = float(angles[len(col)])
            if not abs(theta - want) <= 1e-12:
                raise ValidationError(
                    f"{path}:{lineno}: angle {theta!r} is not receiver {len(col)}'s angle {want!r}"
                )
            col.append(u)
    if not rows:
        raise ValidationError("far-field CSV contains no samples")
    if sorted(rows) != list(range(len(rows))):
        raise ValidationError(f"{path}: incidence indices {sorted(rows)} do not run 0..{len(rows) - 1}")
    for j, col in sorted(rows.items()):
        if len(col) != q:
            raise ValidationError(f"{path}: incidence {j} has {len(col)} rows, expected {q}")
    samples = np.array([rows[j] for j in range(len(rows))])
    return FarFieldData(samples, aperture)


def write_index_csv(path, field: IndexField) -> None:
    """Rows: x,y,value over the sampling grid (row-major)."""
    rows = np.column_stack([field.grid.points, field.values])
    with open(path, "w") as f:
        f.write("x,y,value\n")
        f.write(("%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist()))


def write_pgm(path, field: IndexField) -> None:
    """8-bit ASCII PGM (P2), row-major, pixel = round(255 * value / max)."""
    n = field.grid.resolution
    peak = field.values.max()
    if peak <= 0:
        raise ValidationError("cannot rasterize an all-zero field")
    pix = np.rint(255.0 * field.values / peak).astype(int).reshape(n, n)
    with open(path, "w") as f:
        f.write(f"P2\n{n} {n}\n255\n")
        f.write(((" ".join(["%d"] * n) + "\n") * n) % tuple(pix.ravel().tolist()))


def write_metadata(path, meta: dict) -> None:
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def read_metadata(path) -> dict:
    with text_input(path) as f:
        return json.load(f)


def write_loss_trace(path, trace: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("iteration,loss\n")
        for j, v in enumerate(trace, start=1):
            f.write(f"{j},{_fmt(v)}\n")


# --------------------------------------------------------------------------
# Network checkpoints: versioned text format for portability
# --------------------------------------------------------------------------
def write_checkpoint(path, params: NetworkParams, k: float) -> None:
    dims = params.layer_dims
    with open(path, "w") as f:
        f.write(f"DPN v1 P={params.order} layers={','.join(str(d) for d in dims)} k={_fmt(k)}\n")
        for w in params.layers:
            f.write(f"layer {w.shape[0] - 1} {w.shape[1]}\n")
            row = " ".join(["%.17g"] * w.shape[1]) + "\n"
            for values in w.tolist():
                f.write(row % tuple(values))


def read_checkpoint(path) -> tuple[NetworkParams, float]:
    """Network and wavenumber from a checkpoint; malformed content raises ValidationError."""
    with text_input(path) as f:
        lines = [line.split() for line in f]
    i = 0
    try:
        tag, version, order, dims, k = lines[0]
        order, k = int(order.removeprefix("P=")), float(k.removeprefix("k="))
        dims = [int(d) for d in dims.removeprefix("layers=").split(",")]
        if (tag, version) != ("DPN", "v1") or len(dims) < 2 or dims[0] != 2 or dims[-1] != 4 * order + 2:
            raise ValueError("expected header 'DPN v1 P=<order> layers=2,...,<4P+2> k=<wavenumber>'")
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            i += 1
            if lines[i] != ["layer", str(fan_in), str(fan_out)]:
                raise ValueError(f"expected 'layer {fan_in} {fan_out}'")
            rows = []
            for _ in range(fan_in + 1):
                i += 1
                rows.append([float(v) for v in lines[i]])
                if len(rows[-1]) != fan_out:
                    raise ValueError(f"expected {fan_out} values, got {len(rows[-1])}")
                if not np.all(np.isfinite(rows[-1])):
                    raise ValueError("values must be finite")
            layers.append(np.array(rows))
    except (ValueError, IndexError) as e:
        raise ValidationError(f"{path}:{i + 1}: malformed checkpoint: {e}") from None
    return NetworkParams(layers=layers, order=order), k
