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
from .scene import ApertureSet, FarFieldData


def _write_table(path, header: str, row_format: str, rows: np.ndarray) -> None:
    """The header, then row_format filled from each row of the 2-D rows, all rows in one % operation."""
    with open(path, "w") as f:
        f.write(header)
        f.write((row_format * rows.shape[0]) % tuple(rows.ravel().tolist()))


def write_farfield_csv(path, data: FarFieldData) -> None:
    """Rows: incidence_index,theta_radians,re,im in receiver order."""
    angles = data.aperture.receiver_angles()
    n_inc, q = data.samples.shape
    u = data.samples.ravel()
    rows = np.column_stack([np.repeat(np.arange(n_inc), q), np.tile(angles, n_inc), u.real, u.imag])
    _write_table(path, "incidence_index,theta_radians,re,im\n", "%d,%.17g,%.17g,%.17g\n", rows)


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
    """Rows: x,y,value over the sampling grid (row-major); the n x and n y
    coordinates are formatted once, and each grid row's template is its y
    and value fields joined after every one of the x prefixes."""
    xs = ["%.17g," % x for x in field.grid.xs.tolist()]
    rows = ["%.17g,%%.17g\n" % y for y in field.grid.ys.tolist()]
    template = "".join([row.join(xs) + row for row in rows])
    with open(path, "w") as f:
        f.write("x,y,value\n")
        f.write(template % tuple(field.values.tolist()))


def write_kernel_csv(path, betas, radii: np.ndarray, values: np.ndarray) -> None:
    """Header R,beta=...; one row per radius: the radius, then |K_Gamma| for each direction."""
    rows = np.column_stack([radii, values])
    header = "R," + ",".join(f"beta={b:g}" for b in betas) + "\n"
    _write_table(path, header, ",".join(["%.17g"] * rows.shape[1]) + "\n", rows)


def write_pgm(path, field: IndexField) -> None:
    """8-bit ASCII PGM (P2), row-major, pixel = round(255 * value / max)."""
    n = field.grid.resolution
    peak = field.values.max()
    if peak <= 0:
        raise ValidationError("cannot rasterize an all-zero field")
    pix = np.rint(255.0 * field.values / peak).astype(int).reshape(n, n)
    _write_table(path, f"P2\n{n} {n}\n255\n", " ".join(["%d"] * n) + "\n", pix)


def write_metadata(path, meta: dict) -> None:
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def read_metadata(path) -> dict:
    with text_input(path) as f:
        return json.load(f)


def write_loss_trace(path, trace: np.ndarray) -> None:
    """Rows: iteration,loss for iterations 1..n."""
    rows = np.column_stack([np.arange(1, trace.size + 1), trace])
    _write_table(path, "iteration,loss\n", "%d,%.17g\n", rows)


# --------------------------------------------------------------------------
# Network checkpoints: versioned text format for portability
# --------------------------------------------------------------------------
def write_checkpoint(path, params: NetworkParams, k: float) -> None:
    """Header, then per layer a tag and its rows; each row is formatted on its own,
    so no more than one row of Python floats exists at a time."""
    dims = params.layer_dims
    with open(path, "w") as f:
        f.write(f"DPN v1 P={params.order} layers={','.join(str(d) for d in dims)} k={k:.17g}\n")
        for w in params.layers:
            f.write(f"layer {w.shape[0] - 1} {w.shape[1]}\n")
            row = " ".join(["%.17g"] * w.shape[1]) + "\n"
            for values in w:
                f.write(row % tuple(values.tolist()))


def read_checkpoint(path) -> tuple[NetworkParams, float]:
    """Network and wavenumber from a checkpoint; malformed content raises ValidationError naming its line.

    The file must have the lines the header's layer sizes need, and a layer's
    first row the width its tag names, before that layer is allocated.  Each
    row is split only to convert it: checked for its length, assigned into its
    layer's array (numpy parses each token as Python's float does), then
    checked for finiteness.
    """
    with text_input(path) as f:
        lines = f.readlines()
    i = 0
    try:
        tag, version, order, dims, k = lines[0].split()
        order, k = int(order.removeprefix("P=")), float(k.removeprefix("k="))
        dims = [int(d) for d in dims.removeprefix("layers=").split(",")]
        if (tag, version) != ("DPN", "v1") or len(dims) < 2 or dims[0] != 2 or dims[-1] != 4 * order + 2:
            raise ValueError("expected header 'DPN v1 P=<order> layers=2,...,<4P+2> k=<wavenumber>'")
        if len(lines) < 1 + sum(fan_in + 2 for fan_in in dims[:-1]):  # a tag and fan_in + 1 rows per layer
            i = len(lines)  # the first line the file lacks
            raise IndexError("list index out of range")
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            i += 1
            if lines[i].split() != ["layer", str(fan_in), str(fan_out)]:
                raise ValueError(f"expected 'layer {fan_in} {fan_out}'")
            for r in range(fan_in + 1):
                i += 1
                tokens = lines[i].split()
                if len(tokens) != fan_out:
                    raise ValueError(f"expected {fan_out} values, got {len(tokens)}")
                if r == 0:  # a row of the header's width must exist before a layer that wide is allocated
                    w = np.empty((fan_in + 1, fan_out))
                w[r] = tokens
                if not np.isfinite(w[r]).all():
                    raise ValueError("values must be finite")
            layers.append(w)
    except (ValueError, IndexError) as e:
        raise ValidationError(f"{path}:{i + 1}: malformed checkpoint: {e}") from None
    return NetworkParams(layers=layers, order=order), k
