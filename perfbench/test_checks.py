"""Each independent check passes on the program's output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from lapdsm import cli  # noqa: E402

SIM = W._simulate("ff", ["--preset", "ex2_1"], W.FULL, W.PRESETS["ex2_1"]["incidences"], 7, full=True)
LIMITED = W._simulate("ex1_1", ["--preset", "ex1_1"], W.CONFIG1, [(1.0, 0.0)], 8, full=False)
PARTIAL = W._classical("part", "ex1_1", W.CONFIG1, "partial")
FFSM = W._finite_space("ffsm", "ex1_1", W.CONFIG1, "ffsm", [8], W.EX1_1_CENTRES)
KERNEL = W._kernel("kernel")
TRAIN = ["train-dpn", "--config", "1", "--iterations", "2", "--batch-functions", "20", "--points", "20", "--out", "net"]
DPN = W._dpn_reconstruct("dpn", "ex1_1", "net.ckpt")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Program outputs of a few small commands, made once; tests run inside their directory."""
    d = tmp_path_factory.mktemp("outputs")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for argv in (SIM.argv, LIMITED.argv, PARTIAL.argv, FFSM.argv, KERNEL.argv, TRAIN, DPN.argv):
            assert cli.main(argv) == 0, argv
        yield d
    finally:
        os.chdir(cwd)


@pytest.fixture
def restore(outputs):
    """Put back every file a test corrupts."""
    saved = {}

    def corrupt(name: str, edit):
        with open(name) as f:
            saved[name] = text = f.read()
        with open(name, "w") as f:
            f.write(edit(text))

    yield corrupt
    for name, text in saved.items():
        with open(name, "w") as f:
            f.write(text)


def test_checks_pass_on_program_outputs(outputs):
    for cmd in (SIM, LIMITED, PARTIAL, FFSM, KERNEL, DPN):
        cmd.check()


def _flip_largest(text: str) -> str:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    j = max(range(len(rows)), key=lambda i: abs(complex(float(rows[i][2]), float(rows[i][3]))))
    rows[j][2] = repr(-float(rows[j][2]))
    rows[j][3] = repr(-float(rows[j][3]))
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def test_far_field_sign_flip_is_rejected(outputs, restore):
    clean = C.read_farfield("ff.noiseless.csv", W.FULL)
    C.check_full_simulation(clean, W.K, W.PRESETS["ex2_1"]["incidences"])
    restore("ff.noiseless.csv", _flip_largest)
    flipped = C.read_farfield("ff.noiseless.csv", W.FULL)
    assert np.count_nonzero(flipped != clean) == 1
    with pytest.raises(C.CheckFailed, match="optical theorem"):
        C.check_full_simulation(flipped, W.K, W.PRESETS["ex2_1"]["incidences"])
    with pytest.raises(C.CheckFailed):
        SIM.check()


def _swap_extremes(text: str) -> str:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[2]) for r in rows]
    i, j = int(np.argmax(values)), int(np.argmin(values))
    rows[i][2], rows[j][2] = rows[j][2], rows[i][2]
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("cmd,out", [(PARTIAL, "part"), (FFSM, "ffsm")])
def test_swapped_index_values_are_rejected(outputs, restore, cmd, out):
    restore(f"{out}.csv", _swap_extremes)
    with pytest.raises(C.CheckFailed, match="independent value"):
        cmd.check()


def test_perturbed_checkpoint_weight_is_rejected(outputs, restore):
    weights, biases, order, k = C.read_checkpoint("net.ckpt")
    act = C.grid_points(W.GRID)
    for w, b in zip(weights[:-1], biases[:-1]):
        act = np.maximum(act @ w + b, 0.0)
    unit = int(np.argmax(act.mean(axis=0)))  # a last hidden unit that is active on the grid

    def perturb(text: str) -> str:
        lines = text.splitlines()
        start = len(lines) - (weights[-1].shape[0] + 1)  # first row of the last layer's matrix
        row = lines[start + unit].split()
        row[0] = repr(float(row[0]) * 1.001 + 1e-6)
        lines[start + unit] = " ".join(row)
        return "\n".join(lines) + "\n"

    DPN.check()
    restore("net.ckpt", perturb)
    assert not np.array_equal(C.read_checkpoint("net.ckpt")[0][-1], weights[-1])
    with pytest.raises(C.CheckFailed, match="independent value"):
        DPN.check()


def test_traced_child_rebinds_names_imported_across_modules(tmp_path):
    """cli and finite_space import index_classical by name; their calls must be traced too."""
    data = os.path.join(str(tmp_path), "d")
    assert cli.main(["simulate", "--preset", "ex2_1", "--forward-grid", "80", "--out", data]) == 0
    result = os.path.join(str(tmp_path), "r.json")
    argv = ["reconstruct", "--data", f"{data}.noisy.csv", "--method", "fssm", "--sigma-exp", "4",
            "--grid", "16", "--out", os.path.join(str(tmp_path), "o")]
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), result, "1", "--", *argv], check=True)
    with open(result) as f:
        r = json.load(f)
    assert r["exit"] == 0
    assert r["calls"]["cli.main"] == 1
    assert r["calls"]["finite_space.reconstruct_finite_space"] == 1
    assert r["calls"]["dsm.index_classical"] == 1  # called from finite_space under its own name
    assert r["calls"]["finite_space.fssm_rhs_field"] == 1
    assert r["counters"]["dsm.probing_bytes"] == 16 * 16 * 90 * 16
    assert r["counters"]["fileio.bytes_written"] == sum(
        os.path.getsize(os.path.join(str(tmp_path), f"o.{ext}")) for ext in ("csv", "pgm", "meta.json")
    )
    assert all(v >= -1e-6 for v in r["self_s"].values())
    assert r["command_s"] >= sum(r["self_s"].values()) - 1e-6
