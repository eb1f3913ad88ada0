"""Command-line interface: artifact generation, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapdsm
from lapdsm.cli import main
from lapdsm.dpn import NetworkParams, TrainConfig
from lapdsm.fileio import write_checkpoint
from lapdsm.presets import preset_scene
from lapdsm.rng import CounterRng
from lapdsm.scene import scene_to_dict


@pytest.mark.parametrize(
    "argv,option",
    [
        (["reconstruct", "--data", "d.csv", "--method", "partial", "--grid", "abc"], "--grid"),
        (["reconstruct", "--data", "d.csv", "--method", "ffsm", "--sigma-exp-list", "4,x"], "--sigma-exp-list"),
        (["train-dpn", "--config", "3"], "--config"),
        (["reconstruct", "--data", "d.csv", "--method", "partial", "--grid", "0"], "--grid"),
        (["reconstruct", "--data", "d.csv", "--method", "fssm", "--sigma-exp", "4", "--sources", "0"], "--sources"),
        (["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "4", "--grid", "0"], "--grid"),
        (["rn", "--method", "fssm", "--config", "1", "--sigma-exp", "4", "--sources", "0"], "--sources"),
        (["train-dpn", "--config", "1", "--points", "0"], "--points"),
        (["train-dpn", "--config", "1", "--batch-functions", "0"], "--batch-functions"),
        (["train-dpn", "--config", "1", "--sources-per-function", "0"], "--sources-per-function"),
        (["train-dpn", "--config", "1", "--order", "0"], "--order"),
        (["train-dpn", "--config", "1", "--iterations", "-1"], "--iterations"),
        (["kernel", "--r-steps", "-1"], "argument --r-steps: must be an integer >= 1, got '-1'"),
        (["kernel", "--r-steps", "0"], "argument --r-steps: must be an integer >= 1, got '0'"),
        (["kernel", "--quad-points", "10"], "argument --quad-points: must be an integer >= 64, got '10'"),
        (["simulate", "--preset", "ex1_1", "--forward-grid", "0"], "argument --forward-grid: must be an integer >= 1, got '0'"),
        (["simulate", "--preset", "ex1_1", "--forward-grid", "-3"], "argument --forward-grid: must be an integer >= 1, got '-3'"),
        (["simulate", "--preset", "ex1_1", "--full-aperture", "0"], "argument --full-aperture: must be an integer >= 1, got '0'"),
        (["simulate", "--preset", "ex1_1", "--noise", "nan"], "argument --noise: must be a finite number, got 'nan'"),
        (["simulate", "--preset", "ex1_1", "--noise", "inf"], "argument --noise: must be a finite number, got 'inf'"),
        (["simulate", "--preset", "ex1_1", "--noise=-inf"], "argument --noise: must be a finite number, got '-inf'"),
    ],
    ids=["grid", "sigma-exp-list", "config", "grid-0", "sources-0", "rn-grid-0", "rn-sources-0", "points-0",
         "batch-functions-0", "sources-per-function-0", "train-order-0", "iterations-negative",
         "kernel-r-steps-negative", "kernel-r-steps-0", "kernel-quad-points-10", "simulate-forward-grid-0",
         "simulate-forward-grid-negative", "simulate-full-aperture-0", "simulate-noise-nan", "simulate-noise-inf",
         "simulate-noise-minus-inf"],
)
def test_malformed_argument_is_one_line_error(tmp_path, capsys, argv, option):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.count("\n") == 1 and option in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reconstruct", "--method", "ffsm", "--sigma-exp", "nan"], "finite and positive, got nan"),
        (["reconstruct", "--method", "ffsm", "--sigma-exp-list", "4,nan"], "finite and positive, got nan"),
        (["reconstruct", "--method", "ffsm", "--sigma-exp", "-400"], "finite and positive, got inf"),
        (["reconstruct", "--method", "ffsm", "--sigma-exp", "4", "--order", "0"], "order must be >= 1"),
        (["rn", "--method", "fssm", "--config", "1", "--sigma-exp", "nan"], "finite and positive, got nan"),
        (["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "-400"], "finite and positive, got inf"),
        (["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "400"], "finite and positive, got 0.0"),
        (["rn", "--method", "fssm", "--config", "2", "--sigma-exp", "4", "--order", "0"], "order must be >= 1"),
        (["kernel", "--k", "0"], "--k must be finite and positive"),
        (["kernel", "--k", "-1"], "--k must be finite and positive"),
        (["kernel", "--k", "nan"], "--k must be finite and positive"),
        (["kernel", "--r-max", "nan"], "--r-max must be finite"),
    ],
    ids=["reconstruct-nan", "reconstruct-list-nan", "reconstruct-overflow", "reconstruct-order-0", "rn-nan",
         "rn-overflow", "rn-underflow", "rn-order-0", "kernel-k-0", "kernel-k-negative", "kernel-k-nan",
         "kernel-r-max-nan"],
)
def test_bad_value_is_one_line_error(sim_dir, tmp_path, capsys, argv, message):
    if argv[0] == "reconstruct":
        argv = argv + ["--data", str(sim_dir / "ex1_1.noisy.csv"), "--grid", "8"]
    elif argv[0] == "rn":
        argv = argv + ["--grid", "8"]
    code = main(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One simulated dataset shared by the reconstruction tests."""
    d = tmp_path_factory.mktemp("sim")
    out = str(d / "ex1_1")
    code = main(
        ["simulate", "--preset", "ex1_1", "--noise", "0.01", "--seed", "7",
         "--forward-grid", "80", "--out", out]
    )
    assert code == 0
    return d


class TestSimulate:
    def test_artifacts_exist(self, sim_dir):
        for suffix in (".noiseless.csv", ".noisy.csv", ".meta.json"):
            assert (sim_dir / f"ex1_1{suffix}").exists()

    def test_metadata_roundtrip(self, sim_dir):
        meta = json.loads((sim_dir / "ex1_1.meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["scene"]["wavenumber"] == 8.0
        assert meta["seed"] == 7

    def test_byte_identical_rerun(self, sim_dir, tmp_path):
        out = str(tmp_path / "again")
        assert main(
            ["simulate", "--preset", "ex1_1", "--noise", "0.01", "--seed", "7",
             "--forward-grid", "80", "--out", out]
        ) == 0
        assert read_bytes(tmp_path / "again.noisy.csv") == read_bytes(sim_dir / "ex1_1.noisy.csv")
        assert read_bytes(tmp_path / "again.noiseless.csv") == read_bytes(
            sim_dir / "ex1_1.noiseless.csv"
        )

    def test_full_aperture_flag(self, tmp_path):
        out = str(tmp_path / "full")
        assert main(
            ["simulate", "--preset", "ex1_1", "--full-aperture", "64", "--seed", "1",
             "--forward-grid", "80", "--out", out]
        ) == 0
        lines = (tmp_path / "full.noiseless.csv").read_text().splitlines()
        assert len(lines) == 1 + 64

    def test_missing_scene_is_validation_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_scene_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["simulate", "--scene", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda scene: [scene], "scene must be a JSON object, got list"),
            (lambda scene: scene["scatterers"][0].update(radius="abc") or scene, "malformed scene"),
            (lambda scene: scene["scatterers"][0].update(radius=float("nan")) or scene, "disk radius must be finite"),
            (lambda scene: scene["scatterers"][0].update(center=[float("nan"), 0.0]) or scene, "disk center must be finite"),
            (lambda scene: scene.update(incidences=[[float("nan"), 1.0]]) or scene, "incidence direction must be finite"),
            (lambda scene: scene["scatterers"][1].update(n=float("inf")) or scene, "refractive index must be finite"),
            (lambda scene: scene["aperture"]["arcs"][0].update(receivers=True) or scene, "receiver count must be a positive int"),
            (lambda scene: scene["aperture"]["arcs"][0].update(receivers=1.0) or scene, "receiver count must be a positive int"),
            (lambda scene: scene["aperture"]["arcs"][0].update(receivers=2.5) or scene, "receiver count must be a positive int"),
            (lambda scene: scene.update(wavenumber=float("nan")) or scene, "wavenumber must be finite"),
        ],
        ids=["json-list", "string-radius", "nan-radius", "nan-center", "nan-incidence", "infinite-index",
             "bool-receivers", "float-receivers", "fractional-receivers", "nan-wavenumber"],
    )
    def test_malformed_scene_is_one_line_error(self, tmp_path, capsys, edit, message):
        scene = scene_to_dict(preset_scene("ex2_1"))
        (tmp_path / "bad.json").write_text(json.dumps(edit(scene)))
        code = main(["simulate", "--scene", str(tmp_path / "bad.json"), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and err.count("\n") == 1


class TestReconstruct:
    @pytest.mark.parametrize(
        "method,extra",
        [
            ("partial", []),
            ("ffsm", ["--sigma-exp", "8"]),
            ("fssm", ["--sigma-exp", "4", "--sources", "10"]),
        ],
    )
    def test_methods_produce_artifacts(self, sim_dir, tmp_path, method, extra):
        out = str(tmp_path / method)
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"),
             "--method", method, "--grid", "32", "--out", out] + extra
        )
        assert code == 0
        assert (tmp_path / f"{method}.csv").exists()
        assert (tmp_path / f"{method}.pgm").exists()
        header = (tmp_path / f"{method}.pgm").read_text().splitlines()[:3]
        assert header == ["P2", "32 32", "255"]

    def test_full_method_needs_full_aperture(self, sim_dir, tmp_path):
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"),
             "--method", "full", "--grid", "16", "--out", str(tmp_path / "f")]
        )
        assert code == 2

    def test_sigma_exp_list_writes_multiple(self, sim_dir, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"),
             "--method", "ffsm", "--sigma-exp-list", "4,8", "--grid", "16", "--out", out]
        )
        assert code == 0
        assert (tmp_path / "sweep.m4.0.csv").exists()
        assert (tmp_path / "sweep.m8.0.csv").exists()

    @pytest.mark.parametrize("method", ["ffsm", "fssm"])
    def test_sigma_exp_list_matches_single_runs(self, sim_dir, tmp_path, method):
        args = ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", method,
                "--sources", "8", "--grid", "16"]
        assert main(args + ["--sigma-exp-list", "4,8", "--out", str(tmp_path / "sweep")]) == 0
        for m in ("4", "8"):
            assert main(args + ["--sigma-exp", m, "--out", str(tmp_path / f"one{m}")]) == 0
            for ext in ("csv", "pgm"):
                assert read_bytes(tmp_path / f"sweep.m{m}.0.{ext}") == read_bytes(tmp_path / f"one{m}.{ext}")

    def test_determinism(self, sim_dir, tmp_path):
        args = ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"),
                "--method", "ffsm", "--sigma-exp", "8", "--grid", "24"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_bytes(tmp_path / "a.csv") == read_bytes(tmp_path / "b.csv")
        assert read_bytes(tmp_path / "a.pgm") == read_bytes(tmp_path / "b.pgm")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:], "expected incidence_index"),
            (lambda lines: lines[:5] + [lines[5].replace(",", ",x", 1)] + lines[6:], "expected incidence_index"),
            (lambda lines: lines[:-1], "has 99 rows, expected 100"),
            (lambda lines: [lines[0]] + [line.replace("0,", "1,", 1) for line in lines[1:]], "do not run 0..0"),
        ],
        ids=["short-row", "non-numeric", "missing-receiver", "incidence-gap"],
    )
    def test_malformed_farfield_csv_is_one_line_error(self, sim_dir, tmp_path, capsys, edit, message):
        lines = (sim_dir / "ex1_1.noisy.csv").read_text().splitlines()
        (tmp_path / "bad.noisy.csv").write_text("\n".join(edit(lines)) + "\n")
        (tmp_path / "bad.meta.json").write_text((sim_dir / "ex1_1.meta.json").read_text())
        code = main(["reconstruct", "--data", str(tmp_path / "bad.noisy.csv"), "--method", "partial",
                     "--grid", "8", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and err.count("\n") == 1

    def test_wrong_receiver_angle_is_rejected(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "ex1_1.noisy.csv").read_text().splitlines()
        row = lines[40].split(",")
        row[1] = repr(float(row[1]) + 1e-9)
        lines[40] = ",".join(row)
        (tmp_path / "bad.noisy.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.meta.json").write_text((sim_dir / "ex1_1.meta.json").read_text())
        code = main(["reconstruct", "--data", str(tmp_path / "bad.noisy.csv"), "--method", "partial",
                     "--grid", "8", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "is not receiver 39's angle" in err and err.count("\n") == 1

    def test_metadata_without_scene_is_one_line_error(self, sim_dir, tmp_path, capsys):
        (tmp_path / "bad.meta.json").write_text(json.dumps({"command": "simulate"}))
        code = main(["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--meta",
                     str(tmp_path / "bad.meta.json"), "--method", "partial", "--grid", "8",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert 'no "scene" entry' in err and err.count("\n") == 1

    def test_ffsm_without_sigma_is_validation_error(self, sim_dir, tmp_path):
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"),
             "--method", "ffsm", "--grid", "16", "--out", str(tmp_path / "x")]
        )
        assert code == 2


class TestTrainAndDpnReconstruct:
    def test_train_checkpoint_and_reuse(self, sim_dir, tmp_path):
        out = str(tmp_path / "net")
        code = main(
            ["train-dpn", "--config", "1", "--iterations", "4", "--batch-functions", "10",
             "--points", "10", "--seed", "3", "--out", out]
        )
        assert code == 0
        assert (tmp_path / "net.ckpt").exists()
        assert (tmp_path / "net.loss.csv").exists()
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", "dpn",
             "--checkpoint", str(tmp_path / "net.ckpt"), "--grid", "16",
             "--out", str(tmp_path / "rec")]
        )
        assert code == 0
        assert (tmp_path / "rec.csv").exists()

    def test_train_determinism(self, tmp_path):
        args = ["train-dpn", "--config", "1", "--iterations", "3", "--batch-functions", "8",
                "--points", "8", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "n1")]) == 0
        assert main(args + ["--out", str(tmp_path / "n2")]) == 0
        assert read_bytes(tmp_path / "n1.ckpt") == read_bytes(tmp_path / "n2.ckpt")
        assert read_bytes(tmp_path / "n1.loss.csv") == read_bytes(tmp_path / "n2.loss.csv")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: lines[:2] + ["x" + lines[2]] + lines[3:], "3: malformed checkpoint"),
            (lambda lines: [lines[0].replace("P=3", "P=x")] + lines[1:], "1: malformed checkpoint"),
            (lambda lines: [lines[0].replace("P=3", "P=4")] + lines[1:], "1: malformed checkpoint: expected header"),
            (lambda lines: lines[:1] + ["layer"] + lines[2:], "2: malformed checkpoint: expected 'layer 2 12'"),
            (lambda lines: lines[:2] + [lines[2].rsplit(" ", 1)[0]] + lines[3:], "3: malformed checkpoint: expected 12 values, got 11"),
            (lambda lines: lines[:2] + ["inf " + lines[2].split(" ", 1)[1]] + lines[3:], "3: malformed checkpoint: values must be finite"),
        ],
        ids=["x-prefixed-weight", "header-P", "header-P-mismatch", "bare-layer-tag", "short-row", "infinite-weight"],
    )
    def test_malformed_checkpoint_is_one_line_error(self, tmp_path, capsys, edit, message):
        params = NetworkParams.initialize(TrainConfig(order=3, hidden=(12,)), CounterRng(0))
        write_checkpoint(tmp_path / "net.ckpt", params, 8.0)
        lines = (tmp_path / "net.ckpt").read_text().splitlines()
        (tmp_path / "bad.ckpt").write_text("\n".join(edit(lines)) + "\n")
        args = ["rn", "--method", "dpn", "--config", "1", "--grid", "8", "--out", str(tmp_path / "x")]
        assert main(args + ["--checkpoint", str(tmp_path / "net.ckpt")]) == 0
        code = main(args + ["--checkpoint", str(tmp_path / "bad.ckpt")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and err.count("\n") == 1

    def test_dpn_reconstruct_requires_checkpoint(self, sim_dir, tmp_path):
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", "dpn",
             "--grid", "16", "--out", str(tmp_path / "x")]
        )
        assert code == 2


# each corruptible input file and the command that reads it; the other files stay valid
CORRUPTIBLE = {
    "scene.json": ["simulate", "--scene", "scene.json", "--forward-grid", "40"],
    "ex1_1.noisy.csv": ["reconstruct", "--data", "ex1_1.noisy.csv", "--method", "partial", "--grid", "8"],
    "ex1_1.meta.json": ["reconstruct", "--data", "ex1_1.noisy.csv", "--method", "partial", "--grid", "8"],
    "net.ckpt": ["rn", "--method", "dpn", "--config", "1", "--grid", "8", "--checkpoint", "net.ckpt"],
}


@pytest.fixture(scope="module")
def valid_inputs(sim_dir, tmp_path_factory):
    """The bytes of one valid file of each corruptible kind."""
    d = tmp_path_factory.mktemp("valid")
    write_checkpoint(d / "net.ckpt", NetworkParams.initialize(TrainConfig(order=3, hidden=(12,)), CounterRng(0)), 8.0)
    return {
        "scene.json": json.dumps(scene_to_dict(preset_scene("ex2_1"))).encode(),
        "ex1_1.noisy.csv": read_bytes(sim_dir / "ex1_1.noisy.csv"),
        "ex1_1.meta.json": read_bytes(sim_dir / "ex1_1.meta.json"),
        "net.ckpt": read_bytes(d / "net.ckpt"),
    }


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CORRUPTIBLE)),
    at=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.none() | st.integers(0, 255),
)
def test_corrupted_file_is_never_a_traceback(valid_inputs, name, at, byte):
    # one byte replaced (or the file truncated there) exits 0, 2 or 3 with at most one line
    data = valid_inputs[name]
    i = int(at * len(data))
    bad = data[:i] if byte is None else data[:i] + bytes([byte]) + data[i + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for file, content in valid_inputs.items():
            (d / file).write_bytes(bad if file == name else content)
        argv = [str(d / a) if a in valid_inputs else a for a in CORRUPTIBLE[name]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(d / "out")])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", sorted(CORRUPTIBLE))
def test_undecodable_file_is_named(valid_inputs, tmp_path, capsys, name):
    # reconstruct reads both the far-field CSV and its .meta.json: the message must say which is bad
    for file, content in valid_inputs.items():
        (tmp_path / file).write_bytes(content[:5] + b"\xff" + content[6:] if file == name else content)
    argv = [str(tmp_path / a) if a in valid_inputs else a for a in CORRUPTIBLE[name]]
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(tmp_path / name) in err and "can't decode byte 0xff" in err


class TestKernelAndRn:
    def test_kernel_csv(self, tmp_path):
        out = str(tmp_path / "ker")
        code = main(
            ["kernel", "--beta-list", "0,1.5707963267948966", "--r-max", "1.0",
             "--r-steps", "11", "--quad-points", "128", "--out", out]
        )
        assert code == 0
        lines = (tmp_path / "ker.csv").read_text().splitlines()
        assert lines[0] == "R,beta=0,beta=1.5708"
        assert len(lines) == 12
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        # coincident value alpha / (4 k pi) with defaults alpha = pi/3, k = 8
        assert first[1] == pytest.approx(1.0 / 96.0, abs=1e-8)
        # the list is checked in the command body, so the metadata echoes its string
        assert json.loads((tmp_path / "ker.meta.json").read_text())["args"]["beta_list"] == "0,1.5707963267948966"

    @pytest.mark.parametrize("beta_list", ["0,x", "0,,1", "0,inf"])
    def test_malformed_beta_list_is_one_line_error(self, tmp_path, capsys, beta_list):
        code = main(["kernel", "--beta-list", beta_list, "--out", str(tmp_path / "ker")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--beta-list" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_rn_artifacts(self, tmp_path):
        out = str(tmp_path / "rn")
        code = main(
            ["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "8",
             "--grid", "16", "--out", out]
        )
        assert code == 0
        meta = json.loads((tmp_path / "rn.meta.json").read_text())
        assert meta["max_rn"] > 1.0  # limited aperture inflates the probe norm

    def test_rn_needs_sigma(self, tmp_path):
        assert main(
            ["rn", "--method", "ffsm", "--config", "1", "--grid", "8",
             "--out", str(tmp_path / "x")]
        ) == 2


# every command in the order its inputs need, each run in a fresh interpreter that cannot import scipy
NUMPY_ALONE = [
    ["simulate", "--preset", "ex1_1", "--forward-grid", "30", "--full-aperture", "64", "--out", "sim"],
    ["reconstruct", "--data", "sim.noisy.csv", "--method", "partial", "--grid", "8", "--out", "partial"],
    ["reconstruct", "--data", "sim.noisy.csv", "--method", "full", "--grid", "8", "--out", "full"],
    ["reconstruct", "--data", "sim.noisy.csv", "--method", "ffsm", "--sigma-exp", "4", "--grid", "8", "--out", "ffsm"],
    ["reconstruct", "--data", "sim.noisy.csv", "--method", "fssm", "--sigma-exp", "4", "--sources", "4",
     "--grid", "8", "--out", "fssm"],
    ["train-dpn", "--config", "1", "--iterations", "2", "--batch-functions", "4", "--points", "4", "--out", "net"],
    ["reconstruct", "--data", "sim.noisy.csv", "--method", "dpn", "--checkpoint", "net.ckpt", "--grid", "8",
     "--out", "dpn"],
    ["rn", "--method", "fssm", "--config", "1", "--sigma-exp", "4", "--sources", "4", "--grid", "8", "--out", "rn"],
    ["kernel", "--r-steps", "3", "--quad-points", "64", "--out", "kernel"],
]


def _python(tmp_path, code, *args):
    src = str(Path(lapdsm.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


class TestNumpyAlone:
    def test_import_loads_no_scipy(self, tmp_path):
        run = _python(tmp_path, "import sys, lapdsm.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert run.returncode == 0 and run.stdout == "[]\n", run.stderr

    def test_every_command_runs_without_scipy(self, tmp_path):
        prelude = "import sys; sys.modules['scipy'] = None; from lapdsm.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv in NUMPY_ALONE:
            run = _python(tmp_path, prelude, *argv)
            assert run.returncode == 0, (argv, run.stderr)
