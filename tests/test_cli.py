"""Command-line interface: artifact generation, determinism, exit codes."""

import contextlib
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapdsm
from lapdsm import cli, fileio
from lapdsm.cli import build_parser, main
from lapdsm.dpn import NetworkParams, TrainConfig
from lapdsm.fileio import write_checkpoint
from lapdsm.presets import config1_aperture, preset_scene
from lapdsm.rng import CounterRng
from lapdsm.scene import aperture_to_dict, scene_to_dict

# the .meta.json sidecar of a checkpoint trained for configuration I: reconstruct and rn read its aperture
CONFIG1_SIDECAR = json.dumps({"aperture": aperture_to_dict(config1_aperture())})


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
        (["kernel", "--quad-points", "10"], "unrecognized arguments: --quad-points 10"),
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


def exit_code(argv) -> int:
    """main's exit code, whether the parser or the command reports the error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reconstruct", "--method", "ffsm", "--sigma-exp", "nan"],
         "argument --sigma-exp: must be a finite number, got 'nan'"),
        (["reconstruct", "--method", "ffsm", "--sigma-exp-list", "4,nan"],
         "argument --sigma-exp-list: must be comma-separated finite numbers, got '4,nan'"),
        (["reconstruct", "--method", "ffsm", "--sigma-exp", "-400"], "finite and positive, got inf"),
        (["reconstruct", "--method", "ffsm", "--sigma-exp", "4", "--order", "0"],
         "argument --order: must be an integer >= 1, got '0'"),
        (["rn", "--method", "fssm", "--config", "1", "--sigma-exp", "nan"],
         "argument --sigma-exp: must be a finite number, got 'nan'"),
        (["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "-400"], "finite and positive, got inf"),
        (["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "400"], "finite and positive, got 0.0"),
        (["rn", "--method", "fssm", "--config", "2", "--sigma-exp", "4", "--order", "0"],
         "argument --order: must be an integer >= 1, got '0'"),
        (["kernel", "--k", "0"], "argument --k: must be finite and positive, got '0'"),
        (["kernel", "--k", "-1"], "argument --k: must be finite and positive, got '-1'"),
        (["kernel", "--k", "nan"], "argument --k: must be finite and positive, got 'nan'"),
        (["kernel", "--r-max", "nan"], "argument --r-max: must be finite and non-negative, got 'nan'"),
    ],
    ids=["reconstruct-nan", "reconstruct-list-nan", "reconstruct-overflow", "reconstruct-order-0", "rn-nan",
         "rn-overflow", "rn-underflow", "rn-order-0", "kernel-k-0", "kernel-k-negative", "kernel-k-nan",
         "kernel-r-max-nan"],
)
def test_bad_value_is_one_line_error(sim_dir, tmp_path, capsys, argv, message):
    # a value the parser can judge alone exits from parse_args; sigma's overflow is found by the solver
    if argv[0] == "reconstruct":
        argv = argv + ["--data", str(sim_dir / "ex1_1.noisy.csv"), "--grid", "8"]
    elif argv[0] == "rn":
        argv = argv + ["--grid", "8"]
    code = exit_code(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


# each pair of flags that name one input twice, in otherwise valid small commands: (argv, first, second);
# SCENE and DATA stand for input files
SOURCES = {"--config": "1", "--scene": "SCENE", "--preset": "ex2_1"}
CONFLICTS = {
    "simulate-scene-preset": (["simulate", "--forward-grid", "20"], "--scene", "--preset"),
    "reconstruct-sigma-exp-list": (["reconstruct", "--data", "DATA", "--method", "ffsm", "--grid", "8"],
                                   "--sigma-exp", "--sigma-exp-list"),
    **{
        f"{command}-{a[2:]}-{b[2:]}": ([command, *extra], a, b)
        for command, extra in [
            ("train-dpn", ["--iterations", "1", "--batch-functions", "2", "--points", "2", "--order", "2"]),
            ("rn", ["--method", "ffsm", "--sigma-exp", "4", "--grid", "8"]),
        ]
        for a, b in [("--config", "--preset"), ("--config", "--scene"), ("--scene", "--preset")]
    },
}


@pytest.mark.parametrize("name", sorted(CONFLICTS))
def test_conflicting_flags_are_one_line_error(sim_dir, tmp_path, capsys, name):
    argv, first, second = CONFLICTS[name]
    (tmp_path / "scene.json").write_text(json.dumps(scene_to_dict(preset_scene("ex1_1"))))
    files = {"SCENE": str(tmp_path / "scene.json"), "DATA": str(sim_dir / "ex1_1.noisy.csv")}
    values = {**SOURCES, "--sigma-exp": "4", "--sigma-exp-list": "6,8"}
    argv = [files.get(a, a) for a in argv + [first, values[first], second, values[second]]]
    (tmp_path / "out").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out" / "x")])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.count("\n") == 1 and f"argument {second}: not allowed with argument {first}" in err
    assert not list((tmp_path / "out").iterdir())


# the probe flags each method reads; reconstruct and rn reject any other probe flag
PROBE_FLAGS = {"--order": "3", "--sources": "2", "--checkpoint": "missing.ckpt", "--sigma-exp": "4",
               "--sigma-exp-list": "4,6"}
READS = {"full": (), "partial": (), "ffsm": ("--order", "--sigma-exp", "--sigma-exp-list"),
         "fssm": ("--order", "--sources", "--sigma-exp", "--sigma-exp-list"), "dpn": ("--checkpoint",)}
UNUSED = {
    f"{command}-{method}-{flag[2:]}": ([command, "--method", method, *source], flag, method)
    for command, methods, source in [
        ("reconstruct", ["full", "partial", "ffsm", "fssm", "dpn"], ["--data", "DATA"]),
        ("rn", ["ffsm", "fssm", "dpn"], ["--config", "1"]),
    ]
    for method in methods
    for flag in PROBE_FLAGS
    if flag not in READS[method] and (command, flag) != ("rn", "--sigma-exp-list")
}


@pytest.mark.parametrize("name", sorted(UNUSED))
def test_unused_probe_flag_is_one_line_error(sim_dir, tmp_path, capsys, name):
    argv, flag, method = UNUSED[name]
    argv = [str(sim_dir / "ex1_1.noisy.csv") if a == "DATA" else a for a in argv] + [flag, PROBE_FLAGS[flag]]
    (tmp_path / "out").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--grid", "8", "--out", str(tmp_path / "out" / "x")])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.count("\n") == 1 and f"argument {flag}: not read by method '{method}'" in err
    assert not list((tmp_path / "out").iterdir())


def test_partial_with_every_unused_flag_names_the_first(sim_dir, tmp_path, capsys):
    # this call exited 0 and recorded "sigma_exp": 4.0 in its .meta.json, though the partial index reads none of them
    argv = ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", "partial", "--sigma-exp", "4",
            "--order", "3", "--sources", "2", "--checkpoint", "missing.ckpt", "--grid", "8"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "lapdsm reconstruct: error: argument --sigma-exp: not read by method 'partial'\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("method", sorted(READS))
def test_every_flag_a_method_reads_is_accepted(method):
    reads = [a for flag in READS[method] if flag != "--sigma-exp-list" for a in (flag, PROBE_FLAGS[flag])]
    args = build_parser().parse_args(["reconstruct", "--data", "d.csv", "--method", method, *reads, "--out", "x"])
    assert args.method == method and not hasattr(args, "_given")
    if method in ("ffsm", "fssm"):
        build_parser().parse_args(["reconstruct", "--data", "d.csv", "--method", method, "--sigma-exp-list", "4,6",
                                   "--out", "x"])
    if method not in ("full", "partial"):
        build_parser().parse_args(["rn", "--method", method, "--config", "1", *reads, "--out", "x"])


# each subcommand's parsed namespace for a minimal argv and for one that sets the reshaped flags;
# .meta.json echoes it, so a key, value or type that moves would change every artifact
NAMESPACES = {
    "simulate": (["simulate", "--preset", "ex1_1", "--out", "x"],
                 dict(scene=None, preset="ex1_1", noise=0.01, seed=42, forward_grid=120, full_aperture=0)),
    "simulate-set": (["simulate", "--scene", "s.json", "--noise", "0", "--full-aperture", "--out", "x"],
                     dict(scene="s.json", preset=None, noise=0.0, seed=42, forward_grid=120, full_aperture=512)),
    "reconstruct": (["reconstruct", "--data", "d.csv", "--method", "partial", "--out", "x"],
                    dict(data="d.csv", meta=None, method="partial", order=20, sigma_exp=None, sigma_exp_list=None,
                         sources=20, checkpoint=None, grid=128)),
    "reconstruct-set": (["reconstruct", "--data", "d.csv", "--method", "ffsm", "--order", "7", "--sigma-exp-list",
                         "4,6.5", "--out", "x"],
                        dict(data="d.csv", meta=None, method="ffsm", order=7, sigma_exp=None, sigma_exp_list=[4.0, 6.5],
                             sources=20, checkpoint=None, grid=128)),
    "reconstruct-sigma": (["reconstruct", "--data", "d.csv", "--method", "fssm", "--sigma-exp", "4", "--out", "x"],
                          dict(data="d.csv", meta=None, method="fssm", order=20, sigma_exp=4.0, sigma_exp_list=None,
                               sources=20, checkpoint=None, grid=128)),
    "train-dpn": (["train-dpn", "--config", "1", "--out", "x"],
                  dict(config=1, scene=None, preset=None, order=20, iterations=5000, batch_functions=400,
                       sources_per_function=3, points=400, max_noise=0.05, seed=0)),
    "train-dpn-set": (["train-dpn", "--preset", "ex2_1", "--max-noise", "0", "--seed", "-3", "--out", "x"],
                      dict(config=None, scene=None, preset="ex2_1", order=20, iterations=5000, batch_functions=400,
                           sources_per_function=3, points=400, max_noise=0.0, seed=-3)),
    "kernel": (["kernel", "--out", "x"],
               dict(alpha=np.pi / 3.0, beta_list="0,0.7853981633974483,1.5707963267948966", k=8.0, r_max=2.0,
                    r_steps=201)),
    "kernel-set": (["kernel", "--alpha", "1", "--k", "5", "--r-max", "0", "--out", "x"],
                   dict(alpha=1.0, beta_list="0,0.7853981633974483,1.5707963267948966", k=5.0, r_max=0.0,
                        r_steps=201)),
    "rn": (["rn", "--method", "ffsm", "--config", "2", "--out", "x"],
           dict(method="ffsm", config=2, scene=None, preset=None, order=20, sigma_exp=None, sources=20,
                checkpoint=None, grid=128)),
}


@pytest.mark.parametrize("name", sorted(NAMESPACES))
def test_parsed_namespace_is_pinned(name):
    argv, want = NAMESPACES[name]
    command = argv[0]
    func = getattr(cli, "cmd_train" if command == "train-dpn" else f"cmd_{command}")
    want = {**want, "subcommand": command, "out": "x", "func": func}
    assert {k: repr(v) for k, v in vars(build_parser().parse_args(argv)).items()} == {k: repr(v) for k, v in want.items()}


def test_train_defaults_are_train_config():
    args = build_parser().parse_args(["train-dpn", "--config", "1", "--out", "x"])
    config = TrainConfig()
    assert (args.order, args.iterations, args.batch_functions, args.sources_per_function, args.points,
            args.max_noise, args.seed) == (config.order, config.iterations, config.batch_functions,
                                           config.sources_per_function, config.points_per_iteration,
                                           config.max_noise, config.seed)


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

    def test_missing_scene_is_validation_error(self, tmp_path, capsys):
        assert exit_code(["simulate", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "one of the arguments --scene --preset is required" in err
        assert not list(tmp_path.iterdir())

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
            # below the self term's floor k h / sqrt(pi) >= 1e-6 on the default 120-cell grid: these exited 0
            # (1e-4, 1e-8), 3 with RuntimeWarnings (1e-130), or in a ZeroDivisionError traceback (1e-300)
            (lambda scene: scene.update(wavenumber=1e-4) or scene,
             "error: wavenumber 0.0001 is too small for cells of side 0.0166667: k h / sqrt(pi) = 9.4e-07, need >= 1e-06\n"),
            (lambda scene: scene.update(wavenumber=1e-8) or scene,
             "error: wavenumber 1e-08 is too small for cells of side 0.0166667: k h / sqrt(pi) = 9.4e-11, need >= 1e-06\n"),
            (lambda scene: scene.update(wavenumber=1e-130) or scene,
             "error: wavenumber 1e-130 is too small for cells of side 0.0166667: k h / sqrt(pi) = 9.4e-133, need >= 1e-06\n"),
            (lambda scene: scene.update(wavenumber=1e-300) or scene,
             "error: wavenumber 1e-300 is too small for cells of side 0.0166667: k h / sqrt(pi) = 9.4e-303, need >= 1e-06\n"),
        ],
        ids=["json-list", "string-radius", "nan-radius", "nan-center", "nan-incidence", "infinite-index",
             "bool-receivers", "float-receivers", "fractional-receivers", "nan-wavenumber",
             "tiny-wavenumber-1e-4", "tiny-wavenumber-1e-8", "tiny-wavenumber-1e-130", "tiny-wavenumber-1e-300"],
    )
    def test_malformed_scene_is_one_line_error(self, tmp_path, capsys, edit, message):
        scene = scene_to_dict(preset_scene("ex2_1"))
        (tmp_path / "bad.json").write_text(json.dumps(edit(scene)))
        code = main(["simulate", "--scene", str(tmp_path / "bad.json"), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]


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
        args = ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", method, "--grid", "16"]
        args += ["--sources", "8"] if method == "fssm" else []  # ffsm does not read --sources
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

    @pytest.mark.parametrize("iterations,writes", [(4, 2), (5, 3), (0, 1)])
    def test_final_checkpoint_is_written_once(self, tmp_path, monkeypatch, iterations, writes):
        # a checkpoint every 2 steps: 4 iterations write after step 2 and at the end, not at step 4 as well
        paths = []
        write = fileio.write_checkpoint
        monkeypatch.setattr(fileio, "write_checkpoint", lambda path, *a: paths.append(path) or write(path, *a))
        monkeypatch.setattr(cli, "TrainConfig", functools.partial(TrainConfig, checkpoint_every=2))
        args = ["train-dpn", "--config", "1", "--iterations", str(iterations), "--batch-functions", "2",
                "--points", "2", "--order", "2", "--out", str(tmp_path / "net")]
        assert main(args) == 0
        assert paths == [f"{tmp_path / 'net'}.ckpt"] * writes

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
        (tmp_path / "net.meta.json").write_text(CONFIG1_SIDECAR)
        lines = (tmp_path / "net.ckpt").read_text().splitlines()
        (tmp_path / "bad.ckpt").write_text("\n".join(edit(lines)) + "\n")
        args = ["rn", "--method", "dpn", "--config", "1", "--grid", "8", "--out", str(tmp_path / "x")]
        assert main(args + ["--checkpoint", str(tmp_path / "net.ckpt")]) == 0
        code = main(args + ["--checkpoint", str(tmp_path / "bad.ckpt")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and err.count("\n") == 1

    def test_checkpoint_naming_a_huge_layer_is_one_line_error(self, tmp_path, capsys):
        header = "DPN v1 P=1 layers=2,1000000000000000,6 k=8"  # the second layer alone needs 10^15 + 2 lines
        (tmp_path / "huge.ckpt").write_text(f"{header}\nlayer 2 1000000000000000\n0.5\n")
        code = main(["rn", "--method", "dpn", "--config", "1", "--grid", "8", "--checkpoint",
                     str(tmp_path / "huge.ckpt"), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {tmp_path / 'huge.ckpt'}:4: malformed checkpoint: list index out of range\n"

    def test_checkpoint_naming_a_wider_layer_than_its_rows_is_one_line_error(self, tmp_path, capsys):
        header = "DPN v1 P=1000000000000000 layers=2,4000000000000002 k=8"  # five lines, as the header needs
        (tmp_path / "hugep.ckpt").write_text(f"{header}\nlayer 2 4000000000000002\n" + "0.5 0.5 0.5\n" * 3)
        code = main(["rn", "--method", "dpn", "--config", "1", "--checkpoint", str(tmp_path / "hugep.ckpt"),
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {tmp_path / 'hugep.ckpt'}:3: malformed checkpoint: expected 4000000000000002 values, got 3\n"

    def test_dpn_reconstruct_requires_checkpoint(self, sim_dir, tmp_path):
        code = main(
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", "dpn",
             "--grid", "16", "--out", str(tmp_path / "x")]
        )
        assert code == 2


class TestCheckpointProvenance:
    @pytest.fixture(scope="class")
    def config2_net(self, tmp_path_factory):
        """An untrained configuration-II network and its train-dpn sidecar."""
        out = str(tmp_path_factory.mktemp("net2") / "net")
        assert main(["train-dpn", "--config", "2", "--iterations", "0", "--order", "2", "--out", out]) == 0
        return out

    @staticmethod
    def _apply(sim_dir, tmp_path, checkpoint):
        out = ["--checkpoint", checkpoint, "--grid", "8", "--out", str(tmp_path / "x")]
        return [
            ["reconstruct", "--data", str(sim_dir / "ex1_1.noisy.csv"), "--method", "dpn", *out],
            ["rn", "--method", "dpn", "--config", "1", *out],
        ]

    def test_checkpoint_for_another_aperture_is_one_line_error(self, sim_dir, config2_net, tmp_path, capsys):
        # a configuration-II network applied to configuration-I data, or to rn's configuration I
        for argv in self._apply(sim_dir, tmp_path, f"{config2_net}.ckpt"):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err == f"error: {config2_net}.meta.json: the checkpoint was not trained for the aperture in use\n"
        assert not list(tmp_path.iterdir())
        assert main(["rn", "--method", "dpn", "--config", "2", "--checkpoint", f"{config2_net}.ckpt", "--grid", "8",
                     "--out", str(tmp_path / "x")]) == 0

    def test_checkpoint_without_its_sidecar_is_one_line_error(self, sim_dir, config2_net, tmp_path, capsys):
        shutil.copy(f"{config2_net}.ckpt", tmp_path / "lone.ckpt")
        shutil.copy(f"{config2_net}.ckpt", tmp_path / "lone.bin")
        # the message names the sidecar it looked for, or the checkpoint whose sidecar it cannot name
        for name, named in (("lone.ckpt", "lone.meta.json"), ("lone.bin", "lone.bin")):
            for argv in self._apply(sim_dir, tmp_path, str(tmp_path / name)):
                code = main(argv)
                err = capsys.readouterr().err
                assert code == 2
                assert err.count("\n") == 1 and "--meta" not in err  # rn has no --meta to pass
                assert str(tmp_path / named) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lone.bin", "lone.ckpt"]


# each corruptible input file and the command that reads it; the other files stay valid
CORRUPTIBLE = {
    "scene.json": ["simulate", "--scene", "scene.json", "--forward-grid", "40"],
    "ex1_1.noisy.csv": ["reconstruct", "--data", "ex1_1.noisy.csv", "--method", "partial", "--grid", "8"],
    "ex1_1.meta.json": ["reconstruct", "--data", "ex1_1.noisy.csv", "--method", "partial", "--grid", "8"],
    "net.ckpt": ["rn", "--method", "dpn", "--config", "1", "--grid", "8", "--checkpoint", "net.ckpt"],
    "net.meta.json": ["rn", "--method", "dpn", "--config", "1", "--grid", "8", "--checkpoint", "net.ckpt"],
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
        "net.meta.json": CONFIG1_SIDECAR.encode(),
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
             "--r-steps", "11", "--out", out]
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--r-max", "-2"], "lapdsm kernel: error: argument --r-max: must be finite and non-negative, got '-2'\n"),
            (["--k", "1e308"], "error: --k times --r-max must be finite, got 1e+308 * 2.0\n"),
            (["--r-max", "1e308"], "error: --k times --r-max must be finite, got 8.0 * 1e+308\n"),
            (["--k", "1e308", "--r-max", "0"], "error: --k must keep 8 k pi finite, got 1e+308\n"),
            (["--k", "1e-320"], "error: --k must keep 1 / (8 k pi) finite, got 1e-320\n"),
        ],
        ids=["r-max-negative", "k-overflow", "r-max-overflow", "k-scale-overflow", "k-scale-underflow"],
    )
    def test_out_of_range_radius_or_phase_is_one_line_error(self, tmp_path, capsys, argv, message):
        # a negative radius, a largest phase k * r_max beyond the float range (NaN rows before), a kernel
        # scale 1 / (8 k pi) whose 8 k pi overflows (rows of 0 before), or one that overflows itself
        # (rows of inf and two RuntimeWarnings before)
        code = exit_code(["kernel", *argv, "--r-steps", "3", "--out", str(tmp_path / "ker")])
        assert code == 2 and capsys.readouterr().err == message
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
    ["simulate", "--preset", "ex1_1", "--forward-grid", "30", "--out", "sim1"],  # the aperture net was trained for
    ["reconstruct", "--data", "sim1.noisy.csv", "--method", "dpn", "--checkpoint", "net.ckpt", "--grid", "8",
     "--out", "dpn"],
    ["rn", "--method", "fssm", "--config", "1", "--sigma-exp", "4", "--sources", "4", "--grid", "8", "--out", "rn"],
    ["kernel", "--r-steps", "3", "--out", "kernel"],
]


def _python(tmp_path, code, *args, **env):
    src = str(Path(lapdsm.__file__).parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
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


# inputs whose arrays outgrow any machine: a 20000-cell forward grid's cell centres (3 GiB per coordinate,
# 6 GiB as points; the matrix-free solve holds no N x N array, so grid 1200 now runs in ~0.2 GiB)
# and a 20000-point sampling grid's coordinates (3 GiB per array)
TOO_BIG = [
    ["simulate", "--preset", "ex1_1", "--forward-grid", "20000"],
    ["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "4", "--grid", "20000"],
]


@pytest.mark.parametrize("argv", TOO_BIG, ids=lambda argv: argv[0])
def test_input_too_big_for_memory_is_one_line_error(tmp_path, argv):
    # under a 2 GiB address-space limit each allocation fails at once, so nothing is really allocated
    prelude = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "from lapdsm.cli import main; sys.exit(main(sys.argv[1:]))")
    run = _python(tmp_path, prelude, *argv, "--out", "big", OPENBLAS_NUM_THREADS="1")
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith(f"error: {argv[0]}: not enough memory for this input (")
    assert run.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["kernel", "rn"])
def test_circle_rule_beyond_any_array_is_one_line_error(tmp_path, command):
    # k * reach = 1e100 asks for a circle rule of ~1e100 angles: found in a few steps, refused before any allocation
    scene = {**scene_to_dict(preset_scene("ex1_1")), "wavenumber": 1e100}
    (tmp_path / "s.json").write_text(json.dumps(scene))
    argv = {"kernel": ["kernel", "--k", "1e100", "--r-max", "1"],
            "rn": ["rn", "--method", "ffsm", "--scene", "s.json", "--sigma-exp", "4", "--grid", "8"]}[command]
    prelude = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "from lapdsm.cli import main; sys.exit(main(sys.argv[1:]))")
    start = time.perf_counter()
    run = _python(tmp_path, prelude, *argv, "--out", "huge", OPENBLAS_NUM_THREADS="1")
    assert time.perf_counter() - start < 5.0
    assert run.returncode == 2, run.stderr
    assert re.fullmatch(r"error: k \* reach = 1\.?\d*e\+100 needs a circle rule of more than \d+ angles\n", run.stderr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# the minor page faults of each of 20 rounds that allocate two 4 MiB arrays, write them and free them; with one
# array glibc's dynamic thresholds already keep it, with two the freed 8 MiB reach its dynamic trim threshold
HEAP_ROUNDS = """
import resource
import numpy as np
from lapdsm import cli
cli._keep_freed_heap()
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pair = [np.ones(1 << 19), np.ones(1 << 19)]
    del pair
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""

# a short paper-size training and both commands that apply its network, in one process; argv[1] == "off"
# replaces the heap policy with a no-op
DPN_COMMANDS = """
import sys
from lapdsm import cli
if sys.argv[1] == "off":
    cli._keep_freed_heap = lambda: None
for argv in [
    ["simulate", "--preset", "ex1_1", "--forward-grid", "30", "--out", "sim"],
    ["train-dpn", "--config", "1", "--iterations", "3", "--out", "net"],
    ["reconstruct", "--data", "sim.noisy.csv", "--method", "dpn", "--checkpoint", "net.ckpt", "--out", "dpn"],
    ["rn", "--method", "dpn", "--config", "1", "--checkpoint", "net.ckpt", "--out", "rn"],
]:
    assert cli.main(argv) == 0, argv
"""


@pytest.mark.skipif(not _glibc(), reason="the heap policy acts on glibc's malloc alone")
class TestHeapPolicy:
    def test_freed_temporaries_are_not_faulted_in_again(self, tmp_path):
        run = _python(tmp_path, HEAP_ROUNDS)
        assert run.returncode == 0, run.stderr
        faults = [int(n) for n in run.stdout.split()]
        # each round writes 2,048 pages: returned to the kernel, they fault in again (about 1,000 per round)
        assert max(faults[1:]) < 64, faults

    def test_artifacts_do_not_depend_on_the_allocator(self, tmp_path):
        files = {}
        for mode in ("on", "off"):
            (tmp_path / mode).mkdir()
            run = _python(tmp_path / mode, DPN_COMMANDS, mode)
            assert run.returncode == 0, run.stderr
            files[mode] = {p.name: p.read_bytes() for p in sorted((tmp_path / mode).iterdir())}
        assert {"net.ckpt", "net.loss.csv", "dpn.csv", "dpn.pgm", "rn.csv", "rn.pgm"} <= set(files["on"])
        assert files["on"] == files["off"]
