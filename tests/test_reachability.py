"""Every function and method defined in the package is entered by some lapdsm command.

One small run of each command and method, in this process under
sys.setprofile, records every code object entered.  A function of
src/lapdsm that none of them enters is reachable from no command: it belongs
in tests/ if only the tests use it, or nowhere.
"""

import ast
import functools
import json
import os
import sys
from pathlib import Path

import pytest

import lapdsm
from lapdsm import cli
from lapdsm.cli import main
from lapdsm.dpn import TrainConfig
from lapdsm.presets import preset_scene
from lapdsm.scene import scene_to_dict

PACKAGE = Path(lapdsm.__file__).resolve().parent


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every def in the package, nested ones included.

    A decorated function's code object starts at its first decorator, so that
    line is its key.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list], default=child.lineno)
                found[(str(path), line)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def every_command(d: Path) -> list[list[str]]:
    """One small invocation of every command and method; each writes under d."""
    scene = d / "ex1_2.json"  # a scene file, so --scene reads the ring of ex1_2
    sim12, sim22, full = str(d / "ex1_2"), str(d / "ex2_2"), str(d / "full")
    net = str(d / "net.ckpt")
    small = ["--grid", "8"]
    finite = ["--order", "3", "--sigma-exp", "4"]
    return [
        ["simulate", "--scene", str(scene), "--forward-grid", "26", "--out", sim12],
        ["simulate", "--preset", "ex2_2", "--forward-grid", "26", "--out", sim22],
        ["simulate", "--preset", "ex2_1", "--full-aperture", "64", "--forward-grid", "26", "--out", full],
        ["reconstruct", "--data", f"{sim12}.noisy.csv", "--method", "partial", *small, "--out", str(d / "partial")],
        ["reconstruct", "--data", f"{full}.noisy.csv", "--method", "full", *small, "--out", str(d / "rec-full")],
        ["reconstruct", "--data", f"{sim12}.noisy.csv", "--meta", f"{sim12}.meta.json", "--method", "ffsm",
         "--order", "3", "--sigma-exp-list", "4,6", *small, "--out", str(d / "ffsm")],
        ["reconstruct", "--data", f"{sim22}.noiseless.csv", "--method", "fssm", *finite, "--sources", "4", *small,
         "--out", str(d / "fssm")],
        ["train-dpn", "--config", "1", "--iterations", "4", "--batch-functions", "2", "--points", "2",
         "--order", "2", "--out", str(d / "net")],
        ["reconstruct", "--data", f"{sim12}.noisy.csv", "--method", "dpn", "--checkpoint", net, *small,
         "--out", str(d / "dpn")],
        ["rn", "--method", "dpn", "--config", "1", "--checkpoint", net, *small, "--out", str(d / "rn-dpn")],
        ["rn", "--method", "ffsm", "--preset", "ex1_1", *finite, *small, "--out", str(d / "rn-ffsm")],
        ["rn", "--method", "fssm", "--config", "2", *finite, "--sources", "4", *small, "--out", str(d / "rn-fssm")],
        ["kernel", "--r-steps", "3", "--out", str(d / "kernel")],
    ]


def test_every_function_is_entered_by_a_command(tmp_path, monkeypatch, capsys):
    (tmp_path / "ex1_2.json").write_text(json.dumps(scene_to_dict(preset_scene("ex1_2"))))
    # a checkpoint every 2 steps, so training writes one before its final one
    monkeypatch.setattr(cli, "TrainConfig", functools.partial(TrainConfig, checkpoint_every=2))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in every_command(tmp_path):
            codes.append((argv[0], main(argv)))
        with pytest.raises(SystemExit) as rejected:  # a probe flag the method does not read
            main(["rn", "--method", "ffsm", "--config", "1", "--sigma-exp", "4", "--checkpoint", "none.ckpt",
                  "--out", str(tmp_path / "rejected")])
    finally:
        sys.setprofile(previous)
    assert codes == [(argv[0], 0) for argv in every_command(tmp_path)]
    assert rejected.value.code == 2
    assert "not read by method" in capsys.readouterr().err

    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    defined = defined_functions()
    assert len(defined) > 100
    missing = sorted(name for key, name in defined.items() if key not in reached)
    assert not missing, "entered by no command: " + ", ".join(missing)
