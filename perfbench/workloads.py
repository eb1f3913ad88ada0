"""The three workloads: the commands of their set-up and of one pass, and each command's check.

Every input comes from the workload seed: the noise seed of each simulated
data set, the training seed and the disk scene.  The scene geometry, the two
receiver configurations and the incidence directions are written out here
from the paper, not read back from the program, so that the checks do not
inherit a fault in the program's presets.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as C

K = 8.0
NOISE = 0.01
GRID = 128
ORDER = 20
CONFIG1 = [(2.0 * np.pi / 5.0, 0.0, 100)]
CONFIG2 = [(np.pi / 8.0, 0.0, 30), (np.pi / 8.0, 2.0 * np.pi / 3.0, 30), (np.pi / 8.0, -2.0 * np.pi / 3.0, 30)]
FULL = [(np.pi, 0.0, 512)]
_S3 = np.sqrt(3.0) / 2.0
PRESETS = {
    "ex1_1": {"config": CONFIG1, "incidences": [(1.0, 0.0)]},
    "ex1_2": {"config": CONFIG1, "incidences": [(1.0, 0.0), (0.0, 1.0)]},
    "ex2_1": {"config": CONFIG2, "incidences": [(1.0, 0.0)]},
    "ex2_2": {"config": CONFIG2, "incidences": [(1.0, 0.0), (-0.5, _S3), (-0.5, -_S3)]},
}
EX1_1_CENTRES = [(-0.8, -0.4), (0.0, -0.4), (0.8, -0.4)]
DISK_RADIUS = 0.15
DISK_INDEX = 2.0
KERNEL_ALPHA = np.pi / 3.0
KERNEL_BETAS = [0.0, 0.7853981633974483, 1.5707963267948966]
TRAIN_ITERATIONS = 30
COMPANION_ITERATIONS = 10


@dataclass
class Command:
    kind: str  # simulate, reconstruct, diagnostics or train
    argv: list[str]
    check: Callable[[], None]
    iterations: int = 0  # training iterations, for train commands
    companion: bool = False  # stands in for a kind the workload's own commands lack
    prepare: Callable[[], object] | None = None  # seed-independent check work, done before the passes


@dataclass
class Workload:
    setup: list[Command] = field(default_factory=list)
    rounds: list[Command] = field(default_factory=list)


WORKLOADS = {
    "forward-presets": "simulate on the four presets at full aperture and on a seeded disk: forward does the work",
    "reconstruct-presets": "classical, FFSM and FSSM indices, rn and kernel on limited-aperture data: dsm and finite_space",
    "dpn-train-apply": "train-dpn at the paper batch, then dpn reconstruct and rn with its checkpoint: dpn and rng do the work",
}


def _simulate(out: str, source: list[str], arcs, incidences, seed: int, full: bool, disk=None) -> Command:
    argv = ["simulate", *source, "--noise", str(NOISE), "--seed", str(seed), "--out", out]
    if full:
        argv += ["--full-aperture", str(arcs[0][2])]

    def check():
        clean = C.read_farfield(f"{out}.noiseless.csv", arcs)
        noisy = C.read_farfield(f"{out}.noisy.csv", arcs)
        C.require(clean.shape[0] == len(incidences), f"{out}: {clean.shape[0]} incidences")
        C.check_noise(clean, noisy, arcs, NOISE)
        if full:
            C.check_full_simulation(clean, K, incidences)
        if disk is not None:
            C.check_disk(clean, arcs, K, DISK_RADIUS, DISK_INDEX, incidences[0], disk)

    return Command("simulate", argv, check)


@functools.lru_cache(maxsize=None)
def _finite_space_probe(method: str, config: tuple, sigma_exp: float) -> np.ndarray:
    """The independent probe; it depends on no seed, so passes share it."""
    probe = C.finite_space_probe(method, list(config), GRID, ORDER, 0.1**sigma_exp, K)
    probe.setflags(write=False)
    return probe


def _check_index_files(out: str, n: int, want: np.ndarray, tol: float) -> np.ndarray:
    got = C.read_index(f"{out}.csv", n)
    C.check_close(out, got, want, tol)
    C.check_pgm(f"{out}.pgm", got, n)
    return got


def _classical(out: str, data: str, arcs, method: str, n: int = GRID, centres=None) -> Command:
    argv = ["reconstruct", "--data", f"{data}.noisy.csv", "--method", method, "--grid", str(n), "--out", out]

    def check():
        u = C.read_farfield(f"{data}.noisy.csv", arcs)
        got = _check_index_files(out, n, C.classical_index(u, arcs, n, K), 1e-9)
        if centres is not None:
            C.check_localization(got, n, centres)

    return Command("reconstruct", argv, check)


def _finite_space(out: str, data: str, arcs, method: str, sigma_exps, centres=None) -> Command:
    argv = ["reconstruct", "--data", f"{data}.noisy.csv", "--method", method, "--out", out]
    if len(sigma_exps) > 1:
        argv += ["--sigma-exp-list", ",".join(f"{m:g}" for m in sigma_exps)]
    else:
        argv += ["--sigma-exp", f"{sigma_exps[0]:g}"]

    def prepare():
        return [_finite_space_probe(method, tuple(arcs), m) for m in sigma_exps]

    def check():
        u = C.read_farfield(f"{data}.noisy.csv", arcs)
        for m, probe in zip(sigma_exps, prepare()):
            stem = f"{out}.m{float(m)}" if len(sigma_exps) > 1 else out
            got = _check_index_files(stem, GRID, C.pair(probe, u, arcs), 1e-6)
            if centres is not None:
                C.check_localization(got, GRID, centres)

    return Command("reconstruct", argv, check, prepare=prepare)


def _rn(out: str, method: str, config: int, sigma_exp: float) -> Command:
    arcs = CONFIG1 if config == 1 else CONFIG2
    argv = ["rn", "--method", method, "--config", str(config), "--sigma-exp", f"{sigma_exp:g}", "--out", out]

    def prepare():
        return _finite_space_probe(method, tuple(arcs), sigma_exp)

    def check():
        _check_index_files(out, GRID, C.relative_norm(prepare(), arcs, K), 1e-6)

    return Command("diagnostics", argv, check, prepare=prepare)


def _kernel(out: str) -> Command:
    def check():
        C.check_kernel(f"{out}.csv", KERNEL_ALPHA, KERNEL_BETAS, K)

    return Command("diagnostics", ["kernel", "--out", out], check)


def _train(out: str, iterations: int, seed: int) -> Command:
    argv = ["train-dpn", "--config", "1", "--iterations", str(iterations), "--seed", str(seed), "--out", out]

    def check():
        C.check_loss(C.read_loss(f"{out}.loss.csv"), iterations)
        ckpt = C.read_checkpoint(f"{out}.ckpt")
        C.require(ckpt[2] == ORDER and ckpt[3] == K, f"{out}.ckpt: order or wavenumber differs")

    return Command("train", argv, check, iterations=iterations)


def _dpn_reconstruct(out: str, data: str, ckpt: str) -> Command:
    argv = ["reconstruct", "--data", f"{data}.noisy.csv", "--method", "dpn", "--checkpoint", ckpt, "--out", out]

    def check():
        u = C.read_farfield(f"{data}.noisy.csv", CONFIG1)
        probe = C.network_probe(C.read_checkpoint(ckpt), GRID, CONFIG1, K)
        _check_index_files(out, GRID, C.pair(probe, u, CONFIG1), 1e-9)

    return Command("reconstruct", argv, check)


def _dpn_rn(out: str, ckpt: str) -> Command:
    argv = ["rn", "--method", "dpn", "--config", "1", "--checkpoint", ckpt, "--out", out]

    def check():
        probe = C.network_probe(C.read_checkpoint(ckpt), GRID, CONFIG1, K)
        _check_index_files(out, GRID, C.relative_norm(probe, CONFIG1, K), 1e-9)

    return Command("diagnostics", argv, check)


def _companion(cmd: Command) -> Command:
    cmd.companion = True
    return cmd


def warmup() -> Command:
    return _kernel("warmup")


def build(name: str, seed: int, workdir: str) -> Workload:
    """Commands of the named workload; paths are relative to workdir, where they run."""
    rnd = random.Random(seed)
    noise_seed = {p: rnd.randrange(1, 2**31) for p in PRESETS}
    noise_seed["disk"] = rnd.randrange(1, 2**31)
    noise_seed["ex1_1_full"] = rnd.randrange(1, 2**31)
    train_seed = rnd.randrange(0, 2**31)
    w = Workload()
    if name == "forward-presets":
        for p, spec in PRESETS.items():
            w.rounds.append(
                _simulate(p, ["--preset", p], FULL, spec["incidences"], noise_seed[p], full=True)
            )
        # a vertex of the default 120-cell forward grid, so every seed's disk
        # covers the same cell pattern as criterion 6's centred disk
        centre = (rnd.randint(-48, 48) / 60.0, rnd.randint(-48, 48) / 60.0)
        with open(os.path.join(workdir, "disk.json"), "w") as f:
            json.dump(_disk_scene(centre), f)
        w.rounds.append(
            _simulate("disk", ["--scene", "disk.json"], CONFIG1, [(1.0, 0.0)], noise_seed["disk"], False, centre)
        )
        # companions: one command of each kind the forward pass lacks
        w.rounds.append(_companion(_finite_space("disk_ffsm", "disk", CONFIG1, "ffsm", [4, 6, 8])))
        w.rounds.append(_companion(_rn("rn_ffsm_c1", "ffsm", 1, 8)))
        w.rounds.append(_companion(_train("net", COMPANION_ITERATIONS, train_seed)))
    elif name == "reconstruct-presets":
        for p, spec in PRESETS.items():
            w.setup.append(
                _simulate(p, ["--preset", p], spec["config"], spec["incidences"], noise_seed[p], full=False)
            )
        w.setup.append(
            _simulate("ex1_1_full", ["--preset", "ex1_1"], FULL, [(1.0, 0.0)], noise_seed["ex1_1_full"], full=True)
        )
        for p in ("ex1_2", "ex2_1", "ex2_2"):  # ex1_1 is reconstructed by ffsm, fssm and full
            w.rounds.append(_classical(f"{p}_partial", p, PRESETS[p]["config"], "partial"))
        # no localization check: at sigma = 1e-8 it fails for some noise seeds
        # (one of 60 tried), and no check may pass or fail with the seed
        w.rounds.append(_finite_space("ex1_1_ffsm", "ex1_1", CONFIG1, "ffsm", [4, 6, 8]))
        w.rounds.append(_finite_space("ex1_1_fssm", "ex1_1", CONFIG1, "fssm", [4], EX1_1_CENTRES))
        w.rounds.append(_classical("ex1_1_full256", "ex1_1_full", FULL, "full", n=256, centres=EX1_1_CENTRES))
        w.rounds.append(_rn("rn_ffsm_c1", "ffsm", 1, 8))
        w.rounds.append(_rn("rn_fssm_c2", "fssm", 2, 4))
        w.rounds.append(_kernel("kernel"))
        w.rounds.append(_companion(_train("net", COMPANION_ITERATIONS, train_seed)))
    elif name == "dpn-train-apply":
        spec = PRESETS["ex1_1"]
        w.rounds.append(
            _simulate("ex1_1", ["--preset", "ex1_1"], spec["config"], spec["incidences"], noise_seed["ex1_1"], False)
        )
        w.rounds.append(_train("net", TRAIN_ITERATIONS, train_seed))
        w.rounds.append(_dpn_reconstruct("ex1_1_dpn", "ex1_1", "net.ckpt"))
        w.rounds.append(_dpn_rn("rn_dpn", "net.ckpt"))
    else:
        raise KeyError(name)
    return w


def _disk_scene(centre) -> dict:
    return {
        "wavenumber": K,
        "domain": {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0},
        "scatterers": [{"type": "disk", "center": list(centre), "radius": DISK_RADIUS, "n": DISK_INDEX}],
        "incidences": [[1.0, 0.0]],
        "aperture": {"arcs": [{"alpha": a, "beta": b, "receivers": q} for a, b, q in CONFIG1]},
    }
