"""Command-line surface: simulate, reconstruct, train-dpn, kernel, rn.

Every command echoes its full parameter set into a metadata sidecar and is
reproducible: identical arguments and seed give byte-identical files.
Exit codes: 0 success, 2 validation error (an input that asks for more
memory than the process may have among them), 3 numerical failure.

On glibc, `main` first fixes malloc's mmap and trim thresholds at 32 and 64 MiB, their dynamic
ceilings, so the temporaries each DPN iteration and probe band frees are reused, not faulted in
again; larger blocks are still returned when freed, and no result depends on it.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from . import dpn, fileio, presets
from .dsm import IndexField, averaged_index, kernel_gamma, relative_norm
from .dpn import TrainConfig, network_probe
from .errors import NumericalError, ValidationError
from .finite_space import finite_space_probings, reconstruct_finite_space, source_lattice
from .forward import synthesize_far_field
from .numerics import directions
from .scene import (
    ApertureSet,
    Arc,
    Box,
    SamplingGrid,
    Scene,
    add_noise,
    aperture_to_dict,
    full_circle,
    load_scene,
    scene_from_dict,
    scene_to_dict,
)


def _source(args) -> tuple[ApertureSet, float, Box, Scene | None]:
    """Aperture, wavenumber and domain of the one source flag the parser let through,
    and its scene: None for --config, which names an aperture alone."""
    if args.scene or args.preset:
        scene = load_scene(args.scene) if args.scene else presets.preset_scene(args.preset)
        return scene.aperture, scene.wavenumber, scene.domain, scene
    return presets.CONFIG_APERTURES[args.config](), presets.WAVENUMBER, presets.DOMAIN, None


def _meta_base(args, command: str) -> dict:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    return {"command": command, "args": echo}


def _derive_meta_path(path: str, advice: str = "") -> str:
    """The .meta.json sidecar that simulate or train-dpn wrote beside a data file or checkpoint."""
    for suffix in (".noisy.csv", ".noiseless.csv", ".csv", ".ckpt"):
        if path.endswith(suffix):
            return path[: -len(suffix)] + ".meta.json"
    raise ValidationError(f"cannot derive metadata path from {path!r}{advice}")


def cmd_simulate(args) -> int:
    scene = _source(args)[3]
    if args.full_aperture:
        scene = dataclasses.replace(scene, aperture=full_circle(args.full_aperture))
    data = synthesize_far_field(scene, args.forward_grid)
    noisy = add_noise(data, args.noise, args.seed)
    fileio.write_farfield_csv(f"{args.out}.noiseless.csv", data)
    fileio.write_farfield_csv(f"{args.out}.noisy.csv", noisy)
    meta = _meta_base(args, "simulate")
    meta.update(
        scene=scene_to_dict(scene),
        noise=args.noise,
        seed=args.seed,
        forward_grid=args.forward_grid,
        solver={"type": "lippmann-schwinger collocation", "self_cell": "equivalent-disk"},
    )
    fileio.write_metadata(f"{args.out}.meta.json", meta)
    return 0


def _finite_space_inputs(args, sigma_exps, domain: Box):
    """The sigma for each exponent and, for fssm, the source lattice over the domain."""
    if None in sigma_exps:
        raise ValidationError(f"method {args.method!r} needs --sigma-exp")
    sources = source_lattice(domain, args.sources) if args.method == "fssm" else None
    with np.errstate(over="ignore"):  # 0.1^m beyond the float range is inf, which tikhonov_solve rejects
        return [np.float64(0.1) ** m for m in sigma_exps], sources


def _checkpoint_probe(args, grid: SamplingGrid, aperture: ApertureSet, k: float):
    """The probe of the --checkpoint network, which must have been trained at wavenumber k for this
    aperture: the one train-dpn recorded in the checkpoint's .meta.json sidecar."""
    if not args.checkpoint:
        raise ValidationError("method 'dpn' needs --checkpoint")
    params, ck = fileio.read_checkpoint(args.checkpoint)
    if abs(ck - k) > 1e-9:
        raise ValidationError(f"checkpoint wavenumber {ck} != wavenumber {k} in use")
    meta_path = _derive_meta_path(args.checkpoint)
    meta = fileio.read_metadata(meta_path)
    if not isinstance(meta, dict) or meta.get("aperture") != aperture_to_dict(aperture):
        raise ValidationError(f"{meta_path}: the checkpoint was not trained for the aperture in use")
    return network_probe(params, grid, aperture, k)


def _reconstruct_fields(args, data, grid, k, sigma_exps) -> list[IndexField]:
    """One index field per sigma exponent; what does not depend on sigma is built once."""
    method = args.method
    if method in ("ffsm", "fssm"):
        sigmas, sources = _finite_space_inputs(args, sigma_exps, grid.domain)
        return reconstruct_finite_space(data, method, args.order, sigmas, grid, k, sources=sources)
    if method == "full" and not data.aperture.is_full_circle():
        raise ValidationError("method 'full' requires full-circle data")
    probing = _checkpoint_probe(args, grid, data.aperture, k) if method == "dpn" else None
    return [averaged_index(data, probing, grid, k)]


def cmd_reconstruct(args) -> int:
    meta_path = args.meta or _derive_meta_path(args.data, "; pass --meta")
    meta = fileio.read_metadata(meta_path)
    if not isinstance(meta, dict) or "scene" not in meta:
        raise ValidationError(f"{meta_path}: no \"scene\" entry; pass the .meta.json that simulate wrote")
    scene = scene_from_dict(meta["scene"])
    k = scene.wavenumber
    data = fileio.read_farfield_csv(args.data, scene.aperture)
    grid = SamplingGrid(scene.domain, args.grid)
    sigma_exps = args.sigma_exp_list or [args.sigma_exp]
    multi = len(sigma_exps) > 1
    fields = _reconstruct_fields(args, data, grid, k, sigma_exps)
    for exp, field in zip(sigma_exps, fields):
        stem = f"{args.out}.m{exp}" if multi else args.out
        fileio.write_index_csv(f"{stem}.csv", field)
        fileio.write_pgm(f"{stem}.pgm", field)
        out_meta = _meta_base(args, "reconstruct")
        out_meta.update(grid=args.grid, sigma_exp=exp, wavenumber=k, source_metadata=meta_path)
        fileio.write_metadata(f"{stem}.meta.json", out_meta)
    return 0


def cmd_train(args) -> int:
    aperture, k, domain, _ = _source(args)
    config = TrainConfig(**{field: getattr(args, dest) for dest, (field, _kind) in _TRAIN_FLAGS.items()})
    meta = _meta_base(args, "train-dpn")
    meta.update(
        aperture=aperture_to_dict(aperture),
        wavenumber=k,
        domain=dataclasses.asdict(domain),
        config=dataclasses.asdict(config),
    )

    def checkpoint_writer(iteration, params):
        if iteration < config.iterations:  # the final checkpoint is written once, below
            fileio.write_checkpoint(f"{args.out}.ckpt", params, k)

    params, trace = dpn.train(config, aperture, domain, k, callback=checkpoint_writer)
    fileio.write_checkpoint(f"{args.out}.ckpt", params, k)
    fileio.write_loss_trace(f"{args.out}.loss.csv", trace)
    fileio.write_metadata(f"{args.out}.meta.json", meta)
    return 0


def cmd_kernel(args) -> int:
    if not np.isfinite(args.k * args.r_max):  # the largest plane-wave phase
        raise ValidationError(f"--k times --r-max must be finite, got {args.k!r} * {args.r_max!r}")
    if not np.isfinite(8.0 * args.k * np.pi):  # the kernel's scale 1 / (8 k pi)
        raise ValidationError(f"--k must keep 8 k pi finite, got {args.k!r}")
    if not np.isfinite(1.0 / (8.0 * args.k * np.pi)):
        raise ValidationError(f"--k must keep 1 / (8 k pi) finite, got {args.k!r}")
    aperture = ApertureSet((Arc(alpha=args.alpha, beta=0.0, receivers=64),))
    try:
        betas = [float(b) for b in args.beta_list.split(",")]
    except ValueError:
        raise ValidationError(f"--beta-list must be comma-separated numbers, got {args.beta_list!r}") from None
    if not np.all(np.isfinite(betas)):
        raise ValidationError(f"--beta-list angles must be finite, got {args.beta_list!r}")
    radii = np.linspace(0.0, args.r_max, args.r_steps)
    points = radii[:, None, None] * directions(betas)  # (radius, beta, 2)
    values = np.abs(kernel_gamma((0.0, 0.0), points, aperture, args.k))
    fileio.write_kernel_csv(f"{args.out}.csv", betas, radii, values)
    fileio.write_metadata(f"{args.out}.meta.json", _meta_base(args, "kernel"))
    return 0


def cmd_rn(args) -> int:
    aperture, k, domain, _ = _source(args)
    grid = SamplingGrid(domain, args.grid)
    if args.method == "dpn":
        probing = _checkpoint_probe(args, grid, aperture, k)
    else:
        sigmas, sources = _finite_space_inputs(args, [args.sigma_exp], domain)
        (probing,) = finite_space_probings(args.method, aperture, grid, args.order, sigmas, k, sources)
    field = relative_norm(probing, k, grid)
    del probing  # the writes below need the norms alone
    fileio.write_index_csv(f"{args.out}.csv", field)
    fileio.write_pgm(f"{args.out}.pgm", field)
    meta = _meta_base(args, "rn")
    meta.update(max_rn=float(field.values.max()), wavenumber=k)
    fileio.write_metadata(f"{args.out}.meta.json", meta)
    return 0


def _count(minimum: int):
    """argparse type of a size flag: an integer >= minimum, so an error names the flag."""

    def count(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")

    return count


def _real(sign: str = ""):
    """argparse type of a real flag that must be finite (and "positive" or "non-negative" if sign says so), so
    nan and inf name the flag."""

    def real(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if np.isfinite(value) and {"": True, "positive": value > 0, "non-negative": value >= 0}[sign]:
            return value
        want = f"finite and {sign}" if sign else "a finite number"
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")

    return real


_finite = _real()


def _reals(text: str) -> list[float]:
    """argparse type of a comma-separated list of finite numbers."""
    try:
        return [_finite(v) for v in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"must be comma-separated finite numbers, got {text!r}") from None


# train-dpn's flags, by dest: the TrainConfig field each sets and its type; the defaults are TrainConfig()'s
_TRAIN_FLAGS = {
    "order": ("order", _count(1)),
    "iterations": ("iterations", _count(0)),
    "batch_functions": ("batch_functions", _count(1)),
    "sources_per_function": ("sources_per_function", _count(1)),
    "points": ("points_per_iteration", _count(1)),
    "max_noise": ("max_noise", _finite),
    "seed": ("seed", int),
}


class _Given(argparse.Action):
    """Store a probe flag's value and note that it was given, so the parser can check it against --method."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.__dict__.setdefault("_given", []).append(self.option_strings[0])


# the probe flags each method reads; another one given with the method is an error, not ignored
_READS = {
    "full": (),
    "partial": (),
    "ffsm": ("--order", "--sigma-exp", "--sigma-exp-list"),
    "fssm": ("--order", "--sources", "--sigma-exp", "--sigma-exp-list"),
    "dpn": ("--checkpoint",),
}

# flags that name one input in different ways; a command takes at most one flag of each table
_SOURCE = {
    "--config": dict(type=int, choices=sorted(presets.CONFIG_APERTURES)),
    "--scene": dict(help="scene JSON file"),
    "--preset": dict(choices=presets.PRESET_NAMES),
}
_SIGMA = {
    "--sigma-exp": dict(type=_finite, action=_Given, help="sigma = 0.1^m"),
    "--sigma-exp-list": dict(type=_reals, action=_Given, help="comma-separated exponents; writes one output per value"),
}


def _one_of(parser, table: dict, *flags: str, required: bool = False) -> None:
    """Add the named flags of a table as a mutually exclusive group, so the parser rejects two of them."""
    group = parser.add_mutually_exclusive_group(required=required)
    for flag in flags:
        group.add_argument(flag, **table[flag])


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument on one line, like every other input error, and rejects a
    probe flag that the chosen method does not read."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for flag in vars(namespace).pop("_given", ()):
            if flag not in _READS[namespace.method]:
                self.error(f"argument {flag}: not read by method {namespace.method!r}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lapdsm", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, metavar="PREFIX")
    probe = argparse.ArgumentParser(add_help=False)  # how reconstruct and rn build a probing function
    probe.add_argument("--order", type=_count(1), default=20, action=_Given)
    probe.add_argument("--sources", type=_count(1), default=20, action=_Given, help="FSSM lattice per side")
    probe.add_argument("--checkpoint", action=_Given, help="DPN checkpoint file")
    probe.add_argument("--grid", type=_count(1), default=128)

    sim = sub.add_parser("simulate", parents=[out], help="synthesize far-field data for a scene")
    _one_of(sim, _SOURCE, "--scene", "--preset", required=True)
    sim.add_argument("--noise", type=_finite, default=0.01)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--forward-grid", type=_count(1), default=120)
    sim.add_argument(
        "--full-aperture",
        type=_count(1),
        nargs="?",
        const=512,
        default=0,
        metavar="RECEIVERS",
        help="replace the scene aperture with a full circle",
    )
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", parents=[out, probe], help="compute an index field from far-field data")
    rec.add_argument("--data", required=True, help="far-field CSV from simulate")
    rec.add_argument("--meta", help="metadata sidecar (default: derived from --data)")
    rec.add_argument("--method", required=True, choices=["full", "partial", "ffsm", "fssm", "dpn"])
    _one_of(rec, _SIGMA, *_SIGMA)
    rec.set_defaults(func=cmd_reconstruct)

    tr = sub.add_parser("train-dpn", parents=[out], help="train the deep probing network")
    _one_of(tr, _SOURCE, *_SOURCE, required=True)
    defaults = TrainConfig()
    for dest, (field, kind) in _TRAIN_FLAGS.items():
        tr.add_argument("--" + dest.replace("_", "-"), type=kind, default=getattr(defaults, field))
    tr.set_defaults(func=cmd_train)

    ker = sub.add_parser("kernel", parents=[out], help="tabulate the aperture kernel decay")
    ker.add_argument("--alpha", type=_finite, default=np.pi / 3.0)
    ker.add_argument("--beta-list", default="0,0.7853981633974483,1.5707963267948966")
    ker.add_argument("--k", type=_real("positive"), default=8.0)
    ker.add_argument("--r-max", type=_real("non-negative"), default=2.0)
    ker.add_argument("--r-steps", type=_count(1), default=201)
    ker.set_defaults(func=cmd_kernel)

    rn = sub.add_parser("rn", parents=[out, probe], help="relative norm of a constructed probing function")
    rn.add_argument("--method", required=True, choices=["ffsm", "fssm", "dpn"])
    _one_of(rn, _SOURCE, *_SOURCE, required=True)
    rn.add_argument("--sigma-exp", **_SIGMA["--sigma-exp"])
    rn.set_defaults(func=cmd_rn)

    return p


def _keep_freed_heap() -> None:
    """On glibc, fix malloc's mmap and trim thresholds at their dynamic ceilings (see the module docstring)."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or a C library that does not know the name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValidationError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {args.subcommand}: not enough memory for this input ({e})", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
