"""Command-line surface: simulate, reconstruct, train-dpn, kernel, rn.

Every command echoes its full parameter set into a metadata sidecar and is
reproducible: identical arguments and seed give byte-identical files.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import dpn, fileio, presets
from .dsm import IndexField, averaged_index, kernel_gamma, relative_norm
from .dpn import TrainConfig, probing_set_from_network
from .errors import NumericalError, ValidationError
from .finite_space import finite_space_probings, reconstruct_finite_space, source_lattice
from .forward import synthesize_far_field
from .scene import (
    ApertureSet,
    Arc,
    Box,
    SamplingGrid,
    add_noise,
    aperture_to_dict,
    full_circle,
    load_scene,
    scene_from_dict,
    scene_to_dict,
)

DEFAULT_GRID = 128
DEFAULT_FORWARD_GRID = 120
DEFAULT_ORDER = 20
DEFAULT_SOURCES = 20


def _load_scene_arg(args):
    if getattr(args, "scene", None):
        return load_scene(args.scene)
    if getattr(args, "preset", None):
        return presets.preset_scene(args.preset)
    raise ValidationError("provide --scene FILE or --preset NAME")


def _meta_base(args, command: str) -> dict:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    return {"command": command, "args": echo}


def _derive_meta_path(data_path: str) -> str:
    for suffix in (".noisy.csv", ".noiseless.csv", ".csv"):
        if data_path.endswith(suffix):
            return data_path[: -len(suffix)] + ".meta.json"
    raise ValidationError(f"cannot derive metadata path from {data_path!r}; pass --meta")


def cmd_simulate(args) -> int:
    scene = _load_scene_arg(args)
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


def _load_checkpoint(args, k: float):
    """The network of --checkpoint, which must have been trained at wavenumber k."""
    if not args.checkpoint:
        raise ValidationError("method 'dpn' needs --checkpoint")
    params, ck = fileio.read_checkpoint(args.checkpoint)
    if abs(ck - k) > 1e-9:
        raise ValidationError(f"checkpoint wavenumber {ck} != wavenumber {k} in use")
    return params


def _reconstruct_fields(args, data, grid, k, sigma_exps) -> list[IndexField]:
    """One index field per sigma exponent; what does not depend on sigma is built once."""
    method = args.method
    if method in ("ffsm", "fssm"):
        sigmas, sources = _finite_space_inputs(args, sigma_exps, grid.domain)
        return reconstruct_finite_space(data, method, args.order, sigmas, grid, k, sources=sources)
    if method == "full" and not data.aperture.is_full_circle():
        raise ValidationError("method 'full' requires full-circle data")
    if method in ("full", "partial"):
        field = averaged_index(data, None, grid, k)
    elif method == "dpn":
        probing = probing_set_from_network(_load_checkpoint(args, k), grid, data.aperture, k)
        field = averaged_index(data, probing, grid)
    else:
        raise ValidationError(f"unknown reconstruction method {method!r}")
    return [field] * len(sigma_exps)


def cmd_reconstruct(args) -> int:
    meta_path = args.meta or _derive_meta_path(args.data)
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


def _aperture_for_config(args) -> tuple[ApertureSet, float, Box]:
    if getattr(args, "scene", None) or getattr(args, "preset", None):
        scene = _load_scene_arg(args)
        return scene.aperture, scene.wavenumber, scene.domain
    if args.config == 1:
        return presets.config1_aperture(), presets.WAVENUMBER, presets.DOMAIN
    if args.config == 2:
        return presets.config2_aperture(), presets.WAVENUMBER, presets.DOMAIN
    raise ValidationError("provide --config 1|2, --preset, or --scene")


def cmd_train(args) -> int:
    aperture, k, domain = _aperture_for_config(args)
    config = TrainConfig(
        order=args.order,
        batch_functions=args.batch_functions,
        sources_per_function=args.sources_per_function,
        points_per_iteration=args.points,
        iterations=args.iterations,
        max_noise=args.max_noise,
        seed=args.seed,
    )
    meta = _meta_base(args, "train-dpn")
    meta.update(
        aperture=aperture_to_dict(aperture),
        wavenumber=k,
        domain=dataclasses.asdict(domain),
        config=dataclasses.asdict(config),
    )

    def checkpoint_writer(iteration, params, trace):
        fileio.write_checkpoint(f"{args.out}.ckpt", params, k)

    params, trace = dpn.train(config, aperture, domain, k, callback=checkpoint_writer)
    fileio.write_checkpoint(f"{args.out}.ckpt", params, k)
    fileio.write_loss_trace(f"{args.out}.loss.csv", trace)
    fileio.write_metadata(f"{args.out}.meta.json", meta)
    return 0


def cmd_kernel(args) -> int:
    if not (np.isfinite(args.k) and args.k > 0):
        raise ValidationError(f"--k must be finite and positive, got {args.k!r}")
    if not np.isfinite(args.r_max):
        raise ValidationError(f"--r-max must be finite, got {args.r_max!r}")
    aperture = ApertureSet((Arc(alpha=args.alpha, beta=0.0, receivers=64),))
    try:
        betas = [float(b) for b in args.beta_list.split(",")]
    except ValueError:
        raise ValidationError(f"--beta-list must be comma-separated numbers, got {args.beta_list!r}") from None
    if not np.all(np.isfinite(betas)):
        raise ValidationError(f"--beta-list angles must be finite, got {args.beta_list!r}")
    radii = np.linspace(0.0, args.r_max, args.r_steps)
    columns = []
    for b in betas:
        direction = np.array([np.cos(b), np.sin(b)])
        col = [
            abs(kernel_gamma((0.0, 0.0), r * direction, aperture, args.k, args.quad_points))
            for r in radii
        ]
        columns.append(col)
    with open(f"{args.out}.csv", "w") as f:
        f.write("R," + ",".join(f"beta={b:g}" for b in betas) + "\n")
        for i, r in enumerate(radii):
            f.write("%.17g" % r + "," + ",".join("%.17g" % c[i] for c in columns) + "\n")
    meta = _meta_base(args, "kernel")
    fileio.write_metadata(f"{args.out}.meta.json", meta)
    return 0


def cmd_rn(args) -> int:
    aperture, k, domain = _aperture_for_config(args)
    grid = SamplingGrid(domain, args.grid)
    if args.method in ("ffsm", "fssm"):
        sigmas, sources = _finite_space_inputs(args, [args.sigma_exp], domain)
        (probing,) = finite_space_probings(args.method, aperture, grid, args.order, sigmas, k, sources)
    elif args.method == "dpn":
        probing = probing_set_from_network(_load_checkpoint(args, k), grid, aperture, k)
    else:
        raise ValidationError("rn supports methods ffsm, fssm, dpn")
    field = relative_norm(probing, k, grid)
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


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument on one line, like every other input error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lapdsm", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="synthesize far-field data for a scene")
    sim.add_argument("--scene", help="scene JSON file")
    sim.add_argument("--preset", choices=presets.PRESET_NAMES)
    sim.add_argument("--noise", type=float, default=0.01)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--forward-grid", type=_count(1), default=DEFAULT_FORWARD_GRID)
    sim.add_argument(
        "--full-aperture",
        type=_count(1),
        nargs="?",
        const=512,
        default=0,
        metavar="RECEIVERS",
        help="replace the scene aperture with a full circle",
    )
    sim.add_argument("--out", required=True, metavar="PREFIX")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="compute an index field from far-field data")
    rec.add_argument("--data", required=True, help="far-field CSV from simulate")
    rec.add_argument("--meta", help="metadata sidecar (default: derived from --data)")
    rec.add_argument("--method", required=True, choices=["full", "partial", "ffsm", "fssm", "dpn"])
    rec.add_argument("--order", type=int, default=DEFAULT_ORDER)
    rec.add_argument("--sigma-exp", type=float, default=None, help="sigma = 0.1^m")
    rec.add_argument(
        "--sigma-exp-list",
        type=lambda s: [float(v) for v in s.split(",")],
        default=None,
        help="comma-separated exponents; writes one output per value",
    )
    rec.add_argument("--sources", type=_count(1), default=DEFAULT_SOURCES, help="FSSM lattice per side")
    rec.add_argument("--checkpoint", help="DPN checkpoint file")
    rec.add_argument("--grid", type=_count(1), default=DEFAULT_GRID)
    rec.add_argument("--out", required=True, metavar="PREFIX")
    rec.set_defaults(func=cmd_reconstruct)

    tr = sub.add_parser("train-dpn", help="train the deep probing network")
    tr.add_argument("--config", type=int, choices=[1, 2])
    tr.add_argument("--scene")
    tr.add_argument("--preset", choices=presets.PRESET_NAMES)
    tr.add_argument("--order", type=_count(1), default=DEFAULT_ORDER)
    tr.add_argument("--iterations", type=_count(0), default=5000)
    tr.add_argument("--batch-functions", type=_count(1), default=400)
    tr.add_argument("--sources-per-function", type=_count(1), default=3)
    tr.add_argument("--points", type=_count(1), default=400)
    tr.add_argument("--max-noise", type=float, default=0.05)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, metavar="PREFIX")
    tr.set_defaults(func=cmd_train)

    ker = sub.add_parser("kernel", help="tabulate the aperture kernel decay")
    ker.add_argument("--alpha", type=float, default=np.pi / 3.0)
    ker.add_argument("--beta-list", default="0,0.7853981633974483,1.5707963267948966")
    ker.add_argument("--k", type=float, default=8.0)
    ker.add_argument("--r-max", type=float, default=2.0)
    ker.add_argument("--r-steps", type=_count(1), default=201)
    ker.add_argument("--quad-points", type=_count(64), default=512)
    ker.add_argument("--out", required=True, metavar="PREFIX")
    ker.set_defaults(func=cmd_kernel)

    rn = sub.add_parser("rn", help="relative norm of a constructed probing function")
    rn.add_argument("--method", required=True, choices=["ffsm", "fssm", "dpn"])
    rn.add_argument("--config", type=int, choices=[1, 2])
    rn.add_argument("--scene")
    rn.add_argument("--preset", choices=presets.PRESET_NAMES)
    rn.add_argument("--order", type=int, default=DEFAULT_ORDER)
    rn.add_argument("--sigma-exp", type=float, default=None)
    rn.add_argument("--sources", type=_count(1), default=DEFAULT_SOURCES)
    rn.add_argument("--checkpoint")
    rn.add_argument("--grid", type=_count(1), default=DEFAULT_GRID)
    rn.add_argument("--out", required=True, metavar="PREFIX")
    rn.set_defaults(func=cmd_rn)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValidationError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
