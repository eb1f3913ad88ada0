"""lapdsm benchmark: run one workload of CLI commands, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lapdsm checkout; the program is imported from its
`src/`.  Each command runs in a fresh interpreter (perfbench/child.py), one at
a time, at the default BLAS thread count.  The set-up commands make the
workload's input data; then whole passes over the workload's command list
repeat while the next pass is expected to end within S seconds (at least one
pass).  Every command's output is checked against an independent computation
(perfbench/checks.py); a nonzero exit or a failed check counts as a failed
operation.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics.  With --trace 1, passes alternate between untraced and
traced; the per-layer metrics come from the traced ones and the tracing
overhead is the difference of the two kinds' command time per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "reconstruct_s": "s",
    "diagnostics_s": "s",
    "train_iters_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (source, key): "self" sums span self times whose name
# starts with key (exact name, or "<module>." for a whole module), "calls"
# counts spans named key, "counter" sums a counter.
LAYER_METRICS = {
    "cli.self_s": ("self", "cli."),
    "scene.self_s": ("self", "scene."),
    "scene.add_noise_s": ("self", "scene.add_noise"),
    "forward.self_s": ("self", "forward."),
    "forward.contrast_grid_s": ("self", "forward.contrast_grid"),
    "forward.solve_scattering_s": ("self", "forward.solve_scattering"),
    "forward.solve_scattering_calls": ("calls", "forward.solve_scattering"),
    "forward.far_field_s": ("self", "forward.far_field"),
    "forward.contrast_cells": ("counter", "forward.contrast_cells"),
    "dsm.self_s": ("self", "dsm."),
    "dsm.green_probing_set_s": ("self", "dsm.green_probing_set"),
    "dsm.green_probing_set_calls": ("calls", "dsm.green_probing_set"),
    "dsm.index_classical_s": ("self", "dsm.index_classical"),
    "dsm.probing_bytes": ("counter", "dsm.probing_bytes"),
    "dsm.relative_norm_s": ("self", "dsm.relative_norm"),
    "dsm.kernel_gamma_s": ("self", "dsm.kernel_gamma"),
    "numerics.gauss_arc_nodes_s": ("self", "numerics.gauss_arc_nodes"),
    "finite_space.self_s": ("self", "finite_space."),
    "finite_space.build_system_s": (
        "self",
        ("finite_space.build_system", "finite_space.ffsm_matrix", "finite_space.fssm_matrix"),
    ),
    "finite_space.rhs_field_s": ("self", ("finite_space.ffsm_rhs_field", "finite_space.fssm_rhs_field")),
    "finite_space.rhs_field_calls": ("calls", ("finite_space.ffsm_rhs_field", "finite_space.fssm_rhs_field")),
    "finite_space.tikhonov_solve_s": ("self", "finite_space.tikhonov_solve"),
    "finite_space.probing_from_coefficients_s": ("self", "finite_space.probing_from_coefficients"),
    "dpn.self_s": ("self", "dpn."),
    "dpn.sample_batch_s": ("self", "dpn.sample_batch"),
    "dpn.loss_gradient_s": ("self", "dpn.loss_gradient"),
    "dpn.train_self_s": ("self", "dpn.train"),
    "dpn.probing_set_from_network_s": ("self", "dpn.probing_set_from_network"),
    "dpn.probing_eval_s": ("self", "dpn.probing_eval"),
    "dpn.network_forward_s": ("self", "dpn.network_forward"),
    "rng.draw_s": ("self", "rng."),
    "rng.draws": ("counter", "rng.draws"),
    "fileio.write_s": ("self", "fileio.write_"),
    "fileio.read_s": ("self", "fileio.read_"),
    "fileio.bytes_written": ("counter", "fileio.bytes_written"),
}


def _matches(name: str, key) -> bool:
    keys = key if isinstance(key, tuple) else (key,)
    return any(name == k or (k.endswith((".", "_")) and name.startswith(k)) for k in keys)


def layer_values(result: dict) -> dict[str, float]:
    out = {}
    for metric, (source, key) in LAYER_METRICS.items():
        if source == "counter":
            out[metric] = float(result["counters"].get(key, 0))
        else:
            table = result["self_s" if source == "self" else "calls"]
            out[metric] = float(sum(v for name, v in table.items() if _matches(name, key)))
    return out


class Runner:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def execute(self, cmd: workloads.Command, trace: bool) -> dict | None:
        """Run, time and check one command; None if it failed."""
        self.attempted += 1
        result_path = os.path.join(self.workdir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = [sys.executable, os.path.join(HERE, "child.py"), result_path, "1" if trace else "0", "--"]
        try:
            proc = subprocess.run(
                argv + cmd.argv, cwd=self.workdir, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return self._fail(cmd, "timed out")
        if proc.returncode != 0 or not os.path.exists(result_path):
            return self._fail(cmd, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        with open(result_path) as f:
            result = json.load(f)
        if result["exit"] != 0:
            return self._fail(cmd, f"lapdsm exit {result['exit']}: {proc.stderr.strip()[-500:]}")
        try:
            cmd.check()
        except (checks.CheckFailed, OSError, ValueError) as e:
            return self._fail(cmd, f"check: {e}")
        result["companion"] = cmd.companion
        print(
            f"ok {result['command_s']:8.3f} s {result['peak_rss_mb']:7.1f} MiB  lapdsm {' '.join(cmd.argv)}",
            file=sys.stderr,
        )
        return result

    def _fail(self, cmd, reason: str):
        self.failed += 1
        print(f"FAILED lapdsm {' '.join(cmd.argv)}: {reason}", file=sys.stderr)
        return None


def kind_values(commands: list, samples: list[list[dict]]) -> dict[str, float]:
    """Per kind, the summed median command time; for training, iterations per second.

    samples[i] holds the results of commands[i] over the passes that ran it.
    """
    times: dict[str, float] = {}
    iterations = 0
    for cmd, rows in zip(commands, samples):
        if rows:
            times[cmd.kind] = times.get(cmd.kind, 0.0) + statistics.median(r["command_s"] for r in rows)
            iterations += cmd.iterations
    out = {f"{kind}_s": t for kind, t in times.items() if kind != "train"}
    if "train" in times:
        out["train_iters_per_s"] = iterations / times["train"]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lapdsm", "cli.py")):
        print("error: run from the root of a lapdsm checkout (src/lapdsm/cli.py not found)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench-work")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    os.chdir(workdir)  # the checks read the commands' relative output paths
    try:
        return _run(args, workdir)
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it


def _run(args, workdir: str) -> int:
    wl = workloads.build(args.workload, args.seed, workdir)
    runner = Runner(workdir)
    # The first command after the machine idles can run several times slower;
    # this one is checked and counted as attempted, but not measured.
    runner.execute(workloads.warmup(), trace=False)
    setup = [runner.execute(c, trace=False) for c in wl.setup]
    measured = [r for r in setup if r is not None]
    for cmd in wl.rounds:
        if cmd.prepare is not None:
            cmd.prepare()
    print(f"set-up: {len(setup)} commands", file=sys.stderr)

    plain = [[] for _ in wl.rounds]  # per command: its untraced results
    plain_totals, traced_totals, traced_layers = [], [], []
    start = time.perf_counter()
    durations = []

    def another_pass() -> bool:
        if not plain_totals or (args.trace and not traced_totals):
            return True  # at least one pass, and a traced run one of each kind
        return (time.perf_counter() - start) + statistics.mean(durations) <= args.seconds

    while another_pass():
        t0 = time.perf_counter()
        trace = bool(args.trace) and len(plain_totals) > len(traced_totals)
        rows = [runner.execute(c, trace) for c in wl.rounds]
        durations.append(time.perf_counter() - t0)
        print(f"pass {len(durations)} ({'traced' if trace else 'untraced'}): {durations[-1]:.1f} s", file=sys.stderr)
        done = [r for r in rows if r is not None]
        total = sum(r["command_s"] for r in done)
        if trace:
            traced_totals.append(total)
            layers: dict[str, float] = {}
            for r in done:
                for k, v in layer_values(r).items():
                    layers[k] = layers.get(k, 0.0) + v
            traced_layers.append(layers)
        else:
            plain_totals.append(total)
            measured += done
            for samples, r in zip(plain, rows):
                if r is not None:
                    samples.append(r)

    metrics = {}
    if args.trace:
        for name in LAYER_METRICS:
            value = statistics.median(p[name] for p in traced_layers) if traced_layers else None
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
        overhead = statistics.median(traced_totals) - statistics.median(plain_totals)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = kind_values(wl.setup, [[r] if r else [] for r in setup])
        values.update(kind_values(wl.rounds, plain))  # the pass's own kinds win over the set-up's
        values["setup_s"] = statistics.median(r["import_s"] for r in measured) if measured else None
        own = [r for r in measured if not r["companion"]]
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in own) if own else None
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values.get(name), "unit": unit}
    line = {
        "correct": runner.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
