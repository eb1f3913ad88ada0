"""Run one lapdsm CLI command in this fresh interpreter and time it.

    python3 perfbench/child.py RESULT.json TRACE -- <lapdsm arguments>

Times the import of `lapdsm.cli` (the set-up every CLI call pays), then one
`lapdsm.cli.main(argv)` call from just before the call to its return, and
reads this process's peak resident set (VmHWM).  With TRACE=1 the public
functions of every lapdsm module are wrapped first (see spans.py) and the
spans' self times, call counts and counters go into the result too.  The result is one JSON
object written to RESULT.json.
"""

import os
import sys
import time


def _peak_rss_kib() -> float:
    """VmHWM of this process's own memory map.

    ru_maxrss is no use here: at exec, Linux carries the parent's peak into
    the child's, so every command would report at least the benchmark's own.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- ARGS...")
    argv = sys.argv[4:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    import lapdsm.cli

    import_s = time.perf_counter() - t0

    import json

    if not os.path.abspath(lapdsm.cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"lapdsm imported from {lapdsm.cli.__file__}, not from this checkout")
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    main_fn = lapdsm.cli.main
    t1 = time.perf_counter()
    code = main_fn(argv)
    command_s = time.perf_counter() - t1
    rss_kib = _peak_rss_kib()
    out = {
        "argv": argv,
        "exit": code,
        "import_s": import_s,
        "command_s": command_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    if tracer is not None:
        out["self_s"] = tracer.self_times()
        out["calls"] = tracer.calls()
        out["counters"] = tracer.counters
    with open(result_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
