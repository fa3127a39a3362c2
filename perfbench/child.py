"""One `coagkin.cli.main` call in a fresh interpreter, with its cost.

    python3 child.py SRC_DIR COMMAND CONFIG T_SPAWN TRACE RESULT

T_SPAWN is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so setup_s covers
interpreter start, `import coagkin` and config materialisation. A fixed
probe loop runs right before and right after the call. With TRACE=1 the
span tracer is installed after set-up and its per-layer metrics are added
to the result. The result is written as JSON to RESULT.
"""
import json
import resource
import sys
import time

import numpy as np


def probe() -> float:
    """Seconds for a fixed loop of small numpy operations driven from Python.

    It shares no code with coagkin but is the same kind of work as most of
    coagkin's steps and samples. The harness divides timings by how much
    slower than nominal it ran, in the same process and next to the call.
    """
    x = np.linspace(0.0, 1.0, 256)
    t0 = time.perf_counter()
    for _ in range(8000):
        np.cumsum(x * 1.0001)
    return time.perf_counter() - t0


def peak_rss_mib() -> float:
    """High-water resident set of this process image, from /proc (Linux).

    ru_maxrss is not used: at exec it keeps the peak of the image it
    replaces, which for a vfork-ed child is the benchmark harness itself.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the value is in kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(src, command, config, t_spawn, trace, result_path):
    sys.path.insert(0, src)
    import coagkin.cli as cli

    cli.RunConfig.load(config).resolved_dict()
    setup_s = time.perf_counter() - float(t_spawn)

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    before = probe()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = cli.main([command, config])
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mib": peak_rss_mib(),
        "probe_s": (before + probe()) / 2,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics(wall_s)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:7])
