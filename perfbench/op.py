"""One landaucap CLI operation in a fresh interpreter.

    python3 perfbench/op.py SRC_DIR TRACE [CLI ARGS...]

Imports `landaucap.cli` from SRC_DIR, prints "ready" and the host speed
sampled during the import (the parent times the interpreter's start-up up
to this line), then runs `cli.main(CLI ARGS)` and prints one JSON line with
the exit code, the time of `cli.main` in reference seconds (`speed.py`) and
as plain wall time, the process's peak resident memory and, with TRACE=1,
the spans and per-layer metrics, their times in reference seconds too.
With no CLI arguments it stops after "ready".
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from speed import Sampler

SETUP_INTERVAL_S = 0.01     # the import takes about 0.25 s
OP_INTERVAL_S = 0.05        # an operation takes several seconds


def main() -> int:
    sampler = Sampler(SETUP_INTERVAL_S).start()
    src, trace, argv = os.path.abspath(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import landaucap.cli

    setup_speed = sampler.stop()

    if not os.path.abspath(landaucap.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"landaucap was imported from {landaucap.cli.__file__}, not {src}\n")
        return 2
    print("ready", json.dumps(setup_speed), flush=True)
    if not argv:
        return 0

    tracer = None
    report = {}
    if trace:
        from spans import Tracer, layer_metrics, metric_unit

        tracer = Tracer()
        report["untraced"] = tracer.install()
    sampler = Sampler(OP_INTERVAL_S).start()
    t0 = time.perf_counter()
    try:
        rc = landaucap.cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    speed = sampler.stop()
    report["op_s"] = (wall - speed["spent_s"]) * speed["factor"]
    report["op_wall_s"] = wall
    report["op_speed"] = speed
    report["rc"] = rc
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # spans include the sampler's handler time, about 1% of each
        report["layers"] = {m: v * speed["factor"] if metric_unit(m) == "s" else v
                            for m, v in layer_metrics(tracer.spans).items()}
        report["spans"] = tracer.spans
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
