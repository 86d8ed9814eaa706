"""End-to-end and per-layer benchmark of the landaucap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--compare PREVIOUS_RESULTS]

Run from the root of a source checkout. Each operation is one
`landaucap <command> --config ... --format json` call in a fresh
interpreter, started one at a time with every thread pool pinned to one
thread. Operations repeat until the run has lasted S seconds, give or
take half an operation; each output is checked against an oracle from
`workloads.py`.

With --trace 0 the last stdout line reports the end-to-end metrics (the
median over the run's samples): setup_s, the interpreter start-up up to
`import landaucap.cli` done; op_s, the time of `cli.main`; peak_rss_mb,
the peak resident memory of the operation's process. Both times read in
seconds of a reference host: each child samples the host's speed while it
works (`speed.py`), and the results file keeps the plain wall times too. With --trace 1 the
same operations run with the layer functions wrapped (`spans.py`) and the
line reports the per-layer metrics instead.

Each invocation writes its samples, metrics and machine facts to
perfbench/out/<workload>-trace<T>-seed<N>.json, and with --trace 1 the spans
of its last operation next to it. --compare prints the change per metric
against an earlier results file, or against the newest file of the same
workload and mode in an earlier results directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS, metric_unit
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
OP_SCRIPT = HERE / "op.py"

SETUP_SAMPLES = 5       # import-only starts per run, on top of one per operation
DEADLINE_S = 170.0      # a run stops starting work and kills a late operation here
THREAD_VARS = ("LANDAUCAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def machine_facts(env: dict) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "threads": {k: env[k] for k in THREAD_VARS},
    }


def start_process(argv: list, env: dict, t_start: float):
    """Start op.py; returns (process, set-up record).

    The record holds the wall time until the child printed "ready" and that
    time in reference seconds (`speed.py`), from the host speed the child
    sampled while it imported landaucap.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-E", "-s", str(OP_SCRIPT)] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    wall = time.perf_counter() - t0
    word, _, speed = line.strip().partition(" ")
    if word != "ready":
        _, err = finish(proc, t_start)
        raise RuntimeError(f"operation process did not start: {line.strip()} {err.strip()}")
    speed = json.loads(speed)
    return proc, {"setup_s": (wall - speed["spent_s"]) * speed["factor"], "setup_wall_s": wall,
                  "setup_speed": speed}


def finish(proc, t_start: float):
    """Wait for proc until the run's deadline; kill it past the deadline."""
    try:
        return proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - t_start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return out, err + "\nkilled at the run deadline"


def run_operation(workload, cli_args: list, output: Path, expected, trace: bool,
                  env: dict, t_start: float) -> dict:
    if output.exists():
        output.unlink()
    proc, setup = start_process([str(SRC), "1" if trace else "0"] + cli_args, env, t_start)
    out, err = finish(proc, t_start)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    try:
        rec = json.loads(last)
    except ValueError:
        rec = {"rc": None}
    rec.update(setup)
    if rec["rc"] == 0:
        rec["problems"] = check_output(workload, output, expected)
    else:
        rec["problems"] = [f"exit code {rec['rc']}: {err.strip()[-500:]}"]
    return rec


def median_metrics(samples: list, names, units: dict) -> dict:
    if not samples:
        return {}
    return {n: {"value": statistics.median(s[n] for s in samples), "unit": units[n]}
            for n in names}


def compare(results: dict, previous: Path, own: Path) -> None:
    if previous.is_dir():
        pattern = f"{results['workload']}-trace{int(results['trace'])}-seed*.json"
        found = sorted((p for p in previous.glob(pattern) if p.resolve() != own.resolve()),
                       key=lambda p: p.stat().st_mtime)
        if not found:
            sys.stderr.write(f"compare: no {pattern} in {previous}\n")
            return
        previous = found[-1]
    old = json.loads(previous.read_text(encoding="utf-8"))
    if old["workload"] != results["workload"]:
        sys.stderr.write(f"compare: {previous} holds workload {old['workload']}\n")
        return
    sys.stderr.write(f"change against {previous} ({results['workload']}):\n")
    for name, new in results["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], new["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        sys.stderr.write(f"  {name:40s} {a:12.6g} -> {b:12.6g} {new['unit']:6s} {change}\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", type=Path, help="earlier results file or directory")
    args = p.parse_args()
    t_start = time.perf_counter()
    if not (SRC / "landaucap" / "cli.py").is_file():
        sys.stderr.write(f"no landaucap source under {SRC}; run from a source checkout\n")
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    tag = f"{workload.name}-trace{args.trace}-seed{args.seed}"
    work = OUT / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    config = workload.config(args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    output = work / "output.json"
    cli_args = [workload.command, "--config", str(config_path), "--format", "json",
                "--output", str(output), *workload.extra_args]
    expected = workload.oracle()
    env = pinned_env()

    # one uncounted start compiles the sources to bytecode, which users pay once
    setups = []
    for counted in (False,) + (True,) * SETUP_SAMPLES:
        proc, setup = start_process([str(SRC), "0"], env, t_start)
        finish(proc, t_start)
        if counted:
            setups.append(setup)
    # start another operation while it would end nearer the window's end
    # than stopping now does (taking it to last as long as the last one), so
    # a run lasts --seconds give or take half an operation on any host
    ops = []
    t_measure = time.perf_counter()
    while True:
        t_op = time.perf_counter()
        ops.append(run_operation(workload, cli_args, output, expected, trace, env, t_start))
        now = time.perf_counter()
        last = now - t_op
        if now - t_measure + last / 2 > args.seconds or now - t_start + last > DEADLINE_S:
            break
    failed = [op for op in ops if op["problems"]]
    for op in failed:
        sys.stderr.write(f"{workload.name}: failed operation: {'; '.join(op['problems'])}\n")
    good = [op for op in ops if not op["problems"]] or ops

    if trace:
        metrics = median_metrics([op["layers"] for op in good if "layers" in op], METRICS,
                                 {m: metric_unit(m) for m in METRICS})
    else:
        metrics = {"setup_s": {"value": statistics.median([r["setup_s"] for r in setups + ops]),
                               "unit": "s"}}
        metrics.update(median_metrics(good, ("op_s", "peak_rss_mb"),
                                      {"op_s": "s", "peak_rss_mb": "MB"}))

    # an operation that exits non-zero fails; one that exits 0 with a wrong
    # answer fails and makes the run incorrect
    result = {"correct": not any(op["rc"] == 0 for op in failed), "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=trace, cli_args=cli_args, config=config, machine=machine_facts(env),
                  import_setups=setups,
                  operations=[{k: v for k, v in op.items() if k != "spans"} for op in ops])
    results_path = OUT / f"{tag}.json"
    results_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace and "spans" in ops[-1]:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(ops[-1]["spans"]), encoding="utf-8")
    if args.compare is not None:
        compare(record, args.compare, results_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
