"""Benchmark of xop: end-to-end metrics (untraced) or per-layer metrics
(traced) for one workload.

    python3 bench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; xop is imported from ./src.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Progress and problems go to standard error.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one thread per numeric library, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("XOP_TOL_SCALE", None)  # tolerances as configured, unscaled

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SETUP_RUNS = 11  # measured starts, spread over the timed rounds
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import xop.config; "
              "xop.config.load_config(None)")
ACCURACY_METRICS = ("err_radial_max", "err_angular_max", "x1_residual_max")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def start_interpreter(root: str) -> float:
    """Wall time of a fresh interpreter importing xop and loading the
    bundled config."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def execute(op, tracer, key):
    """Run one operation; returns (seconds, result, exception)."""
    try:
        if tracer is None:
            start = time.perf_counter()
            result = op.run()
            return time.perf_counter() - start, result, None
        with tracer.operation_span(key):
            start = time.perf_counter()
            result = op.run()
            return time.perf_counter() - start, result, None
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        return time.perf_counter() - start, None, exc


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xop", "__init__.py")):
        fail(f"no xop sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)

    import numpy as np

    import xop
    import workloads
    from tracing import Tracer

    if not os.path.abspath(xop.__file__).startswith(src + os.sep):
        fail(f"imported xop from {xop.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")

    out_root = os.path.join(root, "bench", "out")
    out_dir = os.path.join(out_root, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    setup_times = []
    if args.trace == 0:
        start_interpreter(root)  # unmeasured: writes the bytecode cache

    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](rng, out_dir, workloads.MemberCache())
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    for op in workload.warmup:
        execute(op, tracer, f"warmup:{op.label}")
    if tracer is not None:
        tracer.reset()

    times, problems, accuracy = [], [], {}
    fingerprints, faults = {}, {}
    attempted = failed = 0
    measured = 0.0
    rounds = 0
    while measured < args.seconds or rounds < workload.min_rounds:
        for op in workload.operations:
            seconds, result, exc = execute(op, tracer, f"{rounds}:{op.label}")
            measured += seconds
            times.append(seconds)
            attempted += 1
            if exc is not None:
                failed += 1
                if isinstance(exc, op.raises):
                    faults.setdefault(op.known_fault, set()).add(op.label)
                else:
                    problems.append(f"{op.label}: raised {exc!r}")
                continue
            try:
                fingerprint, data = op.collect(result)
                if op.verdict is None:
                    verdict = op.check(data)
            except Exception as exc:  # missing or malformed output
                failed += 1
                problems.append(f"{op.label}: output unreadable: {exc!r}")
                continue
            if op.verdict is None:
                fingerprints[op.label] = fingerprint
                op.verdict = verdict
                for metric, value in op.verdict.accuracy.items():
                    accuracy[metric] = max(accuracy.get(metric, 0.0), value)
                problems += [f"{op.label}: {p}" for p in op.verdict.problems]
                if op.verdict.level_miss and op.known_fault != workloads.ANGULAR_CLIP:
                    problems.append(f"{op.label}: eigenvalues miss the analytic levels")
            elif fingerprint != fingerprints[op.label]:
                problems.append(f"{op.label}: output differs from the first round")
            if op.verdict.level_miss and op.known_fault == workloads.ANGULAR_CLIP:
                faults.setdefault(op.known_fault, set()).add(op.label)
            if op.verdict.level_miss or op.verdict.problems:
                failed += 1
        rounds += 1
        # setup starts between rounds, spread over the run so that their
        # median sees the same drift of the machine's speed as the rounds
        while (args.trace == 0
               and len(setup_times) < SETUP_RUNS * min(1.0, measured / args.seconds)):
            setup_times.append(start_interpreter(root))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(out_root, f"trace_{args.workload}_{args.seed}.jsonl"))

    for message in problems[:40]:
        print(f"bench: problem: {message}", file=sys.stderr)
    for fault, labels in sorted(faults.items()):
        print(f"bench: failed as known fault ({workloads.KNOWN_FAULTS[fault]}): "
              f"{', '.join(sorted(labels))}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed, {measured:.2f} s measured", file=sys.stderr)

    if tracer is not None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics(attempted).items()}
    else:
        ms = np.array(times) * 1e3
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": attempted / measured, "unit": "ops/s"},
            "op_ms_p50": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
            "op_ms_tail": {"value": float(np.percentile(ms, workload.tail_percentile)),
                           "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for name in ACCURACY_METRICS:
            if name not in accuracy:
                problems.append(f"no operation measured {name}")
            metrics[name] = {"value": accuracy.get(name, 0.0),
                             "unit": "scaled" if name == "x1_residual_max" else "abs"}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
