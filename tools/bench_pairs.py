"""Alternating pair runs of the benchmark: one commit against another.

    python3 tools/bench_pairs.py PARENT CHANGE --workload verify_default \
        --workload x1_families --seeds 1.. --pairs 10

Each commit is exported with `git archive` into a fresh temporary directory,
and every run starts there, so both sides run from a directory of the same
kind (throughput has been seen to follow the directory a run starts from).
Pair i runs `python3 bench/run.py --workload W --seed S_i --seconds T
--trace 0` on both sides, one after the other, T being `run_seconds` of the
change's BENCHMARK.json; even pairs run the parent first, odd pairs the
change, so a process that lands in a fast or a slow mode for its whole life
does not favour one side.  Seeds are `S..` (S, S + 1, ...), `S..E` or a
comma list; pair i takes the i-th.

Run from the repository.  Every run's result line goes to standard error as
it ends; then standard output gets, per workload and per end-to-end metric
of the change's BENCHMARK.json, both sides' medians and quartiles and the
change's wins (pairs where it is strictly better).  Runs that fail or whose
last line is not a result are counted and left out of the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def parse_seeds(text: str, count: int) -> list[int]:
    """The first `count` seeds of `S..`, `S..E` or `a,b,c`."""
    if ".." in text:
        start, _, end = text.partition("..")
        seeds = list(range(int(start), int(end) + 1 if end else int(start) + count))
    else:
        seeds = [int(part) for part in text.split(",")]
    if len(seeds) < count:
        raise SystemExit(f"bench_pairs: {text!r} gives {len(seeds)} seeds for {count} pairs")
    return seeds[:count]


def export(commit: str, into: str) -> None:
    """`git archive` of `commit` unpacked into the empty directory `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced bench run from `root`; its result object, or None."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(records: list[dict], metrics: list[dict]) -> str:
    """The summary table of result records.  Each record holds `workload`,
    `pair`, `side` ("parent" or "change") and `result` (the last output line
    of bench/run.py, parsed, or None for a failed run); `metrics` are the
    end-to-end entries of BENCHMARK.json (name, unit, better)."""
    out = []
    for workload in dict.fromkeys(record["workload"] for record in records):
        runs = {(r["pair"], r["side"]): r["result"] for r in records if r["workload"] == workload}
        pairs = sorted({pair for pair, _ in runs})
        whole = [pair for pair in pairs
                 if all(runs.get((pair, side)) is not None for side in SIDES)]
        out.append(f"{workload}: {len(whole)} of {len(pairs)} pairs complete")
        for side in SIDES:
            results = [runs[(pair, side)] for pair in pairs if (pair, side) in runs]
            broken = sum(result is None for result in results)
            failed = sum(result["failed"] for result in results if result is not None)
            attempted = sum(result["attempted"] for result in results if result is not None)
            wrong = sum(result is not None and not result["correct"] for result in results)
            out.append(f"  {side}: {broken} runs without a result, {wrong} not correct, "
                       f"{failed} of {attempted} operations failed")
        out.append(f"  {'metric':<16} {'better':<7} {'parent q1 / median / q3':<40} "
                   f"{'change q1 / median / q3':<40} change wins")
        for metric in metrics if whole else []:
            name = metric["name"]
            values = {side: [runs[(pair, side)]["metrics"][name]["value"] for pair in whole]
                      for side in SIDES}
            higher = metric["better"] == "higher"
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            cells = ["{:.6g} / {:.6g} / {:.6g}".format(*quartiles(values[side])) for side in SIDES]
            out.append(f"  {name:<16} {metric['better']:<7} {cells[0]:<40} {cells[1]:<40} "
                       f"{wins} of {len(whole)}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="S.., S..E or a comma list")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds, args.pairs)
    records = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        roots = {}
        for side, commit in zip(SIDES, (args.parent, args.change)):
            roots[side] = os.path.join(workdir, side)
            os.mkdir(roots[side])
            export(commit, roots[side])
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        for workload in args.workload:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(roots[side], workload, seed, seconds)
                    records.append({"workload": workload, "pair": pair, "side": side,
                                    "result": result})
                    print(f"bench_pairs: {workload} pair {pair} seed {seed} {side}: "
                          f"{json.dumps(result)}", file=sys.stderr, flush=True)
    print(summarize(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
