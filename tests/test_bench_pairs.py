"""The summary of tools/bench_pairs.py on canned result lines; no benchmark
runs here."""

import importlib.util
import json
import pathlib

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher"},
           {"name": "op_ms_p50", "unit": "ms", "better": "lower"}]


def line(ops, p50, failed=0, correct=True):
    """One canned last line of bench/run.py."""
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "ops/s"}, "op_ms_p50": {"value": p50, "unit": "ms"}}})


def records(rows):
    return [{"workload": workload, "pair": pair, "side": side,
             "result": None if text is None else json.loads(text)}
            for workload, pair, side, text in rows]


def test_summary_gives_medians_quartiles_and_wins():
    rows = []
    for pair, (parent, change) in enumerate([((10.0, 5.0), (12.0, 4.0)),
                                             ((11.0, 5.5), (10.0, 6.0)),
                                             ((12.0, 6.0), (14.0, 5.0))]):
        rows += [("w", pair, "parent", line(*parent)), ("w", pair, "change", line(*change))]
    text = bench_pairs.summarize(records(rows), METRICS)
    lines = text.splitlines()
    assert lines[0] == "w: 3 of 3 pairs complete"
    assert "parent: 0 runs without a result, 0 not correct, 0 of 300 operations failed" in text
    ops = next(row for row in lines if row.strip().startswith("ops_per_s")).split()
    # parent 10, 11, 12: q1 10.5, median 11, q3 11.5; change 12, 10, 14: 11, 12, 13
    assert ops[1:9] == ["higher", "10.5", "/", "11", "/", "11.5", "11", "/"]
    assert ops[-3:] == ["2", "of", "3"]
    p50 = next(row for row in lines if row.strip().startswith("op_ms_p50")).split()
    assert p50[-3:] == ["2", "of", "3"]  # lower is better: 4 < 5 and 5 < 6


def test_summary_leaves_out_incomplete_pairs_and_counts_failures():
    rows = [("w", 0, "parent", line(10.0, 5.0, failed=3)), ("w", 0, "change", None),
            ("w", 1, "change", line(9.0, 6.0, correct=False)), ("w", 1, "parent", line(8.0, 7.0)),
            ("v", 0, "parent", line(1.0, 1.0)), ("v", 0, "change", line(1.0, 1.0))]
    text = bench_pairs.summarize(records(rows), METRICS)
    assert text.splitlines()[0] == "w: 1 of 2 pairs complete"
    assert "change: 1 runs without a result, 1 not correct, 0 of 100 operations failed" in text
    assert "parent: 0 runs without a result, 0 not correct, 3 of 200 operations failed" in text
    ties = [row for row in text.splitlines() if row.strip().startswith("ops_per_s")]
    assert ties[0].split()[-3:] == ["1", "of", "1"] and ties[1].split()[-3:] == ["0", "of", "1"]


def test_seeds_are_a_start_a_range_or_a_list():
    assert bench_pairs.parse_seeds("3..", 4) == [3, 4, 5, 6]
    assert bench_pairs.parse_seeds("1..10", 2) == [1, 2]
    assert bench_pairs.parse_seeds("7,1,4", 3) == [7, 1, 4]
