"""Arithmetic of ``scripts/bench_pairs.py`` on canned result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def _line(pair, side, value, failed=0, name="wall_s"):
    return {"pair": pair, "side": side, "seed": 100 + pair,
            "first": "parent",
            "result": {"correct": failed == 0, "attempted": 9,
                       "failed": failed,
                       "metrics": {name: {"value": value, "unit": "s"}}}}


def _lines(parent, change, name="wall_s"):
    return ([_line(i, "parent", v, name=name) for i, v in enumerate(parent)]
            + [_line(i, "change", v, name=name)
               for i, v in enumerate(change)])


def test_quartiles_follow_statistics_quantiles():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) \
        == (1.5, 3.0, 4.5)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_count_lower_is_better_and_ties_for_neither():
    s = bench_pairs.summarize_metric(
        _lines([10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0]), WALL)
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (2, 1, 1, 4)


def test_higher_is_better_flips_the_win():
    metric = {"name": "ratio", "unit": "", "better": "higher",
              "bound": 0.1}
    s = bench_pairs.summarize_metric(
        _lines([1.0, 1.0], [2.0, 0.5], name="ratio"), metric)
    assert (s["wins"], s["losses"]) == (1, 1)
    assert s["ratio"] == pytest.approx(1.25)
    assert s["within_bound"]


def test_unpaired_runs_do_not_count_as_wins():
    lines = _lines([10.0, 10.0], [9.0, 9.0])[:-1]   # last change missing
    s = bench_pairs.summarize_metric(lines, WALL)
    assert (s["pairs"], s["wins"]) == (1, 1)


def test_bound_check_and_resolved_gain():
    parent = [10.0, 10.5, 11.0, 11.5, 12.0]
    s = bench_pairs.summarize_metric(
        _lines(parent, [8.0, 8.2, 8.4, 8.6, 8.8]), WALL)
    assert s["parent_iqr"] == pytest.approx(11.75 - 10.25)
    assert s["ratio"] == pytest.approx(8.4 / 11.0)
    assert s["within_bound"] and s["resolved_gain"]
    # 25 % worse is the edge of the bound; beyond it fails.
    s = bench_pairs.summarize_metric(
        _lines(parent, [13.75] * 5), WALL)
    assert s["ratio"] == pytest.approx(1.25) and s["within_bound"]
    s = bench_pairs.summarize_metric(_lines(parent, [14.0] * 5), WALL)
    assert not s["within_bound"] and not s["resolved_gain"]
    # Better, but by less than the parent's quartile distance.
    s = bench_pairs.summarize_metric(_lines(parent, [10.5] * 5), WALL)
    assert s["wins"] == 3 and not s["resolved_gain"]


def test_side_counts_and_summary_only(tmp_path, capsys):
    lines = _lines([10.0, 11.0], [9.0, 9.5])
    lines[0]["result"]["failed"] = 2
    lines[0]["result"]["correct"] = False
    lines.append({"pair": 2, "side": "change", "seed": 102,
                  "first": "change", "result": {"error": "exit 1"}})
    counts = bench_pairs.side_counts(lines)
    assert counts["parent"] == {"runs": 2, "correct": 1, "errors": 0,
                                "failed_ops": 2}
    assert counts["change"] == {"runs": 3, "correct": 2, "errors": 1,
                                "failed_ops": 0}
    out = tmp_path / "pairs.jsonl"
    out.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert bench_pairs.main(["--summary-only", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "wall_s (s, lower is better)" in text
    assert "change wins 2/2" in text
    assert "cpu_s: no values on both sides" in text
