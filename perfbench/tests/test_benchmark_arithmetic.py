"""The benchmark's own arithmetic: self time, ratios, percentiles, failures."""

import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

import calibrate
import layers
import run
import stats
from workloads import TablesSeq, frontier_digest

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=None, **attrs):
    return (name, start, end, parent, attrs)


def test_self_time_subtracts_direct_children_only():
    spans = [span("flow", 0.0, 10.0),
             span("opt", 1.0, 5.0, 0),
             span("timing", 2.0, 4.0, 1),
             span("power", 6.0, 7.0, 0)]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_percentiles_interpolate_between_ranks():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([], 50) == 0.0


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 12.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([5.0] * 10) == 0.0


def test_reference_seconds_scale_by_the_kernels_mean_slowdown():
    reference = calibrate.KERNEL_REFERENCE_S
    assert calibrate.reference_seconds(
        60.0, [reference] * 3) == pytest.approx(60.0)
    # The kernel ran 1.5x slower on average: the same work, 1.5x the
    # host seconds, reads the same in reference seconds.
    assert calibrate.reference_seconds(
        90.0, [reference, 2 * reference]) == pytest.approx(60.0)
    with pytest.raises(ValueError):
        calibrate.reference_seconds(1.0, [])


def test_sampler_records_kernel_times_and_spans(tmp_path):
    recorder = layers.Recorder(tmp_path)
    sampler = calibrate.Sampler(tmp_path, recorder)
    outer = recorder.begin("flow")
    sampler._sample(None, None)
    recorder.updating = True
    sampler._sample(None, None)
    recorder.updating = False
    recorder.end(outer)
    walls, cpus = calibrate.load(tmp_path)
    assert len(walls) == len(cpus) == 2 and min(walls) > 0
    # Only the first sample became a span, a child of the open one.
    assert [(name, parent) for name, _, _, parent, _ in recorder.spans] == [
        ("flow", None), ("calibrate", 0)]


def test_ratio_is_zero_without_a_base():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(0, 0) == 0.0


def test_failure_share():
    assert stats.failure_share(0, 10) == 0.0
    assert stats.failure_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failure_share(0, 0)
    with pytest.raises(ValueError):
        stats.failure_share(5, 4)


def test_summarize_attributes_layers_and_ratios():
    parent = {"pid": 1, "counters": {"stage_hits": 3, "stage_misses": 1},
              "spans": [
                  span("dse", 0.0, 20.0, evaluations=4),
                  span("parallel", 1.0, 11.0, 0, jobs=2),
                  span("flow", 12.0, 15.0, 0),
                  span("store.read", 12.5, 13.0, 2, hit=True,
                       bytes=layers.MB),
                  span("store.read", 13.0, 13.5, 2, hit=False),
                  span("timing", 14.0, 14.5, 2),
              ]}
    worker = {"pid": 2, "counters": {}, "spans": [
        span("task", 2.0, 10.0),
        span("flow", 2.0, 10.0, 0),
        span("synth", 2.0, 4.0, 1),
        span("timing", 3.0, 4.0, 2),
        span("opt", 5.0, 9.0, 1),
        span("timing", 6.0, 7.0, 4),
        span("timing", 7.0, 8.0, 4),
        span("store.write", 9.0, 9.5, 1, bytes=2 * layers.MB),
    ]}
    other = {"pid": 3, "counters": {}, "spans": [span("task", 4.0, 8.0)]}
    got = layers.summarize([parent, worker, other])
    assert got["timing.runs"] == 4
    assert got["timing.runs.synth"] == 1
    assert got["timing.runs.opt"] == 2
    assert got["timing.runs.signoff"] == 1
    assert got["timing.run_s"] == pytest.approx(3.5)
    assert got["opt.self_s"] == pytest.approx(2.0)
    assert got["synth.self_s"] == pytest.approx(1.0)
    assert got["flow.runs"] == 2
    assert got["flow.unattributed_s"] == pytest.approx(1.5 + 1.5)
    assert got["flow.stage_hit_ratio"] == 0.75
    assert got["runtime.store_reads"] == 2
    assert got["runtime.store_hit_ratio"] == 0.5
    assert got["runtime.store_read_mb"] == 1.0
    assert got["runtime.store_write_mb"] == 2.0
    assert got["parallel.tasks"] == 2
    assert got["parallel.busy_s"] == pytest.approx(12.0)
    assert got["parallel.utilization"] == pytest.approx(12.0 / 20.0)
    assert got["parallel.wait_s"] == pytest.approx(1.0 + 3.0)
    assert got["dse.evaluations"] == 4


def test_paper_error_reads_8_18_on_the_golden_table4():
    rows = json.loads((ROOT / "goldens" / "table4.json").read_text())["rows"]
    paper = {"fpu": (0, 0, -14.5), "aes": (0, 0, -10.9),
             "ldpc": (0, 0, -32.1), "des": (0, 0, -4.1),
             "m256": (0, 0, -17.5)}
    workload = TablesSeq()
    workload.modules = {"table4": SimpleNamespace(PAPER=paper)}
    assert workload.paper_error(rows) == pytest.approx(8.18)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_report_gives_every_declared_metric_with_its_unit(trace, kind):
    rep = {"wall_s": 2.0, "cpu_s": 3.0, "host_wall_s": 2.2,
           "host_cpu_s": 3.3, "kernel_s": 0.011, "samples": 8,
           "peak_rss_mb": 100.0,
           "steal_s": 0.0, "setup_s": 0.5, "attempted": 9, "failed": 0,
           "mismatched": [], "paper_err_pp": None,
           "layers": layers.summarize([{"pid": 1, "counters": {},
                                        "spans": []}])}
    args = SimpleNamespace(workload="sweep-j2", seed=1, trace=trace)
    result = run.report(args, [0.5, 0.7, 0.6], [rep])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(name, metric["unit"])
            for name, metric in result["metrics"].items()] == [
        (metric["name"], metric["unit"]) for metric in config[kind]]
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 9, 0)


def test_frontier_digest_covers_results_not_bookkeeping():
    def document(key="k1", power=1.5, stage_hits=5):
        return {
            "schema": 1, "cache_hits": 3,
            "points": [{"index": 0, "assignment": {"pi_activity": 0.1},
                        "key": key, "objectives": {"power": power},
                        "cost": power, "round": 0, "source": "grid",
                        "on_front": True}],
            "frontier": {"indices": [0], "size": 1, "ideal": [power],
                         "nadir": [power], "hypervolume": 0.0, "knee": 0,
                         "best": 0},
            "failures": [],
            "provenance": [{"index": 0, "key": key,
                            "stage_hits": stage_hits, "stage_misses": 0,
                            "trace_digest": key, "replay_ok": True}]}

    base = frontier_digest(json.dumps(document()))
    assert frontier_digest(json.dumps(document(key="k2",
                                               stage_hits=4))) == base
    assert frontier_digest(json.dumps(document(power=1.6))) != base
