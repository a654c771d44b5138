"""Property tests for the observability layer (seeded, stdlib random).

The span model is checked structurally over randomly generated trees
driven by a fake clock: children nest inside their parents, siblings
never overlap, a parent's duration covers its children's, and the
structural digest is invariant under timing jitter and merge order but
sensitive to structure.  Counter properties cover monotonicity and
the adding of counts on bundle merges, and the run journal's per-stage
table its aggregation.  The no-op layer is checked for identity (zero
allocation on hot paths).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.obs import NULL_TRACER, Tracer, counter, kernel
from repro.obs.trace import _NULL_SPAN_CONTEXT
from repro.runtime.session import current_session, override
from repro.runtime.supervisor import RunJournal, StageRecord, StageSupervisor

SEEDS = (11, 23, 47)


class FakeClock:
    """A controllable monotonic clock for deterministic span timings."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def build_random_trace(rng: random.Random, tracer: Tracer,
                       clock: FakeClock, depth: int = 0) -> None:
    """Grow one random span subtree, advancing the clock as it goes."""
    n_children = rng.randint(0, 3) if depth < 3 else 0
    with tracer.span(f"n{rng.randint(0, 4)}", category="span",
                     depth=depth) as span:
        clock.advance(rng.uniform(0.001, 0.1))
        if rng.random() < 0.3:
            span.event("tick", value=rng.randint(0, 9))
        for _ in range(n_children):
            build_random_trace(rng, tracer, clock, depth + 1)
            clock.advance(rng.uniform(0.0, 0.05))
        clock.advance(rng.uniform(0.001, 0.1))


def random_tracer(seed: int, jitter: float = 1.0) -> Tracer:
    """A finished random trace; ``jitter`` scales timings, not structure."""
    rng = random.Random(seed)
    clock = FakeClock()
    tracer = Tracer(clock=lambda: clock.t * jitter, wall=lambda: 0.0)
    for _ in range(rng.randint(1, 4)):
        build_random_trace(rng, tracer, clock)
        clock.advance(rng.uniform(0.0, 0.2))
    return tracer


def _by_id(tracer: Tracer):
    return {s.span_id: s for s in tracer.snapshot()}


@pytest.mark.parametrize("seed", SEEDS)
def test_children_nest_within_parents(seed):
    tracer = random_tracer(seed)
    spans = _by_id(tracer)
    assert spans, "generator must produce spans"
    for span in spans.values():
        if span.parent_id is None:
            continue
        parent = spans[span.parent_id]
        assert span.start_us >= parent.start_us - 1e-9
        assert span.end_us <= parent.end_us + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_siblings_never_overlap(seed):
    tracer = random_tracer(seed)
    by_parent = {}
    for span in tracer.snapshot():
        by_parent.setdefault(span.parent_id, []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.start_us)
        for a, b in zip(siblings, siblings[1:]):
            assert a.end_us <= b.start_us + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_parent_duration_covers_children(seed):
    tracer = random_tracer(seed)
    spans = _by_id(tracer)
    for span in spans.values():
        child_total = sum(c.dur_us for c in spans.values()
                          if c.parent_id == span.span_id)
        assert span.dur_us >= child_total - 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_digest_invariant_under_timing_jitter(seed):
    base = random_tracer(seed, jitter=1.0)
    jittered = random_tracer(seed, jitter=7.3)
    assert base.digest() == jittered.digest()
    # Timings really did change, only the structure matched.
    assert base.snapshot()[0].dur_us != jittered.snapshot()[0].dur_us


def test_digest_sensitive_to_structure():
    digests = {random_tracer(seed).digest() for seed in SEEDS}
    assert len(digests) == len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_is_order_independent_and_repeatable(seed):
    bundle_a = random_tracer(seed).export_bundle(label="a")
    bundle_b = random_tracer(seed + 1000).export_bundle(label="b")
    bundle_a.wall_epoch_s = 5.0          # exercise the clock-offset shift

    def merged(order):
        parent = Tracer(clock=FakeClock(), wall=lambda: 0.0)
        for name, bundle in order:
            parent.merge_bundle(bundle, container_name=name)
        return parent

    ab = merged([("task:a", bundle_a), ("task:b", bundle_b)])
    ba = merged([("task:b", bundle_b), ("task:a", bundle_a)])
    assert ab.digest() == ba.digest()
    # The offset shift moved bundle_a's spans onto the parent timeline.
    shifted = [s for s in ab.snapshot() if s.start_us >= 5.0 * 1e6]
    assert len(shifted) == len(bundle_a.spans) + 1   # + container span
    # Bundle roots were re-parented under their container span.
    containers = {s.name: s.span_id for s in ab.snapshot()
                  if s.category == "task"}
    assert set(containers) == {"task:a", "task:b"}
    spans = _by_id(ab)
    for span in ab.snapshot():
        if span.category == "task":
            assert span.parent_id is None
        else:
            assert span.parent_id in spans


@pytest.mark.parametrize("seed", SEEDS)
def test_chrome_export_schema(seed):
    tracer = random_tracer(seed)
    doc = tracer.to_chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    complete = 0
    for event in doc["traceEvents"]:
        assert event["ph"] in ("X", "i")
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            complete += 1
            assert event["dur"] >= 0.0
    assert complete == len(tracer.snapshot())
    # The document is plain JSON (round-trips through the stdlib).
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("seed", SEEDS)
def test_json_export_round_trips(seed):
    tracer = random_tracer(seed)
    doc = json.loads(tracer.to_json())
    assert doc["n_spans"] == len(tracer.snapshot())
    assert doc["digest"] == tracer.digest()


# -- counters --------------------------------------------------------------

def test_counter_is_monotonic():
    tracer = Tracer()
    c = tracer.counter("x")
    assert tracer.counter("x") is c
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 6


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_merge_adds(seed):
    """Bundle merges add each task's counts into the parent's."""
    rng = random.Random(seed)
    a, b = Tracer(), Tracer()
    for tracer in (a, b):
        tracer.counter("c").inc(rng.randint(0, 50))
    a.counter("only_a").inc(1)
    merged = Tracer()
    merged.counter("c").inc(7)
    merged.merge_bundle(a.export_bundle(label="a"))
    merged.merge_bundle(b.export_bundle(label="b"))
    assert merged.counts() == {
        "c": 7 + a.counter("c").value + b.counter("c").value,
        "only_a": 1,
    }
    # Counts stay out of the structural digest.
    assert merged.digest() == Tracer().digest()


def test_snapshot_is_plain_json():
    tracer = Tracer()
    tracer.counter("c").inc(3)
    tracer.counter("a.b").inc()
    snap = tracer.counts()
    assert snap == {"a.b": 1, "c": 3}
    assert list(snap) == sorted(snap)
    assert json.loads(json.dumps(snap)) == snap
    assert tracer.export_bundle().counts == snap


# -- the no-op layer -------------------------------------------------------

def test_disabled_layer_is_shared_singletons():
    """Tracing off must not allocate: every hot-path handle is shared."""
    assert current_session().tracer is NULL_TRACER
    # One shared context manager for every span/kernel request.
    assert NULL_TRACER.span("x") is NULL_TRACER.span("y")
    assert kernel("place.spread") is kernel("sta.levelize")
    assert kernel("anything") is _NULL_SPAN_CONTEXT
    # Likewise while a stage deadline is armed but not yet due.
    supervisor = StageSupervisor(timeout_s=60.0)
    with override(supervisor=supervisor):
        assert supervisor.run_stage(
            "s", lambda: kernel("place.spread")) is _NULL_SPAN_CONTEXT
    # One shared counter for every name.
    assert NULL_TRACER.counter("a") is NULL_TRACER.counter("b")
    assert counter("a") is NULL_TRACER.counter("z")
    # Null instruments accept writes and record nothing.
    counter("a").inc(10)
    assert NULL_TRACER.counter("a").value == 0
    assert NULL_TRACER.counts() == {}
    with NULL_TRACER.span("x") as span:
        span.set("k", 1)
        span.event("e")
    assert NULL_TRACER.snapshot() == []


def test_use_tracer_scopes_installation():
    """A tracer installed on the session for a scope is the one that
    kernel() and counter() record into; the null tracer returns after."""
    tracer = Tracer(clock=FakeClock(), wall=lambda: 0.0)
    with override(tracer=tracer):
        assert current_session().tracer is tracer
        with kernel("k"):
            counter("c").inc()
    assert current_session().tracer is NULL_TRACER
    assert [s.name for s in tracer.snapshot()] == ["k"]
    assert tracer.counts() == {"c": 1}


def test_journal_stage_table_sums_times_and_maxes_rss():
    """Per stage, in the given order: walls and CPU summed over the
    attempts, peak RSS their max; stages without attempts left out."""
    journal = RunJournal()
    for stage, attempt, wall, cpu, rss in (
            ("layout", 1, 0.5, 0.25, 2048.0),
            ("prepare", 1, 0.125, 0.0625, 1024.0),
            ("layout", 2, 1.5, 0.75, 3072.0)):
        journal.record(StageRecord(stage=stage, attempt=attempt,
                                   outcome="ok", wall_time_s=wall,
                                   cpu_s=cpu, peak_rss_kb=rss))
    table = journal.stage_table(("prepare", "synthesis", "layout"))
    assert table == [
        {"stage": "prepare", "wall (s)": 0.125, "cpu (s)": 0.062,
         "peak RSS (MB)": 1.0, "attempts": 1},
        {"stage": "layout", "wall (s)": 2.0, "cpu (s)": 1.0,
         "peak RSS (MB)": 3.0, "attempts": 2},
    ]
