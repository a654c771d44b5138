"""Stage-supervisor unit tests: retries, backoff, timeouts, journal."""

import time

import pytest

from repro.errors import (
    CongestionError,
    PlacementError,
    ReproError,
    RetryExhaustedError,
    RoutingError,
    StageTimeoutError,
)
from repro.runtime.supervisor import (
    RunJournal,
    StagePolicy,
    StageRecord,
    StageSupervisor,
    current_supervisor,
    install_supervisor,
    use_supervisor,
)


def make_supervisor(**kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    return StageSupervisor(**kwargs)


def test_plain_stage_returns_value_and_journals():
    sup = make_supervisor()
    assert sup.run_stage("s", lambda: 41 + 1) == 42
    (rec,) = sup.journal.records
    assert rec.stage == "s"
    assert rec.outcome == "ok"
    assert rec.attempt == 1
    assert rec.wall_time_s >= 0.0


def test_retry_then_success_with_backoff():
    sleeps = []
    sup = make_supervisor(sleep=sleeps.append)
    policy = StagePolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0,
                         retry_on=(RoutingError,))
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise RoutingError("boom")
        return "done"

    assert sup.run_stage("s", flaky, policy=policy) == "done"
    assert calls["n"] == 3
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]
    assert sup.journal.outcomes("s") == ["retried", "retried", "ok"]


def test_retry_exhausted_wraps_last_error():
    sup = make_supervisor()
    policy = StagePolicy(max_attempts=3, retry_on=(RoutingError,))

    def always_fails():
        raise RoutingError("still congested")

    with pytest.raises(RetryExhaustedError) as info:
        sup.run_stage("layout", always_fails, policy=policy)
    assert info.value.stage == "layout"
    assert info.value.attempts == 3
    assert isinstance(info.value.last_error, RoutingError)
    assert isinstance(info.value, ReproError)
    assert sup.journal.outcomes("layout") == ["retried", "retried", "error"]


def test_on_retry_callback_runs_between_attempts():
    sup = make_supervisor()
    policy = StagePolicy(max_attempts=3, retry_on=(RoutingError,))
    seen = []

    def fails_twice():
        if len(seen) < 2:
            raise RoutingError("x")
        return "ok"

    result = sup.run_stage("s", fails_twice,
                           policy=policy,
                           on_retry=lambda n, exc: seen.append(n))
    assert result == "ok"
    assert seen == [1, 2]


def test_degrade_returns_partial_result():
    sup = make_supervisor()
    policy = StagePolicy(max_attempts=2, retry_on=(RoutingError,),
                         degrade=True)

    def congested():
        raise CongestionError("overflow", partial={"layout": "congested"},
                              overflow=1.5)

    result = sup.run_stage("layout", congested, policy=policy)
    assert result == {"layout": "congested"}
    assert sup.journal.outcomes("layout") == ["retried", "degraded"]


def test_no_degrade_without_partial():
    sup = make_supervisor()
    policy = StagePolicy(max_attempts=2, retry_on=(RoutingError,),
                         degrade=True)

    def congested():
        raise RoutingError("no partial attached")

    with pytest.raises(RetryExhaustedError):
        sup.run_stage("layout", congested, policy=policy)


def test_non_retryable_error_propagates_and_is_journaled():
    sup = make_supervisor()
    policy = StagePolicy(max_attempts=3, retry_on=(RoutingError,))

    def wrong_kind():
        raise PlacementError("does not fit")

    with pytest.raises(PlacementError):
        sup.run_stage("place", wrong_kind, policy=policy)
    assert sup.journal.outcomes("place") == ["error"]


def test_stage_timeout():
    sup = make_supervisor()
    policy = StagePolicy(timeout_s=0.05)
    with pytest.raises(StageTimeoutError) as info:
        sup.run_stage("slow", lambda: time.sleep(2.0), policy=policy)
    assert info.value.stage == "slow"
    assert info.value.timeout_s == pytest.approx(0.05)
    assert sup.journal.outcomes("slow") == ["timeout"]


def test_timeout_retryable_when_policy_allows():
    sup = make_supervisor()
    policy = StagePolicy(timeout_s=0.05, max_attempts=2,
                         retry_on=(StageTimeoutError,))
    calls = {"n": 0}

    def slow_then_fast():
        calls["n"] += 1
        if calls["n"] == 1:
            time.sleep(2.0)
        return "fast"

    assert sup.run_stage("s", slow_then_fast, policy=policy) == "fast"
    assert sup.journal.outcomes("s") == ["timeout", "ok"]


def test_timeout_execution_propagates_worker_exception():
    sup = make_supervisor()
    policy = StagePolicy(timeout_s=5.0)
    with pytest.raises(RoutingError):
        sup.run_stage("s", lambda: (_ for _ in ()).throw(
            RoutingError("from worker")), policy=policy)


def test_configured_policy_overrides_call_site_default():
    sup = make_supervisor(policies={
        "layout": StagePolicy(max_attempts=1, retry_on=(RoutingError,))})
    call_site = StagePolicy(max_attempts=5, retry_on=(RoutingError,))

    def fails():
        raise RoutingError("x")

    with pytest.raises(RetryExhaustedError) as info:
        sup.run_stage("layout", fails, policy=call_site)
    assert info.value.attempts == 1


def test_global_timeout_applies_to_call_site_policies():
    sup = make_supervisor(default_policy=StagePolicy(timeout_s=7.0))
    call_site = StagePolicy(max_attempts=3, retry_on=(RoutingError,),
                            degrade=True)
    policy = sup.policy_for("layout", call_site)
    assert policy.timeout_s == 7.0
    assert policy.max_attempts == 3
    assert policy.degrade is True
    # A policy with its own timeout keeps it.
    timed = StagePolicy(timeout_s=1.0)
    assert sup.policy_for("x", timed).timeout_s == 1.0


def test_run_context_labels_records():
    sup = make_supervisor()
    with sup.run_context("aes@45nm-2D"):
        sup.run_stage("s", lambda: 1)
    sup.run_stage("s", lambda: 2)
    runs = [r.run for r in sup.journal.records]
    assert runs == ["aes@45nm-2D", ""]


def test_install_and_use_supervisor_scoping():
    default = current_supervisor()
    custom = make_supervisor()
    with use_supervisor(custom):
        assert current_supervisor() is custom
    assert current_supervisor() is default
    install_supervisor(custom)
    try:
        assert current_supervisor() is custom
    finally:
        install_supervisor(None)
    assert current_supervisor() is default


def test_backoff_schedule():
    policy = StagePolicy(backoff_s=0.5, backoff_factor=3.0)
    assert policy.backoff_for(1) == pytest.approx(0.5)
    assert policy.backoff_for(2) == pytest.approx(1.5)
    assert policy.backoff_for(3) == pytest.approx(4.5)
    assert StagePolicy().backoff_for(1) == 0.0
