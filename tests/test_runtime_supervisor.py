"""Stage-supervisor unit tests: retries, timeouts, journal."""

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
from repro.flow.design_flow import LAYOUT_POLICY
from repro.obs.trace import kernel
from repro.runtime.session import (
    Session,
    current_session,
    install_session,
    override,
    use_session,
)
from repro.runtime.supervisor import (
    RunJournal,
    StagePolicy,
    StageRecord,
    StageSupervisor,
)


def test_plain_stage_returns_value_and_journals():
    sup = StageSupervisor()
    assert sup.run_stage("s", lambda: 41 + 1) == 42
    (rec,) = sup.journal.records
    assert rec.stage == "s"
    assert rec.outcome == "ok"
    assert rec.attempt == 1
    assert rec.wall_time_s >= 0.0


def test_retry_then_success():
    sup = StageSupervisor()
    policy = StagePolicy(max_attempts=4, retry_on=(RoutingError,))
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise RoutingError("boom")
        return "done"

    assert sup.run_stage("s", flaky, policy=policy) == "done"
    assert calls["n"] == 3
    assert sup.journal.outcomes("s") == ["retried", "retried", "ok"]


def test_retry_exhausted_wraps_last_error():
    sup = StageSupervisor()
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
    sup = StageSupervisor()
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
    sup = StageSupervisor()
    policy = StagePolicy(max_attempts=2, retry_on=(RoutingError,),
                         degrade=True)

    def congested():
        raise CongestionError("overflow", partial={"layout": "congested"},
                              overflow=1.5)

    result = sup.run_stage("layout", congested, policy=policy)
    assert result == {"layout": "congested"}
    assert sup.journal.outcomes("layout") == ["retried", "degraded"]


def test_no_degrade_without_partial():
    sup = StageSupervisor()
    policy = StagePolicy(max_attempts=2, retry_on=(RoutingError,),
                         degrade=True)

    def congested():
        raise RoutingError("no partial attached")

    with pytest.raises(RetryExhaustedError):
        sup.run_stage("layout", congested, policy=policy)


def test_non_retryable_error_propagates_and_is_journaled():
    sup = StageSupervisor()
    policy = StagePolicy(max_attempts=3, retry_on=(RoutingError,))

    def wrong_kind():
        raise PlacementError("does not fit")

    with pytest.raises(PlacementError):
        sup.run_stage("place", wrong_kind, policy=policy)
    assert sup.journal.outcomes("place") == ["error"]


def _kernel_loop():
    """A stage body that never finishes on its own.  Like the flow's
    stages, it enters kernels, and the deadline check at a kernel entry
    is what stops it."""
    while True:
        with kernel("place.spread"):
            time.sleep(0.01)


def test_stage_timeout():
    sup = StageSupervisor(timeout_s=0.05)
    t0 = time.perf_counter()
    with override(supervisor=sup), \
            pytest.raises(StageTimeoutError) as info:
        sup.run_stage("slow", _kernel_loop)
    assert time.perf_counter() - t0 < 0.5
    assert info.value.stage == "slow"
    assert info.value.timeout_s == pytest.approx(0.05)
    assert sup.journal.outcomes("slow") == ["timeout"]


def test_late_result_is_journaled_timeout_and_dropped():
    """A body with no check inside runs to its end; the supervisor's
    check after it returns still times the attempt out."""
    sup = StageSupervisor(timeout_s=0.05)

    def late():
        time.sleep(0.1)
        return "late"

    with pytest.raises(StageTimeoutError) as info:
        sup.run_stage("slow", late)
    assert info.value.stage == "slow"
    assert sup.journal.outcomes("slow") == ["timeout"]
    assert sup.deadline is None          # disarmed after the attempt


def test_timeout_retryable_when_policy_allows():
    sup = StageSupervisor(timeout_s=0.05)
    policy = StagePolicy(max_attempts=2, retry_on=(StageTimeoutError,))
    calls = {"n": 0}

    def slow_then_fast():
        calls["n"] += 1
        if calls["n"] == 1:
            _kernel_loop()
        return "fast"

    t0 = time.perf_counter()
    with override(supervisor=sup):
        assert sup.run_stage("s", slow_then_fast, policy=policy) == "fast"
    assert time.perf_counter() - t0 < 0.5
    assert sup.journal.outcomes("s") == ["timeout", "ok"]


def test_timeout_execution_propagates_worker_exception():
    sup = StageSupervisor(timeout_s=5.0)
    with pytest.raises(RoutingError):
        sup.run_stage("s", lambda: (_ for _ in ()).throw(
            RoutingError("from the stage body")))


def test_global_timeout_applies_to_call_site_policies():
    """The supervisor's one timeout bounds a stage run under the flow's
    layout policy, which sets retries and degradation but no timeout."""
    sup = StageSupervisor(timeout_s=0.05)
    t0 = time.perf_counter()
    with override(supervisor=sup), \
            pytest.raises(StageTimeoutError) as info:
        sup.run_stage("layout", _kernel_loop, policy=LAYOUT_POLICY)
    assert time.perf_counter() - t0 < 0.5
    assert info.value.timeout_s == pytest.approx(0.05)
    # A timeout is not in the layout policy's retry set: one attempt.
    assert sup.journal.outcomes("layout") == ["timeout"]


def test_run_context_labels_records():
    sup = StageSupervisor()
    with sup.run_context("aes@45nm-2D"):
        sup.run_stage("s", lambda: 1)
    sup.run_stage("s", lambda: 2)
    runs = [r.run for r in sup.journal.records]
    assert runs == ["aes@45nm-2D", ""]


def test_install_and_use_supervisor_scoping():
    """The supervisor stages run under is the current session's: scoped
    by an override or by a whole session, restored on exit either way."""
    default = current_session().supervisor
    custom = StageSupervisor()
    with override(supervisor=custom):
        assert current_session().supervisor is custom
    assert current_session().supervisor is default
    with use_session(Session(supervisor=custom)):
        assert current_session().supervisor is custom
    assert current_session().supervisor is default
    original = current_session()
    install_session(Session(supervisor=custom))
    try:
        assert current_session().supervisor is custom
    finally:
        install_session(original)
    assert current_session().supervisor is default
