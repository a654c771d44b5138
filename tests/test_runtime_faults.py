"""Fault-injection harness tests: spec matching, counting, hooks."""

import pytest

from repro.errors import PlacementError, RoutingError, TimingError
from repro.runtime import faults
from repro.runtime.faults import ALWAYS, FaultPlan, FaultSpec
from repro.runtime.session import Session, current_session, use_session


def test_spec_fires_named_error_for_counted_occurrences():
    plan = FaultPlan([FaultSpec(stage="layout", error="RoutingError",
                                times=2)])
    with pytest.raises(RoutingError):
        plan.check("layout", "before")
    with pytest.raises(RoutingError):
        plan.check("layout", "before")
    plan.check("layout", "before")      # third occurrence passes
    assert plan.fired("layout") == 2


def test_spec_skip_lets_early_occurrences_pass():
    plan = FaultPlan([FaultSpec(stage="signoff", error="TimingError",
                                times=1, skip=2)])
    plan.check("signoff", "before")
    plan.check("signoff", "before")
    with pytest.raises(TimingError):
        plan.check("signoff", "before")
    plan.check("signoff", "before")


def test_spec_always_fires_forever():
    plan = FaultPlan([FaultSpec(stage="prepare", error="PlacementError",
                                times=ALWAYS)])
    for _ in range(5):
        with pytest.raises(PlacementError):
            plan.check("prepare", "before")
    assert plan.fired() == 5


def test_spec_only_matches_its_stage_and_location():
    plan = FaultPlan([FaultSpec(stage="layout", error="RoutingError",
                                where="after")])
    plan.check("layout", "before")      # wrong location: no fire
    plan.check("signoff", "after")      # wrong stage: no fire
    with pytest.raises(RoutingError):
        plan.check("layout", "after")


def test_after_factory_receives_stage_result():
    seen = []

    def factory(result):
        seen.append(result)
        return RoutingError(f"derived from {result}")

    plan = FaultPlan([FaultSpec(stage="layout", factory=factory,
                                where="after")])
    with pytest.raises(RoutingError, match="derived from 42"):
        plan.check("layout", "after", result=42)
    assert seen == [42]


def test_delay_only_spec_slows_without_raising():
    import time
    plan = FaultPlan([FaultSpec(stage="s", delay_s=0.02)])
    t0 = time.perf_counter()
    plan.check("s", "before")
    assert time.perf_counter() - t0 >= 0.02
    assert plan.fired() == 1


def test_unknown_error_name_rejected_eagerly():
    with pytest.raises(ValueError):
        FaultSpec(stage="s", error="NoSuchError")
    with pytest.raises(ValueError):
        FaultSpec(stage="s", where="sideways")


def test_inject_context_installs_and_restores():
    outer = current_session().faults
    with faults.inject(FaultSpec(stage="s", error="RoutingError")) as plan:
        assert current_session().faults is plan
        with pytest.raises(RoutingError):
            faults.check("s")
    assert current_session().faults is outer
    faults.check("s")                   # no plan active: no fire


def test_install_and_reset():
    """A plan installed on a session fires only while that session is
    current; a fresh session starts with the null plan."""
    plan = FaultPlan([FaultSpec(stage="s", error="RoutingError")])
    with use_session(Session(faults=plan)):
        assert current_session().faults is plan
        with pytest.raises(RoutingError):
            faults.check("s")
    assert Session().faults is faults.NULL_PLAN
    faults.check("s")


def test_multiple_specs_count_independently():
    plan = FaultPlan([
        FaultSpec(stage="layout", error="RoutingError", times=1),
        FaultSpec(stage="signoff", error="TimingError", times=1),
    ])
    with pytest.raises(RoutingError):
        plan.check("layout", "before")
    plan.check("layout", "before")
    with pytest.raises(TimingError):
        plan.check("signoff", "before")
    assert plan.fired("layout") == 1
    assert plan.fired("signoff") == 1
    assert plan.fired() == 2


# -- filesystem fault specs -------------------------------------------------

def test_fs_fault_spec_rejects_unknown_kind():
    from repro.runtime.faults import FsFaultSpec

    with pytest.raises(ValueError):
        FsFaultSpec(kind="disk_melts")


def test_fs_fault_spec_rejects_an_operation_the_store_never_asks_about():
    """The store consults the plan on "store" and "lock" only: a "load"
    spec could never fire, so it is refused up front."""
    from repro.runtime.faults import FsFaultSpec

    with pytest.raises(ValueError):
        FsFaultSpec(kind="io_error", op="load")
    for op in (None, "store", "lock"):
        assert FsFaultSpec(kind="io_error", op=op).op == op


def test_fs_fault_counting_filters_and_skip():
    from repro.runtime.faults import FaultPlan, FsFaultSpec

    plan = FaultPlan([FsFaultSpec(kind="enospc", op="store",
                                  key_filter="abc", times=1, skip=1)])
    assert plan.fs_fault("load", "xabcx") is None    # op mismatch
    assert plan.fs_fault("store", "zzz") is None     # key mismatch
    assert plan.fs_fault("store", "xabcx") is None   # skipped occurrence
    assert plan.fs_fault("store", "xabcx") == "enospc"
    assert plan.fs_fault("store", "xabcx") is None   # window exhausted
    assert plan.fs_fired() == 1
    assert plan.fs_fired("enospc") == 1
    assert plan.fs_fired("torn_write") == 0


def test_mixed_plan_keeps_stage_and_fs_counters_separate():
    from repro.runtime.faults import FaultPlan, FaultSpec, FsFaultSpec

    plan = FaultPlan([
        FaultSpec(stage="layout", error="RoutingError"),
        FsFaultSpec(kind="torn_write", times=ALWAYS),
    ])
    assert plan.fs_fault("store", "k") == "torn_write"
    with pytest.raises(RoutingError):
        plan.check("layout", "before")
    assert plan.fired() == 1
    assert plan.fs_fired() == 1


def test_plan_rejects_non_spec_objects():
    from repro.runtime.faults import FaultPlan

    with pytest.raises(TypeError):
        FaultPlan(["not a spec"])


def test_module_level_fs_fault_hook_and_null_plan():
    from repro.runtime.faults import FsFaultSpec

    assert faults.fs_fault("store", "k") is None     # no plan active
    with faults.inject(FsFaultSpec(kind="bit_flip")) as plan:
        assert faults.fs_fault("store", "k") == "bit_flip"
        assert plan.fs_fired("bit_flip") == 1
    assert faults.fs_fault("store", "k") is None
