"""The run-scoped session: its handles, the scoping helper, import order."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import RoutingError
from repro.obs.trace import NULL_TRACER, Tracer, counter, kernel
from repro.runtime import faults
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import NULL_PLAN, FaultPlan, FaultSpec
from repro.runtime.session import (
    Session,
    current_session,
    override,
    use_session,
)
from repro.runtime.supervisor import StageSupervisor

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that read the session or that the session's fields come
# from; each must import cleanly as the first repro module.
FIRST_IMPORTS = (
    "repro.obs.trace",
    "repro.runtime.session",
    "repro.runtime.supervisor",
    "repro.runtime.faults",
    "repro.runtime.checkpoint",
    "repro.check.audit",
)


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_fresh_session_handles():
    """Each session gets its own supervisor; tracing and faults are off."""
    a, b = Session(), Session()
    assert a.supervisor is not b.supervisor
    assert a.supervisor.timeout_s is None
    assert a.supervisor.journal.records == []
    assert a.tracer is NULL_TRACER and a.faults is NULL_PLAN
    assert a.captures == [] and a.captures is not b.captures


def test_override_sets_restores_and_nests():
    with use_session(Session()) as session:
        supervisor = session.supervisor
        outer, inner = Tracer(), Tracer()
        custom = StageSupervisor(timeout_s=1.0)
        with override(tracer=outer, supervisor=custom) as scoped:
            assert scoped is session            # not a copy
            assert session.tracer is outer and session.supervisor is custom
            with override(tracer=inner):
                assert session.tracer is inner
                assert session.supervisor is custom
            assert session.tracer is outer
        assert session.tracer is NULL_TRACER
        assert session.supervisor is supervisor


def test_override_restores_only_its_fields(tmp_path):
    """A store bound inside the block stays bound after it."""
    with use_session(Session()) as session:
        with override(tracer=Tracer()):
            session.store = store = CheckpointStore(tmp_path)
        assert session.store is store
        assert session.tracer is NULL_TRACER


def test_override_restores_on_error_and_rejects_unknown_fields():
    with use_session(Session()) as session:
        with pytest.raises(RuntimeError):
            with override(tracer=Tracer()):
                raise RuntimeError("boom")
        assert session.tracer is NULL_TRACER
        with pytest.raises(AttributeError):
            with override(no_such_field=1):
                pass


def test_readers_follow_the_current_session():
    """kernel(), counter() and the fault hooks read whatever session is
    current when they run."""
    tracer = Tracer()
    plan = FaultPlan([FaultSpec(stage="s", error="RoutingError")])
    with use_session(Session(tracer=tracer, faults=plan)):
        with kernel("k"):
            counter("c").inc(2)
        with pytest.raises(RoutingError):
            faults.check("s")
    assert [s.name for s in tracer.snapshot()] == ["k"]
    assert tracer.counts() == {"c": 2}
    assert plan.fired("s") == 1
    assert current_session().tracer is NULL_TRACER
