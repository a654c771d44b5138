"""Shared fixtures: libraries and small flow runs are expensive, cache them."""

from __future__ import annotations

import pytest

from repro.flow.design_flow import library_for
from repro.tech.node import NODE_45NM, NODE_7NM


@pytest.fixture(scope="session")
def lib45_2d():
    return library_for("45nm", False)


@pytest.fixture(scope="session")
def lib45_3d():
    return library_for("45nm", True)


@pytest.fixture(scope="session")
def lib45_quad():
    """4-tier interleaved fold of the 45 nm library (scenario space)."""
    from repro.cells.folding import FoldSpec

    return library_for("45nm", True,
                       fold=FoldSpec(tiers=4, style="interleave"))


@pytest.fixture(scope="session")
def lib7_2d():
    return library_for("7nm", False)


@pytest.fixture(scope="session")
def lib7_3d():
    return library_for("7nm", True)


@pytest.fixture(scope="session")
def node45():
    return NODE_45NM


@pytest.fixture(scope="session")
def node7():
    return NODE_7NM


@pytest.fixture(scope="session")
def aes_capture_small():
    """One shared tiny iso-performance run, with flow artifacts captured.

    Returns ``(comparison, [artifacts_2d, artifacts_3d])`` — the audit
    tests need the mid-flow state (module, floorplan, routing, reports)
    that the comparison result itself does not carry.
    """
    from repro.check import capture_artifacts
    from repro.flow.compare import run_iso_performance_comparison

    with capture_artifacts() as bucket:
        comparison = run_iso_performance_comparison("aes", scale=0.05)
    return comparison, bucket


@pytest.fixture(scope="session")
def aes_comparison_small(aes_capture_small):
    """One shared tiny iso-performance run for flow-level tests."""
    return aes_capture_small[0]


# -- session state ---------------------------------------------------------

@pytest.fixture()
def fresh_session():
    """Run the test in a session of its own.

    No checkpoint store, keep-going off, empty memos, row errors and
    task-failure records; the previous session is restored afterwards,
    so whatever the test binds or accumulates stays with it.  Opt in per
    module with ``pytestmark = pytest.mark.usefixtures("fresh_session")``.
    """
    from repro.runtime.session import Session, use_session

    with use_session(Session()) as session:
        yield session
