"""Analytic global placement: quadratic solve + recursive spreading.

Classic quadratic placement: minimize the sum of squared pin-to-pin
distances under the star net model, with primary I/O pads as fixed
anchors.  The resulting clumped solution is then spread by recursive
area bisection (sort by coordinate, split cell area at the region's
capacity midline, recurse), which preserves the relative order — and
therefore the clustering structure — the quadratic solve found.

One algorithm serves 2D and T-MI placements; the T-MI wirelength benefit
emerges purely from the smaller core, as in the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse.linalg import cg

from repro.errors import PlacementError
from repro.circuits.netlist import Module
from repro.obs.trace import counter, kernel
from repro.place import quadratic_numpy
from repro.place.floorplan import Floorplan, NetPoints
from repro.place.quadratic_numpy import MedianPlan, PlacementSystem

# Star-model weight per net: 1 / (pins - 1), the usual clique/star scaling.
# Small anchor weight keeps the system positive definite even for cells
# with no pad connectivity.
ANCHOR_WEIGHT = 1.0e-4
CG_TOL = 1.0e-5
CG_MAX_ITER = 400


def quadratic_solve(module: Module, floorplan: Floorplan,
                    anchor_x: Optional[np.ndarray] = None,
                    anchor_y: Optional[np.ndarray] = None,
                    anchor_weight: float = ANCHOR_WEIGHT,
                    system=None) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the quadratic placement; returns (x, y) arrays.

    ``system`` may carry a prebuilt :class:`PlacementSystem`, letting
    the placement loop amortize the netlist scan across its solves.
    """
    n = len(module.instances)
    if n == 0:
        raise PlacementError("no instances to place")
    if system is None:
        system = PlacementSystem(module, floorplan)
    lap, bx, by = system.build(anchor_x, anchor_y, anchor_weight)
    if anchor_x is not None:
        x0, y0 = anchor_x.copy(), anchor_y.copy()
    else:
        x0 = np.full(n, floorplan.width_um / 2.0)
        y0 = np.full(n, floorplan.height_um / 2.0)
    x, info_x = cg(lap, bx, x0=x0, rtol=CG_TOL, maxiter=CG_MAX_ITER)
    y, info_y = cg(lap, by, x0=y0, rtol=CG_TOL, maxiter=CG_MAX_ITER)
    # CG non-convergence still yields a usable (if suboptimal) seed; the
    # spreading stage tolerates it.
    np.clip(x, 0.0, floorplan.width_um, out=x)
    np.clip(y, 0.0, floorplan.height_um, out=y)
    return x, y


def cell_areas(module: Module, library) -> np.ndarray:
    """Every instance's cell area, um^2."""
    return np.array([library.cell(i.cell_name).area_um2
                     for i in module.instances])


def spread(module: Module, library, floorplan: Floorplan,
           x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Recursive area bisection: distribute cells uniformly, keep order."""
    return quadratic_numpy.spread(cell_areas(module, library), floorplan,
                                  x, y)


# Hold-force schedule for the QP <-> spreading loop: relative weight of
# the anchor pulling each cell to its last spread position.
HOLD_WEIGHTS = (0.1, 0.4, 1.6, 4.0)
# Median-improvement sweeps interleaved with spreading.
MEDIAN_ROUNDS = 5
MEDIAN_SWEEPS_PER_ROUND = 3


def place_global(module: Module, library, floorplan: Floorplan
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Full global placement.

    Quadratic solve, then alternating hold-anchored QP refinement and
    spreading, then median-improvement rounds (linear-wirelength local
    refinement) each followed by a spreading pass to restore density.
    """
    iterations = counter("placer.iterations")
    # Cell sizes and the netlist are fixed for the whole placement: one
    # area array and one scan of the pin table serve every pass.
    areas = cell_areas(module, library)
    points = NetPoints(module, floorplan)
    system = PlacementSystem(module, floorplan, points)
    plan = MedianPlan(module, floorplan, points)
    del points
    with kernel("place.quadratic_solve"):
        x, y = quadratic_solve(module, floorplan, system=system)
    with kernel("place.spread"):
        x, y = quadratic_numpy.spread(areas, floorplan, x, y)
    iterations.inc()
    for hold in HOLD_WEIGHTS:
        with kernel("place.quadratic_solve", hold=hold):
            x, y = quadratic_solve(module, floorplan, anchor_x=x,
                                   anchor_y=y, anchor_weight=hold,
                                   system=system)
        with kernel("place.spread"):
            x, y = quadratic_numpy.spread(areas, floorplan, x, y)
        iterations.inc()
    # Median improvement: each sweep moves every cell toward the median
    # of its connected pins (GordianL-style linearization of the
    # objective); the interleaved spreading keeps density under control.
    for _ in range(MEDIAN_ROUNDS):
        with kernel("place.median_sweep"):
            plan.sweep(x, y, MEDIAN_SWEEPS_PER_ROUND)
        with kernel("place.spread"):
            x, y = quadratic_numpy.spread(areas, floorplan, x, y)
        iterations.inc()
    # One final gentle median pass; the closing spread restores the
    # uniform density the Tetris legalizer needs.
    with kernel("place.median_sweep"):
        plan.sweep(x, y, 1)
    with kernel("place.spread"):
        x, y = quadratic_numpy.spread(areas, floorplan, x, y)
    iterations.inc()
    return x, y
