"""Lockstep-batched MNA transients.

Characterization sweeps run many *structurally identical* circuits — the
same cell netlist with different load caps, stimulus slews, and step
sizes.  :func:`transient_batch` advances such a batch in lockstep: one
Newton iteration evaluates the device bank, capacitor history, and
Jacobian stamps for every still-unconverged simulation at once, which
removes the per-device Python loops that dominate the scalar engine.

Bit-exactness contract: each simulation in the batch produces the same
``TransientResult`` (to the last bit) as running
:meth:`MNACircuit.transient` on it alone.  The batched code preserves

* the per-simulation Newton iteration sequence (converged sims freeze,
  the rest continue — exactly the iterations the solo solve performs);
* the dense ``g_static @ v`` product and the free-node ``solve`` /
  ``lstsq`` per simulation (same BLAS calls on the same matrices);
* the accumulation *order* of every ``+=`` the scalar engine performs
  (capacitor history interleaved a-then-b per capacitor, device drain
  stamps before source stamps, Jacobian terms gate/drain/source), via
  ``np.add.at`` over precomputed index patterns iterated row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.characterize.mna import (
    MAX_DELTA_V,
    MAX_NEWTON_ITERS,
    NEWTON_TOL_I_MA,
    NEWTON_TOL_V,
    FD_STEP_V,
    MNACircuit,
    TransientResult,
    _DeviceBank,
)


@dataclass
class TransientSpec:
    """One simulation of a batch: circuit plus its transient arguments."""

    circuit: MNACircuit
    t_stop_ns: float
    dt_ns: float
    record: Optional[Sequence[str]] = None
    initial: Optional[Dict[str, float]] = None


def _signature(circuit: MNACircuit) -> tuple:
    """Structural identity: sims sharing it can run in lockstep."""
    return (
        circuit._n_nodes,
        tuple(circuit._resistors),
        tuple((a, b) for a, b, _c in circuit._capacitors),
        tuple(circuit._mos_terms),
        tuple(circuit._mos_widths),
        tuple(circuit._mos_params),
        tuple(circuit._drivers),
        tuple(circuit._supply_nodes),
    )


def transient_batch(specs: Sequence[TransientSpec]) -> List[TransientResult]:
    """Run every spec, batching structurally identical circuits.

    Results come back in input order and match what each spec's
    ``circuit.transient(...)`` would return on its own.
    """
    for spec in specs:
        if spec.circuit._n_nodes == 0:
            raise SimulationError("circuit has no nodes")
        if spec.dt_ns <= 0.0 or spec.t_stop_ns <= spec.dt_ns:
            raise SimulationError("bad transient time parameters")
    groups: Dict[tuple, List[int]] = {}
    for pos, spec in enumerate(specs):
        groups.setdefault(_signature(spec.circuit), []).append(pos)
    results: List[Optional[TransientResult]] = [None] * len(specs)
    for members in groups.values():
        for pos, result in zip(members,
                               _run_group([specs[p] for p in members])):
            results[pos] = result
    return results  # type: ignore[return-value]


def _run_group(specs: List[TransientSpec]) -> List[TransientResult]:
    """Lockstep solve of structurally identical simulations."""
    batch = len(specs)
    proto = specs[0].circuit
    n = proto._n_nodes
    bank = _DeviceBank(proto._mos_params, proto._mos_widths,
                       [t[0] for t in proto._mos_terms],
                       [t[1] for t in proto._mos_terms],
                       [t[2] for t in proto._mos_terms])
    free = np.ones(n, dtype=bool)
    for idx in proto._drivers:
        free[idx] = False
    free_idx = np.where(free)[0]

    # Per-sim static matrices: load caps and dt (hence geq) vary per sim.
    g_static = np.zeros((batch, n, n))
    geq_caps = np.zeros((batch, max(len(proto._capacitors), 1)))
    for b, spec in enumerate(specs):
        circuit = spec.circuit
        g = g_static[b]
        for a, bb, r in circuit._resistors:
            cond = 1.0 / r
            if a >= 0:
                g[a, a] += cond
                if bb >= 0:
                    g[a, bb] -= cond
            if bb >= 0:
                g[bb, bb] += cond
                if a >= 0:
                    g[bb, a] -= cond
        for k, (a, bb, c) in enumerate(circuit._capacitors):
            geq = c / spec.dt_ns * 1.0e-3
            geq_caps[b, k] = geq
            if a >= 0:
                g[a, a] += geq
                if bb >= 0:
                    g[a, bb] -= geq
            if bb >= 0:
                g[bb, bb] += geq
                if a >= 0:
                    g[bb, a] -= geq

    # Ground (-1) gathers read a padded zero column at index n.
    def _pad(idx: np.ndarray) -> np.ndarray:
        return np.where(idx < 0, n, idx).astype(np.intp)

    gate_p = _pad(bank.gate) if bank.n else np.zeros(0, dtype=np.intp)
    drain_p = _pad(bank.drain) if bank.n else np.zeros(0, dtype=np.intp)
    source_p = _pad(bank.source) if bank.n else np.zeros(0, dtype=np.intp)
    dmask = bank.drain >= 0
    smask = bank.source >= 0
    drain_sel = bank.drain[dmask].astype(np.intp)
    source_sel = bank.source[smask].astype(np.intp)

    # Capacitor-history entries, interleaved a-then-b per capacitor (the
    # scalar engine's accumulation order).
    cap_a = np.array([a for a, _b, _c in proto._capacitors], dtype=np.intp)
    cap_b = np.array([b for _a, b, _c in proto._capacitors], dtype=np.intp)
    ent_cap: List[int] = []
    ent_cap_node: List[int] = []
    ent_cap_sign: List[float] = []
    for k, (a, bb, _c) in enumerate(proto._capacitors):
        if a >= 0:
            ent_cap.append(k)
            ent_cap_node.append(a)
            ent_cap_sign.append(1.0)
        if bb >= 0:
            ent_cap.append(k)
            ent_cap_node.append(bb)
            ent_cap_sign.append(-1.0)
    cap_ent_k = np.asarray(ent_cap, dtype=np.intp)
    cap_ent_node = np.asarray(ent_cap_node, dtype=np.intp)
    cap_ent_sign = np.asarray(ent_cap_sign)
    cap_a_p = _pad(cap_a) if cap_a.size else cap_a
    cap_b_p = _pad(cap_b) if cap_b.size else cap_b

    # Jacobian stamp entries per finite-difference term, preserving the
    # scalar engine's device-major drain-then-source order.
    term_entries = []
    for col in (bank.gate, bank.drain, bank.source):
        rows_l: List[int] = []
        cols_l: List[int] = []
        devs_l: List[int] = []
        signs_l: List[float] = []
        for k in range(bank.n):
            c = col[k]
            if c < 0:
                continue
            if bank.drain[k] >= 0:
                rows_l.append(int(bank.drain[k]))
                cols_l.append(int(c))
                devs_l.append(k)
                signs_l.append(1.0)
            if bank.source[k] >= 0:
                rows_l.append(int(bank.source[k]))
                cols_l.append(int(c))
                devs_l.append(k)
                signs_l.append(-1.0)
        term_entries.append((np.asarray(rows_l, dtype=np.intp),
                             np.asarray(cols_l, dtype=np.intp),
                             np.asarray(devs_l, dtype=np.intp),
                             np.asarray(signs_l)))

    # State: node voltages, initial conditions, driver values at t = 0.
    volts = np.zeros((batch, n))
    for b, spec in enumerate(specs):
        circuit = spec.circuit
        if spec.initial:
            for name, v in spec.initial.items():
                idx = circuit._node_index.get(name)
                if idx is not None and idx >= 0:
                    volts[b, idx] = v
        for idx, wf in circuit._drivers.items():
            volts[b, idx] = wf(0.0)

    steps = [int(np.ceil(spec.t_stop_ns / spec.dt_ns)) for spec in specs]
    rec_idx: List[Dict[str, int]] = []
    times: List[np.ndarray] = []
    waves: List[Dict[str, np.ndarray]] = []
    supply_i: List[np.ndarray] = []
    energy: List[float] = [0.0] * batch
    for b, spec in enumerate(specs):
        circuit = spec.circuit
        names = (list(spec.record) if spec.record is not None
                 else circuit.node_names())
        ri = {name: circuit._node_index[name] for name in names
              if circuit._node_index.get(name, -1) >= 0}
        rec_idx.append(ri)
        times.append(np.zeros(steps[b] + 1))
        supply_i.append(np.zeros(steps[b] + 1))
        wv = {name: np.zeros(steps[b] + 1) for name in ri}
        for name, idx in ri.items():
            wv[name][0] = volts[b, idx]
        waves.append(wv)

    v_prev = volts.copy()
    zero_col = np.zeros((batch, 1))

    def residual_rows(rows: List[int]) -> np.ndarray:
        """KCL residual for the listed sims, scalar-order accumulation."""
        t_rows = len(rows)
        f = np.zeros((t_rows, n))
        for ti, b in enumerate(rows):
            f[ti] -= g_static[b] @ volts[b]
        row_ids = np.arange(t_rows, dtype=np.intp)[:, None]
        if cap_ent_k.size:
            vp = np.concatenate((v_prev[rows], zero_col[:t_rows]), axis=1)
            hist = geq_caps[rows][:, : cap_a.size] * (vp[:, cap_a_p]
                                                      - vp[:, cap_b_p])
            np.add.at(f, (row_ids, cap_ent_node[None, :]),
                      hist[:, cap_ent_k] * cap_ent_sign)
        if bank.n:
            vpad = np.concatenate((volts[rows], zero_col[:t_rows]), axis=1)
            i = bank.currents_ma(vpad[:, gate_p], vpad[:, drain_p],
                                 vpad[:, source_p])
            np.add.at(f, (row_ids, drain_sel[None, :]), i[:, dmask])
            np.subtract.at(f, (row_ids, source_sel[None, :]), i[:, smask])
        return f

    max_steps = max(steps)
    for step in range(1, max_steps + 1):
        active = [b for b in range(batch) if step <= steps[b]]
        for b in active:
            t = step * specs[b].dt_ns
            times[b][step] = t
            for idx, wf in specs[b].circuit._drivers.items():
                volts[b, idx] = wf(t)
        converged = {b: False for b in active}
        for _ in range(MAX_NEWTON_ITERS):
            todo = [b for b in active if not converged[b]]
            if not todo:
                break
            f = residual_rows(todo)
            for ti, b in enumerate(todo):
                if np.max(np.abs(f[ti, free_idx])) < NEWTON_TOL_I_MA:
                    converged[b] = True
            remaining = [(ti, b) for ti, b in enumerate(todo)
                         if not converged[b]]
            if not remaining:
                break
            todo = [b for _ti, b in remaining]
            jac = -g_static[todo]
            if bank.n:
                t_rows = len(todo)
                vpad = np.concatenate((volts[todo], zero_col[:t_rows]),
                                      axis=1)
                vg = vpad[:, gate_p]
                vd = vpad[:, drain_p]
                vs = vpad[:, source_p]
                i0 = bank.currents_ma(vg, vd, vs)
                partials = (
                    (bank.currents_ma(vg + FD_STEP_V, vd, vs) - i0)
                    / FD_STEP_V,
                    (bank.currents_ma(vg, vd + FD_STEP_V, vs) - i0)
                    / FD_STEP_V,
                    (bank.currents_ma(vg, vd, vs + FD_STEP_V) - i0)
                    / FD_STEP_V,
                )
                row_ids = np.arange(t_rows, dtype=np.intp)[:, None]
                for di, (e_row, e_col, e_dev, e_sign) in zip(partials,
                                                             term_entries):
                    if e_dev.size:
                        np.add.at(jac, (row_ids, e_row[None, :],
                                        e_col[None, :]),
                                  di[:, e_dev] * e_sign)
            for pos, (f_row, b) in enumerate(remaining):
                j_free = jac[pos][np.ix_(free_idx, free_idx)]
                rhs = -f[f_row, free_idx]
                try:
                    delta = np.linalg.solve(j_free, rhs)
                except np.linalg.LinAlgError:
                    delta = np.linalg.lstsq(j_free, rhs, rcond=None)[0]
                delta = np.clip(delta, -MAX_DELTA_V, MAX_DELTA_V)
                volts[b, free_idx] += delta
                if np.max(np.abs(delta)) < NEWTON_TOL_V:
                    converged[b] = True
        for b in active:
            if not converged[b]:
                t = step * specs[b].dt_ns
                raise SimulationError(
                    f"Newton failed to converge at t = {t:.4f} ns")
        f_post = residual_rows(active)
        for ti, b in enumerate(active):
            circuit = specs[b].circuit
            i_vdd_ma = sum(-f_post[ti, idx] for idx in circuit._supply_nodes)
            supply_i[b][step] = i_vdd_ma * 1.0e3
            v_vdd = (volts[b, circuit._supply_nodes[0]]
                     if circuit._supply_nodes else 0.0)
            energy[b] = energy[b] + i_vdd_ma * v_vdd * specs[b].dt_ns * 1000.0
            for name, idx in rec_idx[b].items():
                waves[b][name][step] = volts[b, idx]
            v_prev[b] = volts[b]

    return [TransientResult(times_ns=times[b], voltages=waves[b],
                            supply_current_ua=supply_i[b],
                            supply_energy_fj=energy[b])
            for b in range(batch)]
