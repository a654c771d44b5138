"""Lockstep-batched MNA transients: the one transient engine.

Characterization sweeps run many circuits of one *topology*: the same
cell netlist with different device widths, wire resistances, load caps,
stimulus slews and step sizes.  :func:`transient_batch` groups its
simulations by topology and advances each group in lockstep; every
Newton iteration is array code over the group's unconverged
simulations.  :meth:`MNACircuit.transient` is the one-simulation case.

Bit-exactness contract: each simulation in the batch produces the same
``TransientResult`` (to the last bit) as the solo one-transient loop,
frozen in ``tests/kernel_oracle.py``.  The array code keeps

* the per-simulation Newton iteration sequence (converged sims freeze,
  the rest continue — exactly the iterations the solo loop performs);
* the dense ``g_static @ v`` product, as one stacked ``matmul`` (numpy
  runs the same BLAS ``gemv`` on each matrix);
* one stacked LAPACK ``gesv`` per iteration, the routine the solo
  ``solve`` runs on each matrix; if any matrix of the stack is singular,
  each sim falls back to its own ``solve`` / ``lstsq``, as the solo
  loop does;
* one device-bank call per iteration for the currents and the
  finite-difference currents the free-node Jacobian reads (the solo
  loop's stamps on driven rows or columns never reach its ``solve``);
* the accumulation *order* of every ``+=`` the solo loop performs
  (capacitor history a-then-b per capacitor, device drain stamps before
  source stamps, Jacobian terms gate/drain/source): one ordered
  ``np.add.at`` per residual and per Jacobian over the index patterns
  concatenated in that order, with subtracted terms negated (``a - b``
  is ``a + (-b)`` in IEEE arithmetic);
* the supply current's sum from ``+0.0``, as Python's ``sum`` starts
  at int 0 (a ``-0.0`` first term comes out ``+0.0``).

Work the solo loop repeats is done once: constant drivers are set once;
the supply current comes from the residual the Newton check already
computed, unless the last update moved the state; and a step that
leaves a sim exactly where it began (its drivers held, its first
Newton check passed) repeats, bit for bit, at every following step
until a driver moves, so the sim idles on its recorded values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
from repro.characterize.waveforms import Constant


@dataclass
class TransientSpec:
    """One simulation of a batch: circuit plus its transient arguments."""

    circuit: MNACircuit
    t_stop_ns: float
    dt_ns: float
    record: Optional[Sequence[str]] = None
    initial: Optional[Dict[str, float]] = None


def _signature(circuit: MNACircuit) -> tuple:
    """Topology: sims sharing it run in lockstep.

    Element values (device widths, resistances, capacitances) are
    per-simulation arrays, so every drive strength of a cell type can
    share one group.
    """
    return (
        circuit._n_nodes,
        tuple((a, b) for a, b, _r in circuit._resistors),
        tuple((a, b) for a, b, _c in circuit._capacitors),
        tuple(circuit._mos_terms),
        tuple(circuit._mos_params),
        tuple(circuit._drivers),
        tuple(circuit._supply_nodes),
    )


def transient_batch(specs: Sequence[TransientSpec]) -> List[TransientResult]:
    """Run every spec, batching circuits of one topology.

    Results come back in input order and match what each spec's solo
    transient would return.
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


def _add_in_order(target: np.ndarray, cols: np.ndarray,
                  values: np.ndarray) -> None:
    """``target[t, cols[j]] += values[t, j]`` for each row ``t``, in
    ``j`` order (an unbuffered scatter, so repeated columns accumulate
    in sequence)."""
    rows, width = target.shape
    flat = target.view()
    flat.shape = (-1,)          # raises rather than scatter into a copy
    np.add.at(flat, (np.arange(rows)[:, None] * width + cols).ravel(),
              values.ravel())


def _conductance_stamps(pairs: Sequence[tuple], n: int):
    """(element, flat matrix index, sign) of each two-terminal stamp, in
    the solo loop's order."""
    elem, pos, sign = [], [], []
    for k, (a, b) in enumerate(pairs):
        for row, col in ((a, b), (b, a)):
            if row >= 0:
                elem.append(k)
                pos.append(row * n + row)
                sign.append(1.0)
                if col >= 0:
                    elem.append(k)
                    pos.append(row * n + col)
                    sign.append(-1.0)
    return (np.asarray(elem, dtype=np.intp), np.asarray(pos, dtype=np.intp),
            np.asarray(sign))


def _run_group(specs: List[TransientSpec]) -> List[TransientResult]:
    """Lockstep solve of simulations sharing one topology."""
    batch = len(specs)
    steps = np.array([int(np.ceil(s.t_stop_ns / s.dt_ns)) for s in specs])
    # Longest run first: the sims still stepping are then a prefix.
    order = np.argsort(-steps, kind="stable")
    specs = [specs[b] for b in order]
    steps = steps[order]
    circuits = [spec.circuit for spec in specs]
    proto = circuits[0]
    n = proto._n_nodes
    terms = [[t[k] for t in proto._mos_terms] for k in range(3)]
    widths = np.array([c._mos_widths for c in circuits]).reshape(
        batch, len(proto._mos_params))
    bank = _DeviceBank(proto._mos_params, widths, *terms)
    free = np.ones(n, dtype=bool)
    free[list(proto._drivers)] = False
    free_idx = np.flatnonzero(free)
    nf = free_idx.size
    free_pos = {int(node): k for k, node in enumerate(free_idx)}
    supply = proto._supply_nodes

    # Static matrices (resistors, then backward-Euler capacitors) per sim.
    dt = np.array([spec.dt_ns for spec in specs])
    cap_pairs = [(a, b) for a, b, _c in proto._capacitors]
    caps = np.array([[c for _a, _b, c in circuit._capacitors]
                     for circuit in circuits]).reshape(batch, len(cap_pairs))
    geq = caps / dt[:, None] * 1.0e-3
    cond = 1.0 / np.array(
        [[r for _a, _b, r in circuit._resistors] for circuit in circuits]
    ).reshape(batch, len(proto._resistors))
    elem, pos, sign = _conductance_stamps(
        [(a, b) for a, b, _r in proto._resistors] + cap_pairs, n)
    g_static = np.zeros((batch, n * n))
    _add_in_order(g_static,
                  pos, np.concatenate((cond, geq), axis=1)[:, elem] * sign)
    g_static = g_static.reshape(batch, n, n)
    neg_g_free = np.ascontiguousarray(-g_static[:, free_idx][:, :, free_idx])

    # Residual rows: the free nodes (Newton's residual), then the supply
    # nodes (the supply current, read off the converged state's
    # residual).  Entries in the solo loop's order: capacitor history (a
    # then b per capacitor), device drains, device sources; a source
    # indexes [capacitor history | device currents].
    sup_nodes = list(dict.fromkeys(supply))
    res_nodes = np.concatenate((free_idx,
                                np.asarray(sup_nodes, dtype=np.intp)))
    row_of = {int(node): k for k, node in enumerate(res_nodes)}
    ncap = len(cap_pairs)
    entries = [(row_of[node], k, s) for k, pair in enumerate(cap_pairs)
               for node, s in zip(pair, (1.0, -1.0)) if node in row_of]
    for col, s in ((bank.drain, 1.0), (bank.source, -1.0)):
        entries += [(row_of[int(node)], ncap + d, s)
                    for d, node in enumerate(col) if int(node) in row_of]
    entries = np.array(entries, dtype=float).reshape(-1, 3)
    res_pos = entries[:, 0].astype(np.intp)
    res_src = entries[:, 1].astype(np.intp)
    res_sign = entries[:, 2]
    supply_col = [row_of[node] for node in supply]
    # Jacobian stamps on the free block, in the solo loop's order: terms
    # gate/drain/source, device-major, drain before source.
    jac_pos, jac_src, jac_sign = [], [], []
    for term, col in enumerate((bank.gate, bank.drain, bank.source)):
        for d in range(bank.n):
            c = free_pos.get(int(col[d]))
            for node, s in ((bank.drain[d], 1.0), (bank.source[d], -1.0)):
                r = free_pos.get(int(node))
                if c is not None and r is not None:
                    jac_pos.append(r * nf + c)
                    jac_src.append(term * bank.n + d)
                    jac_sign.append(s)
    # A Newton iteration evaluates every device's current, then only the
    # finite-difference currents those stamps read (a bank of device
    # copies, the k-th terminal of each stepped by FD_STEP_V).
    fd = {s: j for j, s in enumerate(sorted(set(jac_src)))}
    jac_pos = np.asarray(jac_pos, dtype=np.intp)
    jac_src = np.asarray([fd[s] for s in jac_src], dtype=np.intp)
    jac_sign = np.asarray(jac_sign)
    fd_dev = np.asarray([s % bank.n for s in fd], dtype=np.intp)
    inst = np.concatenate((np.arange(bank.n), fd_dev))
    newton_bank = _DeviceBank([proto._mos_params[d] for d in inst],
                              widths[:, inst], *(np.asarray(t)[inst]
                                                 for t in terms))

    # Column n of the state is ground: gathers of node -1 read 0.
    def _pad(idx: np.ndarray) -> np.ndarray:
        return np.where(idx < 0, n, idx).astype(np.intp)

    gate_p, drain_p, source_p = (_pad(bank.gate), _pad(bank.drain),
                                 _pad(bank.source))
    # The Newton bank's gate | drain | source voltages in one gather, and
    # where the finite-difference step goes.
    inst_p = np.concatenate((gate_p[inst], drain_p[inst], source_p[inst]))
    fd_step = np.zeros(inst_p.size, dtype=bool)
    for s, j in fd.items():
        fd_step[s // bank.n * inst.size + bank.n + j] = True
    cap_a = _pad(np.array([a for a, _b in cap_pairs], dtype=np.intp))
    cap_b = _pad(np.array([b for _a, b in cap_pairs], dtype=np.intp))

    volts = np.zeros((batch, n + 1))
    for b, spec in enumerate(specs):
        circuit = spec.circuit
        if spec.initial:
            for name, v in spec.initial.items():
                idx = circuit._node_index.get(name)
                if idx is not None and idx >= 0:
                    volts[b, idx] = v
        for idx, wf in circuit._drivers.items():
            volts[b, idx] = wf(0.0)
    # Every other driver's value at every step, called at the solo
    # loop's times; rows of the sims still stepping are a prefix.
    max_steps = int(steps[0])
    ramp_sim, ramp_node, ramp_vals = [], [], []
    for b, spec in enumerate(specs):
        for idx, wf in spec.circuit._drivers.items():
            if not isinstance(wf, Constant):
                ramp_sim.append(b)
                ramp_node.append(idx)
                ramp_vals.append([wf(s * spec.dt_ns)
                                  for s in range(1, steps[b] + 1)]
                                 + [0.0] * (max_steps - steps[b]))
    ramp_sim = np.asarray(ramp_sim, dtype=np.intp)
    ramp_node = np.asarray(ramp_node, dtype=np.intp)
    ramp_vals = np.array(ramp_vals).reshape(ramp_sim.size, max_steps)

    rec_idx = []
    for spec in specs:
        index = spec.circuit._node_index
        names = (list(spec.record) if spec.record is not None
                 else spec.circuit.node_names())
        rec_idx.append({name: index[name] for name in names
                        if index.get(name, -1) >= 0})
    rec_nodes = sorted({i for ri in rec_idx for i in ri.values()})
    rec_col = {node: k for k, node in enumerate(rec_nodes)}
    waves = np.zeros((batch, len(rec_nodes), max_steps + 1))
    waves[:, :, 0] = volts[:, rec_nodes]
    supply_i = np.zeros((batch, max_steps + 1))
    energy = np.zeros(batch)
    v_prev = volts.copy()

    def residual(rows, v, hist, i0) -> np.ndarray:
        """KCL residual (mA entering each node) on the free, then the
        supply nodes."""
        gv = np.matmul(g_static[rows], v[:, :n, None])[:, res_nodes, 0]
        f = np.subtract(0.0, gv, order="C")
        _add_in_order(f, res_pos,
                      np.concatenate((hist, i0), axis=1)[:, res_src]
                      * res_sign)
        return f

    def supply_ma(f: np.ndarray) -> np.ndarray:
        i_vdd_ma = np.zeros(len(f))
        for col in supply_col:
            i_vdd_ma = i_vdd_ma + -f[:, col]
        return i_vdd_ma

    # A sim whose drivers hold and whose first Newton check passes ends
    # the step where it began, so the next step has the same inputs
    # (state and history) as this one and repeats it to the last bit:
    # it stays idle, reusing its supply current, until a driver moves.
    idle = np.zeros(batch, dtype=bool)
    i_vdd_ma = np.zeros(batch)
    active = batch
    n_ramps = ramp_sim.size
    m = inst.size
    for step in range(1, max_steps + 1):
        while steps[active - 1] < step:
            active -= 1
        while n_ramps and ramp_sim[n_ramps - 1] >= active:
            n_ramps -= 1
        at = (ramp_sim[:n_ramps], ramp_node[:n_ramps])
        value = ramp_vals[:n_ramps, step - 1]
        moved = np.zeros(active, dtype=bool)
        moved[at[0][value.view(np.int64) != volts[at].view(np.int64)]] = True
        volts[at] = value
        idle[:active] &= ~moved
        todo = np.flatnonzero(~idle[:active])
        vp = v_prev[todo]
        hist = geq[todo] * (vp[:, cap_a] - vp[:, cap_b])
        stale, stale_hist = [], []
        for it in range(MAX_NEWTON_ITERS):
            if not todo.size:
                break
            v = volts[todo]
            # One bank call: the currents and their FD partials.
            terminal = v[:, inst_p]
            np.add(terminal, FD_STEP_V, out=terminal, where=fd_step)
            i_all = newton_bank.currents_ma(
                terminal[:, :m], terminal[:, m:2 * m], terminal[:, 2 * m:],
                todo)
            f = residual(todo, v, hist, i_all[:, :bank.n])
            done = np.abs(f[:, :nf]).max(axis=1) < NEWTON_TOL_I_MA
            i_vdd_ma[todo[done]] = supply_ma(f[done])
            if it == 0:
                idle[todo[done & ~moved[todo]]] = True
            left = ~done
            todo, hist, v, f = todo[left], hist[left], v[left], f[left]
            if not todo.size:
                break
            jac = neg_g_free[todo]
            i_all = i_all[left]
            partials = (i_all[:, bank.n:] - i_all[:, fd_dev]) / FD_STEP_V
            _add_in_order(jac.reshape(todo.size, nf * nf), jac_pos,
                          partials[:, jac_src] * jac_sign)
            rhs = -f[:, :nf]
            try:
                delta = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                delta = np.empty_like(rhs)
                for k in range(todo.size):
                    try:
                        delta[k] = np.linalg.solve(jac[k], rhs[k])
                    except np.linalg.LinAlgError:
                        delta[k] = np.linalg.lstsq(jac[k], rhs[k],
                                                   rcond=None)[0]
            delta = np.clip(delta, -MAX_DELTA_V, MAX_DELTA_V)
            v[:, free_idx] += delta
            volts[todo] = v
            done = np.abs(delta).max(axis=1) < NEWTON_TOL_V
            stale.append(todo[done])
            stale_hist.append(hist[done])
            todo, hist = todo[~done], hist[~done]
        if todo.size:
            b = todo[np.argmin(order[todo])]
            raise SimulationError(
                f"Newton failed to converge at t = "
                f"{step * specs[b].dt_ns:.4f} ns")
        if stale:
            # Converged on the step size: the supply current needs the
            # residual of the updated state.
            stale = np.concatenate(stale)
            v = volts[stale]
            i_vdd_ma[stale] = supply_ma(residual(
                stale, v, np.concatenate(stale_hist),
                bank.currents_ma(v[:, gate_p], v[:, drain_p],
                                 v[:, source_p], stale)))

        rows = slice(0, active)
        supply_i[rows, step] = i_vdd_ma[rows] * 1.0e3
        v_vdd = volts[rows, supply[0]] if supply else 0.0
        # 1 mA * 1 V * 1 ns = 1e-12 J = 1000 fJ.
        energy[rows] = (energy[rows]
                        + i_vdd_ma[rows] * v_vdd * dt[rows] * 1000.0)
        waves[rows, :, step] = volts[rows][:, rec_nodes]
        v_prev[rows] = volts[rows]

    results: List[Optional[TransientResult]] = [None] * batch
    for b, spec in enumerate(specs):
        last = int(steps[b]) + 1
        results[order[b]] = TransientResult(
            times_ns=np.arange(last) * spec.dt_ns,
            voltages={name: waves[b, rec_col[idx], :last].copy()
                      for name, idx in rec_idx[b].items()},
            supply_current_ua=supply_i[b, :last].copy(),
            supply_energy_fj=energy[b])
    return results  # type: ignore[return-value]
