"""Boolean behaviour of the library cell types.

Used by characterization (to find sensitizing side-input values for a
timing arc) and by power analysis (signal-probability and transition-
density propagation).  Power evaluates each cell type through its
:class:`TruthTable`, enumerated once per process and applied to a whole
batch of instances per call.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import LibraryError
from repro.kernels.arrays import as_index, sequential_sum


def _nand(*xs: bool) -> bool:
    return not all(xs)


def _nor(*xs: bool) -> bool:
    return not any(xs)


# Combinational cell functions: type -> (input pins, {output: fn(values)}).
_FUNCTIONS: Dict[str, Tuple[List[str], Dict[str, Callable]]] = {
    "INV": (["A"], {"ZN": lambda a: not a}),
    "BUF": (["A"], {"Z": lambda a: a}),
    "CLKBUF": (["A"], {"Z": lambda a: a}),
    "TBUF": (["A", "EN"], {"Z": lambda a, en: a}),
    "NAND2": (["A", "B"], {"ZN": _nand}),
    "NAND3": (["A", "B", "C"], {"ZN": _nand}),
    "NAND4": (["A", "B", "C", "D"], {"ZN": _nand}),
    "NOR2": (["A", "B"], {"ZN": _nor}),
    "NOR3": (["A", "B", "C"], {"ZN": _nor}),
    "NOR4": (["A", "B", "C", "D"], {"ZN": _nor}),
    "AND2": (["A1", "A2"], {"Z": lambda a, b: a and b}),
    "OR2": (["A1", "A2"], {"Z": lambda a, b: a or b}),
    "AOI21": (["A1", "A2", "B"],
              {"ZN": lambda a1, a2, b: not ((a1 and a2) or b)}),
    "OAI21": (["A1", "A2", "B"],
              {"ZN": lambda a1, a2, b: not ((a1 or a2) and b)}),
    "AOI22": (["A1", "A2", "B1", "B2"],
              {"ZN": lambda a1, a2, b1, b2: not ((a1 and a2) or (b1 and b2))}),
    "OAI22": (["A1", "A2", "B1", "B2"],
              {"ZN": lambda a1, a2, b1, b2: not ((a1 or a2) and (b1 or b2))}),
    "XOR2": (["A", "B"], {"Z": lambda a, b: a != b}),
    "XNOR2": (["A", "B"], {"ZN": lambda a, b: a == b}),
    "MUX2": (["A", "B", "S"], {"Z": lambda a, b, s: b if s else a}),
    "HA": (["A", "B"], {"S": lambda a, b: a != b,
                        "CO": lambda a, b: a and b}),
    "FA": (["A", "B", "CI"],
           {"S": lambda a, b, ci: (a != b) != ci,
            "CO": lambda a, b, ci: (a and b) or (ci and (a or b))}),
}

# Sequential next-state behaviour: Q follows the data input at the edge.
_SEQ_DATA_PIN = {"DFF": "D", "DFFR": "D", "SDFF": "D", "DLH": "D"}


def _check(cell_type: str) -> None:
    if cell_type not in _FUNCTIONS:
        raise LibraryError(
            f"no combinational function for cell type {cell_type!r}")


def is_combinational(cell_type: str) -> bool:
    return cell_type in _FUNCTIONS


def combinational_inputs(cell_type: str) -> List[str]:
    _check(cell_type)
    return list(_FUNCTIONS[cell_type][0])


def evaluate(cell_type: str, inputs: Dict[str, bool]) -> Dict[str, bool]:
    """Evaluate a combinational cell's outputs for one input vector."""
    _check(cell_type)
    pins, outs = _FUNCTIONS[cell_type]
    try:
        args = [inputs[p] for p in pins]
    except KeyError as exc:
        raise LibraryError(
            f"{cell_type}: missing input value for pin {exc}")
    return {name: bool(fn(*args)) for name, fn in outs.items()}


def sensitizing_vector(cell_type: str, toggled_pin: str,
                       output_pin: str) -> Dict[str, bool]:
    """Side-input values that make ``output_pin`` toggle with ``toggled_pin``.

    Returns an assignment for the *other* inputs such that flipping the
    toggled pin flips the output.  Raises if the arc cannot be sensitized.
    """
    _check(cell_type)
    pins, _ = _FUNCTIONS[cell_type]
    if toggled_pin not in pins:
        raise LibraryError(
            f"{cell_type}: pin {toggled_pin!r} is not an input")
    others = [p for p in pins if p != toggled_pin]
    for values in product([False, True], repeat=len(others)):
        side = dict(zip(others, values))
        lo = evaluate(cell_type, {**side, toggled_pin: False})
        hi = evaluate(cell_type, {**side, toggled_pin: True})
        if lo[output_pin] != hi[output_pin]:
            return side
    raise LibraryError(
        f"{cell_type}: arc {toggled_pin}->{output_pin} cannot be "
        f"sensitized")


class TruthTable:
    """One combinational cell type's function, enumerated for batches.

    Minterm ``m`` is the ``m``-th input vector of
    ``itertools.product([False, True], repeat=n)`` over the declared
    input pins.  :meth:`propagate` evaluates one row of input
    probabilities per instance and repeats the arithmetic of a scalar
    truth-table walk exactly: a minterm's probability is the
    left-to-right product over the declared pins of ``p`` or
    ``1.0 - p``, and every probability is the sum of its selected
    minterms in minterm order (``np.add.accumulate``, never ``np.sum``,
    whose pairwise summation reorders the additions).
    """

    def __init__(self, cell_type: str) -> None:
        _check(cell_type)
        pins, outs = _FUNCTIONS[cell_type]
        n = len(pins)
        vectors = list(product([False, True], repeat=n))
        values = [evaluate(cell_type, dict(zip(pins, v))) for v in vectors]
        self.cell_type = cell_type
        self.inputs: Tuple[str, ...] = tuple(pins)
        self.outputs: Tuple[str, ...] = tuple(outs)
        self.bits = np.array(vectors, dtype=bool)
        # Minterms where each output is 1.
        self.ones = [as_index([m for m, v in enumerate(values) if v[out]])
                     for out in outs]
        # Boolean difference w.r.t. pin k: the minterms with pin k at 0
        # enumerate the other pins in product order; a side assignment
        # is sensitized when setting pin k flips the output.
        self.side_rows: List[np.ndarray] = []
        self.side_cols: List[np.ndarray] = []
        self.sensitized: List[List[np.ndarray]] = [[] for _ in outs]
        for k in range(n):
            flip = 1 << (n - 1 - k)
            rows = [m for m, v in enumerate(vectors) if not v[k]]
            self.side_rows.append(as_index(rows))
            self.side_cols.append(as_index([c for c in range(n) if c != k]))
            for j, out in enumerate(outs):
                self.sensitized[j].append(as_index(
                    [s for s, m in enumerate(rows)
                     if values[m][out] != values[m | flip][out]]))

    def propagate(self, probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Output and boolean-difference probabilities of a batch.

        ``probs`` is ``(batch, n_inputs)`` in declared pin order, assuming
        independent inputs.  Returns ``P(output = 1)`` as
        ``(batch, n_outputs)`` and ``P(output toggles | input toggles)``
        (Najm's transition-density propagator) as
        ``(batch, n_outputs, n_inputs)``.
        """
        n = len(self.inputs)
        factors = np.where(self.bits, probs[:, None, :],
                           1.0 - probs[:, None, :])
        minterms = _left_product(factors)
        out = np.stack([sequential_sum(minterms[:, rows])
                        for rows in self.ones], axis=1)
        bd = np.empty((probs.shape[0], len(self.outputs), n))
        for k in range(n):
            side = _left_product(
                factors[:, self.side_rows[k][:, None], self.side_cols[k]])
            for j, sensitized in enumerate(self.sensitized):
                bd[:, j, k] = sequential_sum(side[:, sensitized[k]])
        return out, bd

    def probability_row(self, input_probs: Dict[str, float]) -> np.ndarray:
        """A one-instance batch; undeclared pins are ignored, missing
        ones read 0.5."""
        return np.array([[input_probs.get(pin, 0.5)
                          for pin in self.inputs]], dtype=float)


def _left_product(factors: np.ndarray) -> np.ndarray:
    """Product over the last axis, left to right, as ``p = 1.0; p *= f``."""
    if factors.shape[-1] == 0:
        return np.ones(factors.shape[:-1])
    p = factors[..., 0]
    for k in range(1, factors.shape[-1]):
        p = p * factors[..., k]
    return p


_TABLES: Dict[str, TruthTable] = {name: TruthTable(name)
                                  for name in _FUNCTIONS}


def truth_table(cell_type: str) -> TruthTable:
    """The cell type's :class:`TruthTable` (enumerated at import)."""
    _check(cell_type)
    return _TABLES[cell_type]


def output_probabilities(cell_type: str,
                         input_probs: Dict[str, float]) -> Dict[str, float]:
    """P(output = 1) per output, assuming independent inputs."""
    table = truth_table(cell_type)
    out, _bd = table.propagate(table.probability_row(input_probs))
    return dict(zip(table.outputs, out[0].tolist()))


def boolean_difference_probability(cell_type: str, pin: str,
                                   output_pin: str,
                                   input_probs: Dict[str, float]) -> float:
    """P(output toggles | pin toggles): the transition-density propagator.

    This is the probability that the boolean difference dF/dpin is true
    under the side-input distribution (Najm's transition density model).
    """
    table = truth_table(cell_type)
    if pin not in table.inputs:
        raise LibraryError(f"{cell_type}: pin {pin!r} is not an input")
    if output_pin not in table.outputs:
        raise LibraryError(
            f"{cell_type}: pin {output_pin!r} is not an output")
    _out, bd = table.propagate(table.probability_row(input_probs))
    return float(bd[0, table.outputs.index(output_pin),
                    table.inputs.index(pin)])


def sequential_data_pin(cell_type: str) -> str:
    try:
        return _SEQ_DATA_PIN[cell_type]
    except KeyError:
        raise LibraryError(f"{cell_type} is not a sequential cell type")
