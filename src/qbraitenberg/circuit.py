"""Gate IR with control polarities, lowering passes, and OpenQASM 2.0 export.

A circuit is an immutable value: a qubit count plus an ordered tuple of
operations. Controlled kinds (CX, CCX, CCXX) carry explicit control
polarities, so "fire on |0>" anticontrols are first-class in the IR and are
removed only by the lowering pipeline.

``lower`` runs three passes in a fixed order: CCXX ops split into two CCX
ops sharing the controls; negative controls are conjugated away with X
gates, and X pairs left facing each other on a wire cancel (found with a
stack of surviving ops per wire, not by scanning back); finally each CCX
expands into the canonical 15-gate H/T/Tdg/CX network, built from its 9
distinct ops. Ops store their wires once, so every pass costs a fixed
amount of work per op. The resulting basis is {X, H, S, SDG, T, TDG, CX},
which is exactly what ``export_qasm`` accepts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum


class UnsupportedGateError(ValueError):
    """An operation uses a gate kind the consumer cannot handle."""


class GateKind(Enum):
    """Gate vocabulary; values double as qelib1 mnemonics."""

    X = "x"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    CX = "cx"
    CCX = "ccx"
    CCXX = "ccxx"


#: (controls, targets) carried by each kind.
ARITY: dict[GateKind, tuple[int, int]] = {
    GateKind.X: (0, 1),
    GateKind.H: (0, 1),
    GateKind.S: (0, 1),
    GateKind.SDG: (0, 1),
    GateKind.T: (0, 1),
    GateKind.TDG: (0, 1),
    GateKind.CX: (1, 1),
    GateKind.CCX: (2, 1),
    GateKind.CCXX: (2, 2),
}

#: QASM mnemonic of each kind allowed in a fully lowered circuit (and in QASM output).
_QASM_NAMES = {
    kind: kind.value
    for kind in (GateKind.X, GateKind.H, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.CX)
}
LOWERED_KINDS = frozenset(_QASM_NAMES)


def _shown(value: object) -> str:
    """``repr(value)``, plus the type name of an ``int`` subclass, whose repr is a bare number."""
    if isinstance(value, int) and type(value) not in (int, bool):
        return f"{value!r} ({type(value).__name__})"
    return repr(value)


def require_int(name: str, value: object, low: int | None = None, among: tuple[int, ...] = ()) -> None:
    """The package's one int rule: raise ValueError unless ``type(value) is int``,
    ``value >= low`` and, when ``among`` is given, ``value in among``.

    Bools, numpy integers and other ``int`` subclasses fail; the type is tested
    first, so ``True`` fails even where ``among`` holds 1. Only ``TickTrace``,
    built every tick, tests its ``tick`` inline and calls this only to raise.
    """
    if type(value) is not int or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an int{bound}, got {_shown(value)}")
    if among and value not in among:
        raise ValueError(f"{name} must be one of {', '.join(map(str, among))}, got {value}")


def require_qubits(name: str, qubits: tuple[int, ...] | list[int], n_qubits: int) -> tuple[int, ...]:
    """The package's one wire-list rule: int wires (``require_int``), distinct, below ``n_qubits``."""
    qubits = tuple(qubits)
    for q in qubits:
        require_int(name, q, 0)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{name}s must be distinct, got {qubits}")
    if any(q >= n_qubits for q in qubits):
        raise ValueError(f"{name}s {qubits} out of range for n_qubits={n_qubits}")
    return qubits


@dataclass(frozen=True, slots=True)
class ControlSpec:
    """A control wire; the gate fires when the qubit reads |value>.

    value=0 is an anticontrol.
    """

    qubit: int
    value: int = 1

    def __post_init__(self) -> None:
        require_int("control qubit", self.qubit, 0)
        if type(self.value) is not int or self.value not in (0, 1):
            raise ValueError(f"control value must be the int 0 or 1, got {_shown(self.value)}")


@dataclass(frozen=True, slots=True)
class CircuitOp:
    """One gate application: a kind, its controls, and its ordered targets.

    ``qubits``, all wires touched with controls first, is set at construction.
    """

    kind: GateKind
    controls: tuple[ControlSpec, ...] = ()
    targets: tuple[int, ...] = ()
    qubits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        controls, targets = tuple(self.controls), tuple(self.targets)
        try:
            n_ctrl, n_tgt = ARITY[self.kind]
        except (KeyError, TypeError):  # TypeError: an unhashable kind
            raise UnsupportedGateError(f"unknown gate kind {self.kind!r}") from None
        if len(controls) != n_ctrl or len(targets) != n_tgt:
            raise ValueError(
                f"{self.kind.value} takes {n_ctrl} controls and {n_tgt} targets, "
                f"got {len(controls)} and {len(targets)}"
            )
        for q in targets:
            require_int("target qubit", q, 0)
        qubits = tuple([c.qubit for c in controls]) + targets
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"controls and targets must be distinct qubits, got {list(qubits)}")
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed register."""

    n_qubits: int
    ops: tuple[CircuitOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        n = self.n_qubits
        require_int("n_qubits", n, 1)
        for i, op in enumerate(self.ops):
            if not isinstance(op, CircuitOp):
                raise ValueError(f"ops[{i}] must be a CircuitOp, got {op!r}")
            if max(op.qubits) >= n:
                bad = [q for q in op.qubits if q >= n]
                raise ValueError(f"op {op.kind.value} references qubits {bad} >= n_qubits={n}")


def x(qubit: int) -> CircuitOp:
    return CircuitOp(GateKind.X, (), (qubit,))


def h(qubit: int) -> CircuitOp:
    return CircuitOp(GateKind.H, (), (qubit,))


def s(qubit: int) -> CircuitOp:
    return CircuitOp(GateKind.S, (), (qubit,))


def sdg(qubit: int) -> CircuitOp:
    return CircuitOp(GateKind.SDG, (), (qubit,))


def t(qubit: int) -> CircuitOp:
    return CircuitOp(GateKind.T, (), (qubit,))


def tdg(qubit: int) -> CircuitOp:
    return CircuitOp(GateKind.TDG, (), (qubit,))


def cx(control: int, target: int, value: int = 1) -> CircuitOp:
    return CircuitOp(GateKind.CX, (ControlSpec(control, value),), (target,))


def ccx(c1: int, c2: int, target: int, values: tuple[int, int] = (1, 1)) -> CircuitOp:
    controls = (ControlSpec(c1, values[0]), ControlSpec(c2, values[1]))
    return CircuitOp(GateKind.CCX, controls, (target,))


def ccxx(c1: int, c2: int, t1: int, t2: int, values: tuple[int, int] = (1, 1)) -> CircuitOp:
    controls = (ControlSpec(c1, values[0]), ControlSpec(c2, values[1]))
    return CircuitOp(GateKind.CCXX, controls, (t1, t2))


def ccxx_decompose(op: CircuitOp) -> list[CircuitOp]:
    """Split a two-target doubly controlled X into two CCX ops sharing the controls."""
    if op.kind is not GateKind.CCXX:
        raise ValueError(f"expected a ccxx op, got {op.kind.value}")
    t1, t2 = op.targets
    return [
        CircuitOp(GateKind.CCX, op.controls, (t1,)),
        CircuitOp(GateKind.CCX, op.controls, (t2,)),
    ]


def polarity_lower(op: CircuitOp) -> list[CircuitOp]:
    """Replace negative controls by X conjugation, leaving an all-positive op.

    Each anticontrolled wire gets an X before and after the op; ops that are
    already all-positive (or uncontrolled) pass through unchanged.
    """
    negatives = tuple(c.qubit for c in op.controls if c.value == 0)
    if not negatives:
        return [op]
    flips = [x(q) for q in negatives]
    positive = CircuitOp(op.kind, tuple(ControlSpec(c.qubit) for c in op.controls), op.targets)
    return [*flips, positive, *flips]


def ccx_decompose(op: CircuitOp) -> list[CircuitOp]:
    """Expand a positively controlled Toffoli into the canonical 15-gate network.

    The sequence over {H, T, TDG, CX} reproduces the Toffoli unitary exactly,
    with no residual global phase. Negative controls must be removed first
    (see ``polarity_lower``).
    """
    if op.kind is not GateKind.CCX:
        raise ValueError(f"expected a ccx op, got {op.kind.value}")
    if any(c.value != 1 for c in op.controls):
        raise ValueError("ccx_decompose requires positive controls; run polarity_lower first")
    a, b = (c.qubit for c in op.controls)
    tgt = op.targets[0]
    h_t, t_t, tdg_t = h(tgt), t(tgt), tdg(tgt)
    cx_at, cx_bt, cx_ab = cx(a, tgt), cx(b, tgt), cx(a, b)
    return [
        h_t, cx_bt, tdg_t, cx_at, t_t, cx_bt, tdg_t, cx_at,
        t(b), t_t, h_t, cx_ab, t(a), tdg(b), cx_ab,
    ]


def _cancel_facing_x(ops: list[CircuitOp]) -> list[CircuitOp]:
    """Drop X pairs on the same wire separated only by ops on other wires.

    Each wire keeps a stack of output indices of the surviving ops on it; an X
    cancels when its wire's top is an X, which pops (an X has no other wire).
    """
    out: list[CircuitOp | None] = []
    stacks: defaultdict[int, list[int]] = defaultdict(list)
    for op in ops:
        if op.kind is GateKind.X:
            stack = stacks[op.targets[0]]
            if stack and out[stack[-1]].kind is GateKind.X:
                out[stack.pop()] = None
                continue
        for q in op.qubits:
            stacks[q].append(len(out))
        out.append(op)
    return [op for op in out if op is not None]


def lower(circuit: Circuit) -> Circuit:
    """Rewrite a circuit onto the {X, H, S, SDG, T, TDG, CX} basis.

    Pass order is fixed: CCXX -> CCX pairs, then anticontrol removal with
    X-pair cleanup, then CCX -> Clifford+T. The output unitary equals the
    input unitary (no pass here introduces a global phase). Idempotent.
    """
    positive: list[CircuitOp] = []
    for op in circuit.ops:
        for part in ccxx_decompose(op) if op.kind is GateKind.CCXX else (op,):
            positive.extend(polarity_lower(part))

    lowered: list[CircuitOp] = []
    for op in _cancel_facing_x(positive):
        lowered.extend(ccx_decompose(op) if op.kind is GateKind.CCX else (op,))
    return Circuit(circuit.n_qubits, tuple(lowered))


def depth(circuit: Circuit) -> int:
    """Layer count: each op sits one level above the highest earlier op on its wires."""
    level = [0] * circuit.n_qubits
    for op in circuit.ops:
        top = 1 + max([level[q] for q in op.qubits])
        for q in op.qubits:
            level[q] = top
    return max(level)


def export_qasm(circuit: Circuit, measured: tuple[int, ...] | list[int]) -> str:
    """Serialize a lowered circuit as OpenQASM 2.0 text.

    Registers are always named ``q`` and ``c``; the classical register is
    sized to the measured-qubit list and one measure statement is emitted per
    entry, in list order. Output is a deterministic function of the inputs,
    byte for byte. Raises UnsupportedGateError on non-lowered gates.
    """
    measured = require_qubits("measured qubit", measured, circuit.n_qubits)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    if measured:
        lines.append(f"creg c[{len(measured)}];")
    for op in circuit.ops:
        name = _QASM_NAMES.get(op.kind)
        if name is None:
            raise UnsupportedGateError(f"cannot export {op.kind.value}; lower the circuit first")
        for c in op.controls:
            if c.value != 1:
                raise UnsupportedGateError("cannot export anticontrolled ops; lower the circuit first")
        lines.append(f"{name} q[{'],q['.join(map(str, op.qubits))}];")
    for i, q in enumerate(measured):
        lines.append(f"measure q[{q}] -> c[{i}];")
    return "\n".join(lines) + "\n"
