"""The primitive gate library and its Boolean semantics.

Every analysis in the library (functional simulation, BDD cone
construction, timed expansion) funnels gate semantics through this
module, so adding a gate type here makes it available everywhere.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from repro.errors import CircuitError


class GateType(enum.Enum):
    """Combinational primitives understood by the netlist.

    The set matches what ISCAS'89 ``.bench`` files use (plus explicit
    constants, which synthetic generators need).
    """

    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @property
    def is_constant(self) -> bool:
        """True for the two zero-input constant generators."""
        return self in (GateType.CONST0, GateType.CONST1)

    @property
    def min_arity(self) -> int:
        """Smallest legal number of inputs."""
        if self.is_constant:
            return 0
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return 2

    @property
    def max_arity(self) -> int | None:
        """Largest legal number of inputs (None = unbounded)."""
        if self.is_constant:
            return 0
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return None

    def check_arity(self, n_inputs: int) -> None:
        """Raise :class:`CircuitError` if ``n_inputs`` is illegal."""
        if n_inputs < self.min_arity or (
            self.max_arity is not None and n_inputs > self.max_arity
        ):
            raise CircuitError(
                f"{self.value} gate cannot take {n_inputs} input(s)"
            )


#: ``.bench`` spellings that deviate from our canonical names.
BENCH_ALIASES = {
    "BUFF": GateType.BUF,
    "INV": GateType.NOT,
}


def gate_type_from_name(name: str) -> GateType:
    """Resolve a gate-type name as found in a ``.bench`` file."""
    upper = name.upper()
    if upper in BENCH_ALIASES:
        return BENCH_ALIASES[upper]
    try:
        return GateType(upper)
    except ValueError:
        raise CircuitError(f"unknown gate type {name!r}") from None


def eval_gate(gtype: GateType, inputs: Sequence[bool]) -> bool:
    """Evaluate a gate on concrete Boolean inputs."""
    gtype.check_arity(len(inputs))
    if gtype is GateType.AND:
        return all(inputs)
    if gtype is GateType.OR:
        return any(inputs)
    if gtype is GateType.NAND:
        return not all(inputs)
    if gtype is GateType.NOR:
        return not any(inputs)
    if gtype is GateType.XOR:
        return sum(inputs) % 2 == 1
    if gtype is GateType.XNOR:
        return sum(inputs) % 2 == 0
    if gtype is GateType.NOT:
        return not inputs[0]
    if gtype is GateType.BUF:
        return bool(inputs[0])
    if gtype is GateType.CONST0:
        return False
    if gtype is GateType.CONST1:
        return True
    raise CircuitError(f"unhandled gate type {gtype}")  # pragma: no cover


def _xor_bdd(manager, inputs: Sequence):
    acc = manager.false
    for f in inputs:
        acc = acc ^ f
    return acc


#: Unchecked BDD builders, one per gate type: ``builder(manager, inputs)``.
_BDD_BUILDERS = {
    GateType.AND: lambda manager, inputs: manager.conjoin(inputs),
    GateType.OR: lambda manager, inputs: manager.disjoin(inputs),
    GateType.NAND: lambda manager, inputs: ~manager.conjoin(inputs),
    GateType.NOR: lambda manager, inputs: ~manager.disjoin(inputs),
    GateType.XOR: _xor_bdd,
    GateType.XNOR: lambda manager, inputs: ~_xor_bdd(manager, inputs),
    GateType.NOT: lambda manager, inputs: ~inputs[0],
    GateType.BUF: lambda manager, inputs: inputs[0],
    GateType.CONST0: lambda manager, inputs: manager.false,
    GateType.CONST1: lambda manager, inputs: manager.true,
}


def gate_bdd_builder(gtype: GateType, n_inputs: int):
    """The BDD builder of a gate with ``n_inputs`` operands.

    The arity is checked here, once; the returned
    ``builder(manager, inputs)`` trusts its caller to pass exactly
    ``n_inputs`` operands.  Compiled timed cones resolve every gate
    this way at compile time.
    """
    gtype.check_arity(n_inputs)
    return _BDD_BUILDERS[gtype]


def gate_bdd(gtype: GateType, manager, inputs: Sequence):
    """Build the gate function over BDD operand functions.

    ``inputs`` are :class:`repro.bdd.Function` objects from ``manager``.
    """
    return gate_bdd_builder(gtype, len(inputs))(manager, inputs)
