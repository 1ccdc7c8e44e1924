"""The timed-expansion engine shared by every timing analysis.

Flattening a circuit's TBF (paper Sec. 3.2) gives every appearance of a
leaf signal ``x`` a *time argument* ``t - k``, where ``k`` is the
accumulated delay of one root-to-leaf path.  All three analyses we need
— floating delay, transition delay, and the minimum-cycle-time decision
— only care about the leaf and its ``k``.  So the engine asks a
pluggable *resolver* for the BDD value of each ``(leaf, k-interval)``
pair (a :class:`LeafInstance`).

**Compile once, replay per call.**  By the Eq. 3 normalization the path
delays of a cone do not depend on τ; only what the resolver returns
does.  A :class:`TimedExpander` therefore walks each ``(root, extra)``
cone once, memoizing on ``(net, accumulated interval)`` — which keeps
the walk polynomial in the number of distinct path-delay sums — and
records a straight-line program: one step per ``(net, offset)`` entry,
in the post-order in which a depth-first walk finalizes the entries.  A
step is either a leaf (its :class:`LeafInstance`) or a gate (its BDD
builder, the operand slot of every pin sample, and each asymmetric
pin's combine mode).  :meth:`TimedExpander.expand` replays the program;
its leaf table answers :meth:`TimedExpander.leaf_instances` and
:func:`collect_leaf_instances`, so there is one cone walk in the module.

**Integer ticks.**  Compilation adds offsets as integers on a grid of
``1/D``, where ``D`` is the LCM of the denominators of every pin
rise/fall endpoint and of ``extra``.  :class:`~fractions.Fraction`
appears only where a :class:`LeafInstance` is built.

**Order and budget invariants.**  A replay calls the resolver and runs
BDD operations in the order of the depth-first walk: resolvers create
BDD variables lazily, so the call order is the variable order.  It
charges the budget once per entry, just before that entry's resolver
call or gate operations, and polls the deadline at least once per
entry, so a budget (or an ``inject_faults(budget_at=N)`` fault) stops
an expansion at exactly the same point a fresh walk would.  Compiling
for :meth:`~TimedExpander.expand` charges nothing; compiling for a leaf
collection charges once per entry as it walks, so an exploding cone is
stopped early.  Programs and tick tables live on the expander, never on
the :class:`DelayMap`, which is pickled to workers and content-addressed
by the service.

Rise/fall-asymmetric pins are handled with the paper's Fig. 1(b) buffer
decomposition: the pin value is ``x(t-τr)·x(t-τf)`` when ``τr > τf``
and ``x(t-τr)+x(t-τf)`` when ``τr < τf``.  Overlapping rise/fall
intervals have no such ordering; :meth:`~TimedExpander.expand` rejects
them with :class:`TbfError` before replaying.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from repro.bdd import BddManager, Function
from repro.errors import AnalysisError, Budget, TbfError
from repro.logic.delays import DelayMap, Interval, ZERO
from repro.logic.gate import gate_bdd, gate_bdd_builder
from repro.logic.netlist import Circuit


@dataclasses.dataclass(frozen=True, order=True)
class LeafInstance:
    """One timed appearance of a leaf in a flattened cone TBF.

    ``offset`` is the accumulated combinational path delay interval from
    the sampled root down to this leaf — the constant ``k`` in the
    paper's ``x(t - k)`` (before folding in flip-flop clock-to-output
    delay and setup time, which the MCT layer adds).
    """

    leaf: str
    offset: Interval

    def shifted(self, extra: Interval) -> "LeafInstance":
        """The instance with ``extra`` added to its offset."""
        return LeafInstance(self.leaf, self.offset + extra)


#: A resolver maps a leaf instance to its BDD value.
Resolver = Callable[[LeafInstance], Function]


def _ticks(value: Fraction, scale: int) -> int:
    """``value`` in units of ``1/scale`` (``scale`` is a multiple of its
    denominator)."""
    return value.numerator * (scale // value.denominator)


@dataclasses.dataclass(frozen=True)
class _Program:
    """One compiled ``(root, extra)`` cone.

    ``steps`` run in walk post-order, so the root is the last step.  A
    leaf step is ``(None, instance, None)``.  A gate step is
    ``(builder, slots, combos)``: ``slots[i]`` is the step whose value
    pin ``i`` samples (its rise sample, for an asymmetric pin), and
    ``combos`` is ``None`` when every pin is symmetric, else per pin
    ``None`` or ``(fall_slot, slow_rise)`` — AND the two samples for a
    slow rise, OR them for a slow fall.  ``error`` describes the first
    pin with overlapping rise/fall intervals, if any.
    """

    steps: tuple
    leaves: tuple[LeafInstance, ...]
    error: str | None


class TimedExpander:
    """Expands circuit cones into BDDs over timed leaf instances.

    Parameters
    ----------
    circuit, delays:
        The netlist and its pin-accurate delay annotation.
    manager:
        The BDD manager in which values are built (``None`` for an
        expander used only through :meth:`leaf_instances`).
    budget:
        Optional work budget; one unit is charged per ``(net, offset)``
        expansion entry, bounding the path-delay-sum explosion.
    deadline:
        Optional cooperative :class:`repro.resilience.Deadline` polled
        at least once per expansion entry, so a wall-clock limit
        interrupts a runaway cone walk mid-flight.
    """

    def __init__(
        self,
        circuit: Circuit,
        delays: DelayMap,
        manager: BddManager | None,
        budget: Budget | None = None,
        deadline=None,
    ):
        if delays.circuit is not circuit:
            raise AnalysisError("delay map annotates a different circuit")
        self.circuit = circuit
        self.delays = delays
        self.manager = manager
        self.budget = budget
        self.deadline = deadline
        denominators = {1}
        for net, gate in circuit.gates.items():
            for pin in range(len(gate.inputs)):
                timing = delays.pin(net, pin)
                rise, fall = timing.rise, timing.fall
                denominators.update(
                    (rise.lo.denominator, rise.hi.denominator,
                     fall.lo.denominator, fall.hi.denominator)
                )
        #: The pin-delay grid: LCM of every pin endpoint's denominator.
        self._pin_scale = math.lcm(*denominators)
        self._tick_tables: dict[int, dict[str, tuple]] = {}
        self._programs: dict[tuple[str, Interval], _Program] = {}

    def expand(self, root: str, resolver: Resolver, extra: Interval = ZERO) -> Function:
        """BDD value of ``root`` sampled with accumulated offset ``extra``.

        ``extra`` is added to every path delay — used to fold in setup
        time at the destination flip-flop.
        """
        key = (root, extra)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._compile(root, extra)
        if program.error is not None:
            raise TbfError(program.error)
        manager = self.manager
        budget = self.budget
        deadline = self.deadline
        values: list[Function] = []
        append = values.append
        for build, arg, combos in program.steps:
            if deadline is not None:
                deadline.check("timed expansion")
            if budget is not None:
                budget.charge()
            if build is None:
                append(resolver(arg))
            elif combos is None:
                append(build(manager, [values[slot] for slot in arg]))
            else:
                operands = []
                for slot, combo in zip(arg, combos):
                    value = values[slot]
                    if combo is not None:
                        fall_slot, slow_rise = combo
                        if slow_rise:
                            # Output high only once both samples are high.
                            value = value & values[fall_slot]
                        else:
                            # Output high if either sample is high.
                            value = value | values[fall_slot]
                    operands.append(value)
                append(build(manager, operands))
        return values[-1]

    def leaf_instances(self, root: str, extra: Interval = ZERO) -> set[LeafInstance]:
        """All leaf instances of ``root``'s flattened TBF (offsets include
        ``extra``), read from the compiled cone.

        Charges the budget and polls the deadline once per cone entry,
        compiled or not, so a leaf collection costs the same budget
        however the cone got compiled.
        """
        key = (root, extra)
        program = self._programs.get(key)
        if program is None:
            charge = self.budget.charge if self.budget is not None else None
            program = self._programs[key] = self._compile(
                root, extra, charge, "leaf collection"
            )
        elif self.budget is not None or self.deadline is not None:
            for _ in program.steps:
                if self.budget is not None:
                    self.budget.charge()
                if self.deadline is not None:
                    self.deadline.check("leaf collection")
        return set(program.leaves)

    def _gate_ticks(self, net: str, scale: int, table: dict[str, tuple]) -> tuple:
        """The compile-time view of gate ``net`` on the ``1/scale`` grid,
        stored in ``table``.

        Its BDD builder and, per pin, ``(child, rise_lo, rise_hi,
        fall_lo, fall_hi, slow_rise)``: the fall ticks and ``slow_rise``
        are ``None`` for a symmetric pin, and ``slow_rise`` is also
        ``None`` when rise and fall overlap.
        """
        gate = self.circuit.gates[net]
        pins = []
        for pin, child in enumerate(gate.inputs):
            timing = self.delays.pin(net, pin)
            rise, fall = timing.rise, timing.fall
            fall_lo = fall_hi = slow_rise = None
            if not timing.is_symmetric:
                fall_lo, fall_hi = _ticks(fall.lo, scale), _ticks(fall.hi, scale)
                if rise.lo >= fall.hi:
                    slow_rise = True
                elif rise.hi <= fall.lo:
                    slow_rise = False
            pins.append(
                (child, _ticks(rise.lo, scale), _ticks(rise.hi, scale),
                 fall_lo, fall_hi, slow_rise)
            )
        entry = table[net] = (gate_bdd_builder(gate.gtype, len(pins)), pins)
        return entry

    def _compile(
        self,
        root: str,
        extra: Interval,
        charge: Callable[[], None] | None = None,
        where: str = "timed expansion",
    ) -> _Program:
        """Walk the ``(root, extra)`` cone once into a :class:`_Program`.

        ``charge`` (when given) and the deadline run once per entry, on
        its first visit.
        """
        scale = math.lcm(self._pin_scale, extra.lo.denominator, extra.hi.denominator)
        table = self._tick_tables.setdefault(scale, {})
        is_leaf = self.circuit.is_leaf
        deadline = self.deadline
        slots: dict[tuple[str, int, int], int] = {}
        steps: list[tuple] = []
        leaves: list[LeafInstance] = []
        error = None
        # Explicit work stack: deep gate chains must not hit Python's
        # recursion limit.  A gate is visited twice: first to push its
        # pin samples, then (once they all have slots) to emit its step.
        stack: list[tuple] = [
            (root, _ticks(extra.lo, scale), _ticks(extra.hi, scale), None)
        ]
        while stack:
            net, lo, hi, pending = stack.pop()
            key = (net, lo, hi)
            if key in slots:
                continue
            if pending is None:
                if charge is not None:
                    charge()
                if deadline is not None:
                    deadline.check(where)
                if is_leaf(net):
                    offset = Interval(Fraction(lo, scale), Fraction(hi, scale))
                    instance = LeafInstance(net, offset)
                    slots[key] = len(steps)
                    steps.append((None, instance, None))
                    leaves.append(instance)
                    continue
                build, pins = table.get(net) or self._gate_ticks(net, scale, table)
                deps = []
                for child, rise_lo, rise_hi, fall_lo, fall_hi, _ in pins:
                    rise_key = (child, lo + rise_lo, hi + rise_hi)
                    fall_key = None if fall_lo is None else (child, lo + fall_lo, hi + fall_hi)
                    deps.append((rise_key, fall_key))
                stack.append((net, lo, hi, (build, pins, deps)))
                for rise_key, fall_key in deps:
                    if rise_key not in slots:
                        stack.append((*rise_key, None))
                    if fall_key is not None and fall_key not in slots:
                        stack.append((*fall_key, None))
                continue
            build, pins, deps = pending
            rise_slots = []
            combos = []
            for pin, (rise_key, fall_key) in enumerate(deps):
                rise_slots.append(slots[rise_key])
                if fall_key is None:
                    combos.append(None)
                    continue
                slow_rise = pins[pin][5]
                if slow_rise is None and error is None:
                    error = (
                        f"pin {pin} of gate {net!r} has overlapping rise/fall "
                        "intervals; the Fig. 1(b) decomposition needs an "
                        "unambiguous ordering"
                    )
                combos.append((slots[fall_key], slow_rise))
            slots[key] = len(steps)
            steps.append(
                (
                    build,
                    tuple(rise_slots),
                    tuple(combos) if any(c is not None for c in combos) else None,
                )
            )
        return _Program(tuple(steps), tuple(leaves), error)


def collect_leaf_instances(
    circuit: Circuit,
    delays: DelayMap,
    roots: Iterable[str],
    extra: Interval = ZERO,
    budget: Budget | None = None,
    deadline=None,
) -> dict[str, set[LeafInstance]]:
    """All leaf instances of each root's flattened TBF.

    Reads the leaf tables of compiled cones (see
    :meth:`TimedExpander.leaf_instances`) without building BDDs; used
    to derive the critical-τ breakpoints (Sec. 6/7) and the
    floating/transition event times.
    """
    expander = TimedExpander(circuit, delays, None, budget=budget, deadline=deadline)
    return {root: expander.leaf_instances(root, extra) for root in roots}


def combinational_bdd(
    circuit: Circuit,
    root: str,
    leaf_map: Mapping[str, Function],
    manager: BddManager,
) -> Function:
    """Plain (untimed) BDD of a cone with arbitrary leaf values.

    The zero-delay companion of :meth:`TimedExpander.expand`: used for
    the steady-state machine ``x̂(n) = g(x̂(n-1), u(n-1))``, for the
    inductive unrolling of the decision algorithm, and by the FSM layer.
    """
    def leaf_value(net: str) -> Function:
        try:
            return leaf_map[net]
        except KeyError:
            raise AnalysisError(f"no leaf value supplied for {net!r}") from None

    if circuit.is_leaf(root):
        return leaf_value(root)
    values: dict[str, Function] = {}
    for net in circuit.cone(root):
        gate = circuit.gates[net]
        operands = [
            values[c] if c in values else leaf_value(c) for c in gate.inputs
        ]
        values[net] = gate_bdd(gate.gtype, manager, operands)
    return values[root]


class CombinationalBdd:
    """Convenience wrapper building all root cones of a circuit at once.

    Leaves are mapped through ``leaf_map``; cones share a node cache, so
    common subcircuits are built once.
    """

    def __init__(
        self,
        circuit: Circuit,
        leaf_map: Mapping[str, Function],
        manager: BddManager,
    ):
        self.circuit = circuit
        self.manager = manager
        self._leaf_map = dict(leaf_map)
        self._cache: dict[str, Function] = {}

    def root(self, net: str) -> Function:
        """BDD of ``net`` in terms of the mapped leaves."""
        hit = self._cache.get(net)
        if hit is not None:
            return hit
        if self.circuit.is_leaf(net):
            try:
                result = self._leaf_map[net]
            except KeyError:
                raise AnalysisError(f"no leaf value supplied for {net!r}") from None
            self._cache[net] = result
            return result
        for gate_net in self.circuit.cone(net):
            if gate_net in self._cache:
                continue
            gate = self.circuit.gates[gate_net]
            operands = [self.root(child) for child in gate.inputs]
            self._cache[gate_net] = gate_bdd(gate.gtype, self.manager, operands)
        return self._cache[net]

    def next_state(self) -> dict[str, Function]:
        """BDDs of every flip-flop's data input (the next-state function)."""
        return {q: self.root(latch.data) for q, latch in self.circuit.latches.items()}

    def outputs(self) -> dict[str, Function]:
        """BDDs of every primary output."""
        return {net: self.root(net) for net in self.circuit.outputs}
