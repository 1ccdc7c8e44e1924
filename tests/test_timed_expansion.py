"""Tests for the timed-expansion engine (Fig. 2 circuit as the anchor)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager
from repro.benchgen import paper_example2
from repro.benchgen.suite import build_case, suite_cases
from repro.errors import Budget, ResourceBudgetExceeded, TbfError, AnalysisError
from repro.logic import Circuit, DelayMap, Gate, GateType, Interval, Latch, PinTiming
from repro.logic.delays import ZERO
from repro.logic.gate import gate_bdd
from repro.mct import MctOptions
from repro.report.harness import analyze_circuit, run_case
from repro.resilience import inject_faults
from repro.timed import (
    CombinationalBdd,
    LeafInstance,
    TimedExpander,
    collect_leaf_instances,
)
from repro.timed.expansion import combinational_bdd


def reference_expand(circuit, delays, manager, root, resolver, extra=ZERO, budget=None):
    """Test-only oracle: the uncompiled walk over ``Fraction`` offsets.

    Returns the root's value and the ``(net, offset)`` cache.  The
    compiled replay must reproduce its value, resolver call order,
    BDD operation order and budget charges exactly.
    """

    def pin_dependencies(net, offset):
        deps = []
        for pin, child in enumerate(circuit.gates[net].inputs):
            timing = delays.pin(net, pin)
            if timing.is_symmetric:
                deps.append([(child, offset + timing.rise)])
            else:
                deps.append([(child, offset + timing.rise), (child, offset + timing.fall)])
        return deps

    def combine_pin(net, pin, values):
        timing = delays.pin(net, pin)
        if timing.is_symmetric:
            return values[0]
        v_rise, v_fall = values
        if timing.rise.lo >= timing.fall.hi:
            return v_rise & v_fall
        if timing.rise.hi <= timing.fall.lo:
            return v_rise | v_fall
        raise TbfError(f"pin {pin} of gate {net!r} has overlapping rise/fall intervals")

    cache = {}
    stack = [(root, extra, False)]
    while stack:
        net, offset, ready = stack.pop()
        key = (net, offset)
        if key in cache:
            continue
        if circuit.is_leaf(net):
            if budget is not None:
                budget.charge()
            cache[key] = resolver(LeafInstance(net, offset))
            continue
        deps = pin_dependencies(net, offset)
        if not ready:
            stack.append((net, offset, True))
            for dep_keys in deps:
                for dep in dep_keys:
                    if dep not in cache:
                        stack.append((dep[0], dep[1], False))
            continue
        if budget is not None:
            budget.charge()
        operands = [
            combine_pin(net, pin, [cache[dep] for dep in dep_keys])
            for pin, dep_keys in enumerate(deps)
        ]
        gate = circuit.gates[net]
        cache[key] = gate_bdd(gate.gtype, manager, operands)
    return cache[(root, extra)], cache


def reference_leaves(circuit, delays, root, extra=ZERO):
    """Leaf instances of the oracle walk."""
    mgr = BddManager()
    _, cache = reference_expand(
        circuit, delays, mgr, root, lambda inst: mgr.var("v"), extra
    )
    return {LeafInstance(net, off) for net, off in cache if circuit.is_leaf(net)}


def recording_resolver(mgr, calls):
    """A resolver naming one variable per instance and logging calls."""

    def resolver(inst):
        calls.append(inst)
        return mgr.var(f"{inst.leaf}@{inst.offset.lo}:{inst.offset.hi}")

    return resolver


def fig2_circuit() -> tuple[Circuit, DelayMap]:
    """The paper's Fig. 2: g = (c·d·e) + b with inverters/buffers off f.

    Gate delays (folded into each gate's input pins):
      c = BUF(f)  delay 1.5      d = NOT(f) delay 4
      e = BUF(f)  delay 5        b = NOT(f) delay 2
      a = AND(c, d, e) delay 0   g = OR(a, b) delay 0
    The flattened TBF is g(t) = f(t-1.5)·f'(t-4)·f(t-5) + f'(t-2).
    """
    gates = [
        Gate("c", GateType.BUF, ("f",)),
        Gate("d", GateType.NOT, ("f",)),
        Gate("e", GateType.BUF, ("f",)),
        Gate("b", GateType.NOT, ("f",)),
        Gate("a", GateType.AND, ("c", "d", "e")),
        Gate("g", GateType.OR, ("a", "b")),
    ]
    circuit = Circuit("fig2", [], ["g"], gates, [Latch("f", "g")])
    pins = {
        ("c", 0): PinTiming.symmetric(1.5),
        ("d", 0): PinTiming.symmetric(4),
        ("e", 0): PinTiming.symmetric(5),
        ("b", 0): PinTiming.symmetric(2),
        ("a", 0): PinTiming.symmetric(0),
        ("a", 1): PinTiming.symmetric(0),
        ("a", 2): PinTiming.symmetric(0),
        ("g", 0): PinTiming.symmetric(0),
        ("g", 1): PinTiming.symmetric(0),
    }
    return circuit, DelayMap(circuit, pins)


class TestCollectLeafInstances:
    def test_fig2_path_delays(self):
        circuit, delays = fig2_circuit()
        instances = collect_leaf_instances(circuit, delays, ["g"])["g"]
        offsets = sorted(inst.offset.lo for inst in instances)
        assert offsets == [Fraction(3, 2), 2, 4, 5]
        assert all(inst.leaf == "f" for inst in instances)
        assert all(inst.offset.is_point for inst in instances)

    def test_extra_offset_shifts_everything(self):
        circuit, delays = fig2_circuit()
        instances = collect_leaf_instances(
            circuit, delays, ["g"], extra=Interval.point(1)
        )["g"]
        offsets = sorted(inst.offset.lo for inst in instances)
        assert offsets == [Fraction(5, 2), 3, 5, 6]

    def test_interval_delays_produce_interval_offsets(self):
        circuit, delays = fig2_circuit()
        widened = delays.widen(Fraction(9, 10))
        instances = collect_leaf_instances(circuit, widened, ["g"])["g"]
        longest = max(instances, key=lambda i: i.offset.hi)
        assert longest.offset == Interval.of(Fraction(9, 2), 5)

    def test_budget_enforced(self):
        circuit, delays = fig2_circuit()
        with pytest.raises(ResourceBudgetExceeded):
            collect_leaf_instances(
                circuit, delays, ["g"], budget=Budget(limit=3, resource="expansion")
            )

    def test_leaf_root(self):
        circuit, delays = fig2_circuit()
        instances = collect_leaf_instances(circuit, delays, ["f"])["f"]
        assert instances == {LeafInstance("f", ZERO)}

    def test_foreign_delay_map_rejected(self):
        circuit, delays = fig2_circuit()
        other_circuit, _ = fig2_circuit()
        with pytest.raises(AnalysisError):
            collect_leaf_instances(other_circuit, delays, ["g"])


class TestTimedExpander:
    def test_fig2_flattened_tbf(self):
        """Expansion must yield exactly f(t-1.5)·f'(t-4)·f(t-5) + f'(t-2)."""
        circuit, delays = fig2_circuit()
        mgr = BddManager()
        expander = TimedExpander(circuit, delays, mgr)

        seen: list[LeafInstance] = []

        def resolver(instance: LeafInstance) -> object:
            seen.append(instance)
            return mgr.var(f"f@{instance.offset.lo}")

        g = expander.expand("g", resolver)
        f15 = mgr.var("f@3/2")
        f2 = mgr.var("f@2")
        f4 = mgr.var("f@4")
        f5 = mgr.var("f@5")
        assert g == (f15 & ~f4 & f5) | ~f2
        assert len(seen) == 4  # one resolver call per distinct offset

    def test_expansion_memoizes_shared_offsets(self):
        # Two parallel unit-delay buffers into an AND: both pins see the
        # same (leaf, offset) and the resolver runs once.
        gates = [
            Gate("b1", GateType.BUF, ("x",)),
            Gate("b2", GateType.BUF, ("x",)),
            Gate("y", GateType.AND, ("b1", "b2")),
        ]
        circuit = Circuit("shared", ["x"], ["y"], gates)
        pins = {
            ("b1", 0): PinTiming.symmetric(1),
            ("b2", 0): PinTiming.symmetric(1),
            ("y", 0): PinTiming.symmetric(1),
            ("y", 1): PinTiming.symmetric(1),
        }
        delays = DelayMap(circuit, pins)
        mgr = BddManager()
        calls = []

        def resolver(instance):
            calls.append(instance)
            return mgr.var("x2")

        out = TimedExpander(circuit, delays, mgr).expand("y", resolver)
        assert len(calls) == 1
        assert calls[0] == LeafInstance("x", Interval.point(2))
        assert out == mgr.var("x2")

    def test_asymmetric_pin_slow_rise(self):
        # One NOT with rise 3 / fall 1 on its pin: y = (x(t-3)·x(t-1))'.
        gates = [Gate("y", GateType.NOT, ("x",))]
        circuit = Circuit("asym", ["x"], ["y"], gates)
        pins = {("y", 0): PinTiming.asym(rise=3, fall=1)}
        delays = DelayMap(circuit, pins)
        mgr = BddManager()

        def resolver(instance):
            return mgr.var(f"x@{instance.offset.lo}")

        y = TimedExpander(circuit, delays, mgr).expand("y", resolver)
        # NOT output rising  <=> input falling; the *pin buffer* has the
        # given rise/fall so the pin value is x(t-3)·x(t-1).
        assert y == ~(mgr.var("x@3") & mgr.var("x@1"))

    def test_asymmetric_pin_slow_fall(self):
        gates = [Gate("y", GateType.BUF, ("x",))]
        circuit = Circuit("asym2", ["x"], ["y"], gates)
        pins = {("y", 0): PinTiming.asym(rise=1, fall=3)}
        delays = DelayMap(circuit, pins)
        mgr = BddManager()

        def resolver(instance):
            return mgr.var(f"x@{instance.offset.lo}")

        y = TimedExpander(circuit, delays, mgr).expand("y", resolver)
        assert y == mgr.var("x@1") | mgr.var("x@3")

    def test_overlapping_asymmetric_intervals_rejected(self):
        gates = [Gate("y", GateType.BUF, ("x",))]
        circuit = Circuit("bad", ["x"], ["y"], gates)
        pins = {
            ("y", 0): PinTiming(
                rise=Interval.of(1, 3), fall=Interval.of(2, 4)
            )
        }
        delays = DelayMap(circuit, pins)
        mgr = BddManager()
        with pytest.raises(TbfError):
            TimedExpander(circuit, delays, mgr).expand(
                "y", lambda inst: mgr.var("v")
            )

    def test_budget_enforced(self):
        circuit, delays = fig2_circuit()
        mgr = BddManager()
        expander = TimedExpander(
            circuit, delays, mgr, budget=Budget(limit=2, resource="expansion")
        )
        with pytest.raises(ResourceBudgetExceeded):
            expander.expand("g", lambda inst: mgr.var("v"))

    def test_deep_chain_no_recursion_error(self):
        # 5000-gate inverter chain: must not hit the recursion limit.
        gates = [Gate("n0", GateType.NOT, ("x",))]
        for i in range(1, 5000):
            gates.append(Gate(f"n{i}", GateType.NOT, (f"n{i-1}",)))
        circuit = Circuit("chain", ["x"], [f"n{4999}"], gates)
        pins = {(g.output, 0): PinTiming.symmetric(1) for g in gates}
        delays = DelayMap(circuit, pins)
        mgr = BddManager()
        out = TimedExpander(circuit, delays, mgr).expand(
            "n4999", lambda inst: mgr.var(f"x@{inst.offset.lo}")
        )
        assert out == mgr.var("x@5000")  # even chain: buffer overall

    def test_deep_chain_collect(self):
        gates = [Gate("n0", GateType.NOT, ("x",))]
        for i in range(1, 3000):
            gates.append(Gate(f"n{i}", GateType.NOT, (f"n{i-1}",)))
        circuit = Circuit("chain", ["x"], ["n2999"], gates)
        pins = {(g.output, 0): PinTiming.symmetric(1) for g in gates}
        delays = DelayMap(circuit, pins)
        instances = collect_leaf_instances(circuit, delays, ["n2999"])["n2999"]
        assert instances == {LeafInstance("x", Interval.point(3000))}


class TestCombinationalBdd:
    def test_simple_cone(self):
        gates = [
            Gate("n1", GateType.AND, ("a", "b")),
            Gate("y", GateType.OR, ("n1", "c")),
        ]
        circuit = Circuit("c", ["a", "b", "c"], ["y"], gates)
        mgr = BddManager()
        leaf_map = {v: mgr.var(v) for v in ["a", "b", "c"]}
        y = combinational_bdd(circuit, "y", leaf_map, mgr)
        assert y == (mgr.var("a") & mgr.var("b")) | mgr.var("c")

    def test_leaf_root_returns_leaf_value(self):
        circuit = Circuit("c", ["a"], ["a"], [])
        mgr = BddManager()
        assert combinational_bdd(circuit, "a", {"a": mgr.var("z")}, mgr) == mgr.var("z")

    def test_missing_leaf_value(self):
        circuit = Circuit("c", ["a"], ["a"], [])
        mgr = BddManager()
        with pytest.raises(AnalysisError):
            combinational_bdd(circuit, "a", {}, mgr)

    def test_wrapper_next_state_and_outputs(self):
        gates = [Gate("d", GateType.NOT, ("q",)), Gate("y", GateType.BUF, ("q",))]
        circuit = Circuit("t", [], ["y"], gates, [Latch("q", "d")])
        mgr = BddManager()
        wrapper = CombinationalBdd(circuit, {"q": mgr.var("q")}, mgr)
        assert wrapper.next_state() == {"q": ~mgr.var("q")}
        assert wrapper.outputs() == {"y": mgr.var("q")}

    def test_wrapper_shares_cache(self):
        gates = [
            Gate("shared", GateType.AND, ("a", "b")),
            Gate("y1", GateType.NOT, ("shared",)),
            Gate("y2", GateType.BUF, ("shared",)),
        ]
        circuit = Circuit("c", ["a", "b"], ["y1", "y2"], gates)
        mgr = BddManager()
        wrapper = CombinationalBdd(circuit, {v: mgr.var(v) for v in "ab"}, mgr)
        outs = wrapper.outputs()
        assert outs["y1"] == ~outs["y2"]


# ----------------------------------------------------------------------
# The compiled replay against the reference walk
# ----------------------------------------------------------------------

_GATE_TYPES = [
    GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
]


def _random_delay(rng):
    return Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 10]))


def _random_pin(rng):
    """Symmetric or asymmetric, point or interval; asymmetric rise/fall
    intervals never overlap (slow rise or slow fall, at random)."""
    kind = rng.randrange(4)
    lo = _random_delay(rng)
    if kind == 0:
        return PinTiming.symmetric(lo)
    if kind == 1:
        return PinTiming.symmetric(Interval(lo, lo + _random_delay(rng)))
    early = Interval(lo, lo + (_random_delay(rng) if kind == 3 else 0))
    start = early.hi + _random_delay(rng) + Fraction(1, 10)
    late = Interval(start, start + (_random_delay(rng) if kind == 3 else 0))
    if rng.random() < 0.5:
        return PinTiming(rise=late, fall=early)
    return PinTiming(rise=early, fall=late)


def _random_timed_circuit(seed):
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(rng.randint(1, 3))]
    nets = list(inputs)
    gates = []
    for k in range(rng.randint(1, 8)):
        gtype = rng.choice(_GATE_TYPES)
        arity = 1 if gtype in (GateType.NOT, GateType.BUF) else rng.randint(2, 3)
        gates.append(Gate(f"g{k}", gtype, tuple(rng.choice(nets) for _ in range(arity))))
        nets.append(f"g{k}")
    circuit = Circuit("rand", inputs, [nets[-1]], gates)
    pins = {
        (gate.output, pin): _random_pin(rng)
        for gate in gates
        for pin in range(len(gate.inputs))
    }
    return circuit, DelayMap(circuit, pins), rng


def _random_extra(rng):
    lo = Fraction(rng.randint(-9, 9), rng.choice([1, 7, 10]))
    return Interval(lo, lo + Fraction(rng.randint(0, 3), rng.choice([1, 7])))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_replay_matches_reference_walk(seed):
    circuit, delays, rng = _random_timed_circuit(seed)
    root = rng.choice([g for g in circuit.gates] + list(circuit.inputs))
    extra = _random_extra(rng) if rng.random() < 0.7 else ZERO

    # Separate managers: identical resolver calls, BDD work and charges.
    runs = []
    for compiled in (True, False):
        mgr = BddManager()
        calls = []
        budget = Budget(None)
        resolver = recording_resolver(mgr, calls)
        if compiled:
            expander = TimedExpander(circuit, delays, mgr, budget=budget)
            value = expander.expand(root, resolver, extra)
        else:
            value, _ = reference_expand(
                circuit, delays, mgr, root, resolver, extra, budget
            )
        runs.append((calls, budget.used, mgr.stats.as_dict(), mgr.var_names))
        if compiled:
            # A second call replays the same program.
            replay_calls = []
            used = budget.used
            again = expander.expand(root, recording_resolver(mgr, replay_calls), extra)
            assert again == value
            assert replay_calls == calls
            assert budget.used - used == used
    assert runs[0] == runs[1]

    # One manager: the very same node.
    mgr = BddManager()
    expander = TimedExpander(circuit, delays, mgr)
    resolver = recording_resolver(mgr, [])
    reference, cache = reference_expand(circuit, delays, mgr, root, resolver, extra)
    assert expander.expand(root, resolver, extra) == reference

    # The compiled leaf table is the reference leaf set, and reading it
    # charges one unit per cone entry, compiled before or not.
    leaves = reference_leaves(circuit, delays, root, extra)
    assert expander.leaf_instances(root, extra) == leaves
    assert collect_leaf_instances(circuit, delays, [root], extra)[root] == leaves
    for warm in (False, True):
        budget = Budget(None)
        fresh = TimedExpander(circuit, delays, mgr, budget=budget)
        if warm:
            fresh.expand(root, resolver, extra)
            budget.used = 0
        assert fresh.leaf_instances(root, extra) == leaves
        assert budget.used == len(cache)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=40))
def test_compiled_replay_exhausts_budget_at_the_same_entry(seed, limit):
    circuit, delays, rng = _random_timed_circuit(seed)
    root = f"g{len(circuit.gates) - 1}"
    outcomes = []
    for compiled in (True, False):
        mgr = BddManager()
        calls = []
        budget = Budget(limit)
        resolver = recording_resolver(mgr, calls)
        try:
            if compiled:
                TimedExpander(circuit, delays, mgr, budget=budget).expand(root, resolver)
            else:
                reference_expand(circuit, delays, mgr, root, resolver, ZERO, budget)
            exhausted = False
        except ResourceBudgetExceeded:
            exhausted = True
        outcomes.append((exhausted, calls, budget.used, mgr.stats.as_dict()))
    assert outcomes[0] == outcomes[1]


class TestOffGridExtra:
    """An ``extra`` whose denominator is not on the pin-delay grid."""

    def _circuit(self):
        # Pin delays in tenths; a latch loop with a 1/7 setup time and a
        # destination phase larger than every path delay, so the
        # phase-corrected offsets are negative.
        gates = [
            Gate("n1", GateType.NAND, ("q", "x")),
            Gate("n2", GateType.XOR, ("n1", "q")),
            Gate("d", GateType.OR, ("n2", "n1")),
        ]
        circuit = Circuit("offgrid", ["x"], ["d"], gates, [Latch("q", "d")])
        pins = {
            ("n1", 0): PinTiming.symmetric(Interval.of("0.3", "0.7")),
            ("n1", 1): PinTiming.asym(rise="1.1", fall="0.2"),
            ("n2", 0): PinTiming.symmetric("0.9"),
            ("n2", 1): PinTiming(rise=Interval.of("0.1", "0.2"), fall=Interval.of("0.5", "0.6")),
            ("d", 0): PinTiming.symmetric("0.4"),
            ("d", 1): PinTiming.symmetric(Interval.of("1.3", "1.7")),
        }
        delays = DelayMap(circuit, pins, setup=Fraction(1, 7), phase={"q": 5})
        return circuit, delays

    def _extras(self, delays):
        setup = Interval.point(delays.setup)
        return [setup, setup.shifted(-delays.phase("q"))]

    def test_offsets_match_fraction_reference(self):
        circuit, delays = self._circuit()
        for extra in self._extras(delays):
            expected = reference_leaves(circuit, delays, "d", extra)
            assert any(inst.offset.lo.denominator % 7 == 0 for inst in expected)
            got = collect_leaf_instances(circuit, delays, ["d"], extra)["d"]
            assert got == expected
            assert TimedExpander(circuit, delays, None).leaf_instances("d", extra) == expected
        negative = reference_leaves(circuit, delays, "d", self._extras(delays)[1])
        assert all(inst.offset.hi < 0 for inst in negative)

    def test_function_matches_fraction_reference(self):
        circuit, delays = self._circuit()
        mgr = BddManager()
        expander = TimedExpander(circuit, delays, mgr)
        for extra in self._extras(delays):
            calls, ref_calls = [], []
            got = expander.expand("d", recording_resolver(mgr, calls), extra)
            want, _ = reference_expand(
                circuit, delays, mgr, "d", recording_resolver(mgr, ref_calls), extra
            )
            assert got == want
            assert calls == ref_calls


class TestChargeSequencePinned:
    """Budget-charge counts of whole analyses, as measured on the
    uncompiled walk: compiling the cones must not move a single charge.
    Counting mode: ``inject_faults()`` with no threshold fires nothing."""

    def test_budgeted_g9234_row(self):
        case = next(c for c in suite_cases() if c.name == "g9234")
        with inject_faults() as plan:
            row = run_case(case)
        assert plan.budget_calls == 201
        assert row.mct is None and row.floating == Fraction(567, 10)

    def test_g9234_with_counted_delay_budgets(self):
        case = next(c for c in suite_cases() if c.name == "g9234")
        circuit, delays = build_case(case)
        with inject_faults() as plan:
            analyze_circuit(
                circuit,
                delays.widen(Fraction(9, 10)),
                MctOptions(work_budget=case.mct_budget),
                comb_budget=10**9,
            )
        assert plan.budget_calls == 3031

    @pytest.mark.parametrize("widen, calls", [(None, 422), (Fraction(9, 10), 643)])
    def test_example2(self, widen, calls):
        circuit, delays = paper_example2()
        if widen is not None:
            delays = delays.widen(widen)
        with inject_faults() as plan:
            row = analyze_circuit(
                circuit, delays, MctOptions(work_budget=10**9), comb_budget=10**9
            )
        assert plan.budget_calls == calls
        assert row.mct == Fraction(5, 2)
