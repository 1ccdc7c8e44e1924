"""Direct unit tests of the decision procedure's internals."""

from fractions import Fraction

import pytest

from repro.bdd import BddManager
from repro.errors import AnalysisError
from repro.fsm import reachable_states
from repro.logic import Interval
from repro.mct.decision import DecisionContext, DecisionOutcome
from repro.mct.discretize import TimedLeaf, build_discretized_machine

from tests.test_timed_expansion import fig2_circuit
from tests.test_benchgen import merge  # re-exported convenience
from repro.benchgen.generators import mirrored_pair


@pytest.fixture()
def fig2_context():
    circuit, delays = fig2_circuit()
    machine = build_discretized_machine(circuit, delays)
    return machine, DecisionContext(machine)


def regime_for(machine, tau):
    return machine.regime(Fraction(tau))


class TestDecide:
    def test_steady_regime_passes(self, fig2_context):
        machine, ctx = fig2_context
        outcome = ctx.decide(machine.steady_regime())
        assert outcome.passed_structurally
        assert outcome.m == 1

    def test_fig2_verdicts(self, fig2_context):
        machine, ctx = fig2_context
        assert ctx.decide(regime_for(machine, 4)).passed_structurally
        assert ctx.decide(regime_for(machine, Fraction(5, 2))).passed_structurally
        failing = ctx.decide(regime_for(machine, 2))
        assert not failing.passed_structurally
        assert failing.m == 3
        assert not failing.has_choices
        assert failing.mismatch_phase in ("base", "induction")

    def test_memoization(self, fig2_context):
        machine, ctx = fig2_context
        before = ctx.decisions_run
        a = ctx.decide(regime_for(machine, 2))
        mid = ctx.decisions_run
        b = ctx.decide(regime_for(machine, 2))
        assert mid == before + 1
        assert ctx.decisions_run == mid  # cache hit
        assert a is b

    def test_missing_initial_state(self):
        circuit, delays = fig2_circuit()
        machine = build_discretized_machine(circuit, delays)
        with pytest.raises(AnalysisError):
            DecisionContext(machine, initial_state={"nope": True})

    def test_failing_options_in_interval_mode(self):
        circuit, delays = fig2_circuit()
        widened = delays.widen(Fraction(9, 10))
        machine = build_discretized_machine(circuit, widened)
        ctx = DecisionContext(machine)
        # A regime straddling: pick tau just below the fixed bound.
        regime = machine.regime(Fraction(12, 5))
        outcome = ctx.decide(regime)
        assert outcome.has_choices
        if not outcome.passed_structurally:
            assert outcome.failing_options
            for options in outcome.failing_options:
                assert set(options) == set(regime)
                for tl, ages in options.items():
                    assert set(ages) <= set(regime[tl])


class TestResolveFoldMemo:
    def test_one_fold_per_instance_and_destination_phase(self, fig2_context):
        machine, ctx = fig2_context
        instance = min(machine.state_instances["g"])
        phases = [None, Fraction(1, 2), Fraction(1)]
        regime = {
            machine.fold(instance, dest_phase=phase or Fraction(0)): (age,)
            for age, phase in enumerate(phases, start=1)
        }
        seen = []

        def value_at_age(leaf, age):
            seen.append(age)
            return ctx.manager.true

        for _ in range(2):
            for phase in phases:
                ctx._resolve(regime, instance, value_at_age, dest_phase=phase)
        assert seen == [1, 2, 3, 1, 2, 3]
        assert len(ctx._folded) == len(phases)


class TestReachabilityCare:
    def test_care_set_flips_verdict(self):
        circuit, delays = mirrored_pair(long_delay=10, loop_delay=2)
        machine = build_discretized_machine(circuit, delays)
        plain = DecisionContext(machine)
        regime = machine.regime(Fraction(5))
        assert not plain.decide(regime).passed_structurally

        mgr = BddManager()
        reached = reachable_states(circuit, manager=mgr)
        with_care = DecisionContext(machine, reachable=reached)
        assert with_care.decide(regime).passed_structurally

    def test_care_cached_per_m(self):
        circuit, delays = mirrored_pair(long_delay=10, loop_delay=2)
        machine = build_discretized_machine(circuit, delays)
        mgr = BddManager()
        reached = reachable_states(circuit, manager=mgr)
        ctx = DecisionContext(machine, reachable=reached)
        ctx.decide(machine.regime(Fraction(5)))
        ctx.decide(machine.regime(Fraction(10, 3)))
        assert len(ctx._care_cache) >= 1


class TestOutputsToggle:
    def test_check_outputs_false_ignores_po_mismatch(self):
        # Pure-feedthrough machine: a PO cone with latency but a state
        # loop that is insensitive to age changes (hold register).
        from repro.benchgen.generators import hold_loop
        from repro.logic import Circuit, DelayMap, Gate, GateType, Latch, PinTiming

        gates = [
            Gate("h", GateType.BUF, ("q",)),
            Gate("y", GateType.BUF, ("u",)),
        ]
        circuit = Circuit("mix", ["u"], ["y"], gates, [Latch("q", "h")])
        pins = {("h", 0): PinTiming.symmetric(2), ("y", 0): PinTiming.symmetric(6)}
        delays = DelayMap(circuit, pins)
        machine = build_discretized_machine(circuit, delays)
        regime = machine.regime(Fraction(3))  # y-path at age 2
        strict = DecisionContext(machine, check_outputs=True)
        relaxed = DecisionContext(machine, check_outputs=False)
        assert not strict.decide(regime).passed_structurally
        assert relaxed.decide(regime).passed_structurally
