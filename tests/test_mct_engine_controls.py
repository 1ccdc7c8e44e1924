"""Unit tests for the sweep engine's control knobs and reporting."""

import threading
from fractions import Fraction

import pytest

from repro.benchgen import paper_example2
from repro.benchgen.generators import hold_loop, toggle_loop
from repro.errors import AnalysisError, OptionsError
from repro.mct import MctOptions, minimum_cycle_time
from repro.mct.engine import CandidateRecord
from repro.resilience import inject_faults

from tests.test_timed_expansion import fig2_circuit


class TestResultShape:
    def test_records_carry_m(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        by_tau = {r.tau: r for r in result.candidates}
        assert by_tau[Fraction(4)].m == 2
        assert by_tau[Fraction(2)].m == 3

    def test_failing_sigmas_fixed_mode(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        assert result.failing_sigmas
        sigma, sup = result.failing_sigmas[0]
        assert sup == Fraction(5, 2)
        # All age options are singletons in fixed mode.
        assert all(len(ages) == 1 for ages in sigma.values())

    def test_failing_roots_attributed(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        # Both the latch data cone (g) and the PO (g) fail; the root
        # list names the latch and/or the output net.
        assert result.failing_roots
        assert set(result.failing_roots) <= {"f", "g"}

    def test_failing_roots_name_the_critical_block(self):
        from repro.benchgen import merge, suite_cases, build_case

        case = next(c for c in suite_cases() if c.name == "g526")
        circuit, delays = build_case(case)
        result = minimum_cycle_time(circuit, delays)
        # seq_gain rows merge [hold ("b0_"), toggle ("b1_"), fillers];
        # the bound must be pinned on the toggle block, never the hold.
        assert result.failing_roots
        assert all(root.startswith("b1_") for root in result.failing_roots)

    def test_improves_on_alias(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        assert result.improves_on == result.mct_upper_bound

    def test_elapsed_and_decisions_counted(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        assert result.elapsed_seconds >= 0
        assert result.decisions_run == 3  # 4, 2.5, 2 (5 is steady)


class TestControls:
    def test_tau_floor_limits_sweep(self):
        circuit, delays = hold_loop(Fraction(8))
        result = minimum_cycle_time(
            circuit, delays, MctOptions(tau_floor=Fraction(3))
        )
        assert not result.failure_found
        assert result.exhausted
        # The floor itself is examined (grid-independent bound); nothing
        # below it ever is.
        assert all(r.tau >= 3 for r in result.candidates)
        assert result.mct_upper_bound >= 3

    def test_max_age_stops_sweep(self):
        circuit, delays = hold_loop(Fraction(8))
        result = minimum_cycle_time(
            circuit, delays, MctOptions(max_age=3, tau_floor=Fraction(1, 100))
        )
        assert result.exhausted
        assert "age cap" in result.notes
        assert all(r.m <= 3 for r in result.candidates)

    def test_max_candidates_cap(self):
        circuit, delays = hold_loop(Fraction(8))
        result = minimum_cycle_time(
            circuit,
            delays,
            MctOptions(max_candidates=2, tau_floor=Fraction(1, 100), max_age=1000),
        )
        assert result.exhausted
        assert "candidate cap" in result.notes
        assert len(result.candidates) == 2

    def test_time_limit_zero_trips_immediately(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(
            circuit, delays, MctOptions(time_limit=0.0)
        )
        assert result.exhausted
        assert "time limit" in result.notes

    def test_steady_candidates_not_decided(self):
        circuit, delays = toggle_loop(Fraction(5))
        result = minimum_cycle_time(circuit, delays)
        statuses = {r.tau: r.status for r in result.candidates}
        assert statuses[Fraction(5)] == "steady"

    def test_budget_none_vs_zero(self):
        circuit, delays = fig2_circuit()
        # work_budget=None is unlimited; 0 is rejected, not a second
        # spelling of unlimited.
        a = minimum_cycle_time(circuit, delays, MctOptions(work_budget=None))
        assert a.mct_upper_bound == Fraction(5, 2)
        with pytest.raises(OptionsError, match="work_budget"):
            MctOptions(work_budget=0)


def _set_event():
    event = threading.Event()
    event.set()
    return event


#: Sweeps that end for each reason a serial and a pooled run must agree
#: on: (circuit builder, options, cancel-event factory).  Work-budget
#: stops are left out — the pool splits the budget per worker, so where
#: such a sweep stops legitimately depends on ``jobs``.
STOP_CASES = {
    "tau-floor": (
        lambda: hold_loop(Fraction(8)),
        MctOptions(tau_floor=Fraction(3)),
        None,
    ),
    "age-cap": (
        lambda: hold_loop(Fraction(8)),
        MctOptions(max_age=3, tau_floor=Fraction(1, 100)),
        None,
    ),
    "candidate-cap": (
        lambda: hold_loop(Fraction(8)),
        MctOptions(max_candidates=2, tau_floor=Fraction(1, 100), max_age=1000),
        None,
    ),
    "failing": (paper_example2, MctOptions(), None),
    "cancelled": (paper_example2, MctOptions(), _set_event),
}


class TestStopReasonsAcrossJobs:
    @pytest.mark.parametrize("name", sorted(STOP_CASES))
    def test_serial_and_pooled_stop_alike(self, name):
        build, options, cancel = STOP_CASES[name]
        circuit, delays = build()
        serial, pooled = (
            minimum_cycle_time(
                circuit,
                delays,
                options,
                jobs=jobs,
                cancel=None if cancel is None else cancel(),
            )
            for jobs in (1, 2)
        )

        def shape(result):
            return (
                result.notes,
                result.exhausted,
                result.budget_exceeded,
                result.deadline_exceeded,
                result.cancelled,
                result.interrupted,
                result.mct_upper_bound,
                [(r.tau, r.status, r.m, r.rung) for r in result.candidates],
                None
                if result.checkpoint is None
                else result.checkpoint.canonical(),
            )

        assert shape(serial) == shape(pooled)
        # Every stop names its reason; a failing window needs none.
        assert bool(serial.notes) != serial.failure_found
        assert pooled.supervision is not None and serial.supervision is None
        if name == "cancelled":
            assert serial.cancelled and serial.checkpoint is not None
        if name == "failing":
            assert serial.failure_found and serial.checkpoint is None


class TestDegradedAgeCap:
    """A "reduced-age" rung whose cap is too low ends the sweep partial."""

    BASE = dict(degradation_ladder=("reduced-age",), work_budget=10**9)

    def _faulted(self, degraded_max_age):
        circuit, delays = paper_example2()
        with inject_faults() as plan:
            minimum_cycle_time(circuit, delays, MctOptions(**self.BASE))
        # One fault halfway through the sweep lands in the τ = 5/2
        # window and escalates it to the reduced-age rung.
        with inject_faults(budget_at=plan.budget_calls // 2):
            return minimum_cycle_time(
                circuit,
                delays,
                MctOptions(degraded_max_age=degraded_max_age, **self.BASE),
            )

    def _check(self, result, cap):
        assert result.notes == (
            f"age cap {cap} reached (degraded rung reduced-age)"
        )
        assert result.budget_exceeded and not result.deadline_exceeded
        assert result.exhausted and result.interrupted
        assert result.rung == "reduced-age"
        assert result.checkpoint is not None
        assert result.checkpoint.rung == "reduced-age"
        assert not result.failure_found
        assert [d.tau for d in result.degradations] == [Fraction(5, 2)]

    def test_cap_hit_inside_the_faulted_window(self):
        # m = 2 at τ = 5/2 already exceeds the degraded cap of 1.
        result = self._faulted(1)
        self._check(result, 1)
        assert [(r.tau, r.rung) for r in result.candidates] == [
            (Fraction(5), "exact"),
            (Fraction(4), "exact"),
        ]
        assert result.mct_upper_bound == 4

    def test_cap_hit_at_a_later_breakpoint(self):
        # The degraded rung decides τ = 5/2 (m = 2); τ = 2 needs m = 3.
        result = self._faulted(2)
        self._check(result, 2)
        assert [(r.tau, r.rung) for r in result.candidates] == [
            (Fraction(5), "exact"),
            (Fraction(4), "exact"),
            (Fraction(5, 2), "reduced-age"),
        ]
        assert result.mct_upper_bound == Fraction(5, 2)


class TestJobsValidation:
    def test_negative_jobs_rejected(self):
        from repro.parallel.suite import run_suite_sharded
        from repro.report.harness import run_suite

        circuit, delays = paper_example2()
        with pytest.raises(OptionsError, match="jobs"):
            minimum_cycle_time(circuit, delays, jobs=-2)
        # The suite entry points reject it the same way, before any row.
        for entry in (run_suite, run_suite_sharded):
            with pytest.raises(OptionsError, match="jobs"):
                entry(cases=[], include_s27=False, jobs=-1)

    @pytest.mark.parametrize("jobs", [0, 1])
    def test_zero_and_one_run_serially(self, jobs):
        circuit, delays = paper_example2()
        result = minimum_cycle_time(circuit, delays, jobs=jobs)
        assert result.supervision is None
        assert result.mct_upper_bound == Fraction(5, 2)


class TestDegenerateCircuits:
    def test_no_timed_paths_rejected(self):
        from repro.logic import Circuit, DelayMap

        circuit = Circuit("empty", ["a"], [], [])
        with pytest.raises(AnalysisError):
            minimum_cycle_time(circuit, DelayMap(circuit, {}))

    def test_combinational_circuit_mct_is_latency(self):
        # A latch-free pipeline: y(n) must read u(n-1); below the PO
        # path delay it reads u(n-2) instead.
        from repro.logic import Circuit, DelayMap, Gate, GateType, PinTiming

        gates = [Gate("y", GateType.NOT, ("u",))]
        circuit = Circuit("comb", ["u"], ["y"], gates)
        delays = DelayMap(circuit, {("y", 0): PinTiming.symmetric(3)})
        result = minimum_cycle_time(circuit, delays)
        assert result.mct_upper_bound == 3

    def test_output_only_equality_can_be_disabled(self):
        from repro.logic import Circuit, DelayMap, Gate, GateType, PinTiming

        gates = [Gate("y", GateType.NOT, ("u",))]
        circuit = Circuit("comb", ["u"], ["y"], gates)
        delays = DelayMap(circuit, {("y", 0): PinTiming.symmetric(3)})
        result = minimum_cycle_time(
            circuit, delays, MctOptions(check_outputs=False, max_age=4)
        )
        # With outputs ignored there is nothing to fail on.
        assert not result.failure_found
