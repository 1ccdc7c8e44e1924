"""The parallel subsystem: resource plumbing, determinism, resilience.

The contract under test is the ISSUE's acceptance criterion: ``jobs >
1`` must be a pure resource knob — same bound, same candidate
sequence, same table rows, interchangeable checkpoints — with the only
observable differences being wall-clock and per-worker telemetry.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.benchgen import paper_example2
from repro.benchgen.suite import suite_cases
from repro.errors import Budget
from repro.mct import MctOptions, minimum_cycle_time
from repro.parallel import (
    deadline_payload,
    resolve_jobs,
    restore_deadline,
    run_suite_sharded,
    worker_budget_limit,
)
from repro.resilience import Deadline


def candidate_keys(result):
    """The deterministic fields of the candidate sequence.

    ``elapsed_seconds``/``ite_calls`` are measurements (each worker
    warms its own BDD caches) and legitimately differ run to run.
    """
    return [(r.tau, r.status, r.m, r.rung) for r in result.candidates]


def assert_equivalent(serial, parallel):
    assert parallel.mct_upper_bound == serial.mct_upper_bound
    assert candidate_keys(parallel) == candidate_keys(serial)
    assert parallel.failure_found == serial.failure_found
    assert parallel.failing_window == serial.failing_window
    assert parallel.failing_sigmas == serial.failing_sigmas
    assert parallel.failing_roots == serial.failing_roots
    assert parallel.exhausted == serial.exhausted
    assert parallel.notes == serial.notes


# ----------------------------------------------------------------------
# Resource plumbing (repro.parallel.pool)
# ----------------------------------------------------------------------
class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_deadline_payload_roundtrip(self):
        deadline = Deadline(5.0)
        restored = restore_deadline(deadline_payload(deadline))
        # The absolute expiry survives: same seconds, same monotonic
        # start, so both sides expire at the same instant.
        assert restored.seconds == deadline.seconds
        assert restored.start == deadline.start
        assert not restored.expired()
        assert restore_deadline(deadline_payload(None)) is None

    def test_expired_deadline_stays_expired_after_transfer(self):
        deadline = Deadline(0.0, start=-1000.0)
        restored = restore_deadline(deadline_payload(deadline))
        assert restored.expired()

    def test_worker_budget_limit(self):
        assert worker_budget_limit(None, 4) is None
        assert worker_budget_limit(Budget(limit=None), 4) is None
        budget = Budget(limit=1000, resource="mct work")
        assert worker_budget_limit(budget, 4) == 250
        # Splitting must never charge or attach to the parent.
        assert budget.used == 0
        # Tiny budgets still give every worker at least one unit.
        assert worker_budget_limit(Budget(limit=2), 8) == 1


# ----------------------------------------------------------------------
# Parallel sweep determinism (the tentpole's acceptance criterion)
# ----------------------------------------------------------------------
class TestParallelSweep:
    def test_example2_fixed_delays(self):
        circuit, delays = paper_example2()
        serial = minimum_cycle_time(circuit, delays)
        parallel = minimum_cycle_time(circuit, delays, jobs=2)
        assert serial.mct_upper_bound == Fraction(5, 2)  # published value
        assert_equivalent(serial, parallel)

    def test_example2_interval_delays(self):
        circuit, delays = paper_example2()
        delays = delays.widen(Fraction(9, 10))
        serial = minimum_cycle_time(circuit, delays)
        parallel = minimum_cycle_time(circuit, delays, jobs=3)
        assert_equivalent(serial, parallel)

    def test_example2_exact_feasibility(self):
        circuit, delays = paper_example2()
        delays = delays.widen(Fraction(9, 10))
        options = MctOptions(exact_feasibility=True)
        serial = minimum_cycle_time(circuit, delays, options)
        parallel = minimum_cycle_time(circuit, delays, options, jobs=2)
        assert_equivalent(serial, parallel)

    @pytest.mark.parametrize(
        "case", suite_cases(), ids=lambda c: c.name
    )
    def test_every_suite_case(self, case):
        from repro.benchgen.suite import build_case

        circuit, delays = build_case(case)
        delays = delays.widen(Fraction(9, 10))
        options = MctOptions(work_budget=case.mct_budget)
        serial = minimum_cycle_time(circuit, delays, options)
        parallel = minimum_cycle_time(circuit, delays, options, jobs=2)
        assert parallel.mct_upper_bound == serial.mct_upper_bound
        assert candidate_keys(parallel) == candidate_keys(serial)
        assert parallel.failure_found == serial.failure_found

    def test_ladder_falls_back_to_serial(self):
        # The degradation ladder is stateful across windows, so jobs
        # must be ignored (and the result identical) when one is set.
        circuit, delays = paper_example2()
        options = MctOptions(degradation_ladder=("relaxed",))
        serial = minimum_cycle_time(circuit, delays, options)
        parallel = minimum_cycle_time(circuit, delays, options, jobs=4)
        assert_equivalent(serial, parallel)
        assert parallel.decisions_run == serial.decisions_run

    def test_parallel_telemetry_present(self):
        circuit, delays = paper_example2()
        parallel = minimum_cycle_time(circuit, delays, jobs=2)
        assert parallel.decisions_run > 0
        assert parallel.bdd_stats is not None
        assert parallel.bdd_stats.ite_calls > 0


# ----------------------------------------------------------------------
# Parallel resilience: budgets, deadlines, checkpoints
# ----------------------------------------------------------------------
class TestParallelResilience:
    def test_small_budget_interrupts_with_checkpoint(self):
        circuit, delays = paper_example2()
        # Enough to discretize, far too little to decide any window
        # (the serial sweep needs ~1500 units for the first decision).
        options = MctOptions(work_budget=120)
        result = minimum_cycle_time(circuit, delays, options, jobs=2)
        assert result.interrupted
        assert result.budget_exceeded
        assert result.checkpoint is not None

    def test_parallel_checkpoint_resumes_serially(self):
        circuit, delays = paper_example2()
        partial = minimum_cycle_time(
            circuit, delays, MctOptions(work_budget=120), jobs=2
        )
        assert partial.checkpoint is not None
        # jobs/work_budget are resource knobs, not fingerprinted: a
        # parallel checkpoint resumes in a serial unlimited run.
        resumed = minimum_cycle_time(
            circuit, delays, resume_from=partial.checkpoint
        )
        baseline = minimum_cycle_time(circuit, delays)
        assert resumed.mct_upper_bound == baseline.mct_upper_bound
        assert candidate_keys(resumed) == candidate_keys(baseline)

    def test_expired_deadline_interrupts(self):
        circuit, delays = paper_example2()
        options = MctOptions(time_limit=0.0)
        result = minimum_cycle_time(circuit, delays, options, jobs=2)
        assert result.deadline_exceeded
        assert result.interrupted


# ----------------------------------------------------------------------
# Sharded suite runner
# ----------------------------------------------------------------------
class TestSuiteSharding:
    @staticmethod
    def row_key(row):
        return (
            row.name,
            row.flags,
            row.topological,
            row.floating,
            row.transition,
            row.mct,
            row.mct_partial,
            row.mct_rung,
        )

    def test_rows_match_serial_order_and_values(self):
        """The full suite plus s27, serial vs two workers: identical
        rows, every row measured by exactly one worker, and each
        worker's counters carrying the full ``BddStats`` key set."""
        from repro.bdd import BddStats
        from repro.report.harness import run_suite

        serial = run_suite(include_s27=True)
        rows, workers = run_suite_sharded(include_s27=True, jobs=2)
        assert len(rows) == len(suite_cases()) + 1
        assert [self.row_key(r) for r in rows] == [
            self.row_key(r) for r in serial
        ]
        assert sum(w.tasks for w in workers) == len(rows)
        assert all(w.wall_seconds >= 0 for w in workers)
        bdd_keys = set(BddStats().as_dict())
        for worker in workers:
            assert set(worker.as_dict()["bdd"]) == bdd_keys

    def test_serial_fallback_reports_no_workers(self):
        cases = [c for c in suite_cases() if c.name == "g444"]
        rows, workers = run_suite_sharded(
            cases=cases, include_s27=False, jobs=1
        )
        assert len(rows) == 1
        assert workers == []

    def test_run_suite_jobs_parameter(self):
        from repro.report.harness import run_suite

        cases = [c for c in suite_cases() if c.name == "g444"]
        serial = run_suite(cases=cases, include_s27=False)
        parallel = run_suite(cases=cases, include_s27=False, jobs=2)
        assert [self.row_key(r) for r in parallel] == [
            self.row_key(r) for r in serial
        ]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliJobs:
    @pytest.fixture()
    def bench(self, tmp_path):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        return path

    def test_analyze_jobs_matches_serial_bound(self, bench, capsys):
        from repro.cli import main

        assert main(["analyze", str(bench), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "minimum cycle time: 11.5" in out

    def test_analyze_rejects_negative_jobs(self, bench, capsys):
        from repro.cli import main

        assert main(["analyze", str(bench), "--jobs", "-1"]) == 1
        assert "--jobs must be non-negative" in capsys.readouterr().err

    def test_table_no_cpu_parallel_identical(self, capsys):
        from repro.cli import main

        argv = ["table", "--rows", "g444", "--no-s27", "--no-cpu"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "0.00" not in serial_out  # CPU columns really dashed

    def test_fault_injection_forces_serial(self, bench, capsys):
        from repro.cli import main

        rc = main([
            "analyze", str(bench),
            "--fail-budget-at", "300", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 3  # the fault fired in-process: partial result
        assert "fault injection forces a serial sweep" in out


# ----------------------------------------------------------------------
# Exit-code contract regression (satellite: partial result -> 3)
# ----------------------------------------------------------------------
class TestAnalyzeExitCodes:
    @pytest.fixture()
    def bench(self, tmp_path):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        return path

    def test_complete_analysis_exits_zero(self, bench, capsys):
        from repro.cli import main

        assert main(["analyze", str(bench)]) == 0

    def test_partial_analysis_exits_three(self, bench, capsys):
        from repro.cli import main

        rc = main(["analyze", str(bench), "--fail-budget-at", "300"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "work budget exhausted" in out

    def test_fault_at_zero_never_fires(self, bench, capsys):
        from repro.cli import main

        # 0 used to falsely gate the whole fault setup (truthiness bug);
        # now it arms the counters, never fires, and the run completes.
        rc = main(["analyze", str(bench), "--fail-budget-at", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "work budget exhausted" not in out

    def test_negative_fault_index_rejected(self, bench, capsys):
        from repro.cli import main

        rc = main(["analyze", str(bench), "--fail-deadline-at", "-5"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--fail-deadline-at must be non-negative" in err
