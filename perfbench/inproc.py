"""The in-process workloads: ``table`` and ``exact-lp``.

One verdict is one ``analyze_circuit`` row (``table``) or one
``minimum_cycle_time`` call (``exact-lp``), timed on its own.  A pass
analyses every input once.  A run makes one untimed warm-up verdict, then
whole timed passes until the time is up, so every pass's work counters
can be compared with the first pass's.  Latencies are reported as medians
and a fixed percentile, which absorbs the drift of in-process repeats.
"""

from __future__ import annotations

import statistics
import time

from repro.mct import MctOptions, minimum_cycle_time
from repro.report import harness

from perfbench import inputs
from perfbench.measure import Outcome, account_sweeps, engine_layers, sweep_counters
from perfbench.spans import SWEEP, Tracer, aggregate


def make_inputs(workload: str, seed: int) -> list:
    if workload == "table":
        return inputs.table_inputs(seed)
    return inputs.exact_lp_inputs(seed)


def _table_verdict(row: inputs.TableRowInput, analyze) -> str | None:
    result = analyze(
        row.circuit,
        row.delays,
        mct_options=MctOptions(work_budget=row.mct_budget),
        comb_budget=row.comb_budget,
    )
    got = (result.topological, result.floating, result.transition, result.mct)
    want = row.expected()
    if got != want:
        return f"table {row.name}: columns {got} differ from the paper's {want}"
    if result.mct_partial:
        return f"table {row.name}: MCT bound is partial"
    return None


def _exact_verdict(item: inputs.ExactLpInput, sweep) -> str | None:
    options = MctOptions(
        exact_feasibility=True, max_exact_combinations=2**item.n_holds
    )
    result = sweep(item.circuit, item.delays, options)
    if result.mct_upper_bound != inputs.DRIVER_DELAY or result.interrupted:
        return (
            f"exact-lp {item.name}: bound {result.mct_upper_bound} "
            f"(interrupted={result.interrupted}), want {inputs.DRIVER_DELAY}"
        )
    lp = result.lp_stats
    seen = 0 if lp is None else lp.solves + lp.prescreen_skips + lp.bound_prunes
    if seen != 2**item.n_holds:
        # Anything else means the sweep fell back to the relaxed model.
        return f"exact-lp {item.name}: LP examined {seen} of {2**item.n_holds} combinations"
    return None


class _Runner:
    """Runs passes and keeps what the workload's sweeps return."""

    def __init__(self, workload: str, items: list, outcome: Outcome):
        self.workload = workload
        self.items = items
        self.outcome = outcome
        self.results: list = []
        self._original = harness.minimum_cycle_time

    def _capture(self, *args, **kwargs):
        result = self._original(*args, **kwargs)
        self.results.append(result)
        return result

    def _sweep(self, *args, **kwargs):
        result = minimum_cycle_time(*args, **kwargs)
        self.results.append(result)
        return result

    def one_pass(self, tracer: Tracer | None = None, speed=None) -> tuple[list, list, dict, float]:
        """Raw and rescaled latencies, counters and LP solver seconds of a pass.

        With ``speed``, the host's speed is probed after every verdict
        and the verdict rescaled by the probes around it; without, the
        rescaled latencies are the raw ones.
        """
        self.results = []
        raw = []
        if self.workload == "table":
            call = harness.analyze_circuit
            if tracer is not None:
                call = tracer.wrap("analyze_circuit", call)
            verdict = lambda item: _table_verdict(item, call)  # noqa: E731
        else:
            call = self._sweep
            if tracer is not None:
                call = tracer.wrap(SWEEP, call)
            verdict = lambda item: _exact_verdict(item, call)  # noqa: E731
        first_probe = len(speed.times) - 1 if speed else 0
        for item in self.items:
            start = time.perf_counter()
            problem = verdict(item)
            raw.append(time.perf_counter() - start)
            if speed is not None:
                speed.probe()
            self.outcome.attempted += 1
            if problem:
                self.outcome.fail(problem)
        if speed is None:
            scaled = list(raw)
        else:
            scaled = [
                t * speed.factor_around(first_probe + j) for j, t in enumerate(raw)
            ]
        lp_wall = sum(
            r.lp_stats.wall_seconds for r in self.results if r.lp_stats is not None
        )
        return raw, scaled, sweep_counters(self.results), lp_wall

    def passes(self, seconds: float, min_passes: int, first: dict | None = None,
               tracer=None, speed=None) -> dict:
        """Whole passes until ``seconds`` of verdict wall time have passed.

        Every pass's counters must equal ``first`` (or, when that is
        None, the first pass's).
        """
        log = {"raw": [], "scaled": [], "raw_passes": [], "passes": [],
               "lp_wall": 0.0, "span_counts": [], "first": first}
        while len(log["passes"]) < min_passes or sum(log["raw_passes"]) < seconds:
            mark = len(tracer.spans) if tracer else 0
            raw, scaled, counters, lp_wall = self.one_pass(tracer, speed)
            log["raw"] += raw
            log["scaled"] += scaled
            log["raw_passes"].append(sum(raw))
            log["passes"].append(sum(scaled))
            log["lp_wall"] += lp_wall
            label = f"{self.workload} {'traced ' if tracer else ''}pass {len(log['passes'])}"
            log["first"] = log["first"] or counters
            self.outcome.check_repeat(label, log["first"], counters)
            if tracer is not None:
                names = [rec[1] for rec in tracer.spans[mark:]]
                log["span_counts"].append({
                    "expansion.expand_calls": names.count("TimedExpander.expand"),
                    "feasibility.prescreen_calls": names.count("point_sigma_sup_tau"),
                })
                self.outcome.check_repeat(label, log["span_counts"][0], log["span_counts"][-1])
        return log


def run(workload: str, seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    items = make_inputs(workload, seed)
    # Warm-up, untimed: the first verdict pays for lazy imports.
    _Runner(workload, items[:1], outcome).one_pass()
    runner = _Runner(workload, items, outcome)
    harness.minimum_cycle_time = runner._capture
    try:
        budget = seconds / 2 if trace else seconds
        log = runner.passes(budget, 1, speed=outcome.speed)
        outcome.verdict = outcome.cold = outcome.hit = log["scaled"]
        outcome.raw_verdict = log["raw"]
        outcome.pass_seconds = log["passes"]
        outcome.raw_pass_seconds = log["raw_passes"]
        outcome.per_pass = len(items)
        if trace:
            tracer = Tracer()
            with tracer.patched():
                traced = runner.passes(budget, 2, log["first"], tracer)
            agg = aggregate(tracer.spans)
            counters = {**log["first"], **traced["span_counts"][0]}
            outcome.layers = engine_layers(
                agg, len(traced["raw"]), counters, traced["lp_wall"]
            )
            outcome.layers["trace.overhead_per_s"] = (
                outcome.verdicts_per_s(raw=True)
                - len(items) / statistics.median(traced["raw_passes"])
            )
            account_sweeps(agg, outcome)
            outcome.spans = tracer.export()
    finally:
        harness.minimum_cycle_time = runner._original
