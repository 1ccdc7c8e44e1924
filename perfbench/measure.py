"""What a run records, and how its samples become metrics.

Order statistics, per-pass work counters, the set-up probe, the mapping
from spans to per-layer metrics and the check that a sweep's parts add
up to the sweep.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import select
import statistics
import subprocess
import sys
import time

from perfbench.spans import SWEEP

#: Tail percentile per workload: at least 10 samples lie beyond it in a
#: 25-second run at the commit that introduced the benchmark, and it falls
#: inside one input's samples rather than between two inputs of different
#: cost.  It is fixed: a percentile that followed the sample count would
#: make a faster commit report a higher percentile of the same samples.
TAIL_PERCENTILE = {"table": 75, "exact-lp": 75, "service": 90}

#: The parts of the traced sweeps must add up to the sweeps within this share.
ACCOUNTING_TOLERANCE = 0.01

SETUP_SAMPLES = 5

#: Counters a pass must repeat exactly (``bdd.sift_runs`` and the
#: ratios are left out; see README.md).
BDD_COUNTERS = (
    "nodes_created", "ite_calls", "cache_lookups", "cache_hits",
    "cache_evictions", "not_cache_evictions", "gc_runs", "nodes_reclaimed",
)
LP_COUNTERS = (
    "solves", "prescreen_skips", "bound_prunes", "skeleton_hits",
    "shard_dispatches",
)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 < pct <= 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclasses.dataclass
class Summary:
    """Median and fixed-percentile tail of one latency population."""

    p50: float
    tail: float
    pct: int
    n: int
    beyond: int

    @classmethod
    def of(cls, values: list[float], pct: int) -> "Summary":
        tail = percentile(values, pct)
        return cls(
            statistics.median(values), tail, pct, len(values),
            sum(v > tail for v in values),
        )

    def describe(self) -> str:
        note = "" if self.beyond >= 10 else " (fewer than 10 beyond)"
        return (
            f"p50 {self.p50:.4f} s, p{self.pct} {self.tail:.4f} s "
            f"over {self.n} samples, {self.beyond} beyond{note}"
        )


def sweep_counters(results) -> dict:
    """Work counters of a pass's ``MctResult``s, summed (peak: max)."""
    out = {"decision.decisions": 0, "engine.candidates": 0, "bdd.peak_nodes": 0}
    for key in BDD_COUNTERS:
        out[f"bdd.{key}"] = 0
    for key in LP_COUNTERS:
        out[f"lp.{key}"] = 0
    for result in results:
        out["decision.decisions"] += result.decisions_run
        out["engine.candidates"] += len(result.candidates)
        if result.bdd_stats is not None:
            bdd = result.bdd_stats.as_dict()
            out["bdd.peak_nodes"] = max(out["bdd.peak_nodes"], bdd["peak_nodes"])
            for key in BDD_COUNTERS:
                out[f"bdd.{key}"] += bdd[key]
        if result.lp_stats is not None:
            lp = result.lp_stats.as_dict()
            for key in LP_COUNTERS:
                out[f"lp.{key}"] += lp[key]
    return out


def counter_mismatch(first: dict, other: dict) -> str | None:
    """A description of the counters that differ, or None."""
    diff = sorted(
        k for k in set(first) | set(other) if first.get(k) != other.get(k)
    )
    if not diff:
        return None
    return ", ".join(f"{k}: {first.get(k)} vs {other.get(k)}" for k in diff)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_setup(root, workload: str, seed: int, speed) -> list[float]:
    """Times from spawning a fresh runner until its inputs are ready.

    Each probe imports what the workload imports and generates its
    inputs, as the measuring process did before its first timed call.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
        speed.probe()
    return [t * speed.factor() for t in samples]


@dataclasses.dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    setup: list = dataclasses.field(default_factory=list)
    verdict: list = dataclasses.field(default_factory=list)
    cold: list = dataclasses.field(default_factory=list)
    hit: list = dataclasses.field(default_factory=list)
    #: Seconds of each timed pass, and the verdicts in a pass.
    pass_seconds: list = dataclasses.field(default_factory=list)
    per_pass: int = 0
    #: ``setup``, ``verdict``, ``cold``, ``hit`` and ``pass_seconds`` are
    #: rescaled to the reference speed; these are the wall times.
    raw_verdict: list = dataclasses.field(default_factory=list)
    raw_pass_seconds: list = dataclasses.field(default_factory=list)
    speed: object = None  # a perfbench.speed.SpeedProbe
    peak_rss_mb: float = 0.0
    layers: dict = dataclasses.field(default_factory=dict)
    findings: list = dataclasses.field(default_factory=list)
    spans: list | dict | None = None

    def verdicts_per_s(self, raw: bool = False) -> float:
        """Verdicts per second of the median timed pass."""
        seconds = self.raw_pass_seconds if raw else self.pass_seconds
        return self.per_pass / statistics.median(seconds)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_repeat(self, label: str, first: dict, other: dict) -> None:
        mismatch = counter_mismatch(first, other)
        if mismatch:
            self.fail(f"{label}: counters did not repeat: {mismatch}")


def engine_layers(agg: dict, verdicts: int, counters: dict, lp_wall: float) -> dict:
    """Per-layer metrics of traced sweeps.

    Times are seconds per verdict, averaged over the traced verdicts;
    counts are per pass (they repeat exactly from pass to pass).
    """
    def per(name: str, key: str = "total") -> float:
        return agg.get(name, {}).get(key, 0.0) / verdicts

    def in_sweep(name: str) -> float:
        return agg.get(name, {}).get("in_sweep_self", 0.0)

    sweep = agg.get(SWEEP, {}).get("total", 0.0)
    combos = sum(
        counters[f"lp.{k}"] for k in ("solves", "prescreen_skips", "bound_prunes")
    )
    lookups = counters["bdd.cache_lookups"]
    return {
        "delay.topological_s": per("longest_topological_delay"),
        "delay.floating_s": per("floating_delay"),
        "delay.transition_s": per("transition_delay"),
        "discretize.build_s": per("build_discretized_machine"),
        "expansion.expand_s": per("TimedExpander.expand"),
        "expansion.expand_calls": counters["expansion.expand_calls"],
        "expansion.collect_s": per("collect_leaf_instances"),
        "expansion.sweep_share": in_sweep("TimedExpander.expand") / sweep,
        "decision.decide_s": per("DecisionContext.decide"),
        "decision.self_s": per("DecisionContext.decide", "self"),
        "decision.decisions": counters["decision.decisions"],
        "bdd.ite_calls": counters["bdd.ite_calls"],
        "bdd.nodes_created": counters["bdd.nodes_created"],
        "bdd.peak_nodes": counters["bdd.peak_nodes"],
        "bdd.cache_hit_rate": counters["bdd.cache_hits"] / lookups if lookups else 0.0,
        "feasibility.sigma_sup_s": per("sigma_sup_tau"),
        "feasibility.prescreen_s": per("point_sigma_sup_tau"),
        "feasibility.prescreen_calls": counters["feasibility.prescreen_calls"],
        "lp.sup_s": per("ExactFeasibility.sup_tau_options"),
        "lp.solver_s": lp_wall / verdicts,
        "lp.solves": counters["lp.solves"],
        "lp.bound_prunes": counters["lp.bound_prunes"],
        "lp.prescreen_skips": counters["lp.prescreen_skips"],
        "lp.prune_ratio": (
            (counters["lp.prescreen_skips"] + counters["lp.bound_prunes"]) / combos
            if combos else 0.0
        ),
        "lp.sweep_share": (
            agg.get("ExactFeasibility.sup_tau_options", {}).get("total", 0.0) / sweep
        ),
        "engine.sweep_s": per(SWEEP),
        "engine.self_s": per(SWEEP, "self"),
        "engine.candidates": counters["engine.candidates"],
    }


#: The parts a sweep's time splits into: (span name, which time).
SWEEP_PARTS = (
    ("build_discretized_machine", "in_sweep"),
    ("DecisionContext.decide", "in_sweep_self"),
    ("TimedExpander.expand", "in_sweep"),
    ("sigma_sup_tau", "in_sweep"),
    ("ExactFeasibility.sup_tau_options", "in_sweep"),
    (SWEEP, "in_sweep_self"),
)


def account_sweeps(agg: dict, outcome: Outcome) -> None:
    """Check that the parts of the sweeps add up to the sweeps.

    Records each part's share, with its base, as a finding.
    """
    sweep = agg[SWEEP]["total"]
    parts = {
        f"{name} ({'self' if key.endswith('self') else 'total'})":
            agg.get(name, {}).get(key, 0.0)
        for name, key in SWEEP_PARTS
    }
    gap = abs(sum(parts.values()) - sweep) / sweep
    line = (
        f"sweep parts sum to {sum(parts.values()):.4f} s of {sweep:.4f} s "
        f"over {agg[SWEEP]['count']} sweeps: gap {gap:.3%}, "
        f"tolerance {ACCOUNTING_TOLERANCE:.0%}"
    )
    outcome.findings.append(line)
    if gap > ACCOUNTING_TOLERANCE:
        outcome.fail(line)
    outcome.findings.append("share of sweep time: " + ", ".join(
        f"{name} {secs / sweep:.1%}"
        for name, secs in sorted(parts.items(), key=lambda kv: -kv[1])
    ))
