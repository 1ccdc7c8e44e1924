"""The repository benchmark: one workload per run, checked and timed.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  The last line of standard
output is the JSON result; the lines before it are a readable report.
Details (samples, and the spans of a traced run) go to ``.bench_out/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table", "exact-lp", "service")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    from perfbench import inproc, measure
    from perfbench.speed import SpeedProbe

    if args.setup_probe:
        inproc.make_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    outcome = measure.Outcome(speed=SpeedProbe())
    try:
        if args.workload == "service":
            from perfbench import service

            service.run(args.seed, args.seconds, bool(args.trace), outcome, ROOT, out_dir)
        else:
            if not args.trace:
                outcome.setup = measure.probe_setup(ROOT, args.workload, args.seed, outcome.speed)
            inproc.run(args.workload, args.seed, args.seconds, bool(args.trace), outcome)
            outcome.peak_rss_mb = measure.own_peak_rss_mb()
    finally:
        outcome.speed.close()

    if args.trace:
        wanted = spec["per_layer"]
        values = {**{m["name"]: 0 for m in wanted}, **outcome.layers}
    else:
        wanted = spec["end_to_end"]
        values = _end_to_end(args.workload, outcome)
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    _report(args, outcome, metrics)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "problems": outcome.problems, "findings": outcome.findings,
        "setup": outcome.setup, "verdict": outcome.verdict,
        "cold": outcome.cold, "hit": outcome.hit, "metrics": metrics,
    }
    if outcome.spans is not None:
        detail["spans"] = outcome.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(detail, handle)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def _end_to_end(workload: str, outcome) -> dict:
    from perfbench.measure import TAIL_PERCENTILE, Summary

    pct = TAIL_PERCENTILE[workload]
    verdict = Summary.of(outcome.verdict, pct)
    cold = Summary.of(outcome.cold, pct)
    hit = Summary.of(outcome.hit, pct)
    raw = Summary.of(outcome.raw_verdict, pct)
    outcome.findings += [
        f"verdict: {verdict.describe()}",
        f"cold: {cold.describe()}",
        f"hit: {hit.describe()}",
        f"unscaled verdict: {raw.describe()}; "
        f"{outcome.verdicts_per_s(raw=True):.4f} verdicts/s",
        outcome.speed.describe(),
    ]
    return {
        "setup_s": statistics.median(outcome.setup),
        "verdict_p50_s": verdict.p50,
        "verdict_tail_s": verdict.tail,
        "verdicts_per_s": outcome.verdicts_per_s(),
        "cold_p50_s": cold.p50,
        "cold_tail_s": cold.tail,
        "hit_p50_s": hit.p50,
        "hit_tail_s": hit.tail,
        "ok_ratio": 1 - outcome.failed / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def _report(args, outcome, metrics) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    failed_ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"  checks: {outcome.attempted} attempted, {outcome.failed} failed "
          f"(failed_ratio {failed_ratio:.4f})")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    for line in outcome.findings:
        print(f"  finding: {line}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"elapsed {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
