"""The ``service`` workload: a ``repro-mct serve`` daemon under 2 clients.

The daemon runs as a subprocess (``--jobs 2 --max-inflight 1``).  Two
client threads form a closed loop in lockstep rounds: each round sends
one request per client, and the next round starts when both are
answered.  A request is ``POST /jobs``, then ``/stream`` until the job
ends, then ``/result``; its latency runs from the submit to the last
result byte.  Lockstep makes every pass's hit/miss/coalesced counts
exact (see :func:`perfbench.inputs.service_inputs`).

Each pass salts the netlists with a comment line, so its keys are new
to the cache and the pass repeats the same sweeps.  After the daemon
stops, every distinct spec is swept serially in-process: its bound must
equal the daemon's, and its sweep time is the base of
``parallel.overhead_s``.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.mct import minimum_cycle_time
from repro.service.jobs import JobSpec

from perfbench import inputs
from perfbench.measure import (
    Outcome, SETUP_SAMPLES, account_sweeps, engine_layers, sweep_counters,
)
from perfbench.spans import SWEEP, Tracer, aggregate
from perfbench.speed import REFERENCE_PROBE_S

CLIENTS = 2
HTTP_TIMEOUT = 120.0
STATS_KEYS = ("jobs_submitted", "cache_hits", "cache_misses", "coalesced")


class Daemon:
    """One ``repro-mct serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, log_path: str):
        self.log = open(log_path, "ab")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", "2", "--max-inflight", "1"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"daemon did not start (said {line!r})")
            host, port = line.split()[-1].rsplit(":", 1)
            self.host, self.port = host, int(port)
            deadline = time.monotonic() + 60
            while call(self, "GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def call(daemon: Daemon, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=HTTP_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request(daemon: Daemon, body: bytes, tracer: Tracer | None, after, submitted) -> dict:
    """One submit -> stream -> result exchange, timed end to end.

    The submit waits for ``after`` (the previous client's submit, or
    None) and then sets ``submitted``, so a round's submissions reach
    the daemon in a fixed order.
    """
    def traced(name, *args):
        if tracer is None:
            return call(daemon, *args)
        return tracer.wrap(name, call)(daemon, *args)

    out: dict = {"problem": None}
    if after is not None and not after.wait(HTTP_TIMEOUT):
        out.update(problem="the previous submission never finished", latency=0.0)
        submitted.set()
        return out
    start = time.perf_counter()
    try:
        try:
            status, doc = traced("POST /jobs", "POST", "/jobs", body)
        finally:
            submitted.set()
        if status != 200:
            raise RuntimeError(f"submit answered {status}: {doc[:200]!r}")
        job = json.loads(doc)
        out["job"] = job["job"]
        out["kind"] = "hit" if job["cached"] else "coalesced" if job["coalesced"] else "miss"
        status, stream = traced("GET stream", "GET", f"/jobs/{job['job']}/stream")
        last = json.loads(stream.splitlines()[-1]) if status == 200 else {}
        if last.get("event") != "done":
            raise RuntimeError(f"stream answered {status}, last event {last}")
        status, result = traced("GET result", "GET", f"/jobs/{job['job']}/result")
        if status != 200:
            raise RuntimeError(f"result answered {status}: {result[:200]!r}")
        out["bytes"] = result
    except (OSError, http.client.HTTPException, ValueError, KeyError, RuntimeError) as exc:
        out["problem"] = f"{type(exc).__name__}: {exc}"
    out["latency"] = time.perf_counter() - start
    return out


def _stats(daemon: Daemon) -> dict:
    status, doc = call(daemon, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(doc)


class _Client:
    def __init__(self, daemon: Daemon, plan: inputs.ServiceInputs, outcome: Outcome):
        self.daemon = daemon
        self.plan = plan
        self.outcome = outcome
        self.bounds: dict[int, set] = {}  # spec index -> bounds answered
        self.pool = concurrent.futures.ThreadPoolExecutor(CLIENTS)

    def one_pass(self, salt: int, rounds=None, tracer: Tracer | None = None, speed=None):
        """Requests of one pass, its wall time and its /stats deltas.

        With ``speed``, the host's speed is probed after each hit round.
        """
        bodies = [
            json.dumps(spec.body(salt)).encode() for spec in self.plan.specs
        ]
        before = _stats(self.daemon)
        done: list[tuple[int, str, dict]] = []
        cold_bytes: dict[int, bytes] = {}
        wall = 0.0
        for round_ in self.plan.rounds if rounds is None else rounds:
            start = time.perf_counter()
            gates = [threading.Event() for _ in round_]
            futures = [
                self.pool.submit(
                    request, self.daemon, bodies[idx], tracer,
                    gates[k - 1] if k else None, gates[k],
                )
                for k, (idx, _) in enumerate(round_)
            ]
            answers = [f.result() for f in futures]
            wall += time.perf_counter() - start
            if speed is not None and all(kind == "hit" for _, kind in round_):
                # After a hit round the daemon has no worker pool to wind
                # down, so the probe sees only the host.
                speed.probe()
            for (idx, expected), answer in zip(round_, answers):
                done.append((idx, expected, answer))
                if answer["problem"] is None and answer["kind"] == "miss":
                    cold_bytes[idx] = answer["bytes"]
        after = _stats(self.daemon)
        for idx, expected, answer in done:
            self.outcome.attempted += 1
            problem = answer["problem"] or self._check(idx, expected, answer, cold_bytes)
            if problem:
                self.outcome.fail(f"service {self.plan.specs[idx].name} (pass {salt}): {problem}")
        deltas = {k: after[k] - before[k] for k in STATS_KEYS}
        deltas["sweep_seconds"] = after["sweep_seconds"] - before["sweep_seconds"]
        return done, wall, deltas

    def _check(self, idx, expected, answer, cold_bytes) -> str | None:
        if answer["kind"] != expected:
            return f"answered as {answer['kind']}, scheduled as {expected}"
        if expected != "miss" and answer["bytes"] != cold_bytes.get(idx):
            return f"{expected} body differs from the cold body"
        doc = json.loads(answer["bytes"])
        if doc["partial"] or doc["bound"] is None:
            return f"result is partial or has no bound: {doc['bound']}"
        self.bounds.setdefault(idx, set()).add(doc["bound"])
        return None

    def close(self) -> None:
        self.pool.shutdown(wait=True)


def _reference(plan: inputs.ServiceInputs, tracer: Tracer | None = None):
    """Serial in-process sweeps of every distinct spec."""
    sweep = minimum_cycle_time if tracer is None else tracer.wrap(SWEEP, minimum_cycle_time)
    results, seconds = [], []
    for spec in plan.specs:
        job = JobSpec(spec.body(0))
        start = time.perf_counter()
        results.append(sweep(job.circuit, job.delays, job.options))
        seconds.append(time.perf_counter() - start)
    return results, seconds


def run(seed: int, seconds: float, trace: bool, outcome: Outcome, root: str, out_dir: str) -> None:
    log = os.path.join(out_dir, f"daemon-service-{seed}.log")
    daemon = None
    for _ in range(SETUP_SAMPLES):
        if daemon is not None:
            daemon.stop()
        start = time.perf_counter()
        plan = inputs.service_inputs(seed)
        daemon = Daemon(root, log)
        outcome.setup.append(time.perf_counter() - start)
    client = _Client(daemon, plan, outcome)
    try:
        client.one_pass(0, plan.rounds[:1])  # warm-up, untimed
        budget = seconds / 2 if trace else seconds
        first, salt = _passes(client, budget, outcome)
        if trace:
            traced = _traced_passes(client, salt, budget, first, outcome)
    finally:
        client.close()
        daemon.stop()
    results, ref_seconds = _reference(plan)
    _check_bounds(client, results, outcome)
    if not trace:
        return
    tracer = Tracer()
    with tracer.patched():
        again, _ = _reference(plan, tracer)
    outcome.check_repeat("service reference", sweep_counters(results), sweep_counters(again))
    agg = aggregate(tracer.spans)
    names = [rec[1] for rec in tracer.spans]
    counters = {
        **sweep_counters(again),
        "expansion.expand_calls": names.count("TimedExpander.expand"),
        "feasibility.prescreen_calls": names.count("point_sigma_sup_tau"),
    }
    lp_wall = sum(r.lp_stats.wall_seconds for r in again if r.lp_stats)
    outcome.layers = engine_layers(agg, len(again), counters, lp_wall)
    account_sweeps(agg, outcome)
    outcome.layers.update(_service_layers(traced, first, ref_seconds))
    outcome.layers["trace.overhead_per_s"] = (
        outcome.verdicts_per_s(raw=True)
        - outcome.per_pass / statistics.median(traced["walls"])
    )
    outcome.spans = {"client": traced["tracer"].export(), "reference": tracer.export()}


def _passes(client: _Client, budget: float, outcome: Outcome) -> tuple[dict, int]:
    """Untraced timed passes; returns pass 1's counts and the next salt.

    A pass's times are rescaled by the median of the probes taken during
    it; the set-up times by the median over the run.
    """
    first, salt = None, 1
    while first is None or sum(outcome.raw_pass_seconds) < budget:
        mark = len(outcome.speed.times)
        done, wall, deltas = client.one_pass(salt, speed=outcome.speed)
        factor = REFERENCE_PROBE_S / statistics.median(outcome.speed.times[mark:])
        if first is None:
            first = deltas
            # Read after a fixed amount of work: the daemon's cache and
            # job table grow with every pass.
            outcome.peak_rss_mb = client.daemon.peak_rss_mb()
        outcome.check_repeat(f"service pass {salt}", _counts(first), _counts(deltas))
        outcome.raw_pass_seconds.append(wall)
        outcome.pass_seconds.append(wall * factor)
        outcome.per_pass = len(done)
        for _, _, answer in done:
            if answer["problem"] is None:
                outcome.raw_verdict.append(answer["latency"])
                outcome.verdict.append(answer["latency"] * factor)
                (outcome.hit if answer["kind"] == "hit" else outcome.cold).append(
                    answer["latency"] * factor
                )
        salt += 1
    outcome.setup = [t * outcome.speed.factor() for t in outcome.setup]
    return first, salt


def _counts(deltas: dict) -> dict:
    return {f"service.{k}": deltas[k] for k in STATS_KEYS}


def _traced_passes(client: _Client, salt: int, budget: float, first: dict, outcome: Outcome) -> dict:
    """Passes with client spans, plus each job's daemon-side wall time."""
    tracer = Tracer()
    traced = {"tracer": tracer, "requests": 0, "walls": [], "misses": [],
              "sweep_seconds": 0.0, "miss_count": 0}
    while len(traced["walls"]) < 2 or sum(traced["walls"]) < budget:
        done, wall, deltas = client.one_pass(salt, tracer=tracer)
        outcome.check_repeat(f"service traced pass {salt}", _counts(first), _counts(deltas))
        salt += 1
        traced["requests"] += len(done)
        traced["walls"].append(wall)
        traced["sweep_seconds"] += deltas["sweep_seconds"]
        traced["miss_count"] += deltas["cache_misses"]
        status, doc = call(client.daemon, "GET", "/jobs")
        if status != 200:
            raise RuntimeError(f"/jobs answered {status}")
        walls = {j["job"]: j["wall_seconds"] for j in json.loads(doc)["jobs"]}
        for idx, _, answer in done:
            if answer["problem"] is None and answer["kind"] == "miss":
                traced["misses"].append((idx, answer["latency"], walls[answer["job"]]))
    return traced


def _service_layers(traced: dict, first: dict, ref_seconds: list) -> dict:
    agg = aggregate(traced["tracer"].spans)
    requests = traced["requests"]
    misses = traced["misses"]

    def per_request(name: str) -> float:
        return agg.get(name, {}).get("total", 0.0) / requests

    return {
        "service.http_submit_s": per_request("POST /jobs"),
        "service.http_stream_s": per_request("GET stream"),
        "service.http_result_s": per_request("GET result"),
        "service.queue_wait_s": sum(lat - wall for _, lat, wall in misses) / len(misses),
        "parallel.overhead_s": sum(wall - ref_seconds[idx] for idx, _, wall in misses) / len(misses),
        "service.hit_ratio": first["cache_hits"] / first["jobs_submitted"],
        "service.coalesced": first["coalesced"],
        "service.cache_misses": first["cache_misses"],
        "service.sweep_s": traced["sweep_seconds"] / traced["miss_count"],
    }


def _check_bounds(client: _Client, results: list, outcome: Outcome) -> None:
    for idx, result in enumerate(results):
        want = str(result.mct_upper_bound)
        got = client.bounds.get(idx, set())
        if got != {want}:
            outcome.fail(
                f"service {client.plan.specs[idx].name}: daemon bounds {sorted(got)} "
                f"differ from the serial in-process bound {want}"
            )
