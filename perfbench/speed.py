"""The speed probe: a helper process that times a fixed memory-bound loop.

The host's speed drifts by up to a third within seconds (other tenants
compete for its caches and memory bandwidth), so end-to-end times are
rescaled to a reference speed by probes taken between them.  The loop
looks up random keys in a dict too big for the caches, which tracks how
this program slows down far better than a loop of arithmetic.  It runs
in its own process so that its 50 MB table stays out of the measured
process's peak memory.

Run as a script, it answers each line on standard input with the loop's
time in seconds, and exits at end of input.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

TABLE_BITS = 18
LOOKUPS = 15_000
#: The probe's time on the reference host (the 2-CPU container the
#: benchmark was introduced on).
REFERENCE_PROBE_S = 0.009
#: Probes on each side of a sample that set its factor.
WINDOW = 3


def _serve() -> None:
    rng = random.Random(1)
    table = {(i, i ^ 0x5A5A): i for i in range(1 << TABLE_BITS)}
    keys = list(table)
    rng.shuffle(keys)
    keys = keys[:LOOKUPS]
    print("ready", flush=True)
    for _ in sys.stdin:
        best = float("inf")
        for _ in range(2):  # the faster of two skips an interrupt
            start = time.perf_counter()
            acc = 0
            for key in keys:
                acc += table[key]
            best = min(best, time.perf_counter() - start)
        print(best, flush=True)


class SpeedProbe:
    """Probes the host's speed between timed samples.

    :meth:`factor_around` rescales one sample by the probes around it;
    :meth:`factor` rescales a whole run at once.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed probe did not start")
        self.times: list[float] = []
        self.probe()

    def probe(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.times.append(float(self._proc.stdout.readline()))

    def factor_around(self, before: int) -> float:
        """The factor for a sample taken between probes ``before`` and
        ``before + 1``: reference / the median of the probes within
        ``WINDOW`` of it, which damps one probe's noise but follows the
        drift from second to second."""
        window = self.times[max(0, before - WINDOW + 1):before + WINDOW + 1]
        return REFERENCE_PROBE_S / statistics.median(window)

    def factor(self) -> float:
        """Reference / the median probe time so far."""
        return REFERENCE_PROBE_S / statistics.median(self.times)

    def describe(self) -> str:
        return (
            f"median speed factor {self.factor():.4f} from {len(self.times)} probes "
            f"({min(self.times) * 1000:.1f}-{max(self.times) * 1000:.1f} ms, "
            f"reference {REFERENCE_PROBE_S * 1000:.1f} ms)"
        )

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    _serve()
