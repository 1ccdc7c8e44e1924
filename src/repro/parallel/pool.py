"""Resource plumbing shared by the parallel executors.

Workers are separate processes: the parent's :class:`Deadline` and
:class:`Budget` objects cannot simply be referenced, they must be
reconstructed on the far side.  This module defines the (picklable)
wire forms and the validation of the ``--jobs`` knob.
"""

from __future__ import annotations

from repro.errors import Budget, OptionsError
from repro.resilience.deadline import Deadline

#: Wire form of a deadline: ``(seconds, monotonic_start)``.
DeadlinePayload = tuple[float, float]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a worker count ≥ 1.

    ``None`` and 0 mean "serial" (1); negative counts raise
    :class:`~repro.errors.OptionsError` — there is no "all cores"
    convention here, an explicit count keeps runs reproducible across
    machines.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise OptionsError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


def deadline_payload(deadline: Deadline | None) -> DeadlinePayload | None:
    """The picklable wire form of a deadline (or ``None``).

    The *absolute* expiry travels: ``start`` is an offset on the
    system-wide CLOCK_MONOTONIC, so a worker restoring the payload
    expires at the same instant the parent does, however long the pool
    took to spin up.
    """
    if deadline is None:
        return None
    return (deadline.seconds, deadline.start)


def restore_deadline(payload: DeadlinePayload | None) -> Deadline | None:
    """Rebuild a worker-side :class:`Deadline` from its wire form."""
    if payload is None:
        return None
    seconds, start = payload
    return Deadline(seconds, start=start)


def worker_budget_limit(budget: Budget | None, jobs: int) -> int | None:
    """Per-worker share of the parent's remaining work budget.

    Sized with :meth:`Budget.child` so the split follows the same
    policy as every other sub-phase (never below 1 unit).  Only the
    resulting *limit* crosses the process boundary: worker charges
    cannot flow back, so the parent-side child object is discarded
    rather than kept half-connected.
    """
    if budget is None or budget.limit is None:
        return None
    jobs = max(1, int(jobs))
    child = budget.child(1.0 / jobs, resource=f"{budget.resource}/worker")
    child._parent = None  # detach: charges happen in another process
    return child.limit
