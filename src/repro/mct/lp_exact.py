"""The paper's gate-coupled linear programs (Sec. 7, exact form).

The relaxed model of :mod:`repro.mct.feasibility` treats each flattened
path delay as an independent interval.  The paper's LP is finer: a path
delay is the *sum of the delays of the gates on the path*, and paths
that share gates share variables, so some relaxed-feasible failing
combinations are actually unrealizable.  This module builds and solves
that program:

    τ(σ) = max τ
           τ(a_p - 1) + ε ≤ Σ_{pin ∈ p} d_pin (+ d_ff + τ_s) ≤ τ·a_p
           d_min ≤ d_pin ≤ d_max            for every pin variable

with one constraint pair per *concrete path* ``p`` (a timed leaf may
cover several paths; σ assigns them all the same age, exactly as the
flattened TBF does).  Solved with scipy's HiGHS; exponential path
enumeration is budget-capped, so this is an opt-in refinement for
small circuits (``MctOptions(exact_feasibility=True)``).

``sup_tau_options`` — the max over a cartesian product of age options —
is a branch-and-bound search rather than a blind loop:

* **interval prescreen**: each σ is first checked against the relaxed
  per-leaf model.  A relaxed-infeasible σ cannot be LP-feasible (the
  LP's variable bounds confine every path total to its leaf interval),
  so its LP is skipped outright.  For a single-age σ every leaf's τ-set
  is one half-open range, so the relaxed τ-set is ``[max lo, min hi)``
  — separable over the leaves.  The whole product is therefore scored
  at once: each (leaf, age) range is computed once, every endpoint is
  replaced by its rank among the distinct endpoints (an exact order
  embedding, so no float ever enters), and a broadcast max/min over the
  multi-option leaves gives every σ's feasibility and relaxed supremum.
  Survivors are materialized lazily, in visiting order, as the loop
  below reaches them.
* **bound pruning**: surviving σ's are visited in descending order of
  their relaxed supremum.  Because the exact τ(σ) never exceeds the
  relaxed one, the first time the next σ's relaxed supremum cannot beat
  the best exact value already found, *no* remaining σ can, and the
  rest of the list is discarded in one step.  Pruning never changes
  the returned maximum — only how much work finds it.
* **sharded solving**: an optional ``shard_dispatch`` callback hands
  the ordered survivor list to :mod:`repro.parallel` in deterministic
  shards with a max-merge (see
  :class:`repro.parallel.windows.LpShardRunner`).

Work accounting lives in :class:`repro.mct.lp_stats.LpStats`; every
``sup_tau_options`` call preserves the identity ``solves +
prescreen_skips + bound_prunes == enumerated combinations``.  A
"solve" is one σ's LP — its ε-strict feasibility phase plus the ε = 0
supremum phase count as a single unit of charged work.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from repro.errors import AnalysisError
from repro.logic.delays import Interval
from repro.mct.discretize import DiscretizedMachine, TimedLeaf
from repro.mct.feasibility import TauRange, age_tau_range, point_sigma_sup_tau
from repro.mct.lp_stats import LpStats
from repro.timed.paths import TimedPath, enumerate_paths

#: Strictness slack for the τ(a-1) < k constraints.  Must sit above the
#: LP solver's feasibility tolerance (HiGHS defaults to 1e-7) or strict
#: inequalities silently degrade to non-strict ones.
EPSILON = 1e-6

#: Below this many surviving combinations a shard dispatch costs more
#: than it saves; the branch-and-bound loop then solves serially even
#: when a dispatcher is offered.
SHARD_MIN_SURVIVORS = 8

#: Sentinel: the caller did not precompute the relaxed supremum.
_UNSET = object()


def _survivor_order(entry):
    """Sort key: descending relaxed supremum, then the combo tuple.

    An unbounded relaxed supremum (``None``) sorts first — nothing can
    dominate it — and the age tuple breaks ties so the visiting order
    is a pure function of the survivor set.
    """
    relaxed, combo = entry
    if relaxed is None:
        return (0, 0, combo)
    return (1, -relaxed, combo)


class _RankedSurvivors(Sequence):
    """The prescreen's survivors in :func:`_survivor_order`, built lazily.

    Entry ``i`` is the ``(relaxed, combo)`` pair of the i-th σ to visit.
    The bound prune usually stops the loop after a handful of entries,
    so a pair is assembled only when it is indexed: ``template`` holds
    the ages of the single-option leaves, and each multi-option leaf
    ``(position, ages)`` reads its option index from its column.
    ``sups`` are ranks into ``values``; ``len(values)`` is the rank of
    an unbounded supremum.
    """

    def __init__(self, template, axes, columns, sups, values):
        self._template = template
        self._axes = axes
        self._columns = columns
        self._sups = sups
        self._values = values

    def __len__(self) -> int:
        return len(self._sups)

    def __getitem__(self, idx: int) -> tuple[Fraction | None, tuple[int, ...]]:
        if not 0 <= idx < len(self._sups):
            raise IndexError(idx)
        combo = list(self._template)
        for (pos, ages), column in zip(self._axes, self._columns):
            combo[pos] = ages[column[idx]]
        rank = int(self._sups[idx])
        relaxed = self._values[rank] if rank < len(self._values) else None
        return (relaxed, tuple(combo))


class ExactFeasibility:
    """Path-coupled feasibility/τ(σ) oracle for one discretized machine.

    Enumerate the machine's paths once; then answer per-σ queries.  The
    constraint *skeleton* — one coefficient row per (path, age) pair —
    is built once and cached, so each σ's program is assembled by row
    selection instead of re-walking the paths.
    """

    def __init__(
        self,
        machine: DiscretizedMachine,
        max_paths: int = 10_000,
        stats: LpStats | None = None,
    ):
        self.machine = machine
        self.max_paths = max_paths
        self.stats = stats if stats is not None else LpStats()
        circuit = machine.circuit
        delays = machine.delays
        if delays.has_phases:
            raise AnalysisError(
                "the gate-coupled LP does not model clock phases yet; "
                "use the relaxed feasibility model"
            )
        setup = Interval.point(machine.setup)
        all_paths: list[tuple[TimedLeaf, TimedPath]] = []
        for latch in circuit.latches.values():
            for path in enumerate_paths(
                circuit, delays, latch.data, extra=setup, max_paths=max_paths
            ):
                all_paths.append((self._fold(path), path))
        for po in circuit.outputs:
            for path in enumerate_paths(
                circuit, delays, po, max_paths=max_paths
            ):
                all_paths.append((self._fold(path), path))
        self._paths = all_paths
        # Variable index assignment: pin variables + latch variables.
        self._var_index: dict[tuple, int] = {}
        self._bounds: list[tuple[float, float]] = []
        for _, path in all_paths:
            for edge in path.edges:
                self._pin_var(edge)
            if path.leaf in circuit.latches:
                self._latch_var(path.leaf)
        # Constraint skeleton: each path's variable-occurrence vector
        # (over delay vars + the τ column), fixed for the oracle's
        # lifetime.  Per-(path, age) rows derive from it on demand and
        # are memoized in ``_row_cache``.
        n_vars = len(self._bounds)
        self._tau_index = n_vars
        self._path_base: list[np.ndarray] = []
        for _, path in all_paths:
            base = np.zeros(n_vars + 1)
            for edge in path.edges:
                base[self._pin_var(edge)] += 1.0
            if path.leaf in circuit.latches:
                base[self._latch_var(path.leaf)] += 1.0
            self._path_base.append(base)
        self._row_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _fold(self, path: TimedPath) -> TimedLeaf:
        total = path.total
        if path.leaf in self.machine.circuit.latches:
            total = total + self.machine.delays.latch(path.leaf)
        return TimedLeaf(path.leaf, total)

    def _pin_var(self, edge: tuple) -> int:
        key = ("pin", edge)
        if key not in self._var_index:
            net, pin, kind = edge
            timing = self.machine.delays.pin(net, pin)
            interval = {
                "s": timing.rise,
                "r": timing.rise,
                "f": timing.fall,
            }[kind]
            self._var_index[key] = len(self._bounds)
            self._bounds.append((float(interval.lo), float(interval.hi)))
        return self._var_index[key]

    def _latch_var(self, q: str) -> int:
        key = ("latch", q)
        if key not in self._var_index:
            interval = self.machine.delays.latch(q)
            self._var_index[key] = len(self._bounds)
            self._bounds.append((float(interval.lo), float(interval.hi)))
        return self._var_index[key]

    def _rows_for(self, path_idx: int, age: int) -> tuple[np.ndarray, np.ndarray]:
        """The (2, n_vars+1) constraint block of one (path, age) pair.

        ``Σ d - a·τ ≤ 0`` and ``(a-1)·τ - Σ d ≤ -ε`` (0 for age 1),
        cached across σ's: the same pair recurs in every combination
        that assigns this path's leaf the same age.
        """
        key = (path_idx, age)
        cached = self._row_cache.get(key)
        if cached is not None:
            self.stats.skeleton_hits += 1
            return cached
        base = self._path_base[path_idx]
        rows = np.empty((2, base.shape[0]))
        rows[0] = base
        rows[0, self._tau_index] = -float(age)
        rows[1] = -base
        rows[1, self._tau_index] = float(age - 1)
        rhs = np.array([0.0, -EPSILON if age > 1 else 0.0])
        entry = (rows, rhs)
        self._row_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    def sup_tau(
        self,
        sigma: dict[TimedLeaf, int],
        window: TauRange | None = None,
        relaxed=_UNSET,
    ) -> Fraction | None:
        """The paper's ``τ(σ) = max τ`` LP; ``None`` when infeasible.

        ``sigma`` must assign a single age per timed leaf.  Solved in
        two phases: the ε-strict program decides *feasibility* (the
        paper's inequalities are strict; a σ realizable only on the
        boundary is unrealizable), then the program is re-solved with
        ε = 0 — when the strict system is feasible its supremum equals
        the maximum of its closure, so the second optimum is the true
        τ(σ) rather than an ε-short stand-in.  The float optimum is
        converted back to Fraction and clamped to the *relaxed* per-σ
        supremum: exact is never more optimistic than relaxed, but
        ``limit_denominator`` rounding of the solver's float could
        otherwise drift above it.  ``relaxed`` lets the
        branch-and-bound loop pass the value it already computed
        (``None`` = unbounded above); when absent it is derived here,
        and a relaxed-infeasible σ skips the LP outright.
        """
        if relaxed is _UNSET:
            feasible, relaxed = point_sigma_sup_tau(sigma, window)
            if not feasible:
                self.stats.prescreen_skips += 1
                return None
        n_delay_vars = len(self._bounds)
        tau_index = self._tau_index
        blocks: list[np.ndarray] = []
        rhs_blocks: list[np.ndarray] = []
        matched_any = False
        for path_idx, (tl, path) in enumerate(self._paths):
            age = sigma.get(tl)
            if age is None:
                raise AnalysisError(f"σ misses timed leaf {tl}")
            matched_any = True
            if age == 0:
                # Only a genuinely zero path can have age 0; its sum is
                # identically 0 within bounds, nothing to constrain.
                continue
            rows, rhs = self._rows_for(path_idx, age)
            blocks.append(rows)
            rhs_blocks.append(rhs)
        if not matched_any:
            return None
        bounds = [b for b in self._bounds]
        tau_lo = 0.0
        tau_hi = None
        if window is not None:
            tau_lo = float(window[0])
            tau_hi = float(window[1]) if window[1] is not None else None
        bounds.append((tau_lo, tau_hi))
        cost = np.zeros(n_delay_vars + 1)
        cost[tau_index] = -1.0  # maximize τ
        a_ub = np.vstack(blocks) if blocks else None
        b_ub = np.concatenate(rhs_blocks) if rhs_blocks else None
        self.stats.solves += 1
        started = time.perf_counter()
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if result.success and b_ub is not None and b_ub.any():
            # Phase 2: re-maximize over the closure (ε = 0).  The strict
            # system is feasible, so its supremum equals this maximum;
            # keeping ε in the objective phase would understate every
            # age ≥ 2 σ by an ε-artifact and defeat the bound prune.
            closed = linprog(
                cost,
                A_ub=a_ub,
                b_ub=np.zeros_like(b_ub),
                bounds=bounds,
                method="highs",
            )
            if closed.success:
                result = closed
        self.stats.wall_seconds += time.perf_counter() - started
        if not result.success:
            return None
        value = Fraction(result.x[tau_index]).limit_denominator(10**9)
        if relaxed is not None and value > relaxed:
            value = relaxed
        return value

    def feasible(
        self,
        sigma: dict[TimedLeaf, int],
        window: TauRange | None = None,
    ) -> bool:
        """Path-coupled feasibility of a full combination σ."""
        return self.sup_tau(sigma, window) is not None

    def sup_tau_options(
        self,
        options: dict[TimedLeaf, tuple[int, ...]],
        window: TauRange | None = None,
        max_combinations: int = 256,
        deadline=None,
        shard_dispatch=None,
    ) -> Fraction | None:
        """Max τ(σ) over the cartesian product of age options.

        The decision procedure reports *option sets* (a partial choice
        assignment); the exact bound is the max over the full σ's they
        cover, found by branch and bound (see the module docstring).
        Returns ``None`` for "all infeasible"; raises
        :class:`AnalysisError` when the product exceeds the cap (the
        caller should fall back to the relaxed bound).  A cooperative
        ``deadline`` is polled once per leaf while the prescreen builds
        its age-range table and once before each LP solve.

        ``shard_dispatch(leaves, survivors, window)`` optionally solves
        a large survivor list in parallel shards; it must return one
        ``(best, stats_dict_or_None)`` pair per shard (the max-merge
        here is order-independent, so sharding cannot change the
        result).
        """
        leaves = list(options)
        total = 1
        for tl in leaves:
            total *= len(options[tl])
            if total > max_combinations:
                raise AnalysisError(
                    f"{total} combinations exceed the exact-LP cap"
                )
        survivors = self._prescreen(leaves, options, window, deadline)
        if (
            shard_dispatch is not None
            and len(survivors) >= SHARD_MIN_SURVIVORS
        ):
            results = shard_dispatch(leaves, list(survivors), window)
            self.stats.shard_dispatches += len(results)
            best: Fraction | None = None
            for shard_best, stats_dict in results:
                if stats_dict is not None:
                    self.stats.merge(LpStats.from_dict(stats_dict))
                if shard_best is not None and (
                    best is None or shard_best > best
                ):
                    best = shard_best
            return best
        return self.solve_batch(leaves, survivors, window, deadline)

    def _prescreen(
        self,
        leaves: list[TimedLeaf],
        options: dict[TimedLeaf, tuple[int, ...]],
        window: TauRange | None,
        deadline,
    ) -> Sequence:
        """Relaxed-feasible σ's of the product, in survivor order.

        Equal, entry for entry, to running :func:`point_sigma_sup_tau`
        on every σ of ``itertools.product`` and sorting the feasible
        ones by :func:`_survivor_order`; infeasible σ's are charged to
        ``prescreen_skips``.  A σ's relaxed τ-set is ``[max lo, min hi)``
        over the window and its leaves' age ranges, so the product is
        scored as a broadcast max/min of integer endpoint ranks.
        """
        floor, top = window if window is not None else (Fraction(0), None)
        ranges = []
        for tl in leaves:
            if deadline is not None:
                deadline.check("exact LP prescreen")
            ranges.append([age_tau_range(tl.total, age) for age in options[tl]])
        if not leaves:
            return [(top, ())]  # the empty σ: its τ-set is the window
        # Rank every distinct endpoint.  A set keeps the first of equal
        # elements, so the window top's own object reports a tie.
        points = {top} if top is not None else set()
        points.add(floor)
        for rs in ranges:
            for r in rs:
                if r is not None:
                    points.update(v for v in r if v is not None)
        values = sorted(points)
        rank = {v: i for i, v in enumerate(values)}
        unbounded = len(values)
        lo = rank[floor]
        hi = unbounded if top is None else rank[top]
        template: list[int | None] = []
        axes, los, his = [], [], []
        for pos, (tl, rs) in enumerate(zip(leaves, ranges)):
            # An empty range gets a top below every rank: never feasible.
            leaf_lo = [0 if r is None else rank[r[0]] for r in rs]
            leaf_hi = [
                -1 if r is None else unbounded if r[1] is None else rank[r[1]]
                for r in rs
            ]
            if len(rs) == 1:
                template.append(options[tl][0])
                lo, hi = max(lo, leaf_lo[0]), min(hi, leaf_hi[0])
                continue
            template.append(None)
            axes.append((pos, options[tl]))
            los.append(np.array(leaf_lo))
            his.append(np.array(leaf_hi))
        shape = tuple(len(a) for a in los)
        lo_grid = np.full(shape, lo)
        hi_grid = np.full(shape, hi)
        for axis, (leaf_lo, leaf_hi) in enumerate(zip(los, his)):
            view = [1] * len(shape)
            view[axis] = -1
            np.maximum(lo_grid, leaf_lo.reshape(view), out=lo_grid)
            np.minimum(hi_grid, leaf_hi.reshape(view), out=hi_grid)
        hi_flat = hi_grid.reshape(-1)
        keep = np.flatnonzero(lo_grid.reshape(-1) < hi_flat)
        self.stats.prescreen_skips += hi_flat.size - keep.size
        coords = np.unravel_index(keep, shape) if shape else ()
        sups = hi_flat[keep]
        # Descending supremum (unbounded first), then the age tuple;
        # np.lexsort's primary key is its last.
        age_keys = [np.array(ages)[c] for (_, ages), c in zip(axes, coords)]
        order = np.lexsort((*reversed(age_keys), -sups))
        return _RankedSurvivors(
            template, axes, [c[order] for c in coords], sups[order], values
        )

    def solve_batch(
        self,
        leaves: list[TimedLeaf],
        survivors: list[tuple[Fraction | None, tuple[int, ...]]],
        window: TauRange | None = None,
        deadline=None,
        best: Fraction | None = None,
    ) -> Fraction | None:
        """Solve one prescreened, descending-ordered survivor list.

        The serial core of the branch-and-bound loop and the unit of
        work a parallel shard executes.  ``survivors`` must be sorted
        by :func:`_survivor_order` (each shard of an interleaved split
        preserves that order); the bound prune then discards the whole
        tail at the first σ whose relaxed supremum cannot beat ``best``.
        """
        for idx, (relaxed, combo) in enumerate(survivors):
            if best is not None and relaxed is not None and relaxed <= best:
                # exact ≤ relaxed and the list is descending: nothing
                # past this point can improve the maximum.
                self.stats.bound_prunes += len(survivors) - idx
                break
            if deadline is not None:
                deadline.check("exact LP")
            value = self.sup_tau(dict(zip(leaves, combo)), window, relaxed)
            if value is not None and (best is None or value > best):
                best = value
        return best
