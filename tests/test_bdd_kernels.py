"""Differential tests: array/complement-edge kernel vs object kernel.

The array kernel (flat integer columns, complement edges, packed int
cache keys) must be observationally identical to the historical
object kernel behind the :class:`~repro.bdd.Function` API: same truth
tables, same ``sat_count``, same sweep bounds and candidate verdicts.
These tests pin that equivalence on random formula DAGs (hypothesis)
and on 22 whole sweeps (Example 2, two exact-LP interval banks and
every benchgen suite row), where the array kernel's bound and exact
ITE work are pinned too.  Sweeps reach the object kernel only through
:func:`repro.bdd.set_default_kernel`.  The cache-discipline regressions
for the NOT cache bound and the recency-aware ITE eviction live here
too.
"""

import contextlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.bdd import BddManager, set_default_kernel, transfer
from repro.benchgen import build_case, interval_bank, paper_example2, suite_cases
from repro.mct import MctOptions, minimum_cycle_time

from tests.test_bdd_properties import (
    VARS,
    all_envs,
    build_bdd,
    eval_ast,
    exprs,
)


def both_kernels(ast):
    """Build the same AST in a fresh manager of each kernel."""
    pairs = []
    for kernel in ("array", "object"):
        mgr = BddManager(kernel=kernel)
        for name in VARS:
            mgr.var(name)
        pairs.append((mgr, build_bdd(mgr, ast)))
    return pairs


class TestDifferentialSemantics:
    """Random formula DAGs evaluate identically under both kernels."""

    @settings(max_examples=60, deadline=None)
    @given(ast=exprs())
    def test_truth_tables_and_counts_match(self, ast):
        (amgr, af), (omgr, of) = both_kernels(ast)
        for env in all_envs():
            expected = eval_ast(ast, env)
            assert amgr.evaluate(af, env) == expected
            assert omgr.evaluate(of, env) == expected
        assert amgr.sat_count(af) == omgr.sat_count(of)
        assert sorted(amgr.support(af)) == sorted(omgr.support(of))
        assert af.is_zero() == of.is_zero()
        assert af.is_one() == of.is_one()

    @settings(max_examples=30, deadline=None)
    @given(ast=exprs())
    def test_cross_kernel_transfer_round_trip(self, ast):
        (amgr, af), (omgr, of) = both_kernels(ast)
        # Array -> object lands on the node the object kernel built
        # itself (canonicity), and back again.
        assert transfer(af, omgr).node == of.node
        assert transfer(of, amgr).node == af.node

    @settings(max_examples=30, deadline=None)
    @given(ast=exprs())
    def test_sat_iter_enumerations_agree(self, ast):
        (amgr, af), (omgr, of) = both_kernels(ast)
        a_sats = sorted(tuple(sorted(s.items())) for s in amgr.sat_iter(af))
        o_sats = sorted(tuple(sorted(s.items())) for s in omgr.sat_iter(of))
        assert a_sats == o_sats


class TestComplementEdges:
    """Negation is free and shares structure in the array kernel."""

    def test_not_is_tag_flip(self):
        mgr = BddManager(kernel="array")
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | c
        g = ~f
        assert g.node == f.node ^ 1
        assert (~g).node == f.node

    def test_negation_allocates_no_nodes(self):
        mgr = BddManager(kernel="array")
        f = (mgr.var("a") & mgr.var("b")) ^ mgr.var("c")
        before = len(mgr)
        g = ~f
        assert len(mgr) == before
        assert mgr.dag_size([g]) == mgr.dag_size([f])

    def test_constants_are_complements(self):
        mgr = BddManager(kernel="array")
        assert mgr.true.node == mgr.false.node ^ 1

    def test_high_edges_are_regular(self):
        """Canonical form: no stored node has a complemented high edge."""
        mgr = BddManager(kernel="array")
        for name in VARS:
            mgr.var(name)
        f = (mgr.var("a") ^ mgr.var("b")) | (~mgr.var("c") & mgr.var("d"))
        g = f.ite(mgr.var("e"), ~f)
        del f, g
        assert all(hi & 1 == 0 for hi in mgr._hi_col[1:])


class TestNotCacheBound:
    """The object kernel's NOT cache honours ``max_cache_size``."""

    def test_not_cache_is_bounded_and_counts_evictions(self):
        mgr = BddManager(kernel="object", max_cache_size=16)
        names = [f"x{i}" for i in range(40)]
        for name in names:
            mgr.var(name)
        f = mgr.false
        for name in reversed(names):
            f = mgr.var(name) | f
            ~f  # populate the NOT cache (bidirectional entries)
        # Entry-point eviction keeps the cache near the cap: one
        # traversal can legitimately add many entries, but each new
        # top-level NOT call trims back below max_cache_size first.
        assert mgr.stats.not_cache_evictions > 0
        assert len(mgr._not_cache) <= 16 + 2 * len(names)

    def test_eviction_does_not_change_results(self):
        def truth_table(mgr):
            for name in VARS:
                mgr.var(name)
            f = (mgr.var("a") & mgr.var("b")) | (mgr.var("c") ^ mgr.var("d"))
            g = ~f | mgr.var("e")
            return [mgr.evaluate(~g, env) for env in all_envs()]

        bounded = truth_table(BddManager(kernel="object", max_cache_size=8))
        unbounded = truth_table(BddManager(kernel="object"))
        assert bounded == unbounded


class TestIteCacheRecency:
    """ITE cache eviction is LRU: hits refresh an entry's position."""

    @pytest.mark.parametrize("kernel", ["array", "object"])
    def test_hit_moves_entry_to_end(self, kernel):
        mgr = BddManager(kernel=kernel)
        a, b, c, d = (mgr.var(n) for n in "abcd")
        (a & b)  # seed one cacheable triple
        first = next(iter(mgr._ite_cache))
        (c | d)  # push later entries behind it
        assert next(iter(mgr._ite_cache)) == first
        (a & b)  # cache hit must refresh recency
        assert list(mgr._ite_cache)[-1] == first
        assert next(iter(mgr._ite_cache)) != first

    @pytest.mark.parametrize("kernel", ["array", "object"])
    def test_repeated_workload_hit_rate(self, kernel):
        """A hot working set survives eviction pressure under LRU.

        The workload re-runs one fixed conjunction trace between
        bursts of one-off garbage ITEs that keep the eviction pressure
        on.  Because every hot lookup refreshes its entry to the newest
        half, oldest-half eviction only ever drops cold entries; with
        the previous insertion-ordered eviction the warm-up-era hot
        entries sat in the oldest half and were flushed every burst.
        """
        mgr = BddManager(kernel=kernel, max_cache_size=64)
        hot = [mgr.var(f"h{i}") for i in range(6)]
        cold = [mgr.var(f"c{i}") for i in range(24)]

        def run_hot():
            f = hot[0]
            for v in hot[1:]:
                f = f & v
            return f

        run_hot()  # warm the cache
        n = len(cold)
        hot_lookups = hot_hits = 0
        for round_ in range(6):
            for i in range(n):  # unique pairings each round: all misses
                j = (i + round_ + 1) % n
                if i != j:
                    cold[i] ^ cold[j]
            before = (mgr.stats.cache_lookups, mgr.stats.cache_hits)
            run_hot()
            hot_lookups += mgr.stats.cache_lookups - before[0]
            hot_hits += mgr.stats.cache_hits - before[1]
        assert mgr.stats.cache_evictions > 0
        assert hot_lookups > 0
        assert hot_hits / hot_lookups >= 0.9


def _candidate_keys(result):
    """Verdict identity of a sweep, stripped of measurements.

    ``elapsed_seconds``/``ite_calls``/``attempts`` are measurements of
    *how* a window was decided and legitimately differ across kernels
    and worker placements; everything else must be byte-identical.
    """
    return [(c.tau, c.status, c.m, c.rung) for c in result.candidates]


@contextlib.contextmanager
def default_kernel(name):
    """Run the enclosed sweeps' decision contexts on kernel ``name``."""
    previous = set_default_kernel(name)
    try:
        yield
    finally:
        set_default_kernel(previous)


def _sweep(circuit, delays, kernel, **extra):
    with default_kernel(kernel):
        return minimum_cycle_time(circuit, delays, MctOptions(**extra))


def comparison_cases():
    """The kernel-comparison cases as ``(name, circuit, delays, kwargs)``.

    Example 2 fixed and interval, two exact-LP interval banks past the
    default 256-combination cap, and every benchgen suite row at widen 9/10
    under its own MCT work budget.
    """
    circuit, delays = paper_example2()
    yield "example2", circuit, delays, {}
    yield "example2-interval", circuit, delays.widen(Fraction(9, 10)), {}
    exact = {"exact_feasibility": True, "max_exact_combinations": 1024}
    circuit, delays = interval_bank(9, mix=("xor", "and", "or"), name="ivbank9")
    yield "ivbank9-exact", circuit, delays, exact
    circuit, delays = interval_bank(10, mix=("or", "xor", "and"), name="ivbank10")
    yield "ivbank10-exact", circuit, delays, exact
    for case in suite_cases():
        circuit, delays = build_case(case)
        yield (
            f"benchgen/{case.name}",
            circuit,
            delays.widen(Fraction(9, 10)),
            {"work_budget": case.mct_budget},
        )


#: Array-kernel ``(bound, ite_calls)`` of every comparison case.  The
#: work count is deterministic, so any change is an algorithmic change
#: to the BDD engine or the sweep.  g9234 and g38417 exhaust their
#: budget while collecting paths, before any decision context exists.
ARRAY_PINS = {
    "example2": (Fraction(5, 2), 190),
    "example2-interval": (Fraction(5, 2), 322),
    "ivbank9-exact": (Fraction(21, 5), 448),
    "ivbank10-exact": (Fraction(21, 5), 496),
    "benchgen/g444": (Fraction(114, 5), 312),
    "benchgen/g526": (Fraction(92, 5), 623),
    "benchgen/g526n": (Fraction(94, 5), 623),
    "benchgen/g641": (Fraction(85, 2), 621),
    "benchgen/g713": (Fraction(217, 5), 621),
    "benchgen/g820": (Fraction(279, 10), 478),
    "benchgen/g832": (Fraction(144, 5), 478),
    "benchgen/g953": (Fraction(141, 5), 478),
    "benchgen/g1196": (Fraction(179, 5), 621),
    "benchgen/g1238": (Fraction(41), 621),
    "benchgen/g1423": (Fraction(599, 5), 808),
    "benchgen/g1494": (Fraction(181, 5), 808),
    "benchgen/g5378": (Fraction(42), 1260),
    "benchgen/g9234": (None, None),
    "benchgen/g15850": (Fraction(636, 5), 1866),
    "benchgen/g35932": (Fraction(4363, 10), 886),
    "benchgen/g38417": (None, None),
    "benchgen/g38584": (Fraction(82), 8545),
}

#: A case is ITE-heavy when the object-kernel sweep examined at least
#: this many ITE subproblems.
ITE_HEAVY_FLOOR = 300

#: Per-case wall ceiling (seconds) of the array sweep: the real
#: numbers are ~100x smaller, so tripping it is a pathology, not jitter.
CASE_WALL_CEILING = 30.0


@pytest.fixture(scope="module")
def comparison():
    """Every comparison case swept on both kernels, by case name."""
    runs = {}
    for name, circuit, delays, kwargs in comparison_cases():
        t0 = time.monotonic()
        array = _sweep(circuit, delays, "array", **kwargs)
        wall = time.monotonic() - t0
        obj = _sweep(circuit, delays, "object", **kwargs)
        runs[name] = (array, wall, obj)
    return runs


class TestSweepIdentity:
    """Both kernels produce byte-identical analysis verdicts."""

    def test_example2_serial(self):
        circuit, delays = paper_example2()
        array = _sweep(circuit, delays, "array")
        obj = _sweep(circuit, delays, "object")
        assert array.mct_upper_bound == obj.mct_upper_bound == Fraction(5, 2)
        assert array.failing_window == obj.failing_window
        assert array.failing_roots == obj.failing_roots
        assert array.L == obj.L
        assert _candidate_keys(array) == _candidate_keys(obj)

    def test_example2_parallel_pool(self):
        circuit, delays = paper_example2()
        serial = minimum_cycle_time(circuit, delays)
        pooled = minimum_cycle_time(circuit, delays, jobs=2)
        assert pooled.mct_upper_bound == serial.mct_upper_bound
        assert pooled.failing_window == serial.failing_window
        assert _candidate_keys(pooled) == _candidate_keys(serial)

    def test_example2_cluster(self):
        """A loopback cluster lands on the serial verdicts (the
        ``--workers`` path: state pickled to socket workers, results
        merged by the lease scheduler)."""
        from repro.parallel import WorkerServer

        from tests.test_cluster import CLUSTER_OPTS, fleet

        circuit, delays = paper_example2()
        serial = minimum_cycle_time(circuit, delays)
        with fleet(WorkerServer(), WorkerServer()) as transport:
            clustered = minimum_cycle_time(
                circuit,
                delays,
                MctOptions(**CLUSTER_OPTS),
                transport=transport,
            )
        assert clustered.mct_upper_bound == serial.mct_upper_bound
        assert clustered.failing_window == serial.failing_window
        assert _candidate_keys(clustered) == _candidate_keys(serial)

    def test_suite_case_bounds_match(self, comparison):
        assert set(comparison) == set(ARRAY_PINS)
        for name, (array, _, obj) in comparison.items():
            assert array.mct_upper_bound == obj.mct_upper_bound, name
            assert array.failing_window == obj.failing_window, name
            assert _candidate_keys(array) == _candidate_keys(obj), name

    def test_array_kernel_wins_every_ite_heavy_case(self, comparison):
        """Complement edges never cost ITE work and always save nodes."""
        heavy = [
            (name, array.bdd_stats, obj.bdd_stats)
            for name, (array, _, obj) in comparison.items()
            if obj.bdd_stats is not None
            and obj.bdd_stats.ite_calls >= ITE_HEAVY_FLOOR
        ]
        # A benchgen shrinkage that leaves nothing ITE-heavy would
        # silently disable this guard.
        assert len(heavy) >= 5
        for name, array, obj in heavy:
            assert array.ite_calls <= obj.ite_calls, name
            assert array.nodes_created < obj.nodes_created, name

    @pytest.mark.parametrize("name", sorted(ARRAY_PINS))
    def test_array_bound_and_work_pinned(self, comparison, name):
        array, wall, _ = comparison[name]
        bound, ite_calls = ARRAY_PINS[name]
        assert array.mct_upper_bound == bound
        stats = array.bdd_stats
        assert (None if stats is None else stats.ite_calls) == ite_calls
        assert stats is None or stats.peak_nodes > 0
        assert wall < CASE_WALL_CEILING

    def test_sifting_mid_sweep_preserves_bound(self):
        """A tiny sift threshold forces reorders mid-sweep; the bound
        and verdict sequence must not move."""
        circuit, delays = paper_example2()
        plain = minimum_cycle_time(circuit, delays)
        sifted = minimum_cycle_time(
            circuit, delays, MctOptions(bdd_sift_threshold=1)
        )
        assert sifted.mct_upper_bound == plain.mct_upper_bound
        assert sifted.failing_window == plain.failing_window
        assert _candidate_keys(sifted) == _candidate_keys(plain)
        assert sifted.bdd_stats.sift_runs > 0


class TestKernelSelection:
    def test_default_is_array(self):
        assert BddManager().kernel_name == "array"

    def test_explicit_object(self):
        assert BddManager(kernel="object").kernel_name == "object"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(Exception):
            BddManager(kernel="quantum")

    def test_options_validate_kernel(self):
        from repro.errors import OptionsError

        with pytest.raises(OptionsError):
            MctOptions(bdd_sift_threshold=0)
