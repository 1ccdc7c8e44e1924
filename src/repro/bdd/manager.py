"""The BDD manager facade: kernel selection and the shared algebra.

Architecture
------------
:class:`BddManager` is now a *facade over two interchangeable kernels*:

* ``kernel="array"`` (the default) — :mod:`repro.bdd.array_kernel`:
  flat integer columns (``array('q')``: var, lo, hi) with **complement
  edges**.  A function is a *tagged* node reference ``(index << 1) |
  phase``; negation is one XOR, a function and its complement share
  every node, and the unique table and operation cache are keyed by
  packed integers instead of tuples.
* ``kernel="object"`` — :mod:`repro.bdd.object_kernel`: the historical
  two-terminal store without complement edges, kept as a *cross-check
  oracle*: differential tests run both kernels against each other, and
  :func:`set_default_kernel` reruns any analysis on the alternate
  substrate.

Both kernels expose the same small primitive surface (`_ref_level`,
`_ref_cofactors`, `_mk_sem`, `_not`, `_ite`, ...) over *semantically
canonical* node references, so every derived algorithm — restrict,
compose, quantification, ``and_exists``, constrain, SAT queries,
transfer, ordering search — is written once, here, in kernel-neutral
form.  The invariants the base class relies on:

* references are non-negative ints; the two constants are the refs
  ``<= 1`` (the object kernel uses FALSE=0/TRUE=1, the array kernel
  ONE=0 and its complement edge 1);
* references are canonical: two refs are equal iff they denote the
  same Boolean function;
* ``_ref_cofactors(u, level)`` returns the *semantic* (low, high)
  cofactors, with any complement phase already pushed down.

Shared engineering (both kernels):

* every traversal runs on an **explicit stack** — no Python recursion,
  no ``sys.setrecursionlimit`` mutation;
* the ITE operation cache is **bounded** (``max_cache_size``) with
  *recency-aware* eviction: a cache hit moves the entry to the young
  end, and overflow drops the least-recently-used half — long-lived
  hot triples survive churn (the insertion-order eviction of earlier
  revisions evicted exactly the hottest entries first);
* the object kernel's NOT cache is bounded under the same knob (it
  used to grow without limit between GCs);
* dead nodes are reclaimed by mark-and-sweep
  (:meth:`BddManager.collect_garbage`), with ``gc_threshold`` enabling
  automatic collection at public-operation boundaries;
* **dynamic sifting hooks**: :meth:`BddManager.sift_now` reorders the
  live functions *in place* (handles are re-pointed, levels change,
  semantics do not), and ``sift_threshold=N`` arms an automatic
  mid-sweep trigger.  Sifting work is charged to the manager's
  :class:`~repro.errors.Budget` and polls its deadline, so a sift
  inside a time-limited sweep stops cooperatively;
* the manager charges an optional :class:`repro.errors.Budget` one
  unit per *created* node, so runaway analyses fail deterministically
  with :class:`repro.errors.ResourceBudgetExceeded`.

Performance counters (:class:`repro.bdd.stats.BddStats`) are always on
and exposed as :attr:`BddManager.stats`.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import BddError, Budget
from repro.bdd.function import Function
from repro.bdd.stats import BddStats

#: Sentinel level for terminal nodes; compares *greater* than any
#: variable level so terminals sort below all variables in the order.
TERMINAL_LEVEL = 1 << 60

#: Object-kernel terminal refs (module-level for the object kernel and
#: its tests; the array kernel's terminals are ONE=0 / ZERO=1).
FALSE = 0
TRUE = 1

#: Default for managers constructed with ``normalize_ite=None``.  The
#: normalization ablation in ``tests/test_bdd_gc.py`` flips this to
#: measure the pre-normalization baseline in the same process.
_DEFAULT_NORMALIZE = True

#: Default node-store kernel for ``BddManager(kernel=None)``.
_DEFAULT_KERNEL = "array"

#: Valid ``kernel=`` names (the registry itself lives in ``_kernel_class``
#: to keep imports lazy and cycle-free).
KERNELS = ("array", "object")


def set_default_ite_normalization(enabled: bool) -> bool:
    """Set the default ITE-normalization mode for *new* managers.

    Returns the previous default so callers can restore it.  Existing
    managers are unaffected.  Normalization never changes results —
    only which operation-cache entries equivalent triples share — so
    this knob exists purely to benchmark the cache discipline itself.
    """
    global _DEFAULT_NORMALIZE
    previous = _DEFAULT_NORMALIZE
    _DEFAULT_NORMALIZE = bool(enabled)
    return previous


def set_default_kernel(name: str) -> str:
    """Set the node-store kernel for *new* ``BddManager()`` calls.

    Returns the previous default so callers can restore it.  Both
    kernels implement the same canonical ROBDD semantics; switching
    never changes any analysis answer, only the representation (and
    therefore speed/memory).  Existing managers are unaffected.
    """
    global _DEFAULT_KERNEL
    if name not in KERNELS:
        raise BddError(f"unknown BDD kernel {name!r}; choose from {KERNELS}")
    previous = _DEFAULT_KERNEL
    _DEFAULT_KERNEL = name
    return previous


def _kernel_class(name: str):
    """Resolve a kernel name to its manager subclass (lazy imports)."""
    if name == "array":
        from repro.bdd.array_kernel import ArrayKernelManager

        return ArrayKernelManager
    if name == "object":
        from repro.bdd.object_kernel import ObjectKernelManager

        return ObjectKernelManager
    raise BddError(f"unknown BDD kernel {name!r}; choose from {KERNELS}")


class BddManager:
    """Owns a shared node table and provides Boolean-function algebra.

    Parameters
    ----------
    budget:
        Optional node-creation budget.  When exhausted, operations raise
        :class:`~repro.errors.ResourceBudgetExceeded`.
    deadline:
        Optional cooperative :class:`repro.resilience.Deadline` polled
        on every node creation (the manager's hot loop), so a
        wall-clock limit interrupts even one giant ``ite`` instead of
        waiting for the caller's next coarse-grained check.
    kernel:
        Node-store implementation: ``"array"`` (flat integer columns
        with complement edges, the default) or ``"object"`` (the
        historical two-terminal store, kept as a cross-check oracle).
        ``None`` uses the module default (:func:`set_default_kernel`).
    normalize_ite:
        Apply standard ITE triple normalization before the operation
        cache (default: the module default, normally on).
    max_cache_size:
        Bound on the operation caches; the least-recently-used half is
        evicted on overflow.  ``None`` disables the bound.
    gc_threshold:
        Run :meth:`collect_garbage` automatically once the node table
        has grown by this many nodes since the last collection (checked
        at public-operation boundaries, never mid-traversal).  ``None``
        (the default) leaves collection fully manual.
    sift_threshold:
        Run :meth:`sift_now` automatically once the node table has
        grown by this many nodes since the last sift (same boundaries
        as ``gc_threshold``).  ``None`` (the default) disables dynamic
        reordering.
    """

    #: Overridden by each kernel subclass.
    kernel_name = "abstract"
    _false_ref = FALSE
    _true_ref = TRUE

    def __new__(cls, *args, kernel: str | None = None, **kwargs):
        if cls is BddManager:
            cls = _kernel_class(_DEFAULT_KERNEL if kernel is None else kernel)
        return object.__new__(cls)

    def __init__(
        self,
        budget: Budget | None = None,
        deadline=None,
        *,
        kernel: str | None = None,
        normalize_ite: bool | None = None,
        max_cache_size: int | None = 1_000_000,
        gc_threshold: int | None = None,
        sift_threshold: int | None = None,
    ):
        self._budget = budget
        self._deadline = deadline
        self._normalize = (
            _DEFAULT_NORMALIZE if normalize_ite is None else bool(normalize_ite)
        )
        if max_cache_size is not None and max_cache_size < 2:
            raise BddError("max_cache_size must be at least 2 or None")
        self._max_cache_size = max_cache_size
        if gc_threshold is not None and gc_threshold < 1:
            raise BddError("gc_threshold must be positive or None")
        self._gc_threshold = gc_threshold
        if sift_threshold is not None and sift_threshold < 1:
            raise BddError("sift_threshold must be positive or None")
        self._sift_threshold = sift_threshold
        self._in_sift = False
        # Variable bookkeeping (shared by both kernels).
        self._var_level: dict[str, int] = {}
        self._level_var: list[str] = []
        self._var_node: dict[str, int] = {}
        # Live-handle registry (GC roots) and counters.
        self._handles: list[weakref.ref] = []
        self._handle_prune_at = 1024
        self._stats = BddStats()
        self._init_store()
        self._last_gc_size = len(self)
        self._last_sift_size = len(self)

    # ------------------------------------------------------------------
    # Kernel primitive surface (implemented by each kernel subclass)
    # ------------------------------------------------------------------
    def _init_store(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _mk_var(self, level: int) -> int:  # pragma: no cover - abstract
        """Create (or find) the node of a fresh variable at ``level``."""
        raise NotImplementedError

    def _mk_sem(self, level: int, lo: int, hi: int) -> int:  # pragma: no cover
        """Canonical node with *semantic* cofactors ``lo``/``hi``."""
        raise NotImplementedError

    def _not(self, u: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _ite(self, f: int, g: int, h: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def _ref_level(self, u: int) -> int:  # pragma: no cover - abstract
        """The variable level ``u`` branches on (TERMINAL_LEVEL for consts)."""
        raise NotImplementedError

    def _ref_cofactors(self, u: int, level: int) -> tuple[int, int]:  # pragma: no cover
        """Semantic (low, high) cofactors of ``u`` with respect to ``level``."""
        raise NotImplementedError

    def _ref_index(self, u: int) -> int:  # pragma: no cover - abstract
        """The structural node index behind reference ``u``."""
        raise NotImplementedError

    def collect_garbage(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def clear_caches(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - abstract
        """Current node-table size (terminals included)."""
        raise NotImplementedError

    def _adopt_store(self, other: "BddManager") -> None:  # pragma: no cover
        """Replace this manager's node store with ``other``'s (sifting)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Counters and handle registry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> BddStats:
        """Live performance counters (peak refreshed on read)."""
        stats = self._stats
        size = len(self)
        if size > stats.peak_nodes:
            stats.peak_nodes = size
        return stats

    def _register(self, handle: Function) -> None:
        """Track a live handle as a GC root (called by ``Function``)."""
        handles = self._handles
        handles.append(weakref.ref(handle))
        if len(handles) > self._handle_prune_at:
            self._handles = [ref for ref in handles if ref() is not None]
            self._handle_prune_at = max(1024, 2 * len(self._handles))

    def _live_handles(self) -> list[Function]:
        """Every still-alive Function handle of this manager."""
        live: list[Function] = []
        for ref in self._handles:
            handle = ref()
            if handle is not None:
                live.append(handle)
        return live

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def var(self, name: str) -> Function:
        """Return the function of variable ``name``, creating it if new.

        Variables are ordered by creation time: earlier-created variables
        sit closer to the root of every BDD in this manager.
        """
        if name not in self._var_level:
            level = len(self._level_var)
            self._var_level[name] = level
            self._level_var.append(name)
            self._var_node[name] = self._mk_var(level)
        return Function(self, self._var_node[name])

    def add_vars(self, names: Iterable[str]) -> list[Function]:
        """Declare several variables in order; returns their functions."""
        return [self.var(name) for name in names]

    def has_var(self, name: str) -> bool:
        """True if ``name`` has already been declared in this manager."""
        return name in self._var_level

    def level_of(self, name: str) -> int:
        """The variable's position in the global order (0 = topmost)."""
        try:
            return self._var_level[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def var_at_level(self, level: int) -> str:
        """Inverse of :meth:`level_of`."""
        try:
            return self._level_var[level]
        except IndexError:
            raise BddError(f"no variable at level {level}") from None

    @property
    def var_names(self) -> list[str]:
        """All declared variables, in order."""
        return list(self._level_var)

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    @property
    def false(self) -> Function:
        """The constant-0 function."""
        return Function(self, self._false_ref)

    @property
    def true(self) -> Function:
        """The constant-1 function."""
        return Function(self, self._true_ref)

    def constant(self, value: bool) -> Function:
        """The constant function for ``value``."""
        return self.true if value else self.false

    def _is_const(self, u: int) -> bool:
        """True for the two constant references (both kernels use <= 1)."""
        return u <= 1

    def _check(self, f: Function) -> int:
        """Validate that ``f`` belongs to this manager; return its node."""
        if f.manager is not self:
            raise BddError("function belongs to a different BddManager")
        return f.node

    # ------------------------------------------------------------------
    # Shared cache discipline
    # ------------------------------------------------------------------
    def _evict_ite_cache(self) -> None:
        """Drop the least-recently-used half of the ITE cache.

        Hits re-insert their entry at the young end (see the kernels'
        ``_ite``), so plain insertion order *is* recency order and
        dropping the oldest half evicts the coldest triples.
        """
        cache = self._ite_cache
        drop = max(1, len(cache) // 2)
        for key in list(cache.keys())[:drop]:
            del cache[key]
        self._stats.cache_evictions += 1

    # ------------------------------------------------------------------
    # Public Boolean algebra (used by Function operators)
    # ------------------------------------------------------------------
    def ite(self, f: Function, g: Function, h: Function) -> Function:
        """If-then-else: ``f & g | ~f & h``."""
        self._maybe_gc()
        return Function(self, self._ite(self._check(f), self._check(g), self._check(h)))

    def apply_not(self, f: Function) -> Function:
        """Complement of ``f``."""
        self._maybe_gc()
        return Function(self, self._not(self._check(f)))

    def apply_and(self, f: Function, g: Function) -> Function:
        """Conjunction of ``f`` and ``g``."""
        self._maybe_gc()
        return Function(
            self, self._ite(self._check(f), self._check(g), self._false_ref)
        )

    def apply_or(self, f: Function, g: Function) -> Function:
        """Disjunction of ``f`` and ``g``."""
        self._maybe_gc()
        return Function(
            self, self._ite(self._check(f), self._true_ref, self._check(g))
        )

    def apply_xor(self, f: Function, g: Function) -> Function:
        """Exclusive-or of ``f`` and ``g``."""
        self._maybe_gc()
        gn = self._check(g)
        return Function(self, self._ite(self._check(f), self._not(gn), gn))

    def apply_xnor(self, f: Function, g: Function) -> Function:
        """Equivalence (complement of xor)."""
        self._maybe_gc()
        gn = self._check(g)
        return Function(self, self._ite(self._check(f), gn, self._not(gn)))

    def apply_implies(self, f: Function, g: Function) -> Function:
        """Implication ``f -> g``."""
        self._maybe_gc()
        return Function(
            self, self._ite(self._check(f), self._check(g), self._true_ref)
        )

    def conjoin(self, functions: Iterable[Function]) -> Function:
        """AND of an iterable of functions (TRUE for empty input)."""
        self._maybe_gc()
        false_ref = self._false_ref
        acc = self._true_ref
        for f in functions:
            acc = self._ite(self._check(f), acc, false_ref)
            if acc == false_ref:
                break
        return Function(self, acc)

    def disjoin(self, functions: Iterable[Function]) -> Function:
        """OR of an iterable of functions (FALSE for empty input)."""
        self._maybe_gc()
        true_ref = self._true_ref
        acc = self._false_ref
        for f in functions:
            acc = self._ite(self._check(f), true_ref, acc)
            if acc == true_ref:
                break
        return Function(self, acc)

    # ------------------------------------------------------------------
    # Generic memoized postorder (the iterative-recursion workhorse)
    # ------------------------------------------------------------------
    def _run_postorder(self, root, children, combine, cache) -> int:
        """Evaluate a memoized structural recursion without recursing.

        ``children(key)`` lists the sub-keys a key depends on;
        ``combine(key, values)`` computes its result once every child's
        value is in ``cache``.  Keys may be refs or tuples of refs.
        LIFO scheduling gives the exact evaluation order (and therefore
        the exact cache behaviour) of the recursive original.
        """
        hit = cache.get(root)
        if hit is not None:
            return hit
        stack: list[tuple] = [(root, None)]
        while stack:
            key, kids = stack.pop()
            if key in cache:
                continue
            if kids is None:
                kids = children(key)
                stack.append((key, kids))
                for kid in kids:
                    if kid not in cache:
                        stack.append((kid, None))
                continue
            cache[key] = combine(key, [cache[kid] for kid in kids])
        return cache[root]

    # ------------------------------------------------------------------
    # Restriction, composition, quantification
    # ------------------------------------------------------------------
    def restrict(self, f: Function, assignment: Mapping[str, bool]) -> Function:
        """Cofactor ``f`` by fixing the variables in ``assignment``."""
        self._maybe_gc()
        by_level = {self.level_of(name): bool(val) for name, val in assignment.items()}
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[int, int] = {false_ref: false_ref, true_ref: true_ref}

        def children(u: int) -> tuple:
            level = self._ref_level(u)
            lo, hi = self._ref_cofactors(u, level)
            if level in by_level:
                return (hi if by_level[level] else lo,)
            return (lo, hi)

        def combine(u: int, values: list[int]) -> int:
            level = self._ref_level(u)
            if level in by_level:
                return values[0]
            return self._mk_sem(level, values[0], values[1])

        return Function(
            self, self._run_postorder(self._check(f), children, combine, cache)
        )

    def compose(self, f: Function, name: str, g: Function) -> Function:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        return self.vector_compose(f, {name: g})

    def vector_compose(self, f: Function, substitution: Mapping[str, Function]) -> Function:
        """Simultaneously substitute functions for variables in ``f``.

        The substitution is simultaneous: substituted results are not
        re-substituted, so ``{x: y, y: x}`` swaps the two variables.
        """
        self._maybe_gc()
        subs_by_level = {
            self.level_of(name): self._check(g) for name, g in substitution.items()
        }
        if not subs_by_level:
            return f
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[int, int] = {false_ref: false_ref, true_ref: true_ref}

        def children(u: int) -> tuple:
            return self._ref_cofactors(u, self._ref_level(u))

        def combine(u: int, values: list[int]) -> int:
            level = self._ref_level(u)
            branch = subs_by_level.get(level)
            if branch is None:
                branch = self._var_node[self._level_var[level]]
            return self._ite(branch, values[1], values[0])

        return Function(
            self, self._run_postorder(self._check(f), children, combine, cache)
        )

    def rename(self, f: Function, mapping: Mapping[str, str]) -> Function:
        """Rename variables (a special case of vector composition)."""
        return self.vector_compose(f, {old: self.var(new) for old, new in mapping.items()})

    def exists(self, names: Iterable[str], f: Function) -> Function:
        """Existential quantification over ``names``."""
        self._maybe_gc()
        return self._quantify(f, names, conj=False)

    def forall(self, names: Iterable[str], f: Function) -> Function:
        """Universal quantification over ``names``."""
        self._maybe_gc()
        return self._quantify(f, names, conj=True)

    def _quantify(self, f: Function, names: Iterable[str], conj: bool) -> Function:
        # No _maybe_gc here: and_exists calls this mid-traversal with raw
        # node refs live on its stack — a remap would corrupt them.
        levels = frozenset(self.level_of(name) for name in names)
        if not levels:
            return f
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[int, int] = {false_ref: false_ref, true_ref: true_ref}

        def children(u: int) -> tuple:
            return self._ref_cofactors(u, self._ref_level(u))

        def combine(u: int, values: list[int]) -> int:
            low, high = values
            level = self._ref_level(u)
            if level in levels:
                if conj:
                    return self._ite(low, high, false_ref)
                return self._ite(low, true_ref, high)
            return self._mk_sem(level, low, high)

        return Function(
            self, self._run_postorder(self._check(f), children, combine, cache)
        )

    def and_exists(self, names: Iterable[str], f: Function, g: Function) -> Function:
        """Relational product ``exists names . f & g`` in one traversal.

        The workhorse of BDD reachability (image computation): fusing the
        conjunction with the quantification avoids building the full
        conjunct, which is often the peak-memory step.
        """
        self._maybe_gc()
        names = [str(name) for name in names]
        levels = frozenset(self.level_of(name) for name in names)
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[tuple[int, int], int] = {}

        def key_of(u: int, v: int) -> tuple[int, int]:
            return (u, v) if u <= v else (v, u)

        def children(key: tuple[int, int]) -> tuple:
            u, v = key
            if self._is_const(u) or self._is_const(v):
                return ()
            level = min(self._ref_level(u), self._ref_level(v))
            u0, u1 = self._ref_cofactors(u, level)
            v0, v1 = self._ref_cofactors(v, level)
            return (key_of(u0, v0), key_of(u1, v1))

        def combine(key: tuple[int, int], values: list[int]) -> int:
            u, v = key
            if u == false_ref or v == false_ref:
                return false_ref
            if u == true_ref and v == true_ref:
                return true_ref
            if u == true_ref or v == true_ref:
                # Reduce to single-operand quantification.
                w = v if u == true_ref else u
                return self._check(
                    self._quantify(Function(self, w), names, conj=False)
                )
            level = min(self._ref_level(u), self._ref_level(v))
            low, high = values
            if level in levels:
                return self._ite(low, true_ref, high)
            return self._mk_sem(level, low, high)

        return Function(
            self,
            self._run_postorder(
                key_of(self._check(f), self._check(g)), children, combine, cache
            ),
        )

    def constrain(self, f: Function, c: Function) -> Function:
        """Coudert–Madre generalized cofactor ``f ↓ c``.

        Agrees with ``f`` everywhere ``c`` holds; off ``c`` it takes
        whatever values shrink the BDD (the image-restrictor used in
        reachability optimizations).  ``c`` must be satisfiable.
        """
        self._maybe_gc()
        fn, cn = self._check(f), self._check(c)
        false_ref, true_ref = self._false_ref, self._true_ref
        if cn == false_ref:
            raise BddError("constrain by the empty care set")
        cache: dict[tuple[int, int], int] = {}

        def children(key: tuple[int, int]) -> tuple:
            u, k = key
            if k == true_ref or self._is_const(u) or u == k:
                return ()
            level = min(self._ref_level(u), self._ref_level(k))
            k0, k1 = self._ref_cofactors(k, level)
            u0, u1 = self._ref_cofactors(u, level)
            if k0 == false_ref:
                return ((u1, k1),)
            if k1 == false_ref:
                return ((u0, k0),)
            return ((u0, k0), (u1, k1))

        def combine(key: tuple[int, int], values: list[int]) -> int:
            u, k = key
            if k == true_ref or self._is_const(u):
                return u
            if u == k:
                return true_ref
            if len(values) == 1:
                return values[0]
            level = min(self._ref_level(u), self._ref_level(k))
            return self._mk_sem(level, values[0], values[1])

        return Function(self, self._run_postorder((fn, cn), children, combine, cache))

    def restrict_care(self, f: Function, c: Function) -> Function:
        """The "restrict" heuristic: like :meth:`constrain` but a care
        variable absent from ``f``'s support never enters the result
        (restrict quantifies it out of the care set instead)."""
        self._maybe_gc()
        fn, cn = self._check(f), self._check(c)
        false_ref, true_ref = self._false_ref, self._true_ref
        if cn == false_ref:
            raise BddError("restrict by the empty care set")
        cache: dict[tuple[int, int], int] = {}

        def children(key: tuple[int, int]) -> tuple:
            u, k = key
            if k == true_ref or self._is_const(u):
                return ()
            u_level, k_level = self._ref_level(u), self._ref_level(k)
            if k_level < u_level:
                # Care splits on a variable f ignores: drop it.
                k0, k1 = self._ref_cofactors(k, k_level)
                return ((u, self._ite(k0, true_ref, k1)),)
            u0, u1 = self._ref_cofactors(u, u_level)
            k0, k1 = self._ref_cofactors(k, u_level)
            if k0 == false_ref:
                return ((u1, k1),)
            if k1 == false_ref:
                return ((u0, k0),)
            return ((u0, k0), (u1, k1))

        def combine(key: tuple[int, int], values: list[int]) -> int:
            u, k = key
            if k == true_ref or self._is_const(u):
                return u
            if len(values) == 1:
                return values[0]
            return self._mk_sem(self._ref_level(u), values[0], values[1])

        return Function(self, self._run_postorder((fn, cn), children, combine, cache))

    # ------------------------------------------------------------------
    # Inspection: support, evaluation, satisfiability, counting
    # ------------------------------------------------------------------
    def support(self, f: Function) -> set[str]:
        """The set of variables ``f`` actually depends on."""
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [self._check(f)]
        while stack:
            u = stack.pop()
            if self._is_const(u):
                continue
            idx = self._ref_index(u)
            if idx in seen:
                continue
            seen.add(idx)
            level = self._ref_level(u)
            levels.add(level)
            lo, hi = self._ref_cofactors(u, level)
            stack.append(lo)
            stack.append(hi)
        return {self._level_var[level] for level in levels}

    def evaluate(self, f: Function, assignment: Mapping[str, bool]) -> bool:
        """Evaluate ``f`` under a (complete-on-support) assignment."""
        u = self._check(f)
        while not self._is_const(u):
            level = self._ref_level(u)
            name = self._level_var[level]
            try:
                branch = assignment[name]
            except KeyError:
                raise BddError(f"assignment missing variable {name!r}") from None
            lo, hi = self._ref_cofactors(u, level)
            u = hi if branch else lo
        return u == self._true_ref

    def pick_one(self, f: Function) -> dict[str, bool] | None:
        """One satisfying assignment over ``f``'s support, or ``None``."""
        u = self._check(f)
        false_ref = self._false_ref
        if u == false_ref:
            return None
        result: dict[str, bool] = {}
        while not self._is_const(u):
            level = self._ref_level(u)
            name = self._level_var[level]
            lo, hi = self._ref_cofactors(u, level)
            if lo != false_ref:
                result[name] = False
                u = lo
            else:
                result[name] = True
                u = hi
        return result

    def sat_iter(self, f: Function, care_vars: Iterable[str] | None = None) -> Iterator[dict[str, bool]]:
        """Iterate all satisfying assignments over ``care_vars``.

        ``care_vars`` defaults to the support of ``f``; variables in
        ``care_vars`` that ``f`` does not depend on are enumerated both
        ways, so the iteration is exhaustive over the named cube space.
        """
        names = sorted(
            self.support(f) if care_vars is None else set(care_vars),
            key=self.level_of,
        )
        order = {name: i for i, name in enumerate(names)}
        node = self._check(f)
        false_ref, true_ref = self._false_ref, self._true_ref

        def walk(u: int, idx: int) -> Iterator[dict[str, bool]]:
            if u == false_ref:
                return
            if idx == len(names):
                if u == true_ref:
                    yield {}
                return
            name = names[idx]
            level = self._var_level[name]
            u_level = TERMINAL_LEVEL if self._is_const(u) else self._ref_level(u)
            if u_level == level:
                low, high = self._ref_cofactors(u, level)
            elif u_level < level:
                # f depends on a variable outside care_vars: refuse.
                raise BddError(
                    f"function depends on {self._level_var[u_level]!r}, "
                    "which is not in care_vars"
                )
            else:
                low = high = u
            for value, child in ((False, low), (True, high)):
                for tail in walk(child, idx + 1):
                    tail[name] = value
                    yield tail

        # Guard: support must be within care_vars.
        extra = self.support(f) - set(names)
        if extra:
            raise BddError(f"function depends on {sorted(extra)} outside care_vars")
        for assignment in walk(node, 0):
            yield dict(sorted(assignment.items(), key=lambda kv: order[kv[0]]))

    def sat_count(self, f: Function, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the size of ``f``'s support.
        """
        u = self._check(f)
        false_ref, true_ref = self._false_ref, self._true_ref
        support_levels = sorted(
            self._var_level[name] for name in self.support(Function(self, u))
        )
        if nvars is None:
            nvars = len(support_levels)
        if nvars < len(support_levels):
            raise BddError("nvars smaller than the function's support")
        if self._is_const(u):
            return (1 if u == true_ref else 0) << nvars
        # Count over the support only, then scale by free variables.
        index_of = {level: i for i, level in enumerate(support_levels)}
        total = len(support_levels)
        cache: dict[int, int] = {}

        def count_child(child: int, position: int) -> int:
            """Assignments of support vars strictly below ``position``."""
            if child == false_ref:
                return 0
            if child == true_ref:
                return 1 << (total - position - 1)
            return cache[child] << (
                index_of[self._ref_level(child)] - position - 1
            )

        def children(node: int) -> tuple:
            return tuple(
                child
                for child in self._ref_cofactors(node, self._ref_level(node))
                if not self._is_const(child)
            )

        def combine(node: int, _values: list[int]) -> int:
            level = self._ref_level(node)
            position = index_of[level]
            lo, hi = self._ref_cofactors(node, level)
            return count_child(lo, position) + count_child(hi, position)

        self._run_postorder(u, children, combine, cache)
        root_count = cache[u] << index_of[self._ref_level(u)]
        return root_count << (nvars - total)

    def node_count(self, f: Function) -> int:
        """Number of structural nodes in ``f``'s DAG (terminals included).

        With complement edges (the array kernel) a function and its
        complement share every node and there is a single terminal, so
        counts are smaller than the object kernel's for the same
        function; within one kernel the count is the usual BDD size.
        """
        return self.dag_size([Function(self, self._check(f))])

    def dag_size(self, functions: Iterable[Function]) -> int:
        """Distinct structural nodes over a *set* of functions.

        Shared subgraphs are counted once; terminals are included.
        This is the combined-size objective the ordering search
        (:mod:`repro.bdd.reorder`) minimizes.
        """
        seen: set[int] = set()
        stack = [self._check(f) for f in functions]
        while stack:
            u = stack.pop()
            idx = self._ref_index(u)
            if idx in seen:
                continue
            seen.add(idx)
            if not self._is_const(u):
                level = self._ref_level(u)
                lo, hi = self._ref_cofactors(u, level)
                stack.append(lo)
                stack.append(hi)
        return len(seen)

    # ------------------------------------------------------------------
    # Maintenance: GC trigger and dynamic sifting hooks
    # ------------------------------------------------------------------
    def _maybe_gc(self) -> None:
        """Run automatic maintenance if the table grew past a threshold.

        Called only at public-operation boundaries: mid-traversal state
        (raw node refs on explicit stacks) must never see a remap.
        Checks the GC threshold first (collection is cheaper), then the
        dynamic-sifting threshold.
        """
        size = len(self)
        if (
            self._gc_threshold is not None
            and size - self._last_gc_size >= self._gc_threshold
        ):
            self.collect_garbage()
            size = len(self)
        if (
            self._sift_threshold is not None
            and not self._in_sift
            and size - self._last_sift_size >= self._sift_threshold
        ):
            self.sift_now(max_passes=1)

    def sift_now(self, max_passes: int = 1) -> bool:
        """Dynamically reorder this manager's variables *in place*.

        Sifts the live functions (every still-alive handle) to a
        smaller combined order, rebuilds the node store under the new
        order, and re-points every live handle — callers keep their
        ``Function`` objects and semantics, only levels (and sizes)
        change.  Trial rebuilds are charged to the manager's budget and
        poll its deadline, so a sift inside a resource-limited sweep is
        interruptible; arm ``sift_threshold=N`` at construction to
        trigger this automatically mid-sweep.

        Returns ``True`` when a reorder was applied, ``False`` when
        there was nothing to sift (or no improvement was found).
        """
        if self._in_sift:
            return False
        from repro.bdd.reorder import sift_order
        from repro.bdd.transfer import transfer

        self._in_sift = True
        try:
            handles = self._live_handles()
            funcs = [h for h in handles if not self._is_const(h.node)]
            # Dedupe by ref: sifting cost scales with the function set.
            by_ref: dict[int, Function] = {}
            for fn in funcs:
                by_ref.setdefault(fn.node, fn)
            roots = list(by_ref.values())
            self._last_sift_size = len(self)
            if not roots:
                return False
            before = self.dag_size(roots)
            order, after = sift_order(
                roots,
                max_passes=max_passes,
                budget=self._budget,
                deadline=self._deadline,
            )
            self._stats.sift_runs += 1
            if after >= before:
                return False
            # Preserve every declared variable: sifted support first,
            # then the untouched remainder in its old relative order.
            placed = set(order)
            full_order = list(order) + [
                name for name in self._level_var if name not in placed
            ]
            scratch = type(self)(
                budget=self._budget,
                deadline=self._deadline,
                normalize_ite=self._normalize,
                max_cache_size=self._max_cache_size,
            )
            scratch.add_vars(full_order)
            moved = [transfer(h, scratch) for h in handles]
            # Adopt the scratch store and re-point the live handles.
            self._adopt_store(scratch)
            self._var_level = dict(scratch._var_level)
            self._level_var = list(scratch._level_var)
            self._var_node = dict(scratch._var_node)
            for handle, twin in zip(handles, moved):
                handle.node = twin.node
            self._handles = [weakref.ref(h) for h in handles]
            self._handle_prune_at = max(1024, 2 * len(self._handles))
            self._last_gc_size = len(self)
            self._last_sift_size = len(self)
            # The rebuild's allocation work is real work of this manager.
            rebuilt = scratch._stats
            self._stats.nodes_created += rebuilt.nodes_created
            self._stats.ite_calls += rebuilt.ite_calls
            self._stats.cache_lookups += rebuilt.cache_lookups
            self._stats.cache_hits += rebuilt.cache_hits
            return True
        finally:
            self._in_sift = False

    def to_dot(self, f: Function, name: str = "bdd") -> str:
        """Graphviz dot text for ``f`` (debugging / documentation aid).

        Rendered in *semantic* form: complement edges are expanded, so
        a node whose both phases are referenced appears once per phase.
        """
        lines = [f"digraph {name} {{", '  node [shape=circle];']
        lines.append(f'  n{self._false_ref} [shape=box, label="0"];')
        lines.append(f'  n{self._true_ref} [shape=box, label="1"];')
        seen: set[int] = set()
        stack = [self._check(f)]
        while stack:
            u = stack.pop()
            if self._is_const(u) or u in seen:
                continue
            seen.add(u)
            level = self._ref_level(u)
            label = self._level_var[level]
            lo, hi = self._ref_cofactors(u, level)
            lines.append(f'  n{u} [label="{label}"];')
            lines.append(f"  n{u} -> n{lo} [style=dashed];")
            lines.append(f"  n{u} -> n{hi};")
            stack.append(lo)
            stack.append(hi)
        lines.append("}")
        return "\n".join(lines)
