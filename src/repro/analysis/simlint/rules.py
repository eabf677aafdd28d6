"""The per-file rule catalogue (SL001–SL010) and the one rule base.

Each rule is a small class yielding
:class:`~repro.analysis.simlint.model.Finding` objects.  Per-file rules
implement ``check_file(info)`` over one
:class:`~repro.analysis.simlint.model.ModuleInfo`; the whole-program
rules in :mod:`~repro.analysis.simlint.passes` override ``check``.
Rules encode the repository's own correctness contracts; they are
deliberately repo-specific, not general Python style checks.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .model import Finding, ModuleInfo, named_assignments

#: Subsystems that must run on simulated time only (SL001).
SIM_TIME_SUBSYSTEMS = ("mm", "sim", "kalloc", "fleet")

#: Subsystems whose outputs must not depend on set iteration order
#: (SL006) — they feed manifests, reports, and JSONL streams that must
#: be bit-identical across runs and worker counts.
ORDERED_OUTPUT_SUBSYSTEMS = ("fleet", "telemetry")

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


class Rule:
    """Base class: subclasses set ``code``/``title`` and implement
    :meth:`check_file` (one file at a time) or override :meth:`check`
    (the whole program against the docs contracts)."""

    code = "SL000"
    title = ""
    #: whole-program rules need the docs contracts; they run only when
    #: the caller asks for ``deep``
    deep = False

    def check(self, program, contracts) -> Iterator[Finding]:
        for info in program.files:
            yield from self.check_file(info)

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def at(self, info: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(path=info.path, line=node.lineno,
                       col=node.col_offset, rule=self.code, message=message)

    def doc_finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(path=path, line=line, col=0, rule=self.code,
                       message=message)


def _is_set_expr(info: ModuleInfo, node: ast.AST,
                 set_vars: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return info.leaf(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(info, node.left, set_vars)
                or _is_set_expr(info, node.right, set_vars))
    if isinstance(node, ast.Name):
        return node.id in set_vars
    return False


def set_iterations(info: ModuleInfo, scope: ast.AST) -> list[ast.AST]:
    """The set-typed iterables of every ``for`` and comprehension under
    *scope*: a set literal or comprehension, a ``set()``/``frozenset()``
    call, set algebra over one, or a name assigned one anywhere under
    *scope* (a scope-insensitive heuristic).  SL006 asks this of a whole
    file, DL104 of one function reachable from a manifest producer."""
    set_vars: set[str] = set()
    iters: list[ast.AST] = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            if (len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _is_set_expr(info, node.value, set_vars)):
                set_vars.add(node.targets[0].id)
        elif isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, _COMPREHENSIONS):
            iters.extend(gen.iter for gen in node.generators)
    return [it for it in iters if _is_set_expr(info, it, set_vars)]


class WallClockRule(Rule):
    """SL001: no wall-clock reads in sim-time subsystems.

    Simulation results must be a pure function of (config, seed); a
    wall-clock read anywhere in ``mm``/``sim``/``kalloc``/``fleet``
    breaks replayability.  ``time.perf_counter`` is exempt — measuring a
    *duration* for volatile telemetry is legitimate and is how the fleet
    engine reports phase timings.
    """

    code = "SL001"
    title = "no wall-clock time in sim-time subsystems"

    BANNED = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.localtime", "time.gmtime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_subsystem(*SIM_TIME_SUBSYSTEMS):
            return
        for site in info.calls:
            if site.dotted in self.BANNED:
                yield self.at(
                    info, site.node,
                    f"{site.dotted}() reads the wall clock in a sim-time "
                    f"subsystem; use kernel ticks / sim time "
                    f"(perf_counter durations for telemetry are exempt)")


class SeededRandomRule(Rule):
    """SL002: randomness must flow through an injected seeded Random.

    The module-global RNG (``random.random()`` etc.) is shared process
    state: any import-order or worker-count change reshuffles every
    draw.  ``random.Random(seed)`` instances are the only sanctioned
    source; creating one unseeded, or at module level (import-time
    global state), is equally flagged.  The constructor is tracked
    through every local spelling: ``import random``, ``from random
    import Random`` (with or without ``as``), and module-level factory
    aliases like ``_factory = random.Random``.
    """

    code = "SL002"
    title = "no module-level or unseeded random"

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if not any(target == "random" or target.startswith("random.")
                   for target in info.imports.values()):
            return
        # Module-level ``NAME = random.Random`` factory aliases: calls
        # through NAME are Random() calls wearing a different hat.
        factories = {name for name, value in named_assignments(info.tree.body)
                     if info.dotted(value) == "random.Random"}
        for site in info.calls:
            root, _, rest = (site.dotted or "").partition(".")
            if root in factories:
                root, rest = "random", f"Random.{rest}" if rest else "Random"
            if root != "random":
                continue
            node = site.node
            if rest == "Random":
                if not node.args and not node.keywords:
                    yield self.at(
                        info, node,
                        "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed")
                elif info.at_module_level(node):
                    yield self.at(
                        info, node,
                        "module-level Random() creates import-time "
                        "global RNG state; inject it instead")
            elif rest:
                yield self.at(
                    info, node,
                    f"random.{rest}() uses the shared global RNG; "
                    f"draw from an injected seeded random.Random")


class TracepointGuardRule(Rule):
    """SL003: the tracepoint disabled-path contract.

    ``tp.emit(...)`` with arguments must be lexically guarded by
    ``if tp.enabled:`` so a disabled run never builds the keyword dict —
    that guard is what makes tracing near-zero-cost when off (the
    overhead contract in docs/OBSERVABILITY.md).  ``emit`` re-checks the
    flag, so an unguarded site is slow, not wrong — which is exactly why
    only a linter can hold the line.
    """

    code = "SL003"
    title = "tracepoint emit must be guarded by its enabled flag"

    @staticmethod
    def _test_checks_enabled(test: ast.AST, tp_name: str) -> bool:
        for sub in ast.walk(test):
            if (isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == tp_name):
                return True
        return False

    def _guarded(self, info: ModuleInfo, node: ast.AST,
                 tp_name: str) -> bool:
        child = node
        for parent in info.parents(node):
            if (isinstance(parent, ast.If)
                    and any(child is stmt for stmt in parent.body)
                    and self._test_checks_enabled(parent.test, tp_name)):
                return True
            child = parent
        return False

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        tp_vars = {name for name, value in named_assignments(info.tree.body)
                   if isinstance(value, ast.Call)
                   and info.leaf(value.func) == "tracepoint"}
        for site in info.calls:
            node = site.node
            if not (site.callee == "emit"
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in tp_vars):
                continue
            if not node.args and not node.keywords:
                continue
            tp_name = node.func.value.id
            if not self._guarded(info, node, tp_name):
                yield self.at(
                    info, node,
                    f"{tp_name}.emit(...) builds arguments without an "
                    f"'if {tp_name}.enabled:' guard; disabled runs must "
                    f"not pay for event construction")


class BareAssertRule(Rule):
    """SL004: no bare ``assert`` carrying simulator invariants.

    ``python -O`` strips assert statements, silently disabling the
    check — a production run would then corrupt state instead of
    failing.  Invariants must raise typed
    :class:`~repro.errors.SimInvariantError` (or go through the runtime
    sanitizer); tests are exempt, pytest rewrites their asserts.
    """

    code = "SL004"
    title = "no bare assert in non-test code"

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if info.is_test_file():
            return
        for node in info.nodes:
            if isinstance(node, ast.Assert):
                yield self.at(
                    info, node,
                    "bare assert is stripped under python -O; raise "
                    "SimInvariantError (repro.errors) or use the "
                    "sanitizer (repro.analysis.sanitizer)")


class MutableDefaultRule(Rule):
    """SL005: no mutable default arguments (shared across calls)."""

    code = "SL005"
    title = "no mutable default arguments"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                      "deque", "OrderedDict", "Counter"}

    def _is_mutable(self, info: ModuleInfo, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        return (isinstance(node, ast.Call)
                and info.leaf(node.func) in self._MUTABLE_CALLS)

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in info.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(info, default):
                    fn = getattr(node, "name", "<lambda>")
                    yield self.at(
                        info, default,
                        f"mutable default argument in {fn}() is shared "
                        f"across calls; default to None and build inside")


class DeterministicIterationRule(Rule):
    """SL006: set iteration feeding output needs an explicit order.

    ``fleet`` and ``telemetry`` produce manifests, reports, and JSONL
    streams whose byte-identity across runs and worker counts is the
    headline contract; iterating a set there hands the output to hash
    randomisation.  Wrap the iterable in ``sorted(...)``.
    """

    code = "SL006"
    title = "deterministic iteration in fleet/telemetry"

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_subsystem(*ORDERED_OUTPUT_SUBSYSTEMS):
            return
        for it in set_iterations(info, info.tree):
            yield self.at(
                info, it,
                "iterating a set in an output-producing subsystem; "
                "iteration order is arbitrary — wrap in sorted(...)")


class BoundedRetryRule(Rule):
    """SL008: retry loops in non-test code must be bounded.

    A ``while True:`` loop that backs off and retries spins forever when
    the condition it waits for never arrives; shipped code must count
    attempts and bail out — raise a typed error or degrade — once the
    budget is spent (the contract :func:`repro.mm.migrate.
    migrate_with_retry` and the fleet supervisor follow).  The rule
    flags constant-true ``while`` loops that *look like* retry loops —
    a ``*.sleep(...)`` call, a name mentioning retry/backoff/attempt,
    or a try/except whose handler ``continue``s — and carry no attempt
    counter (an augmented ``+=``/``-=`` on a plain name) anywhere in
    the body.  A deliberately unbounded loop is acknowledged with
    ``# simlint: disable=SL008``.
    """

    code = "SL008"
    title = "retry loops must be bounded"

    _MARKERS = ("retry", "retries", "backoff", "attempt")

    @staticmethod
    def _constant_true(test: ast.AST) -> bool:
        return isinstance(test, ast.Constant) and test.value is True

    def _looks_like_retry(self, loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sleep"):
                return True
            if isinstance(node, ast.Name) and any(
                    marker in node.id.lower() for marker in self._MARKERS):
                return True
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if any(isinstance(sub, ast.Continue)
                           for stmt in handler.body
                           for sub in ast.walk(stmt)):
                        return True
        return False

    @staticmethod
    def _has_attempt_counter(loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.target, ast.Name)):
                return True
        return False

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if info.is_test_file():
            return
        for node in info.nodes:
            if not isinstance(node, ast.While):
                continue
            if not self._constant_true(node.test):
                continue
            if (self._looks_like_retry(node)
                    and not self._has_attempt_counter(node)):
                yield self.at(
                    info, node,
                    "unbounded retry loop: 'while True:' with "
                    "retry/backoff markers but no attempt counter; "
                    "bound the attempts and raise or degrade once the "
                    "budget is spent")


#: Constructors that build one Python object per call (SL009); in an mm
#: per-frame loop each call costs an allocation the packed arrays exist
#: to avoid.
PER_FRAME_OBJECT_CTORS = {
    "MigrateType", "AllocSource", "PageHandle", "AllocationInfo",
}

#: Loop-variable name fragments that mark a loop as per-frame (SL009).
PER_FRAME_LOOP_MARKERS = ("pfn", "frame", "head", "buddy")


class PerFrameObjectRule(Rule):
    """SL009: no per-frame Python-object construction in mm hot loops.

    The struct-of-arrays core (docs/INTERNALS.md) keeps every per-frame
    fact in packed numpy arrays precisely so the allocator's hot loops
    touch ints, not objects: constructing a :class:`MigrateType`,
    :class:`PageHandle`, or :class:`AllocationInfo` per frame inside a
    loop over PFNs re-introduces an object allocation per page — the
    cost the arrays were built to eliminate — and shows up directly in
    the churn benchmark.  Read the packed view instead
    (``pageblocks.get_int``, ``mem.free_order_mv``, ...) and construct
    objects only at the API boundary.  A site where the object *is* the
    product (e.g. handing :class:`PageHandle` results to a caller) is
    acknowledged with ``# simlint: disable=SL009``.
    """

    code = "SL009"
    title = "no per-frame object construction in mm hot loops"

    @staticmethod
    def _target_names(target: ast.AST) -> Iterator[str]:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id

    def _per_frame_loops(self, info: ModuleInfo) -> Iterator[ast.AST]:
        for node in info.nodes:
            if isinstance(node, ast.For):
                names = self._target_names(node.target)
            elif isinstance(node, _COMPREHENSIONS):
                names = (n for gen in node.generators
                         for n in self._target_names(gen.target))
            else:
                continue
            if any(marker in name.lower()
                   for name in names
                   for marker in PER_FRAME_LOOP_MARKERS):
                yield node

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_subsystem("mm") or info.is_test_file():
            return
        seen: set[ast.AST] = set()
        for loop in self._per_frame_loops(info):
            for node in ast.walk(loop):
                if node in seen or not isinstance(node, ast.Call):
                    continue
                ctor = info.leaf(node.func)
                if ctor in PER_FRAME_OBJECT_CTORS:
                    seen.add(node)
                    yield self.at(
                        info, node,
                        f"{ctor}(...) constructs a Python object per "
                        f"frame in an mm hot loop; read the packed "
                        f"arrays (pageblocks.get_int, free_order_mv, "
                        f"...) and build objects at the API boundary")


#: Subsystems whose file writes are durable artifacts — result caches,
#: checkpoints, manifests — that a reader (or a resumed run) may load
#: after a crash (SL010).
DURABLE_OUTPUT_SUBSYSTEMS = ("checkpoint", "experiments", "telemetry")


class AtomicDurableWriteRule(Rule):
    """SL010: durable result/checkpoint writes must be atomic.

    The crash-recovery contract (docs/ROBUSTNESS.md) says a reader never
    observes a half-written cache entry, checkpoint, or manifest: writes
    stage to a temp file in the same directory and publish with a single
    ``os.replace``.  A bare ``open(path, "w")`` in the ``checkpoint`` /
    ``experiments`` / ``telemetry`` subsystems leaves a truncation
    window exactly where the durability machinery lives, so this rule
    flags any write-mode ``open`` whose enclosing scope never calls
    ``os.replace``.  A deliberate streaming sink (e.g. a live JSONL
    event stream that readers tail mid-run) is acknowledged with
    ``# simlint: disable=SL010``.
    """

    code = "SL010"
    title = "durable writes must stage + os.replace"

    _WRITE_CHARS = ("w", "a", "x", "+")

    @classmethod
    def _write_mode(cls, call: ast.Call) -> bool:
        """Whether this ``open`` call opens for writing (constant mode
        containing w/a/x/+; non-constant modes are skipped — the rule
        is a reviewer, not a prover)."""
        mode = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if not (isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)):
            return False
        return any(ch in mode.value for ch in cls._WRITE_CHARS)

    @staticmethod
    def _calls_replace(info: ModuleInfo, scope: ast.AST) -> bool:
        return any(isinstance(node, ast.Call)
                   and info.dotted(node.func) == "os.replace"
                   for node in ast.walk(scope))

    def check_file(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_subsystem(*DURABLE_OUTPUT_SUBSYSTEMS):
            return
        if info.is_test_file():
            return
        for site in info.calls:
            if site.dotted not in ("open", "io.open"):
                continue
            if not self._write_mode(site.node):
                continue
            scope = site.enclosing.node if site.enclosing else info.tree
            if self._calls_replace(info, scope):
                continue
            yield self.at(
                info, site.node,
                "write-mode open() in a durable-output subsystem "
                "without os.replace in the enclosing scope; stage to a "
                "tempfile in the target directory and publish with "
                "os.replace (see experiments.cache / checkpoint.format)")
