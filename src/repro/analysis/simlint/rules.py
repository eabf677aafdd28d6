"""The simlint rule catalogue (SL001–SL010).

Each rule is a small class with a ``check(ctx)`` generator yielding
:class:`~repro.analysis.simlint.core.Finding` objects.  Rules encode the
repository's own correctness contracts; they are deliberately repo-
specific, not general Python style checks.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .core import FileContext, Finding, dotted_name, import_aliases, resolve_call

#: Subsystems that must run on simulated time only (SL001).
SIM_TIME_SUBSYSTEMS = ("mm", "sim", "kalloc", "fleet")

#: Subsystems whose outputs must not depend on set iteration order
#: (SL006) — they feed manifests, reports, and JSONL streams that must
#: be bit-identical across runs and worker counts.
ORDERED_OUTPUT_SUBSYSTEMS = ("fleet", "telemetry")

class Rule:
    """Base class: subclasses set ``code``/``title`` and implement
    :meth:`check`."""

    code = "SL000"
    title = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return ctx.finding(node, self.code, message)


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

    BANNED = {
        "time.time": "wall-clock",
        "time.time_ns": "wall-clock",
        "time.monotonic": "wall-clock",
        "time.monotonic_ns": "wall-clock",
        "time.localtime": "wall-clock",
        "time.gmtime": "wall-clock",
        "time.strftime": "wall-clock",
        "datetime.datetime.now": "wall-clock",
        "datetime.datetime.utcnow": "wall-clock",
        "datetime.datetime.today": "wall-clock",
        "datetime.date.today": "wall-clock",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_subsystem(*SIM_TIME_SUBSYSTEMS):
            return
        aliases = import_aliases(ctx.tree, ("time", "datetime"))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, aliases)
            if name in self.BANNED:
                yield self.finding(
                    ctx, node,
                    f"{name}() reads the wall clock in a sim-time "
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

    @staticmethod
    def _assignment_aliases(ctx: FileContext,
                            aliases: dict[str, str]) -> dict[str, str]:
        """Module-level ``NAME = random.Random`` factory aliases, with
        the right-hand side itself resolved through *aliases* — calls
        through NAME are Random() calls wearing a different hat."""
        out: dict[str, str] = {}
        for node in ctx.tree.body:
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = dotted_name(node.value)
            if name is None:
                continue
            root, _, rest = name.partition(".")
            expanded = aliases.get(root)
            if expanded is not None:
                name = f"{expanded}.{rest}" if rest else expanded
            if name == "random.Random":
                out[node.targets[0].id] = "random.Random"
        return out

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = import_aliases(ctx.tree, ("random",))
        if not aliases:
            return
        aliases = {**aliases, **self._assignment_aliases(ctx, aliases)}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, aliases)
            if not name or not name.startswith("random."):
                continue
            attr = name.partition(".")[2]
            if attr == "Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed")
                elif ctx.at_module_level(node):
                    yield self.finding(
                        ctx, node,
                        "module-level Random() creates import-time "
                        "global RNG state; inject it instead")
            elif attr:
                yield self.finding(
                    ctx, node,
                    f"random.{attr}() uses the shared global RNG; "
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

    def _tracepoint_vars(self, ctx: FileContext) -> set[str]:
        out = set()
        for node in ctx.tree.body:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                name = dotted_name(node.value.func)
                if name and (name == "tracepoint"
                             or name.endswith(".tracepoint")):
                    out.add(node.targets[0].id)
        return out

    @staticmethod
    def _test_checks_enabled(test: ast.AST, tp_name: str) -> bool:
        for sub in ast.walk(test):
            if (isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == tp_name):
                return True
        return False

    def _guarded(self, ctx: FileContext, node: ast.AST, tp_name: str) -> bool:
        child = node
        for parent in ctx.parents(node):
            if (isinstance(parent, ast.If)
                    and any(child is stmt for stmt in parent.body)
                    and self._test_checks_enabled(parent.test, tp_name)):
                return True
            child = parent
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tp_vars = self._tracepoint_vars(ctx)
        if not tp_vars:
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in tp_vars):
                continue
            if not node.args and not node.keywords:
                continue
            tp_name = node.func.value.id
            if not self._guarded(ctx, node, tp_name):
                yield self.finding(
                    ctx, node,
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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test_file():
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx, node,
                    "bare assert is stripped under python -O; raise "
                    "SimInvariantError (repro.errors) or use the "
                    "sanitizer (repro.analysis.sanitizer)")


class MutableDefaultRule(Rule):
    """SL005: no mutable default arguments (shared across calls)."""

    code = "SL005"
    title = "no mutable default arguments"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                      "deque", "OrderedDict", "Counter"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return bool(name) and name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    fn = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
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

    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def _set_vars(self, ctx: FileContext) -> set[str]:
        """Names assigned a set-typed expression anywhere in the file
        (scope-insensitive heuristic)."""
        out: set[str] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._is_set_expr(node.value, out)):
                out.add(node.targets[0].id)
        return out

    def _is_set_expr(self, node: ast.AST, set_vars: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return (self._is_set_expr(node.left, set_vars)
                    or self._is_set_expr(node.right, set_vars))
        if isinstance(node, ast.Name):
            return node.id in set_vars
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_subsystem(*ORDERED_OUTPUT_SUBSYSTEMS):
            return
        set_vars = self._set_vars(ctx)
        iters: list[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_set_expr(it, set_vars):
                yield self.finding(
                    ctx, it,
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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test_file():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            if not self._constant_true(node.test):
                continue
            if (self._looks_like_retry(node)
                    and not self._has_attempt_counter(node)):
                yield self.finding(
                    ctx, node,
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

    def _per_frame_loops(self, ctx: FileContext) -> Iterator[ast.AST]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                names = self._target_names(node.target)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                names = (n for gen in node.generators
                         for n in self._target_names(gen.target))
            else:
                continue
            if any(marker in name.lower()
                   for name in names
                   for marker in PER_FRAME_LOOP_MARKERS):
                yield node

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_subsystem("mm") or ctx.is_test_file():
            return
        seen: set[ast.AST] = set()
        for loop in self._per_frame_loops(ctx):
            for node in ast.walk(loop):
                if node in seen or not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if not name:
                    continue
                ctor = name.split(".")[-1]
                if ctor in PER_FRAME_OBJECT_CTORS:
                    seen.add(node)
                    yield self.finding(
                        ctx, node,
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

    def _enclosing_scope(self, ctx: FileContext, node: ast.AST) -> ast.AST:
        for parent in ctx.parents(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return parent
        return ctx.tree

    @staticmethod
    def _calls_replace(scope: ast.AST,
                       aliases: dict[str, str]) -> bool:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, aliases)
            if name == "os.replace":
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_subsystem(*DURABLE_OUTPUT_SUBSYSTEMS):
            return
        if ctx.is_test_file():
            return
        aliases = import_aliases(ctx.tree, ("os", "io"))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, aliases) or dotted_name(node.func)
            if name not in ("open", "io.open"):
                continue
            if not self._write_mode(node):
                continue
            scope = self._enclosing_scope(ctx, node)
            if self._calls_replace(scope, aliases):
                continue
            yield self.finding(
                ctx, node,
                "write-mode open() in a durable-output subsystem "
                "without os.replace in the enclosing scope; stage to a "
                "tempfile in the target directory and publish with "
                "os.replace (see experiments.cache / checkpoint.format)")


#: The shipped rule set, in code order.
DEFAULT_RULES = (
    WallClockRule(),
    SeededRandomRule(),
    TracepointGuardRule(),
    BareAssertRule(),
    MutableDefaultRule(),
    DeterministicIterationRule(),
    BoundedRetryRule(),
    PerFrameObjectRule(),
    AtomicDurableWriteRule(),
)


def rule_catalogue() -> list[tuple[str, str, str]]:
    """``(code, title, doc)`` for every shipped rule (docs + CLI)."""
    out = []
    for rule in DEFAULT_RULES:
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        out.append((rule.code, rule.title, doc))
    return out
