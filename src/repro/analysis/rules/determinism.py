"""Determinism rules: nondeterminism hazards that would corrupt goldens.

The regression net of this reproduction is byte-equality — 26 golden
scenario reports, serial == ``--jobs N`` trace equality.  Each rule here
targets one way Python lets nondeterminism leak into an otherwise
deterministic simulation: unordered collection iteration, the host wall
clock, the process-seeded ``random`` module, the
``PYTHONHASHSEED``-randomised builtin ``hash()`` and unsorted directory
listings.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.engine import FileContext, Rule

_SET_METHODS = ("difference", "intersection", "symmetric_difference", "union")

#: Wall-clock reads.  ``datetime`` *construction/conversion* (``date
#: .fromisoformat`` etc.) is fine — only "what time is it now" calls are
#: nondeterministic across runs.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)
_LISTING_METHODS = frozenset({"iterdir", "rglob"})


class UnorderedSetIteration(Rule):
    """RPR001: iterating a ``set`` feeds its arbitrary order downstream.

    ``set`` iteration order depends on insertion history and hash seeds of
    the *values*; folding it into scheduling, report assembly or placement
    makes event order run-dependent.  The fix is ``sorted(...)`` (or an
    ordered container).  Tracked set values: set displays/comprehensions,
    ``set()``/``frozenset()`` calls, set-algebra results and local names
    assigned from any of those.
    """

    code = "RPR001"
    name = "unordered-set-iteration"
    summary = "iteration over an unordered set; wrap in sorted(...)"

    def start_file(self, ctx: FileContext) -> None:
        self._scopes: List[Dict[str, bool]] = [{}]

    # ---- local "is this name a set" inference ---------------------- #
    def _is_set_expr(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if ctx.is_builtin_ref(node.func, "set") or ctx.is_builtin_ref(
                node.func, "frozenset"
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_expr(node.func.value, ctx)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left, ctx) or self._is_set_expr(
                node.right, ctx
            )
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope:
                    return scope[node.id]
        return False

    def _annotation_is_set(self, annotation: Optional[ast.AST]) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Name) and target.id in (
            "set",
            "frozenset",
            "Set",
            "FrozenSet",
            "MutableSet",
        )

    # ---- scope tracking -------------------------------------------- #
    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        scope: Dict[str, bool] = {}
        annotated = list(node.args.args) + list(node.args.kwonlyargs)
        for arg in annotated:
            if self._annotation_is_set(arg.annotation):
                scope[arg.arg] = True
        self._scopes.append(scope)

    def leave_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef
    leave_AsyncFunctionDef = leave_FunctionDef

    def visit_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        is_set = self._is_set_expr(node.value, ctx)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scopes[-1][target.id] = is_set

    def visit_AnnAssign(self, node: ast.AnnAssign, ctx: FileContext) -> None:
        if isinstance(node.target, ast.Name):
            self._scopes[-1][node.target.id] = self._annotation_is_set(
                node.annotation
            ) or (node.value is not None and self._is_set_expr(node.value, ctx))

    # ---- the actual checks ----------------------------------------- #
    def _flag(self, node: ast.AST, ctx: FileContext, how: str) -> None:
        ctx.report(
            self,
            node,
            f"{how} iterates a set in unordered form; wrap it in sorted(...) "
            "or use an order-preserving container",
        )

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        if self._is_set_expr(node.iter, ctx):
            self._flag(node.iter, ctx, "for-loop")

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension, ctx: FileContext) -> None:
        if self._is_set_expr(node.iter, ctx):
            self._flag(node.iter, ctx, "comprehension")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        for builtin in ("list", "tuple", "enumerate", "iter"):
            if ctx.is_builtin_ref(node.func, builtin):
                if node.args and self._is_set_expr(node.args[0], ctx):
                    self._flag(node.args[0], ctx, f"{builtin}() materialisation")
                return


class WallClockCall(Rule):
    """RPR002: the host wall clock read inside simulated logic.

    Every timestamp in the simulation comes from ``env.now``; a wall-clock
    read woven into scheduling or reporting varies run to run and breaks
    byte-identical goldens.  Scoped out (config.py) for the bench harness
    and the scenario runner's wall-seconds report, whose entire purpose is
    real time.
    """

    code = "RPR002"
    name = "wall-clock-call"
    summary = "wall-clock read (time.time & co.); use the simulated clock"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        target = ctx.call_target(node)
        if target in _WALL_CLOCK_CALLS:
            ctx.report(
                self,
                node,
                f"{target}() reads the host wall clock; simulated code must "
                "take its time from Environment.now",
            )


class UnseededRandomCall(Rule):
    """RPR003: module-level ``random.*`` draws from the process-global RNG.

    The global generator is shared across the whole process (parallel
    scenario workers included) and seeded per interpreter; only explicit
    ``random.Random(seed)`` instances give reproducible streams.
    """

    code = "RPR003"
    name = "unseeded-random-call"
    summary = "module-level random.* call; use a seeded random.Random"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        target = ctx.call_target(node)
        if target is None or not target.startswith("random."):
            return
        if target == "random.Random":
            return  # constructing a seeded instance is the sanctioned pattern
        ctx.report(
            self,
            node,
            f"{target}() uses the process-global RNG; draw from a "
            "random.Random(seed) instance owned by the spec",
        )


class BuiltinHashInPlacement(Rule):
    """RPR004: builtin ``hash()`` on placement/routing paths.

    String hashing is randomised per process via ``PYTHONHASHSEED``; a
    placement or routing decision derived from it changes between runs and
    between parallel workers.  Use :func:`repro.fleet.placement.stable_hash`
    (sha256-based) instead.  ``__hash__`` implementations are exempt —
    they only feed process-local dict/set buckets.
    """

    code = "RPR004"
    name = "builtin-hash-in-placement"
    summary = "builtin hash() on a placement/routing path; use stable_hash"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not ctx.is_builtin_ref(node.func, "hash"):
            return
        current = ctx.current_function()
        if current is not None and getattr(current, "name", "") == "__hash__":
            return
        ctx.report(
            self,
            node,
            "builtin hash() is PYTHONHASHSEED-randomised across processes; "
            "use repro.fleet.placement.stable_hash for placement decisions",
        )


class UnsortedDirectoryListing(Rule):
    """RPR005: directory listings without ``sorted(...)``.

    ``os.listdir`` and friends return entries in filesystem order, which
    differs between machines and runs; any listing that feeds scenario
    discovery or report assembly must be sorted first.
    """

    code = "RPR005"
    name = "unsorted-directory-listing"
    summary = "os.listdir/glob/iterdir result used without sorted(...)"

    def _inside_sorted(self, node: ast.Call, ctx: FileContext) -> bool:
        parent = ctx.parent()
        return (
            isinstance(parent, ast.Call)
            and ctx.is_builtin_ref(parent.func, "sorted")
            and node in parent.args
        )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        target = ctx.call_target(node)
        is_listing = target in _LISTING_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
        )
        if not is_listing or self._inside_sorted(node, ctx):
            return
        shown = target or node.func.attr  # type: ignore[union-attr]
        ctx.report(
            self,
            node,
            f"{shown}() lists the filesystem in arbitrary order; wrap the "
            "call in sorted(...)",
        )
