"""The project-invariant rules, each derived from a real past bug.

Every rule documents its ``invariant`` — the contract from the paper or
from a PR-2 review incident that it encodes.  Scoping follows the
package layout (see :class:`~repro.lint.engine.LintModule.in_dir`):
runtime rules fire under ``repro/runtime/``, detection-core rules under
``repro/core/``, and so on, which also makes the rules testable against
fixture trees that mirror those directories.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import Finding, LintModule, Rule
from .project import ImportLayering, IpcProtocolConformance

__all__ = [
    "ALL_RULES",
    "rule_by_code",
    "SharedMemoryLifecycle",
    "BoundedSendLoops",
    "OpCountersRouting",
    "AggregateRegistryOnly",
    "NoWallClockInCore",
    "ExplicitDtypes",
    "DeadlineAwareIPC",
    "KernelBoundary",
    "ImportLayering",
    "IpcProtocolConformance",
    "DroppedCounterDataflow",
    "DurableWriteDiscipline",
]


def _dotted(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute chains; unrenderable bases become ``?``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    else:
        return ""
    return ".".join(reversed(parts))


def _terminal_name(func: ast.AST) -> str:
    """The called name: ``f`` for ``f(...)``, ``c`` for ``a.b.c(...)``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _Parents:
    """Child -> parent AST map plus ancestor queries for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self._parent: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parent[child] = parent

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        while node in self._parent:
            node = self._parent[node]
            yield node

    def nearest(self, node: ast.AST, *types: type) -> ast.AST | None:
        for anc in self.ancestors(node):
            if isinstance(anc, types):
                return anc
        return None

    def in_finally(self, node: ast.AST) -> bool:
        """Whether ``node`` sits inside some ``try``'s ``finally`` block."""
        for anc in self.ancestors(node):
            if isinstance(anc, ast.Try):
                for stmt in anc.finalbody:
                    if node is stmt or any(
                        node is sub for sub in ast.walk(stmt)
                    ):
                        return True
        return False


_SHM_RECEIVER = re.compile(r"ring|shm|segment", re.IGNORECASE)
_PROC_RECEIVER = re.compile(r"pool|proc|worker", re.IGNORECASE)


class SharedMemoryLifecycle(Rule):
    """RL001 — every SharedMemory segment is released on all paths.

    Incident: PR 2's review found stale shared-memory attachments kept
    mapped in workers for the life of a run, and a shutdown path where a
    failed worker join could skip unlinking ``/dev/shm`` segments — each
    leaked segment outlives the process until reboot.
    """

    code = "RL001"
    name = "shared-memory-lifecycle"
    invariant = (
        "every SharedMemory create/attach is closed (and unlinked by its "
        "owner) on all paths, including exception paths"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        parents = _Parents(module.tree)
        yield from self._check_ownership(module, parents)
        yield from self._check_release_order(module, parents)

    # -- part (a): creation/attachment sites must have an owner ---------
    def _check_ownership(
        self, module: LintModule, parents: _Parents
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) != "SharedMemory":
                continue
            if self._ownership_transferred(node, parents):
                continue
            creates = self._creates_segment(node)
            owner = parents.nearest(node, ast.ClassDef)
            if owner is None:
                yield module.finding(
                    node,
                    self,
                    "SharedMemory segment with no owner: return it, use a "
                    "`with` block, or hold it in a class with a close() "
                    "method",
                )
                continue
            assert isinstance(owner, ast.ClassDef)
            problem = self._owner_contract_gap(owner, creates)
            if problem:
                yield module.finding(
                    node,
                    self,
                    f"SharedMemory owner class {owner.name!r} {problem}",
                )

    @staticmethod
    def _ownership_transferred(node: ast.Call, parents: _Parents) -> bool:
        for anc in parents.ancestors(node):
            if isinstance(anc, ast.Return):
                return True  # caller takes ownership
            if isinstance(anc, ast.withitem):
                return True  # context manager releases it
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False

    @staticmethod
    def _creates_segment(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "create":
                return not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                )
        return False

    @staticmethod
    def _owner_contract_gap(owner: ast.ClassDef, creates: bool) -> str | None:
        has_close_method = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "close"
            for stmt in owner.body
        )
        calls = {
            _terminal_name(sub.func)
            for sub in ast.walk(owner)
            if isinstance(sub, ast.Call)
        }
        if not has_close_method or "close" not in calls:
            return "must define a close() method that closes its segments"
        if creates and "unlink" not in calls:
            return (
                "creates segments but never unlink()s them; the creating "
                "process owns the /dev/shm entry"
            )
        if creates and "finalize" not in calls:
            return (
                "creates segments without a weakref.finalize guard; an "
                "abandoned instance would leak /dev/shm segments until "
                "reboot"
            )
        return None

    # -- part (b): releases must survive earlier cleanup failing --------
    def _check_release_order(
        self, module: LintModule, parents: _Parents
    ) -> Iterator[Finding]:
        funcs = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in funcs:
            shm_closes: list[ast.Call] = []
            proc_closes: list[ast.Call] = []
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if _terminal_name(node.func) not in (
                    "close",
                    "terminate",
                    "join",
                ):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                receiver = _dotted(node.func.value)
                if _SHM_RECEIVER.search(receiver):
                    shm_closes.append(node)
                elif _PROC_RECEIVER.search(receiver):
                    proc_closes.append(node)
            if not shm_closes or not proc_closes:
                continue
            first_proc = min(c.lineno for c in proc_closes)
            for call in shm_closes:
                if call.lineno < first_proc:
                    continue
                if parents.in_finally(call):
                    continue
                yield module.finding(
                    call,
                    self,
                    "shared-memory release is skipped if the preceding "
                    "process cleanup raises (worker died mid-build?); "
                    "release segments first or move this into a `finally`",
                )


class BoundedSendLoops(Rule):
    """RL002 — pipe sends in loops must be flow-controlled.

    Incident: PR 2's review caught a deadlock where the parent streamed
    unbounded ``build`` commands while per-command acks piled up unread,
    filling the ~64KB pipe buffer and blocking the worker's send — and
    therefore its request drain — forever.
    """

    code = "RL002"
    name = "bounded-send-loops"
    invariant = (
        "a Connection.send inside a loop references a flow-control bound "
        "(recv/poll/drain or an inflight cap) in its enclosing function"
    )

    _EVIDENCE_CALLS = {"recv", "poll"}
    _EVIDENCE_NAME = re.compile(r"inflight|drain|ack", re.IGNORECASE)

    def applies_to(self, module: LintModule) -> bool:
        return module.in_dir("repro", "runtime")

    def check(self, module: LintModule) -> Iterator[Finding]:
        flagged: set[ast.Call] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While, ast.AsyncFor)):
                continue
            sends = [
                node
                for node in ast.walk(loop)
                if isinstance(node, ast.Call)
                and _terminal_name(node.func) == "send"
            ]
            if not sends:
                continue
            scope = self._enclosing_scope(module.tree, loop)
            if self._has_flow_control(scope):
                continue
            for send in sends:
                if send not in flagged:
                    flagged.add(send)
                    yield module.finding(
                        send,
                        self,
                        "send inside a loop with no flow-control bound in "
                        "scope (no recv/poll/drain/inflight); unacked "
                        "replies can fill the pipe buffer and deadlock "
                        "both ends",
                    )

    @staticmethod
    def _enclosing_scope(tree: ast.Module, loop: ast.AST) -> ast.AST:
        best: ast.AST = tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(sub is loop for sub in ast.walk(node)):
                    best = node  # innermost wins: keep walking
        return best

    def _has_flow_control(self, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                if _terminal_name(node.func) in self._EVIDENCE_CALLS:
                    return True
                if self._EVIDENCE_NAME.search(
                    _terminal_name(node.func) or ""
                ):
                    return True
            if isinstance(node, ast.Name) and self._EVIDENCE_NAME.search(
                node.id
            ):
                return True
            if isinstance(node, ast.Attribute) and self._EVIDENCE_NAME.search(
                node.attr
            ):
                return True
        return False


class OpCountersRouting(Rule):
    """RL003 — operation accounting goes through OpCounters.

    The paper's RAM cost model (§4.2) is only reproducible because every
    detector charges the *same* counters; an ad-hoc counter dict on a
    hot path silently diverges from the merged per-level accounting the
    runtime and the experiments report.
    """

    code = "RL003"
    name = "opcounters-routing"
    invariant = (
        "detector hot paths charge operation counts to OpCounters "
        "attributes, never to ad-hoc dicts or instance scalars"
    )

    _VOCAB = {
        "updates",
        "alarms",
        "filter_comparisons",
        "search_cells",
        "bursts",
    }
    #: Deliberately simple accounting outside the SAT hot path.
    _EXEMPT_FILES = {"opcount.py", "naive.py", "pyramid.py"}

    def applies_to(self, module: LintModule) -> bool:
        return (
            module.in_dir("repro", "core")
            and module.basename not in self._EXEMPT_FILES
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if isinstance(target, ast.Subscript):
                key = target.slice
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value in self._VOCAB
                ):
                    yield module.finding(
                        node,
                        self,
                        f"ad-hoc counter dict entry {key.value!r}; route "
                        "operation counting through OpCounters",
                    )
                    continue
                target = target.value  # e.g. counters.updates[level] += m
            if isinstance(target, ast.Attribute):
                if target.attr not in self._VOCAB:
                    continue
                base = _dotted(target.value)
                if "counters" in base.lower():
                    continue
                yield module.finding(
                    node,
                    self,
                    f"counter attribute {target.attr!r} incremented on "
                    f"{base or 'an expression'!s}, not on an OpCounters "
                    "instance",
                )


class AggregateRegistryOnly(Rule):
    """RL004 — aggregates come from the canonical registry.

    Problem 1 of the paper requires aggregates to be monotonic and
    associative; an inline ``AggregateFunction`` (say a mean lambda)
    silently breaks filtering soundness — bursts are *missed*, not
    errored.  All instances therefore live in ``repro.core.aggregates``
    (and the 2-D variants in ``repro.spatial.aggregates2d``), where the
    property tests cover them.
    """

    code = "RL004"
    name = "aggregate-registry-only"
    invariant = (
        "AggregateFunction instances and registry entries are defined "
        "only in repro.core.aggregates / repro.spatial.aggregates2d"
    )

    _CANONICAL = ("core/aggregates.py", "spatial/aggregates2d.py")

    def applies_to(self, module: LintModule) -> bool:
        return not module.scope_path.endswith(self._CANONICAL)

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "AggregateFunction"
            ):
                yield module.finding(
                    node,
                    self,
                    "inline AggregateFunction construction; register it in "
                    "repro.core.aggregates where monotonicity/associativity "
                    "property tests cover it",
                )
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and _dotted(target.value).endswith("_BY_NAME")
                    ):
                        yield module.finding(
                            node,
                            self,
                            "aggregate registry mutated outside "
                            "repro.core.aggregates",
                        )


class NoWallClockInCore(Rule):
    """RL005 — deterministic code does not read the wall clock.

    Detection results and operation counts are the reproducible metrics
    (the authors' wall-clock milliseconds are not); a clock read in the
    detection path makes runs machine-dependent and untestable.
    Benchmarks and experiment timing helpers live outside the gated
    packages; the cost model's opt-in ``metric="time"`` sites carry
    explicit suppressions.
    """

    code = "RL005"
    name = "no-wall-clock-in-core"
    invariant = (
        "repro.core / repro.runtime / repro.io / repro.ingest / "
        "repro.durable / repro.testkit never read wall-clock time; "
        "timing lives in benchmarks/ and experiment helpers"
    )

    _CLOCK_ATTRS = {
        "time": {"time", "perf_counter", "monotonic", "process_time", "clock"},
        "datetime": {"now", "utcnow", "today"},
    }
    _BARE = {"perf_counter", "monotonic", "process_time"}

    def applies_to(self, module: LintModule) -> bool:
        return (
            module.in_dir("repro", "core")
            or module.in_dir("repro", "runtime")
            or module.in_dir("repro", "io")
            # Watermarks are event time, never wall time: a clock read
            # in ingestion would break arrival-order invariance.
            or module.in_dir("repro", "ingest")
            # The fuzz harness must be replayable from a seed alone; a
            # clock read anywhere in it would break corpus determinism.
            or module.in_dir("repro", "testkit")
            # WAL replay must reproduce the original run exactly; a
            # clock read in the durable layer would leak wall time into
            # recovered state.
            or module.in_dir("repro", "durable")
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            clocky = False
            if isinstance(func, ast.Attribute):
                base = _dotted(func.value).rsplit(".", 1)[-1]
                clocky = func.attr in self._CLOCK_ATTRS.get(base, ())
            elif isinstance(func, ast.Name):
                clocky = func.id in self._BARE
            if clocky:
                yield module.finding(
                    node,
                    self,
                    "wall-clock read in deterministic code; use operation "
                    "counts, or move timing to benchmarks/experiments",
                )


class ExplicitDtypes(Rule):
    """RL006 — array constructors in the hot packages pin their dtype.

    A dtype left to inference flips with the input (ints stay int64,
    object arrays sneak in through lists), changing overflow and
    rounding behaviour between runs and breaking the zero-copy
    shared-memory protocol, which is float64 end to end.
    """

    code = "RL006"
    name = "explicit-dtypes"
    invariant = (
        "np.asarray/np.empty/np.zeros/np.ones/np.full in repro.core, "
        "repro.runtime, repro.io, repro.ingest and repro.durable pass an "
        "explicit dtype"
    )

    #: Constructor -> positional index where dtype may appear instead.
    _CONSTRUCTORS = {
        "asarray": 1,
        "empty": 1,
        "zeros": 1,
        "ones": 1,
        "full": 2,
    }

    def applies_to(self, module: LintModule) -> bool:
        return (
            module.in_dir("repro", "core")
            or module.in_dir("repro", "runtime")
            or module.in_dir("repro", "io")
            # The out-of-order buffer keeps int64 record counts beside
            # float64 bin values; an inferred dtype swaps the arithmetic.
            or module.in_dir("repro", "ingest")
            # Replayed WAL entries are JSON lists, whose inferred dtype
            # follows whatever numbers the log happens to hold.
            or module.in_dir("repro", "durable")
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if _dotted(func.value).rsplit(".", 1)[-1] not in ("np", "numpy"):
                continue
            dtype_pos = self._CONSTRUCTORS.get(func.attr)
            if dtype_pos is None:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            if len(node.args) > dtype_pos:
                continue  # dtype passed positionally
            yield module.finding(
                node,
                self,
                f"np.{func.attr} without an explicit dtype; inference "
                "varies with the input and breaks the float64 "
                "shared-memory protocol",
            )


class DeadlineAwareIPC(Rule):
    """RL007 — parent-side pipe receives go through the deadline helper.

    Incident: the legacy ``WorkerPool.recv`` poll loop detected *dead*
    workers but spun forever on a live-but-stuck one (an injected hang,
    a worker wedged in a syscall), hanging the whole parent process.
    Every blocking receive on a worker pipe must therefore go through a
    deadline-aware helper (a function whose name says ``deadline``) that
    bounds the wait and raises a typed timeout — raw ``Connection.recv``
    or ``Connection.poll`` anywhere else in the runtime is the bug
    waiting to happen again.  The worker side of the pipe blocks for its
    next command *by design* and carries an explicit suppression.
    """

    code = "RL007"
    name = "deadline-aware-ipc"
    invariant = (
        "Connection.recv/poll in repro.runtime happens inside a "
        "deadline-aware helper (or under an explicit noqa on the "
        "worker's command loop); nothing else may block on a pipe"
    )

    _CONN_RECEIVER = re.compile(r"conn|pipe|channel", re.IGNORECASE)
    _EXEMPT_SCOPE = re.compile(r"deadline", re.IGNORECASE)

    def applies_to(self, module: LintModule) -> bool:
        return module.in_dir("repro", "runtime")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("recv", "poll"):
                continue
            receiver = func.value
            # Unwrap subscripts so `self._conns[worker].recv()` is seen
            # as a receive on `_conns`.
            while isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            name = _dotted(receiver).rsplit(".", 1)[-1]
            if not self._CONN_RECEIVER.search(name):
                continue  # pool.recv() etc. — already deadline-aware
            scope = self._enclosing_function(module.tree, node)
            if scope is not None and self._EXEMPT_SCOPE.search(scope.name):
                continue  # inside the deadline helper itself
            yield module.finding(
                node,
                self,
                f"raw Connection.{func.attr} outside a deadline-aware "
                "helper; a live-but-stuck worker hangs this wait forever "
                "— route it through the pool's deadline-aware receive",
            )

    @staticmethod
    def _enclosing_function(
        tree: ast.Module, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        best: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        for candidate in ast.walk(tree):
            if isinstance(
                candidate, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and any(sub is node for sub in ast.walk(candidate)):
                best = candidate  # innermost wins: keep walking
        return best


class KernelBoundary(Rule):
    """RL009 — the native kernel stays a leaf with accountable scans.

    The kernel layer (ISSUE 7) is the innermost hot loop: it must be
    importable with nothing but numpy (numba optional), safe to compile,
    and byte-accountable.  Two failure modes defeat that.  First, an
    import of the runtime or I/O layers drags process pools, shared
    memory, or file formats into every kernel import — and numba cannot
    compile around them.  Second, a scan entry point that counts nothing
    silently breaks the RAM-model contract: every update and threshold
    comparison must surface as op counts the caller routes through
    :class:`~repro.core.opcount.OpCounters`, or the paper's cost claims
    drift from what actually ran.
    """

    code = "RL009"
    name = "kernel-boundary"
    invariant = (
        "modules under repro.core.kernel import neither repro.runtime "
        "nor repro.io, and every scan entry point carries op counts "
        "for the caller to route through OpCounters"
    )

    _FORBIDDEN = ("runtime", "io")
    _COUNT_EVIDENCE = re.compile(r"count|counter", re.IGNORECASE)

    def applies_to(self, module: LintModule) -> bool:
        return module.in_dir("repro", "core", "kernel")

    def check(self, module: LintModule) -> Iterator[Finding]:
        yield from self._check_imports(module)
        yield from self._check_scans(module)

    # -- part (a): no upward imports ------------------------------------
    def _check_imports(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    layer = self._forbidden_absolute(alias.name)
                    if layer:
                        yield self._import_finding(module, node, layer)
                        break
            elif isinstance(node, ast.ImportFrom):
                layer = self._forbidden_from(node)
                if layer:
                    yield self._import_finding(module, node, layer)

    @classmethod
    def _forbidden_absolute(cls, dotted: str) -> str | None:
        parts = dotted.split(".")
        if (
            len(parts) >= 2
            and parts[0] == "repro"
            and parts[1] in cls._FORBIDDEN
        ):
            return f"repro.{parts[1]}"
        return None

    @classmethod
    def _forbidden_from(cls, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return cls._forbidden_absolute(node.module or "")
        # Relative: from inside repro/core/kernel, level 1 is the kernel
        # package itself; level >= 2 climbs out of it, so a first module
        # component naming a forbidden layer reaches repro.runtime/.io.
        if node.level >= 2 and node.module:
            head = node.module.split(".")[0]
            if head in cls._FORBIDDEN:
                return f"repro.{head}"
        return None

    def _import_finding(
        self, module: LintModule, node: ast.AST, layer: str
    ) -> Finding:
        return module.finding(
            node,
            self,
            f"kernel module imports {layer}; the kernel layer is a "
            "leaf — it may depend on numpy (and optionally numba) but "
            "never on the runtime or I/O layers",
        )

    # -- part (b): scan entry points carry op counts --------------------
    def _check_scans(self, module: LintModule) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not node.name.lstrip("_").startswith("scan"):
                continue
            if self._has_count_evidence(node):
                continue
            yield module.finding(
                node,
                self,
                f"{node.name}() scans without op counts; every kernel "
                "entry point must fill per-level update/filter counts "
                "for the caller to route through OpCounters",
            )

    def _has_count_evidence(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and self._COUNT_EVIDENCE.search(
                sub.id
            ):
                return True
            if isinstance(
                sub, ast.Attribute
            ) and self._COUNT_EVIDENCE.search(sub.attr):
                return True
            if isinstance(sub, ast.arg) and self._COUNT_EVIDENCE.search(
                sub.arg
            ):
                return True
        return False


class DroppedCounterDataflow(Rule):
    """RL012 — a constructed OpCounters object must go somewhere.

    RL003 pins *how* operations are charged (to OpCounters attributes);
    this rule pins *where the object itself flows*.  The failure mode it
    encodes: a helper builds a local ``OpCounters``, charges work to it,
    and then forgets to merge it into (or return it to) the caller's
    accounting — the work happened, the RAM-model totals never saw it,
    and nothing errs.  Intraprocedural dataflow: for every
    ``name = OpCounters(...)`` binding, some later *use* of ``name`` must
    route the object out of the function — a ``return``/``yield``, a call
    argument (``total.merge(name)``, ``f(name)``), or the value side of
    an assignment (``self.counters = name``).  Increments on the object
    (``name.updates[i] += 1``) charge it but route nothing, so they are
    not evidence.
    """

    code = "RL012"
    name = "dropped-counter-dataflow"
    invariant = (
        "every locally constructed OpCounters is merged, returned, or "
        "stored; no operation accounting dies in a local variable"
    )

    def applies_to(self, module: LintModule) -> bool:
        return (
            module.in_dir("repro", "core")
            or module.in_dir("repro", "runtime")
            or module.in_dir("repro", "spatial")
            # The ingestion layer forwards detector counters alongside
            # its amendment ledger; dropped accounting would silently
            # break the op-count half of arrival-order invariance.
            or module.in_dir("repro", "ingest")
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        parents = _Parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) != "OpCounters":
                continue
            binding = self._local_binding(node, parents)
            if binding is None:
                continue  # routed by construction (arg, return, attribute)
            name, func = binding
            if func is None:
                continue  # module-level constant: visible to importers
            if not self._routed(name, node, func):
                yield module.finding(
                    node,
                    self,
                    f"OpCounters bound to {name!r} is never merged, "
                    "returned, or stored; the operations it counts vanish "
                    "from the RAM-model totals",
                )

    @staticmethod
    def _local_binding(
        node: ast.Call, parents: _Parents
    ) -> tuple[str, ast.FunctionDef | ast.AsyncFunctionDef | None] | None:
        """``name`` and enclosing function when ``name = OpCounters(...)``.

        ``None`` when the construction is already routed at the call site:
        passed as an argument, returned, stored on an attribute, etc.
        """
        parent = next(parents.ancestors(node), None)
        if (
            not isinstance(parent, ast.Assign)
            or len(parent.targets) != 1
            or not isinstance(parent.targets[0], ast.Name)
            or parent.value is not node
        ):
            return None
        func = parents.nearest(node, ast.FunctionDef, ast.AsyncFunctionDef)
        assert func is None or isinstance(
            func, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        return parent.targets[0].id, func

    @staticmethod
    def _routed(
        name: str,
        construction: ast.Call,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        def mentions(expr: ast.AST | None) -> bool:
            if expr is None:
                return False
            return any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(expr)
            )

        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if mentions(node.value):
                    return True
            elif isinstance(node, ast.Call) and node is not construction:
                if any(mentions(arg) for arg in node.args) or any(
                    mentions(kw.value) for kw in node.keywords
                ):
                    return True
                # total.merge(...) style: the object *receives* the merge.
                if isinstance(node.func, ast.Attribute) and mentions(
                    node.func.value
                ):
                    if node.func.attr in ("merge", "merged", "copy"):
                        continue  # reading from it is not routing
                    return True
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is not None and value is not construction:
                    if mentions(value):
                        return True
        return False


class DurableWriteDiscipline(Rule):
    """RL013 — durable bytes go through ``repro.durable.fsio`` only.

    The durability contract (crash-anywhere equivalence) holds because
    every write, fsync, and rename in the durable layer passes one
    traced choke point: the crash-injection sweep can only prove
    recovery correct for IO it can see, and the fsync + atomic-rename
    discipline only protects files written under it.  A bare
    ``open(..., "w")`` or ``os.replace`` elsewhere in ``repro.durable``
    is a write the sweep never kills and the discipline never syncs —
    it works until the first real power cut.  Reads are free;
    ``mkdir`` is free (idempotent, carries no data).
    """

    code = "RL013"
    name = "durable-write-discipline"
    invariant = (
        "repro.durable writes to disk only through repro.durable.fsio "
        "(traced, fsynced, atomic-renamed); no writable open(), "
        "Path.write_*, shutil, or os rename/fsync/unlink outside fsio.py"
    )

    _OS_CALLS = {
        "rename",
        "replace",
        "fsync",
        "fdatasync",
        "unlink",
        "remove",
        "link",
        "symlink",
        "truncate",
        "ftruncate",
    }
    _PATH_WRITERS = {
        "write_text",
        "write_bytes",
        "touch",
        "unlink",
        "rename",
        "replace",
        "rmdir",
    }
    _WRITE_MODE = re.compile(r"[wax+]")

    def applies_to(self, module: LintModule) -> bool:
        return (
            module.in_dir("repro", "durable")
            and module.basename != "fsio.py"
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is None or self._WRITE_MODE.search(mode):
                    yield module.finding(
                        node,
                        self,
                        "writable (or unverifiable-mode) open() outside "
                        "fsio; use fsio.open_append/atomic_write_bytes so "
                        "the crash sweep and fsync discipline cover it",
                    )
            elif isinstance(func, ast.Attribute):
                base = _dotted(func.value).rsplit(".", 1)[-1]
                if base == "os" and func.attr in self._OS_CALLS:
                    yield module.finding(
                        node,
                        self,
                        f"os.{func.attr} outside fsio; use the traced "
                        "fsio primitives (atomic_replace, fsync_file, "
                        "remove) instead",
                    )
                elif base == "shutil":
                    yield module.finding(
                        node,
                        self,
                        f"shutil.{func.attr} outside fsio; shutil is "
                        "neither traced nor fsync-disciplined",
                    )
                elif func.attr in self._PATH_WRITERS:
                    yield module.finding(
                        node,
                        self,
                        f".{func.attr}() outside fsio; route the write "
                        "through fsio.atomic_write_bytes (or fsio.remove)",
                    )

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        """The literal mode of an ``open()`` call; ``None`` if dynamic."""
        mode: ast.AST | None = None
        if len(node.args) > 1:
            mode = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
        if mode is None:
            return "r"  # open()'s default: read-only, always fine
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None


ALL_RULES: tuple[Rule, ...] = (
    SharedMemoryLifecycle(),
    BoundedSendLoops(),
    OpCountersRouting(),
    AggregateRegistryOnly(),
    NoWallClockInCore(),
    ExplicitDtypes(),
    DeadlineAwareIPC(),
    KernelBoundary(),
    ImportLayering(),
    IpcProtocolConformance(),
    DroppedCounterDataflow(),
    DurableWriteDiscipline(),
)


def rule_by_code(code: str) -> Rule:
    """Look up a rule instance by its ``RLxxx`` code."""
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    raise KeyError(f"unknown rule {code!r}")
