"""Custom AST lint enforcing repo invariants over ``src/``.

The rules, each guarding an invariant the security machinery depends
on (CI runs this over ``src/`` and fails the build on any
error-severity finding):

* ``LINT-MUTDEF`` — no mutable default arguments: policy bases, grant
  lists and ledgers passed as defaults would be shared across calls;
* ``LINT-BAREEXC`` — no bare ``except:``: enforcement code that
  swallows ``KeyboardInterrupt``/``SystemExit`` can mask denial logic;
* ``LINT-SWALLOW`` — no silent broad swallows: an ``except Exception:``
  (or ``BaseException``) handler that neither re-raises nor binds the
  exception hides every failure class behind one blanket, the classic
  fail-open hazard in enforcement code.  Catch the typed errors the
  protected call actually raises, re-raise a typed error, or — where a
  broad catch genuinely is the contract (evaluating hostile
  user-supplied predicates) — bind the exception
  (``except Exception as exc:``) to mark the swallow deliberate and
  leave an auditable handle;
* ``LINT-HASH`` — no builtin ``hash()`` outside ``__hash__`` methods:
  Python salts string hashes per process (PYTHONHASHSEED), so deriving
  key seeds or policy identities from ``hash()`` is nondeterministic
  across runs — use :mod:`repro.crypto.hashing` digests instead;
* ``LINT-CHECKRET`` — every public ``verify_*``/``check_*`` function
  must produce a consumable outcome: either return a value or raise.
  A checker that can neither succeed loudly nor fail loudly verifies
  nothing.  The companion check flags same-module call sites that
  discard the result of a value-returning, non-raising checker;
* ``LINT-XPATHLOOP`` (warning) — ``compile_xpath``/``evaluate``/
  ``select_elements`` called with a string-literal path inside a loop:
  a constant expression should be compiled once before the loop (the
  process-wide compile cache softens the blow, but every iteration
  still pays a lookup for a value that never changes);
* ``LINT-BLOCKINGAWAIT`` (warning) — a blocking call inside an
  ``async def``: ``time.sleep()``, a lock's un-awaited ``.acquire()``,
  or synchronous file I/O via ``open()``.  A coroutine that blocks
  stalls the *whole* event loop — every tenant of the async gateway,
  not just the offending request.  Use ``await asyncio.sleep()``,
  hold plain locks only for O(1) critical sections via ``with``, and
  do file I/O outside the loop (or in a thread executor);
* ``LINT-REPLICAREAD`` (warning) — a read-verb call (``get``/``read``/
  ``inquiry``/``serve_read``/``lookup``/``fetch``) on a receiver whose
  name mentions ``replica``, inside a function that nowhere consults a
  staleness guard (``watermark``, ``session``, ``caught_up``,
  ``stale``, ``fresh``).  A replica is *allowed* to lag — that is the
  deal replication makes — so a read that never checks how far behind
  its copy is can silently serve deleted registrations or stale
  policies.  Route replica reads through a
  :class:`repro.replica.router.ReplicaSession` (read-your-writes
  floors) or check the served watermark explicitly;
* ``LINT-HOTCOPY`` (warning) — whole-structure copying
  (``copy.deepcopy``/``deep_copy()``/``clone()``) inside a loop, or
  anywhere in a hot-path module (``scale``/``snap``): a deep
  copy is O(size of the structure) per call, exactly the cost the
  copy-on-write snapshot layer (:mod:`repro.snap.frozen`) exists to
  avoid — share the untouched subtrees and copy only the mutated
  spine.  Copy routines may of course copy: calls inside a function
  itself named ``deep_copy``/``clone`` are exempt;
* ``LINT-UNFSYNCED`` — an ``open(..., "w"/"wb"/...)`` in a
  durability-adjacent scope (a module under ``wal/``, or a function
  whose enclosing names mention ``wal``/``checkpoint``/``durable``)
  with no ``fsync``/``fdatasync`` anywhere in the enclosing function:
  a flushed-but-unsynced write sits in the page cache and evaporates
  on power loss *after* the caller was told it was durable.  Writers
  that sync through another layer (:mod:`repro.wal.vfs`) waive the
  site with the pragma.

A line may carry ``# lint: allow=RULE-ID[,RULE-ID...]`` to suppress
exactly those rules on that line — for the rare site where the flagged
pattern *is* the point (a transport that must hand each receiver its
own copy, say).  The pragma names the rule, so it documents the waiver and
suppresses nothing else.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, Report, Severity, REGISTRY

REGISTRY.register(
    "LINT-MUTDEF", Severity.ERROR, "lint",
    "mutable default argument",
    "shared-state defaults corrupt policy/grant bookkeeping across calls")
REGISTRY.register(
    "LINT-BAREEXC", Severity.ERROR, "lint",
    "bare except clause",
    "enforcement code must not swallow exits while failing closed")
REGISTRY.register(
    "LINT-SWALLOW", Severity.ERROR, "lint",
    "broad exception silently swallowed",
    "catching Exception without re-raising or binding hides every "
    "failure class — the fail-open hazard typed errors exist to prevent")
REGISTRY.register(
    "LINT-HASH", Severity.ERROR, "lint",
    "nondeterministic builtin hash()",
    "salted string hashing breaks reproducibility of seeds and policy "
    "identities across processes")
REGISTRY.register(
    "LINT-CHECKRET", Severity.ERROR, "lint",
    "verify_/check_ outcome unreported or discarded",
    "a checker whose verdict cannot be consumed verifies nothing")
REGISTRY.register(
    "LINT-XPATHLOOP", Severity.WARNING, "lint",
    "constant XPath compiled inside a loop",
    "a literal path never changes between iterations; compile it once "
    "before the loop")
REGISTRY.register(
    "LINT-HOTCOPY", Severity.WARNING, "lint",
    "whole-structure deep copy in a loop or hot-path module",
    "deep copies cost O(structure size) per call; on hot paths use "
    "copy-on-write sharing (repro.snap.frozen) instead of cloning")
REGISTRY.register(
    "LINT-BLOCKINGAWAIT", Severity.WARNING, "lint",
    "blocking call inside an async function",
    "a coroutine that blocks (time.sleep, bare lock .acquire(), "
    "synchronous open()) stalls the whole event loop and every tenant "
    "being served on it")
REGISTRY.register(
    "LINT-REPLICAREAD", Severity.WARNING, "lint",
    "replica read without a staleness guard",
    "a replica may lawfully lag its primary; reading one without a "
    "watermark/session check can silently serve deleted registrations "
    "or stale policy state")
REGISTRY.register(
    "LINT-UNFSYNCED", Severity.ERROR, "lint",
    "durability-adjacent write without an fsync",
    "a write that is flushed but never fsynced sits in the page cache; "
    "after a crash the 'durable' checkpoint or log record silently "
    "vanishes — exactly the loss the WAL exists to make impossible")
REGISTRY.register(
    "LINT-SYNTAX", Severity.ERROR, "lint",
    "file does not parse",
    "unparseable code cannot be analyzed, let alone enforced")

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict",
                  "Counter", "bytearray"}
_CHECK_PREFIXES = ("verify_", "check_")
_XPATH_CALLS = {"compile_xpath", "evaluate", "select_elements"}
_HOTCOPY_CALLS = {"deepcopy", "deep_copy", "clone"}
#: Directory names whose modules are hot paths: a deep copy there is
#: suspect even outside a loop (the module exists to serve reads fast).
_HOT_PATH_PARTS = {"scale", "snap"}
#: Read verbs that, called on a replica-named receiver, count as a
#: replica read.
_REPLICA_READ_CALLS = {"get", "read", "inquiry", "serve_read",
                       "lookup", "fetch"}
#: Receiver-name substring marking a replica (case-insensitive).
_REPLICA_MARKER = "replica"
#: Identifier substrings that count as guarding replica staleness.
_REPLICA_GUARD_TOKENS = ("watermark", "session", "caught_up", "stale",
                         "fresh")
#: Directory names whose modules are durability-critical: every file
#: opened for writing there must reach the platter before it counts.
_DURABLE_PATH_PARTS = {"wal"}
#: Function/class-name substrings marking a durability-adjacent scope
#: outside those directories (the snap checkpoint paths, durable
#: wrappers).
_DURABLE_NAME_TOKENS = ("wal", "checkpoint", "durable")
#: Identifier substrings that count as reaching the platter.
_FSYNC_TOKENS = ("fsync", "fdatasync")


@dataclass(frozen=True)
class _FunctionFacts:
    """What the call-site pass needs to know about a local function."""

    returns_value: bool
    raises: bool


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        return name in _MUTABLE_CALLS
    return False


def _is_checker_name(name: str) -> bool:
    return name.startswith(_CHECK_PREFIXES)


def _function_facts(node: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> _FunctionFacts:
    returns_value = False
    raises = False
    for child in ast.walk(node):
        if child is not node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef,
                        ast.Lambda)):
            continue
        if isinstance(child, ast.Return) and child.value is not None:
            returns_value = True
        if isinstance(child, ast.Raise):
            raises = True
    return _FunctionFacts(returns_value, raises)


def _mentions_tokens(node: ast.AST, tokens: tuple[str, ...]) -> bool:
    """Does the subtree name an identifier containing any token?

    Identifiers are Name ids, Attribute attrs, argument names, and
    keyword-argument names — a function whose *parameter* is
    ``min_watermark``, or that passes ``min_watermark=``, consults the
    watermark as much as one reading ``self.watermark``.
    """
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            identifier = child.id
        elif isinstance(child, ast.Attribute):
            identifier = child.attr
        elif isinstance(child, ast.arg):
            identifier = child.arg
        elif isinstance(child, ast.keyword) and child.arg is not None:
            identifier = child.arg
        else:
            continue
        if any(token in identifier for token in tokens):
            return True
    return False


def _receiver_mentions_replica(receiver: ast.expr) -> bool:
    """Does the call receiver's identifier chain name a replica?

    Walks the whole receiver expression so chains and subscripts
    (``self.replicas[i]``, ``pool.replica_for(key)``) count too.
    """
    for child in ast.walk(receiver):
        if isinstance(child, ast.Name):
            identifier = child.id
        elif isinstance(child, ast.Attribute):
            identifier = child.attr
        else:
            continue
        if _REPLICA_MARKER in identifier.lower():
            return True
    return False


def _open_write_mode(node: ast.Call) -> str | None:
    """The literal mode string of an ``open()`` call, if it writes."""
    mode: ast.expr | None = node.args[1] if len(node.args) >= 2 else None
    if mode is None:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if not (isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)):
        return None
    return mode.value if any(ch in mode.value for ch in "wax+") else None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []
        self._local_checkers: dict[str, _FunctionFacts] = {}
        self._loop_depth = 0
        self._replica_guard_context = False
        #: True while inside an ``async def`` *body proper* — a nested
        #: sync ``def`` pushes False (its body is not necessarily run
        #: on the loop).
        self._async_stack: list[bool] = []
        #: Call nodes that are the direct operand of an ``await``
        #: (``await lock.acquire()`` is the async API, not a block).
        self._awaited_calls: set[int] = set()
        self._hot_module = bool(
            _HOT_PATH_PARTS.intersection(
                pathlib.PurePath(path).parts[:-1]))
        self._durable_module = bool(
            _DURABLE_PATH_PARTS.intersection(
                pathlib.PurePath(path).parts[:-1]))
        self._fsync_context = False

    def _emit(self, rule_id: str, node: ast.AST, message: str,
              fix_hint: str = "") -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(REGISTRY.make_finding(
            rule_id, f"{self.path}:{line}", message, fix_hint))

    # -- collection pass ---------------------------------------------------

    def collect_checkers(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_checker_name(node.name):
                    self._local_checkers[node.name] = _function_facts(node)

    # -- rules ----------------------------------------------------------------

    def _visit_function(self,
                        node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                self._emit(
                    "LINT-MUTDEF", default,
                    f"function {node.name!r} has a mutable default "
                    f"argument",
                    fix_hint="default to None and construct inside the "
                             "body")
        if (_is_checker_name(node.name)
                and not node.name.startswith("_")):
            facts = _function_facts(node)
            if not facts.returns_value and not facts.raises:
                self._emit(
                    "LINT-CHECKRET", node,
                    f"{node.name!r} neither returns a value nor raises; "
                    f"its verdict is unobservable",
                    fix_hint="return the check outcome or raise on "
                             "failure")
        self._function_stack.append(node.name)
        self._async_stack.append(
            isinstance(node, ast.AsyncFunctionDef))
        # A nested function's body does not run per iteration of an
        # enclosing loop, so its loop depth starts fresh.
        outer_loop_depth = self._loop_depth
        self._loop_depth = 0
        # The replica-staleness guard is inherited: a function that
        # consults a watermark/session covers its closures.
        outer_guard = self._replica_guard_context
        self._replica_guard_context = (
            outer_guard
            or _mentions_tokens(node, _REPLICA_GUARD_TOKENS))
        # Fsync context is scoped to the function: a write helper that
        # never names fsync/fdatasync anywhere in its body cannot be
        # making its writes durable (inherited so closures are covered,
        # like the staleness guard).
        outer_fsync = self._fsync_context
        self._fsync_context = (outer_fsync
                               or _mentions_tokens(node, _FSYNC_TOKENS))
        self.generic_visit(node)
        self._fsync_context = outer_fsync
        self._replica_guard_context = outer_guard
        self._loop_depth = outer_loop_depth
        self._async_stack.pop()
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "LINT-BAREEXC", node,
                "bare except catches SystemExit and KeyboardInterrupt",
                fix_hint="catch Exception (or something narrower)")
        elif (self._catches_broad(node.type) and node.name is None
                and not any(isinstance(child, ast.Raise)
                            for stmt in node.body
                            for child in ast.walk(stmt))):
            self._emit(
                "LINT-SWALLOW", node,
                "broad except swallows every failure class without "
                "re-raising or binding the exception",
                fix_hint="catch the typed errors the call actually "
                         "raises, re-raise a typed error, or bind the "
                         "exception to mark the swallow deliberate")
        self.generic_visit(node)

    @staticmethod
    def _catches_broad(type_node: ast.expr) -> bool:
        names = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        return any(isinstance(name, ast.Name)
                   and name.id in ("Exception", "BaseException")
                   for name in names)

    def _visit_loop(self, node: ast.For | ast.AsyncFor | ast.While
                    ) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited_calls.add(id(node.value))
        self.generic_visit(node)

    def _in_async_body(self) -> bool:
        return bool(self._async_stack) and self._async_stack[-1]

    def _check_blocking_in_async(self, node: ast.Call,
                                 callee: str) -> None:
        if not self._in_async_body() or id(node) in self._awaited_calls:
            return
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            self._emit(
                "LINT-BLOCKINGAWAIT", node,
                "time.sleep() inside an async function blocks the "
                "whole event loop",
                fix_hint="await asyncio.sleep() instead")
        elif isinstance(func, ast.Attribute) and callee == "acquire":
            self._emit(
                "LINT-BLOCKINGAWAIT", node,
                "un-awaited .acquire() inside an async function can "
                "block the event loop on lock contention",
                fix_hint="await an asyncio lock, or guard an O(1) "
                         "critical section with a plain 'with lock:'")
        elif isinstance(func, ast.Name) and callee == "open":
            self._emit(
                "LINT-BLOCKINGAWAIT", node,
                "synchronous open() inside an async function does "
                "file I/O on the event loop",
                fix_hint="do file I/O before entering the loop or in "
                         "a thread executor (asyncio.to_thread)")

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "hash"
                and "__hash__" not in self._function_stack):
            self._emit(
                "LINT-HASH", node,
                "builtin hash() is salted per process; results are not "
                "reproducible across runs",
                fix_hint="use repro.crypto.hashing (sha256_int/"
                         "sha256_hex) for stable digests")
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        self._check_blocking_in_async(node, callee)
        if (callee in _XPATH_CALLS and self._loop_depth > 0
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            self._emit(
                "LINT-XPATHLOOP", node,
                f"{callee}() is called with a literal path inside a "
                f"loop; the expression is re-looked-up every iteration",
                fix_hint="compile_xpath() the literal once before the "
                         "loop and pass the compiled object")
        if (callee in _REPLICA_READ_CALLS
                and isinstance(func, ast.Attribute)
                and self._function_stack
                and not self._replica_guard_context
                and _receiver_mentions_replica(func.value)):
            self._emit(
                "LINT-REPLICAREAD", node,
                f".{callee}() reads a replica but "
                f"{self._function_stack[-1]!r} never consults a "
                f"staleness guard; a lagging copy can silently serve "
                f"stale state",
                fix_hint="route the read through a ReplicaSession "
                         "(read-your-writes watermark floors) or "
                         "check the served watermark against the "
                         "caller's floor")
        if (callee in _HOTCOPY_CALLS
                and (self._loop_depth > 0 or self._hot_module)
                and not any(name in _HOTCOPY_CALLS
                            for name in self._function_stack)):
            where = ("inside a loop" if self._loop_depth > 0
                     else "in a hot-path module")
            self._emit(
                "LINT-HOTCOPY", node,
                f"{callee}() deep-copies a whole structure {where}; "
                f"the cost is O(structure size) on every call",
                fix_hint="share unchanged subtrees copy-on-write "
                         "(repro.snap.frozen) or hoist one copy out "
                         "of the loop")
        if (callee == "open" and isinstance(func, ast.Name)
                and not self._fsync_context
                and (self._durable_module
                     or any(token in name.lower()
                            for name in self._function_stack
                            for token in _DURABLE_NAME_TOKENS))):
            mode = _open_write_mode(node)
            if mode is not None:
                where = (self._function_stack[-1]
                         if self._function_stack else "module scope")
                self._emit(
                    "LINT-UNFSYNCED", node,
                    f"open(..., {mode!r}) in durability-adjacent "
                    f"{where!r} writes without fsync/fdatasync "
                    f"anywhere in scope; a crash loses the write "
                    f"after it was reported durable",
                    fix_hint="flush() then os.fsync(handle.fileno()) "
                             "before close, or route the write "
                             "through repro.wal.vfs (OsVfs syncs "
                             "data and directory entries)")
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            facts = self._local_checkers.get(call.func.id)
            if (facts is not None and facts.returns_value
                    and not facts.raises):
                self._emit(
                    "LINT-CHECKRET", node,
                    f"result of {call.func.id!r} is discarded but the "
                    f"checker reports only through its return value",
                    fix_hint="consume the returned verdict")
        self.generic_visit(node)


_ALLOW_PRAGMA = re.compile(r"#\s*lint:\s*allow=([A-Z0-9\-, ]+)")


def _allowed_rules(source: str) -> dict[int, frozenset[str]]:
    """line number → rule ids waived by an ``# lint: allow=`` pragma."""
    allowed: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_PRAGMA.search(line)
        if match:
            allowed[lineno] = frozenset(
                rule.strip() for rule in match.group(1).split(",")
                if rule.strip())
    return allowed


def _finding_line(finding: Finding) -> int:
    _, _, line = finding.location.rpartition(":")
    return int(line) if line.isdigit() else 0


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source text; syntax errors become findings too."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [REGISTRY.make_finding(
            "LINT-SYNTAX", f"{path}:{exc.lineno or 0}",
            f"file does not parse: {exc.msg}")]
    linter = _Linter(path)
    linter.collect_checkers(tree)
    linter.visit(tree)
    allowed = _allowed_rules(source)
    if not allowed:
        return linter.findings
    return [finding for finding in linter.findings
            if finding.rule_id not in
            allowed.get(_finding_line(finding), frozenset())]


def iter_python_files(paths: Iterable[str | pathlib.Path]
                      ) -> Iterator[pathlib.Path]:
    for entry in paths:
        path = pathlib.Path(entry)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[str | pathlib.Path]) -> Report:
    """Lint every ``*.py`` under the given files/directories."""
    report = Report()
    for path in iter_python_files(paths):
        report.extend(lint_source(path.read_text(encoding="utf-8"),
                                  str(path)))
    return report
