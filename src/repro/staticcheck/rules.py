"""The twelve contract rules.

Each rule proves one structural invariant the runtime layers rely on
implicitly (the guarantee oracles of :mod:`repro.verify`, the snapshot
codec of :mod:`repro.persist`, the asyncio service).  Rules are pure
functions of the parsed :class:`~repro.staticcheck.project.Project`:
``check(mod, project)`` yields :class:`Finding`s for one module.

Suppression (``# repro: noqa[R7] reason``) and the baseline are applied
by the runner, not here — rules always report what they see.
"""

import ast

from repro.staticcheck.findings import Finding
from repro.staticcheck.project import ParsedModule, Project, dotted_to_key

__all__ = ["ALL_RULES", "Rule", "rules_by_id"]

#: The algorithm base classes (``repro.streaming.model``) whose subclasses
#: carry the streaming / snapshot contracts.
_ONEPASS_BASES = ("repro.streaming.model.OnePassAlgorithm",)
_SNAPSHOT_BASES = (
    "repro.streaming.model.SnapshotableAlgorithm",
    "repro.streaming.model.MultipassStreamingAlgorithm",
    "repro.streaming.model.OnePassAlgorithm",
)


def _in_package(mod: ParsedModule, *prefixes: str) -> bool:
    return any(mod.module == p or mod.module.startswith(p + ".")
               for p in prefixes)


def _finding(mod: ParsedModule, node: ast.AST, rule: str, message: str) -> Finding:
    return Finding(
        path=mod.relpath,
        line=node.lineno,
        col=node.col_offset,
        rule=rule,
        message=message,
        text=mod.line_text(node.lineno),
    )


def _scoped_walk(nodes, *, skip_defs: bool = False, skip_classes: bool = False):
    """Walk statements without descending into nested function/class bodies."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if skip_defs and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if skip_classes and isinstance(node, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(node))


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement ``check``."""

    id = "R0"
    title = ""

    def check(self, mod: ParsedModule, project: Project):
        raise NotImplementedError
        yield  # pragma: no cover


# ----------------------------------------------------------------------
# R1 — metered randomness
# ----------------------------------------------------------------------
class MeteredRandomnessRule(Rule):
    """Core/baseline algorithms draw randomness only through metered sources.

    Every random bit an algorithm consumes is charged to its
    :class:`SpaceMeter` by ``SeededRng`` and the declared hash families.
    A bare ``random.*`` / ``np.random.*`` call would draw unmetered bits,
    silently breaking the Theorem 3/4 randomness accounting the guarantee
    oracles certify.
    """

    id = "R1"
    title = "metered-randomness"
    _BANNED = ("random", "numpy.random")

    def _is_banned(self, dotted: str | None) -> bool:
        return dotted is not None and any(
            dotted == b or dotted.startswith(b + ".") for b in self._BANNED
        )

    def check(self, mod, project):
        if not _in_package(mod, "repro.core", "repro.baselines"):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_banned(alias.name):
                        yield _finding(
                            mod, node, self.id,
                            f"import of unmetered randomness module "
                            f"{alias.name!r}; draw through SeededRng or a "
                            f"declared hash family",
                        )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if self._is_banned(base):
                    yield _finding(
                        mod, node, self.id,
                        f"import from unmetered randomness module {base!r}; "
                        f"draw through SeededRng or a declared hash family",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = mod.resolve(node)
                if not self._is_banned(dotted):
                    continue
                # flag only the shortest banned prefix, once per chain
                if self._is_banned(mod.resolve(node.value)):
                    continue
                yield _finding(
                    mod, node, self.id,
                    f"unmetered randomness {dotted}; draw through SeededRng "
                    f"or a declared hash family",
                )


# ----------------------------------------------------------------------
# R2 — snapshot completeness
# ----------------------------------------------------------------------
class SnapshotCompletenessRule(Rule):
    """Snapshot-allowlisted classes keep only codec-representable state.

    For every class in ``persist.codec``'s ``SNAPSHOT_CLASSES`` (and its
    statically visible ancestors), each ``self.x = ...`` must either be
    codec-representable or listed in ``_snapshot_skip_`` / rebuilt by
    ``_snapshot_init_``.  Statically provable violations: lambdas,
    generator expressions, open file handles, locks/sockets, and
    constructors of repository classes that are not themselves
    allowlisted.
    """

    id = "R2"
    title = "snapshot-completeness"
    _BANNED_PREFIXES = ("threading.", "socket.", "subprocess.", "io.")
    _BANNED_CALLS = ("open", "iter", "asyncio.Lock", "asyncio.Event",
                     "asyncio.Queue", "tempfile.TemporaryDirectory")

    def _scoped_classes(self, mod, project):
        """Allowlisted classes in this module, plus ancestors of any
        allowlisted class that happen to be defined here."""
        allow = project.codec_allowlist
        ancestor_dotted: set = set()
        for info in project.classes_by_dotted.values():
            if info.key in allow:
                ancestor_dotted.update(project.ancestry(info))
        for info in project.classes_by_dotted.values():
            if info.mod is not mod:
                continue
            if info.key in allow or info.dotted in ancestor_dotted \
                    or info.name in {d.rpartition(".")[2] for d in ancestor_dotted}:
                yield info

    def _violation(self, mod, project, value) -> str | None:
        for node in ast.walk(value):
            if isinstance(node, ast.Lambda):
                return "a lambda is not codec-representable"
            if isinstance(node, ast.GeneratorExp):
                return "a generator expression is not codec-representable"
            if isinstance(node, ast.Call):
                dotted = mod.resolve(node.func)
                if dotted is None:
                    continue
                if dotted in self._BANNED_CALLS or dotted.startswith(
                    self._BANNED_PREFIXES
                ):
                    return f"{dotted}(...) is not codec-representable"
                info = project.find_class(dotted)
                if info is not None:
                    if info.key not in project.codec_allowlist:
                        return (
                            f"{info.key} is not in persist.codec's "
                            f"SNAPSHOT_CLASSES allowlist"
                        )
                elif (dotted.startswith("repro.")
                        and dotted.rpartition(".")[2][:1].isupper()
                        and dotted_to_key(dotted) not in project.codec_allowlist):
                    return (
                            f"{dotted_to_key(dotted)} is not in persist.codec's "
                            f"SNAPSHOT_CLASSES allowlist"
                        )
        return None

    def check(self, mod, project):
        for info in self._scoped_classes(mod, project):
            exempt = project.snapshot_skip(info)
            # nested classes get their own ClassInfo pass
            for node in _scoped_walk(info.node.body, skip_classes=True):
                targets = ()
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets, value = [node.target], node.value
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if target.attr in exempt or value is None:
                        continue
                    why = self._violation(mod, project, value)
                    if why is not None:
                        yield _finding(
                            mod, node, self.id,
                            f"self.{target.attr} in snapshotable class "
                            f"{info.name}: {why}; make it representable or "
                            f"list it in _snapshot_skip_",
                        )


# ----------------------------------------------------------------------
# R3 — streaming purity
# ----------------------------------------------------------------------
class StreamingPurityRule(Rule):
    """One-pass algorithms never materialize the stream.

    Classes subclassing ``OnePassAlgorithm`` model the paper's
    adversarial single-pass setting: state is sublinear in the stream, so
    calling ``Graph.edges()`` / ``edge_list()`` / ``to_csr()`` or
    constructing a ``Graph``/``CSRGraph`` inside one is a contract breach
    even when tests still pass on small inputs.
    """

    id = "R3"
    title = "streaming-purity"
    _BANNED_METHODS = frozenset({"edges", "edge_list", "to_csr"})
    _BANNED_CLASSES = frozenset({
        "repro.graph.graph.Graph",
        "repro.graph.csr.CSRGraph",
    })

    def check(self, mod, project):
        for info in project.classes_by_dotted.values():
            if info.mod is not mod:
                continue
            if not project.derives_from(info, _ONEPASS_BASES):
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._BANNED_METHODS):
                    yield _finding(
                        mod, node, self.id,
                        f".{node.func.attr}() materializes the stream inside "
                        f"one-pass algorithm {info.name}",
                    )
                    continue
                dotted = mod.resolve(node.func)
                if dotted is None:
                    continue
                resolved = project.find_class(dotted)
                dotted_full = resolved.dotted if resolved is not None else dotted
                if dotted_full in self._BANNED_CLASSES:
                    yield _finding(
                        mod, node, self.id,
                        f"{dotted_full} constructed inside one-pass "
                        f"algorithm {info.name}; one-pass state must stay "
                        f"sublinear in the stream",
                    )


# ----------------------------------------------------------------------
# R4 — async bodies never block
# ----------------------------------------------------------------------
class AsyncBlockingRule(Rule):
    """``async def`` bodies in the service never make blocking calls.

    One stalled coroutine stalls every session on the loop.  Blocking
    work belongs in ``asyncio.to_thread`` (the restore path already does
    this) or in a sync helper documented as loop-exempt.
    """

    id = "R4"
    title = "async-blocking"
    _BANNED_EXACT = frozenset({
        "time.sleep", "open", "os.system", "os.popen", "os.unlink",
        "os.remove", "os.rename", "os.replace", "os.makedirs", "os.rmdir",
        "os.listdir", "os.stat",
    })
    _BANNED_PREFIXES = ("subprocess.", "shutil.", "os.path.")
    _BANNED_METHODS = frozenset({
        "read_text", "write_text", "read_bytes", "write_bytes",
        # blocking pipe I/O: async code reaches a pipe only through the
        # _send_msg/_recv_msg choke points (R9), called on the loop for
        # small control messages and via asyncio.to_thread for large ones
        "recv", "recv_bytes", "send", "send_bytes",
    })

    def check(self, mod, project):
        if not _in_package(mod, "repro.service"):
            return
        for func in ast.walk(mod.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _scoped_walk(func.body, skip_defs=True):
                if not isinstance(node, ast.Call):
                    continue
                dotted = mod.resolve(node.func)
                blocked = dotted is not None and (
                    dotted in self._BANNED_EXACT
                    or dotted.startswith(self._BANNED_PREFIXES)
                )
                if not blocked and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in self._BANNED_METHODS:
                    blocked, dotted = True, f"*.{node.func.attr}"
                if blocked:
                    yield _finding(
                        mod, node, self.id,
                        f"blocking call {dotted}(...) inside async def "
                        f"{func.name}; wrap it in asyncio.to_thread or move "
                        f"it to a sync helper",
                    )


# ----------------------------------------------------------------------
# R5 — guarantee registration
# ----------------------------------------------------------------------
class GuaranteeRegistrationRule(Rule):
    """Every ``AlgorithmEntry`` declares its guarantee and a real config.

    The ``repro verify`` sweep only certifies entries that declare a
    ``GuaranteeSpec``; an entry registered without one silently opts out
    of the paper-bound oracles.  The config class must be a dataclass
    with the ``from_dict``/``to_dict`` round-trip the engine, service,
    and checkpoint formats all rely on.
    """

    id = "R5"
    title = "guarantee-registration"

    def _config_ok(self, mod, project, value) -> bool:
        dotted = mod.resolve(value)
        if dotted is None:
            return False
        info = project.find_class(dotted)
        if info is None:
            # imported from an unscanned module: accept the engine's own
            # config package, reject everything else.
            return dotted.startswith("repro.engine.config.")
        chain = [info] + [
            p for p in (project.find_class(b) for b in project.ancestry(info))
            if p is not None
        ]
        is_dataclass = any(
            dec in ("dataclasses.dataclass", "dataclass")
            for link in chain for dec in link.decorators
        )
        methods = {
            stmt.name for link in chain for stmt in link.node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        return is_dataclass and {"from_dict", "to_dict"} <= methods

    def check(self, mod, project):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = mod.resolve(node.func)
            if dotted is None or dotted.rpartition(".")[2] != "AlgorithmEntry":
                continue
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            guarantee = kwargs.get("guarantee")
            if guarantee is None or (isinstance(guarantee, ast.Constant)
                                     and guarantee.value is None):
                yield _finding(
                    mod, node, self.id,
                    "AlgorithmEntry without a GuaranteeSpec: the entry opts "
                    "out of the verify sweep; declare guarantee=...",
                )
            config_cls = kwargs.get("config_cls")
            if config_cls is None or not self._config_ok(mod, project, config_cls):
                yield _finding(
                    mod, node, self.id,
                    "AlgorithmEntry.config_cls must be a dataclass with the "
                    "from_dict/to_dict round-trip (subclass AlgorithmConfig)",
                )


# ----------------------------------------------------------------------
# R6 — CLI exit-code convention
# ----------------------------------------------------------------------
class ExitCodeRule(Rule):
    """CLI error paths follow the exit-2 convention.

    Bad input exits with status 2 and a one-line message on stderr —
    never a traceback, never a made-up status.  Checked in ``cli``
    modules: ``sys.exit``/``SystemExit`` use only 0 or 2 with literal
    statuses, and every ``except <ReproError-family>`` handler both
    prints to ``sys.stderr`` and returns/exits 2.
    """

    id = "R6"
    title = "exit-code-convention"

    @staticmethod
    def _is_cli(mod: ParsedModule) -> bool:
        return mod.module.rpartition(".")[2] == "cli"

    @staticmethod
    def _exit_status(mod, node) -> int | None:
        """Literal status of a ``sys.exit(...)`` / ``raise SystemExit(...)``."""
        if isinstance(node, ast.Call):
            dotted = mod.resolve(node.func)
            if dotted in ("sys.exit", "SystemExit") and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                    return arg.value
        return None

    def _handler_findings(self, mod, project, handler):
        caught = []
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type] if handler.type is not None else []
        for t in types:
            dotted = mod.resolve(t)
            if dotted is not None and project.is_taxonomy_exception(dotted):
                caught.append(dotted)
        if not caught:
            return
        returns_two = False
        prints_stderr = False
        for node in _scoped_walk(handler.body, skip_defs=True):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Constant) \
                    and node.value.value == 2:
                returns_two = True
            if self._exit_status(mod, node) == 2:
                returns_two = True
            if isinstance(node, ast.Call) \
                    and mod.resolve(node.func) == "print":
                for kw in node.keywords:
                    if kw.arg == "file" \
                            and mod.resolve(kw.value) == "sys.stderr":
                        prints_stderr = True
            if isinstance(node, ast.Raise):
                returns_two = True  # re-raised for an outer exit-2 handler
                prints_stderr = True
        name = caught[0].rpartition(".")[2]
        if not returns_two:
            yield _finding(
                mod, handler, self.id,
                f"except {name} handler must exit/return status 2 "
                f"(the CLI error convention)",
            )
        if not prints_stderr:
            yield _finding(
                mod, handler, self.id,
                f"except {name} handler must print a one-line message to "
                f"sys.stderr",
            )

    def check(self, mod, project):
        if not self._is_cli(mod):
            return
        for node in ast.walk(mod.tree):
            status = self._exit_status(mod, node)
            if status is not None and status not in (0, 2):
                yield _finding(
                    mod, node, self.id,
                    f"exit status {status}: the CLI convention is 0 "
                    f"(success) or 2 (usage/contract error)",
                )
            if isinstance(node, ast.ExceptHandler):
                yield from self._handler_findings(mod, project, node)


# ----------------------------------------------------------------------
# R7 — determinism hygiene
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    """No wall-clock reads or hash-order iteration in result paths.

    Results must be a function of (spec, stream, seed) alone.
    ``time.perf_counter`` is tolerated *only* for the timing extras and
    must carry an explicit ``# repro: noqa[R7]`` annotation at each site,
    so every exception is visible in the diff rather than buried in a
    baseline.
    """

    id = "R7"
    title = "determinism-hygiene"
    _WALL_CLOCK = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.ctime", "time.localtime", "time.gmtime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })
    _PERF = frozenset({"time.perf_counter", "time.perf_counter_ns"})
    _ORDER_SCOPES = ("repro.core", "repro.baselines", "repro.engine",
                     "repro.hashing", "repro.streaming")

    def check(self, mod, project):
        order_scoped = _in_package(mod, *self._ORDER_SCOPES)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                dotted = mod.resolve(node.func)
                if dotted in self._WALL_CLOCK:
                    yield _finding(
                        mod, node, self.id,
                        f"wall-clock read {dotted}(); results must be a "
                        f"function of (spec, stream, seed) only",
                    )
                elif dotted in self._PERF:
                    yield _finding(
                        mod, node, self.id,
                        f"{dotted}() is allowed only for timing extras; "
                        f"annotate the site with '# repro: noqa[R7]'",
                    )
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if not order_scoped:
                    continue
                is_set = isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and mod.resolve(it.func) in ("set", "frozenset")
                )
                if is_set:
                    yield _finding(
                        mod, it, self.id,
                        "iteration directly over a set: the order is "
                        "hash-dependent; sort it first",
                    )


# ----------------------------------------------------------------------
# R8 — exception taxonomy
# ----------------------------------------------------------------------
class ExceptionTaxonomyRule(Rule):
    """Raised exceptions derive from the ``ReproError`` taxonomy.

    Callers catch everything from this package with one ``except
    ReproError`` clause (the CLI's exit-2 paths, the service dispatcher,
    the grid runner's error rows all rely on it).  A bare ``ValueError``
    escapes all of them as a traceback.  Dual-inheritance classes
    (``ParameterError(ReproError, ValueError)``) keep the standard-idiom
    contract for external callers.
    """

    id = "R8"
    title = "exception-taxonomy"
    _BANNED_BUILTINS = frozenset({
        "ValueError", "RuntimeError", "TypeError", "KeyError", "IndexError",
        "Exception", "BaseException", "OSError", "IOError", "LookupError",
        "ArithmeticError", "ZeroDivisionError", "AttributeError",
    })
    #: Functions whose protocol *requires* a builtin exception.
    _PROTOCOL_FUNCS = frozenset({"__getattr__", "__getattribute__"})

    def _protocol_raises(self, tree) -> set:
        exempt: set = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in self._PROTOCOL_FUNCS:
                exempt.update(
                    n for n in ast.walk(node) if isinstance(n, ast.Raise)
                )
        return exempt

    def check(self, mod, project):
        if not _in_package(mod, "repro"):
            return
        protocol = self._protocol_raises(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if node in protocol:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            dotted = mod.resolve(exc)
            if dotted is None:
                continue
            name = dotted.rpartition(".")[2]
            if project.is_taxonomy_exception(dotted):
                continue
            if dotted in self._BANNED_BUILTINS or (
                "." not in dotted and name in self._BANNED_BUILTINS
            ):
                yield _finding(
                    mod, node, self.id,
                    f"raise {name}: raised exceptions must derive from the "
                    f"ReproError taxonomy (repro.common.exceptions); use a "
                    f"dual-inheritance subclass if callers rely on {name}",
                )


# ----------------------------------------------------------------------
# R9 — worker IPC discipline
# ----------------------------------------------------------------------
class WorkerIpcRule(Rule):
    """Worker IPC moves edge payloads through shared memory, never pickle.

    The execution plane's zero-copy contract (:mod:`repro.service.pool`):
    edge blocks travel through the per-worker shared-memory ring; the
    control pipe carries only small plain-data dicts, funnelled through
    the ``_send_msg`` / ``_recv_msg`` choke points (which runtime-assert
    that no ndarray sneaks into a control message).  In scope
    (``repro.service`` and ``repro.engine.grid``) this rule bans explicit
    ``pickle`` use entirely and confines raw connection I/O
    (``.send/.recv/.send_bytes/.recv_bytes``) to those two helpers, so a
    stray ``conn.send(edges)`` cannot silently reintroduce per-block
    pickling.
    """

    id = "R9"
    title = "ipc-discipline"
    _SCOPES = ("repro.service", "repro.engine.grid")
    _PIPE_METHODS = frozenset({"send", "recv", "send_bytes", "recv_bytes"})
    _CHOKE_POINTS = frozenset({"_send_msg", "_recv_msg"})

    def _choke_point_nodes(self, tree) -> set:
        inside: set = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in self._CHOKE_POINTS:
                inside.update(ast.walk(node))
        return inside

    def check(self, mod, project):
        if not _in_package(mod, *self._SCOPES):
            return
        exempt = self._choke_point_nodes(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "pickle" \
                            or alias.name.startswith("pickle."):
                        yield _finding(
                            mod, node, self.id,
                            "import of pickle in worker-IPC scope; edge "
                            "payloads cross processes via the shared-memory "
                            "ring, control messages via _send_msg/_recv_msg",
                        )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if base == "pickle" or base.startswith("pickle."):
                    yield _finding(
                        mod, node, self.id,
                        "import from pickle in worker-IPC scope; edge "
                        "payloads cross processes via the shared-memory "
                        "ring, control messages via _send_msg/_recv_msg",
                    )
            elif isinstance(node, ast.Call):
                dotted = mod.resolve(node.func)
                if dotted is not None and (
                    dotted == "pickle" or dotted.startswith("pickle.")
                ):
                    yield _finding(
                        mod, node, self.id,
                        f"{dotted}(...) in worker-IPC scope; never pickle "
                        f"payloads by hand — use the shared-memory ring",
                    )
                    continue
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._PIPE_METHODS
                        and node not in exempt):
                    yield _finding(
                        mod, node, self.id,
                        f".{node.func.attr}(...) outside the "
                        f"_send_msg/_recv_msg choke points; raw connection "
                        f"I/O bypasses the no-ndarray assertion",
                    )


# ----------------------------------------------------------------------
# R10 — kernel-dispatch discipline
# ----------------------------------------------------------------------
class KernelDisciplineRule(Rule):
    """Call sites reach the kernels only through ``dispatch()``.

    Every hot-loop call goes through ``repro.kernels.dispatch(name,
    ...)``, which counts it (the per-run ``kernel_hits`` extras and the
    obs plane's dispatch counters) and times it under
    ``measure_kernels`` (``repro profile``).  Importing the
    implementation module ``numpy_impl`` from outside ``repro.kernels``
    would reach a kernel past both.
    """

    id = "R10"
    title = "kernel-dispatch discipline"
    _IMPL_MODULE = "repro.kernels.numpy_impl"
    _MESSAGE = (
        "import of kernel implementation module 'repro.kernels.numpy_impl' "
        "outside repro.kernels; call sites go through "
        "repro.kernels.dispatch() so hit counting and timing stay "
        "centralized"
    )

    def check(self, mod, project):
        if not _in_package(mod, "repro"):
            return
        if _in_package(mod, "repro.kernels"):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                if any(alias.name == self._IMPL_MODULE
                       for alias in node.names):
                    yield _finding(mod, node, self.id, self._MESSAGE)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if base == self._IMPL_MODULE or (
                    base == "repro.kernels"
                    and any(alias.name == "numpy_impl"
                            for alias in node.names)
                ):
                    yield _finding(mod, node, self.id, self._MESSAGE)


# ----------------------------------------------------------------------
# R11 — shard-container discipline
# ----------------------------------------------------------------------
class ShardContainerRule(Rule):
    """Shard I/O goes only through :mod:`repro.streaming.sharded`.

    The ``REPROED2`` on-disk contract — manifest schema, shard naming,
    payload checksums, and the temp-file + atomic-rename durability
    discipline — lives in exactly one module.  A second module writing
    the magic by hand or poking the container's private helpers would
    fork the format: its files would load today and rot the first time
    the manifest schema moves.  Outside the container module (a) the
    ``REPROED2`` magic literal must not appear, and (b) the container's
    private (underscore) helpers must not be imported — consumers use
    ``ShardedFileSource`` / ``write_sharded_edge_file`` /
    ``read_shard_manifest`` / ``verify_shard_checksums``.
    """

    id = "R11"
    title = "shard-container discipline"
    _MODULE = "repro.streaming.sharded"

    @staticmethod
    def _docstrings(tree) -> set:
        """The Constant nodes serving as docstrings (prose, not format)."""
        nodes = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                body = node.body
                if body and isinstance(body[0], ast.Expr) \
                        and isinstance(body[0].value, ast.Constant) \
                        and isinstance(body[0].value.value, str):
                    nodes.add(body[0].value)
        return nodes

    def check(self, mod, project):
        if not _in_package(mod, "repro"):
            return
        # The container module owns the literal; the checker itself names
        # it in rule messages (this class) — neither forks the format.
        if mod.module == self._MODULE \
                or _in_package(mod, "repro.staticcheck"):
            return
        docstrings = self._docstrings(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Constant) and node not in docstrings and (
                (isinstance(node.value, str) and "REPROED2" in node.value)
                or (isinstance(node.value, bytes)
                    and b"REPROED2" in node.value)
            ):
                yield _finding(
                    mod, node, self.id,
                    "REPROED2 magic literal outside "
                    f"{self._MODULE}; the container format is written and "
                    "parsed in exactly one module",
                )
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "") == self._MODULE:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield _finding(
                            mod, node, self.id,
                            f"import of private container helper "
                            f"{alias.name!r}; shard I/O goes through the "
                            f"public {self._MODULE} API",
                        )


# ----------------------------------------------------------------------
# R12 — instrumentation discipline
# ----------------------------------------------------------------------
class InstrumentationRule(Rule):
    """Raw timing reads live only inside :mod:`repro.obs`.

    Every measurement — pass walls, feed latencies, span durations,
    bench harnesses — flows through the obs plane (``perf_now`` /
    ``span`` / histogram ``observe``), so there is exactly one place
    where a clock is read and exactly one annotation budget (R7's
    per-site ``noqa`` inside ``repro.obs.clock``).  A module calling
    ``time.perf_counter`` directly bypasses the metrics/trace plane:
    its numbers never show up in ``repro metrics`` and its noqa
    annotations creep back into the diff.
    """

    id = "R12"
    title = "instrumentation-discipline"
    _OBS = "repro.obs"
    _TIMING = frozenset({
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
    })

    def check(self, mod, project):
        if not _in_package(mod, "repro") or _in_package(mod, self._OBS):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                dotted = mod.resolve(node.func)
                if dotted in self._TIMING:
                    yield _finding(
                        mod, node, self.id,
                        f"raw timing read {dotted}(); measurement goes "
                        f"through repro.obs (perf_now, span, or a "
                        f"histogram) so it reaches the metrics/trace plane",
                    )


ALL_RULES: tuple[Rule, ...] = (
    MeteredRandomnessRule(),
    SnapshotCompletenessRule(),
    StreamingPurityRule(),
    AsyncBlockingRule(),
    GuaranteeRegistrationRule(),
    ExitCodeRule(),
    DeterminismRule(),
    ExceptionTaxonomyRule(),
    WorkerIpcRule(),
    KernelDisciplineRule(),
    ShardContainerRule(),
    InstrumentationRule(),
)


def rules_by_id(ids=None) -> tuple[Rule, ...]:
    """Resolve ``["R1", "R7"]`` to rule instances (all rules when None)."""
    from repro.common.exceptions import ReproError

    if ids is None:
        return ALL_RULES
    table = {rule.id: rule for rule in ALL_RULES}
    picked = []
    for rid in ids:
        rid = rid.strip().upper()
        if rid not in table:
            raise ReproError(
                f"unknown rule {rid!r}; available: {sorted(table)}"
            )
        picked.append(table[rid])
    return tuple(picked)
