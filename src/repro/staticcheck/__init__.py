"""``repro.staticcheck``: the AST contract checker.

Twelve repository-specific rules prove, at lint time, the structural
invariants the runtime verification layers (``repro.verify``,
``repro.persist``, ``repro.service``) rely on implicitly:

==  =======================  =================================================
id  name                     invariant
==  =======================  =================================================
R1  metered-randomness       core/baseline randomness flows through SeededRng
                             or declared hash families, never ``random.*`` /
                             ``np.random.*``
R2  snapshot-completeness    snapshot-allowlisted classes assign only
                             codec-representable state (cross-checked against
                             ``persist.codec``'s ``SNAPSHOT_CLASSES``)
R3  streaming-purity         one-pass algorithms never materialize the stream
                             (``edges()`` / ``edge_list()`` / ``to_csr()``)
R4  async-blocking           no blocking calls inside ``async def`` bodies in
                             ``repro.service``
R5  guarantee-registration   every ``AlgorithmEntry`` declares a
                             ``GuaranteeSpec`` and a round-trippable config
                             dataclass
R6  exit-code-convention     CLI error paths print to stderr and exit 2
R7  determinism-hygiene      no wall-clock or set-order dependence in result
                             paths; ``perf_counter`` only with an annotation
R8  exception-taxonomy       raises derive from the ``ReproError`` taxonomy
R9  ipc-discipline           worker IPC never pickles payloads: edge blocks
                             ride the shared-memory ring; pipe I/O only via
                             the ``_send_msg``/``_recv_msg`` choke points
R10 kernel-dispatch          the kernel implementation module is reached
    discipline               only through ``repro.kernels.dispatch()``
R11 shard-container          the ``REPROED2`` magic and the container's
    discipline               private helpers stay inside
                             ``repro.streaming.sharded``
R12 instrumentation-         raw monotonic-clock reads live only in
    discipline               ``repro.obs``; everything else measures via
                             ``perf_now`` / spans / histograms
==  =======================  =================================================

Per-site suppression: ``# repro: noqa[R7] reason`` (or bare
``# repro: noqa`` for all rules).  Grandfathered findings live in a
committed baseline file (see :mod:`repro.staticcheck.baseline`); the
runner fails on new findings *and* on stale baseline entries, so the
baseline only ever shrinks.  Run it via ``repro lint``.
"""

from repro.staticcheck.baseline import (
    compare_with_baseline,
    load_baseline,
    save_baseline,
)
from repro.staticcheck.findings import Finding
from repro.staticcheck.project import ParsedModule, Project
from repro.staticcheck.rules import ALL_RULES, Rule, rules_by_id
from repro.staticcheck.runner import LintReport, collect_files, run_lint

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "ParsedModule",
    "Project",
    "Rule",
    "collect_files",
    "compare_with_baseline",
    "load_baseline",
    "rules_by_id",
    "run_lint",
    "save_baseline",
]
