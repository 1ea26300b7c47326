"""The lint runner: files -> Project -> rules -> report.

``run_lint`` is the single entry point used by the CLI, the CI job, and
the self-scan test.  It parses every ``*.py`` under the given paths,
runs the (selected) rules, drops findings suppressed by inline
``# repro: noqa[...]`` annotations, and reconciles the rest against the
baseline file.  ``LintReport.exit_code`` encodes the contract: 0 when
the tree matches the baseline exactly, 2 when there are new findings
*or* stale baseline entries.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.exceptions import ReproError
from repro.staticcheck.baseline import compare_with_baseline, load_baseline
from repro.staticcheck.findings import Finding
from repro.staticcheck.project import ParsedModule, Project
from repro.staticcheck.rules import rules_by_id

__all__ = ["LintReport", "collect_files", "run_lint"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".benchmarks"}


@dataclass
class LintReport:
    """Everything one lint run observed, baseline already applied."""

    findings: list[Finding]  # all unsuppressed findings
    new: list[Finding]  # not covered by the baseline
    stale: list[str]  # baselined fingerprints with no finding
    suppressed: int  # dropped by inline noqa annotations
    files: int
    rules: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.new and not self.stale

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 2

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files": self.files,
            "rules": self.rules,
            "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
            "new": [f.to_dict() for f in self.new],
            "stale_baseline": list(self.stale),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        """Human-readable report: new findings, stale entries, summary."""
        lines = [f.render() for f in self.new]
        for fp in self.stale:
            lines.append(f"stale baseline entry (violation is gone): {fp}")
        lines.append(
            f"repro lint: {self.files} files, {len(self.rules)} rules, "
            f"{len(self.findings)} finding(s) "
            f"({len(self.new)} new, {self.suppressed} suppressed, "
            f"{len(self.stale)} stale baseline)"
        )
        lines.append("contracts hold" if self.ok else "contracts VIOLATED")
        return "\n".join(lines)


def collect_files(paths) -> list[Path]:
    """All ``*.py`` files under ``paths`` (files or directories), sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.add(candidate)
        else:
            raise ReproError(f"lint path {raw!r} does not exist")
    return sorted(files)


def run_lint(paths, *, rules=None, baseline_path=None, root=None,
             codec_allowlist=None) -> LintReport:
    """Lint ``paths`` and reconcile against the baseline.

    ``rules`` is an optional list of rule ids (``["R1", "R7"]``);
    ``baseline_path=None`` means an empty baseline (every finding is
    new).  ``codec_allowlist`` overrides the ``SNAPSHOT_CLASSES`` set
    normally parsed out of the scanned tree (fixture tests).
    """
    selected = rules_by_id(rules)
    files = collect_files(paths)
    root = Path(root) if root is not None else Path.cwd()
    modules = []
    for path in files:
        try:
            modules.append(ParsedModule(path, root=root))
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            raise ReproError(f"cannot parse {path}: {error}") from None
    project = Project(modules, codec_allowlist=codec_allowlist)

    findings: list[Finding] = []
    suppressed = 0
    for mod in modules:
        for rule in selected:
            for finding in rule.check(mod, project):
                if mod.suppressed(finding.line, finding.rule):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort()

    baseline = load_baseline(baseline_path) if baseline_path else None
    if baseline:
        new, stale = compare_with_baseline(findings, baseline)
    else:
        new, stale = list(findings), []
    return LintReport(
        findings=findings,
        new=new,
        stale=stale,
        suppressed=suppressed,
        files=len(files),
        rules=[rule.id for rule in selected],
    )
