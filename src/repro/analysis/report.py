"""Reporters and the committed-baseline mechanism.

The baseline is a JSON multiset of findings keyed by ``(rule, path,
context)`` — no line numbers, so unrelated edits don't invalidate it. In
CI the contract is asymmetric: a finding *not* in the baseline fails the
lane; a baseline entry with no matching finding is merely stale (the
violation was fixed) and reports as a warning nudging a
``--update-baseline`` run. The committed baseline is expected to stay
empty or carry an annotation per entry; it is a migration tool for
landing a new rule, not an escape hatch.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import Finding

__all__ = ["Baseline", "render_text", "render_json"]

_FORMAT_VERSION = 1


@dataclass
class Baseline:
    """Accepted findings, as a multiset over line-number-free keys."""

    entries: list[Finding] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        p = Path(path)
        if not p.exists():
            return cls()
        data = json.loads(p.read_text(encoding="utf-8"))
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "Baseline":
        return cls(entries=[Finding.from_dict(d) for d in data.get("findings", [])])

    def to_dict(self) -> dict:
        return {
            "version": _FORMAT_VERSION,
            "findings": [f.to_dict() for f in sorted(self.entries, key=lambda f: f.sort_key)],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def diff(self, findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Split ``findings`` against the baseline.

        Returns ``(new, stale)``: findings with no baseline budget left,
        and baseline entries no current finding consumed. Multiset
        semantics — two identical findings need two baseline entries.
        """
        budget = Counter(f.key for f in self.entries)
        new: list[Finding] = []
        for f in findings:
            if budget[f.key] > 0:
                budget[f.key] -= 1
            else:
                new.append(f)
        stale: list[Finding] = []
        remaining = dict(budget)
        for e in self.entries:
            if remaining.get(e.key, 0) > 0:
                remaining[e.key] -= 1
                stale.append(e)
        return new, stale


def render_text(findings: list[Finding], *, suppressed: int = 0, stale: list[Finding] | None = None) -> str:
    lines = []
    for f in findings:
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}")
        if f.context:
            lines.append(f"    {f.context}")
    if stale:
        for e in stale:
            lines.append(
                f"stale baseline entry: {e.rule} @ {e.path} ({e.context!r}) "
                "— fixed? run with --update-baseline"
            )
    n = len(findings)
    summary = f"{n} finding{'s' if n != 1 else ''}"
    if suppressed:
        summary += f", {suppressed} suppressed by noqa"
    if stale:
        summary += f", {len(stale)} stale baseline entr{'ies' if len(stale) != 1 else 'y'}"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: list[Finding], *, suppressed: int = 0, stale: list[Finding] | None = None
) -> str:
    doc = {
        "version": _FORMAT_VERSION,
        "findings": [f.to_dict() for f in findings],
        "suppressed": suppressed,
        "stale": [e.to_dict() for e in (stale or [])],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
