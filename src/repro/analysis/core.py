"""Analysis framework: findings, parsed files, symbol resolution, runner.

The framework is deliberately repo-specific, not a general linter: rules
know which modules carry which contracts (see :mod:`repro.analysis.scopes`)
and lean on a small amount of flow-insensitive symbol tracking — enough
that ``rng = np.random; rng.rand()`` still reads as a global-RNG call and
``self._q = queue.Queue()`` marks ``self._q.get()`` as blocking, without
dragging in a type checker.

Two rule shapes exist:

* *file rules* — ``rule(sf: SourceFile) -> list[Finding]``, run per file;
* *project rules* — ``rule(files: list[SourceFile]) -> list[Finding]``,
  run once over the whole file set (registry consistency, lock-order
  graphs — anything that needs to see more than one module at a time).

Suppression: a finding is dropped when its line carries
``# repro: noqa`` (blanket) or ``# repro: noqa[RULE1,RULE2]`` naming its
rule. Suppressions are expected to carry a justifying comment; the
committed-baseline mechanism in :mod:`repro.analysis.report` exists for
the transition period of a *new* rule, not as a dumping ground.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "SourceFile",
    "SymbolTable",
    "run_check",
    "collect_files",
    "enclosing_class",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``context`` is the stripped source line — the stable ingredient of
    baseline keys, so a finding keeps matching its baseline entry when
    unrelated edits shift line numbers.
    """

    rule: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    col: int
    message: str
    context: str = ""

    @property
    def key(self) -> tuple:
        """Line-number-free identity used for baseline matching."""
        return (self.rule, self.path, self.context)

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        return cls(
            rule=str(d["rule"]),
            severity=str(d.get("severity", "error")),
            path=str(d["path"]),
            line=int(d.get("line", 0)),
            col=int(d.get("col", 0)),
            message=str(d.get("message", "")),
            context=str(d.get("context", "")),
        )


class SymbolTable:
    """Flow-insensitive name resolution for one module.

    Records three kinds of bindings:

    * imports — ``import numpy as np`` binds ``np -> numpy``;
      ``from time import perf_counter as pc`` binds
      ``pc -> time.perf_counter``;
    * aliases — simple assignments whose right-hand side is a dotted
      path, ``rng = np.random`` binds ``rng -> numpy.random`` (module
      and function scopes are merged: the tracking is deliberately
      flow-insensitive);
    * self attributes — ``self._q = queue.Queue()`` inside ``class C``
      binds ``("C", "_q") -> queue.Queue`` (the *constructor* path, used
      by the LOCK rules to type locks, queues, events and threads).

    Parameter defaults also bind: ``def f(clock=time.monotonic)`` makes
    ``clock`` resolve to ``time.monotonic`` — how the DET rules see a
    wall-clock read smuggled in as a default argument.
    """

    def __init__(self, tree: ast.AST):
        self.names: dict[str, str] = {}
        self.self_types: dict[tuple[str, str], str] = {}
        self._collect(tree)

    # ------------------------------------------------------------ building
    def _collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    self.names[bound] = a.name if a.asname else a.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for a in node.names:
                    if a.name != "*":
                        self.names[a.asname or a.name] = f"{node.module}.{a.name}"
        # Aliases and self-attribute types need imports resolved first;
        # iterate to let chains (a = np.random; b = a) settle.
        for _ in range(3):
            changed = False
            for node in ast.walk(tree):
                changed |= self._collect_assign(node)
            if not changed:
                break

    def _collect_assign(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            changed = False
            args = node.args
            pos = args.posonlyargs + args.args
            for arg, default in zip(pos[len(pos) - len(args.defaults):], args.defaults):
                changed |= self._bind(arg.arg, self.resolve(default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    changed |= self._bind(arg.arg, self.resolve(default))
            return changed
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            return False
        target = node.targets[0]
        value = self.resolve(node.value)
        if value is None:
            return False
        if isinstance(target, ast.Name):
            return self._bind(target.id, value)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            cls = enclosing_class(target)
            if cls is not None:
                key = (cls.name, target.attr)
                if self.self_types.get(key) != value:
                    self.self_types[key] = value
                    return True
        return False

    def _bind(self, name: str, value: str | None) -> bool:
        if value is None or self.names.get(name) == value:
            return False
        self.names[name] = value
        return True

    # ----------------------------------------------------------- resolving
    def resolve(self, node: ast.AST | None) -> str | None:
        """Dotted path a Name/Attribute/Call expression denotes, if any.

        A Call resolves to its callee's path — ``queue.Queue()`` resolves
        to ``queue.Queue`` — which is what the type-ish tracking wants
        (the value is "whatever that constructor makes").
        """
        if isinstance(node, ast.Call):
            return self.resolve(node.func)
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            if node.id == "self" and parts:
                cls = enclosing_class(node)
                if cls is None:
                    return None
                base = self.self_types.get((cls.name, parts[-1]))
                if base is None:
                    return None
                parts = parts[:-1] + [base]
            else:
                parts.append(self.names.get(node.id, node.id))
            return ".".join(reversed(parts))
        return None


class SourceFile:
    """One parsed module plus everything rules need to inspect it."""

    def __init__(self, path: str, text: str):
        self.path = path.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        _link_parents(self.tree)
        self.symbols = SymbolTable(self.tree)
        self.noqa = _parse_noqa(text)

    @classmethod
    def from_path(cls, path: Path, root: Path | None = None) -> "SourceFile":
        rel = path if root is None else path.relative_to(root)
        return cls(str(rel), path.read_text(encoding="utf-8"))

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self, rule: str, node: ast.AST, message: str, *, severity: str = "error"
    ) -> Finding:
        return Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            line=node.lineno,
            col=node.col_offset + 1,
            message=message,
            context=self.line_at(node.lineno),
        )

    def suppressed(self, finding: Finding) -> bool:
        rules = self.noqa.get(finding.line)
        if rules is None:
            return False
        return not rules or finding.rule in rules


def _parse_noqa(text: str) -> dict[int, frozenset[str]]:
    """Line -> suppressed rules (empty frozenset = blanket noqa)."""
    out: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            rules = m.group("rules")
            names = (
                frozenset(r.strip() for r in rules.split(",") if r.strip())
                if rules
                else frozenset()
            )
            out[tok.start[0]] = names
    except tokenize.TokenError:
        pass
    return out


# ----------------------------------------------------------------- parents
def _link_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_repro_parent", None)


def enclosing_class(node: ast.AST):
    cur = parent_of(node)
    while cur is not None:
        if isinstance(cur, ast.ClassDef):
            return cur
        cur = parent_of(cur)
    return None


# ------------------------------------------------------------------ runner
def collect_files(paths, *, root: Path | None = None) -> list[SourceFile]:
    """Parse every ``*.py`` under the given files/directories, sorted."""
    seen: dict[str, SourceFile] = {}
    for raw in paths:
        p = Path(raw)
        candidates = [p] if p.is_file() else sorted(p.rglob("*.py"))
        for f in candidates:
            if f.suffix != ".py" or "__pycache__" in f.parts:
                continue
            sf = SourceFile.from_path(f, root)
            seen[sf.path] = sf
    return [seen[k] for k in sorted(seen)]


@dataclass
class CheckResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]


def run_check(paths, *, select=None, ignore=None, root: Path | None = None) -> CheckResult:
    """Run every registered rule over ``paths``; apply noqa suppressions.

    ``select``/``ignore`` filter by rule id or family prefix ("DET",
    "DTYPE001", ...). Returns surviving findings sorted by location,
    with the suppressed ones kept separately (reporters show counts).
    """
    from repro.analysis.registry import file_rules, project_rules

    files = collect_files(paths, root=root)
    by_path = {sf.path: sf for sf in files}
    raw: list[Finding] = []
    for sf in files:
        for rule in file_rules():
            raw.extend(rule(sf))
    for rule in project_rules():
        raw.extend(rule(files))

    def selected(f: Finding) -> bool:
        if select is not None and not any(f.rule.startswith(s) for s in select):
            return False
        if ignore is not None and any(f.rule.startswith(s) for s in ignore):
            return False
        return True

    result = CheckResult()
    for f in sorted(raw, key=lambda f: f.sort_key):
        if not selected(f):
            continue
        sf = by_path.get(f.path)
        if sf is not None and sf.suppressed(f):
            result.suppressed.append(f)
        else:
            result.findings.append(f)
    return result
