"""Shared datamodel for stlint: findings, suppressions, SourceFile.

A SourceFile carries the raw lines (suppression comments, HYG-1), the
full token stream, the comment/pp-free code-token stream, and the scope
tree built over it. Rules receive SourceFiles and a cross-file Context
and emit Findings through `emit`, which applies per-line suppressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .lexer import Token, code_tokens, tokenize
from .scopes import (Declaration, ScopeTree, collect_accessors,
                     collect_declarations)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hxx"}
HEADER_SUFFIXES = {".hpp", ".h", ".hxx"}
EXCLUDED_DIR_NAMES = {"build", ".git", "third_party"}
DEFAULT_PATHS = ["src", "bench", "tests", "examples"]

RULES = {
    "DET-1": "nondeterminism source outside src/stats/rng.*",
    "DET-2": "hash-order traversal (loop, algorithm, or range copy) over "
             "an unordered container in a determinism-critical directory",
    "DET-3": "iterating a function that returns a reference/iterator into "
             "an unordered container (the accessor escape hatch)",
    "DET-4": "whole-program determinism taint: a cross-TU unordered "
             "accessor or address-keyed container feeding a float "
             "accumulation or ordered output",
    "CON-1": "naked std::thread / detach() outside src/util/thread_pool.*",
    "CON-2": "raw new/delete/malloc outside allow-listed files",
    "CON-3": "write to non-local, non-atomic state from the worker "
             "context (reachable from a parallel_for/submit body) "
             "without a held lock",
    "LOCK-1": "second mutex acquired while one is held in the same scope",
    "LOCK-2": "manual .lock()/.unlock() instead of an RAII guard",
    "LOCK-3": "expensive work (BFS/recompute calls, allocating loops) "
              "inside a lock scope",
    "LOCK-4": "lock-order cycle in the whole-program acquisition graph "
              "(lifted across function boundaries)",
    "OBS-1": "metric name not snake_case, not unique, or missing from "
             "docs/OBSERVABILITY.md",
    "OBS-2": "metric documented in docs/OBSERVABILITY.md but registered "
             "nowhere in the scanned src/ tree",
    "HYG-1": ".cpp does not include its own header first",
    "HYG-2": "using namespace at namespace scope in a header",
    "SUP-1": "suppression without a rule id or reason",
}

# Per-rule path scoping. Prefixes are matched against the file's
# repo-relative posix path; for files outside the repo (fixtures, tests)
# the prefix is also matched as an interior substring so layouts like
# /tmp/xyz/src/core/f.cpp scope the same way.
DET1_ALLOWED_PREFIXES = ("src/stats/rng.",)
DET2_SCOPE_PREFIXES = ("src/core/", "src/graph/", "src/reputation/",
                       "src/sim/")
CON1_ALLOWED_PREFIXES = ("src/util/thread_pool.",)
CON2_ALLOWED_PREFIXES: tuple[str, ...] = ()
# The annotated Mutex wrapper implements RAII guards, so its internals
# necessarily spell .lock()/.unlock(); everything else stays RAII-only.
LOCK2_ALLOWED_PREFIXES = ("src/util/thread_annotations.",)
OBS_SCOPE_PREFIXES = ("src/",)

ALLOW_RE = re.compile(r"//\s*st-lint:\s*allow\(\s*([A-Za-z]+-?\d*)\s*([^)]*)\)")
NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?\b(\(([^)]*)\))?(.*)")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def as_text(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class Suppression:
    rule: str
    reason: str


@dataclass
class SourceFile:
    """One scanned file: raw lines plus token stream and scope tree."""

    path: Path
    rel: str  # repo-relative (or as-given) posix path used in reports
    raw_lines: list[str]
    tokens: list[Token]       # full stream, comments and pp included
    code: list[Token]         # comment/pp-free stream the rules scan
    scopes: ScopeTree
    suppressions: dict[int, list[Suppression]] = field(default_factory=dict)
    bad_suppressions: list[Finding] = field(default_factory=list)
    allow_sites: int = 0  # count of well-formed st-lint allow() comments


def rel_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def in_scope(rel: str, prefixes: tuple[str, ...]) -> bool:
    """True when the path starts with a prefix, or contains it as an
    interior path component (so out-of-repo fixture trees scope too)."""
    return any(rel.startswith(p) or f"/{p}" in rel for p in prefixes)


def load_file(path: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8", errors="replace")
    tokens = tokenize(text)
    code = code_tokens(tokens)
    sf = SourceFile(path=path, rel=rel_path(path),
                    raw_lines=text.splitlines(), tokens=tokens, code=code,
                    scopes=ScopeTree(code))
    collect_suppressions(sf)
    return sf


def collect_suppressions(sf: SourceFile) -> None:
    """Parse st-lint allow() and clang-tidy NOLINT comments. A comment on
    its own line covers the next line; otherwise it covers its own."""
    for lineno, raw in enumerate(sf.raw_lines, start=1):
        for match in ALLOW_RE.finditer(raw):
            rule = match.group(1).upper()
            reason = match.group(2).strip()
            target = lineno
            if raw[:match.start()].strip() == "":  # comment-only line
                target = lineno + 1
            if rule not in RULES:
                sf.bad_suppressions.append(Finding(
                    sf.rel, lineno, "SUP-1",
                    f"allow() names unknown rule '{rule}'"))
                continue
            if not reason:
                sf.bad_suppressions.append(Finding(
                    sf.rel, lineno, "SUP-1",
                    f"allow({rule}) carries no reason string"))
                continue
            sf.allow_sites += 1
            sf.suppressions.setdefault(target, []).append(
                Suppression(rule, reason))
        for match in NOLINT_RE.finditer(raw):
            checks = (match.group(3) or "").strip()
            trailing = (match.group(4) or "").strip().lstrip(":").strip()
            if not checks or checks == "*":
                sf.bad_suppressions.append(Finding(
                    sf.rel, lineno, "SUP-1",
                    "NOLINT must name the suppressed check(s): "
                    "NOLINT(check-name): reason"))
            elif not trailing:
                sf.bad_suppressions.append(Finding(
                    sf.rel, lineno, "SUP-1",
                    f"NOLINT({checks}) carries no reason string"))


def is_suppressed(sf: SourceFile, lineno: int, rule: str) -> bool:
    return any(s.rule == rule for s in sf.suppressions.get(lineno, []))


def emit(findings: list[Finding], sf: SourceFile, lineno: int, rule: str,
         message: str) -> None:
    if not is_suppressed(sf, lineno, rule):
        findings.append(Finding(sf.rel, lineno, rule, message))


def own_header_of(sf: SourceFile) -> Path | None:
    if sf.path.suffix not in {".cpp", ".cc", ".cxx"}:
        return None
    for suffix in HEADER_SUFFIXES:
        candidate = sf.path.with_suffix(suffix)
        if candidate.exists():
            return candidate.resolve()
    return None


@dataclass
class Context:
    """Cross-file state shared by the rules: the scanned set, the global
    unordered-alias names, and lazily computed per-file declaration /
    accessor tables. A .cpp's own header is loaded on demand even when it
    was not itself part of the scan, so member declarations resolve."""

    files: list[SourceFile]
    aliases: set[str]
    obs_doc: Path | None = None  # None = code<->docs checks disabled
    by_path: dict[Path, SourceFile] = field(default_factory=dict)
    _decls: dict[str, list[Declaration]] = field(default_factory=dict)
    _accessors: dict[str, set[str]] = field(default_factory=dict)
    _externs: dict[str, set[str]] = field(default_factory=dict)

    def header_for(self, sf: SourceFile) -> SourceFile | None:
        header = own_header_of(sf)
        if header is None:
            return None
        if header not in self.by_path:
            self.by_path[header] = load_file(header)
        return self.by_path[header]

    def decls_for(self, sf: SourceFile) -> list[Declaration]:
        key = str(sf.path)
        if key not in self._decls:
            self._decls[key] = collect_declarations(sf.code, sf.scopes,
                                                    self.aliases)
        return self._decls[key]

    def externs_for(self, sf: SourceFile) -> set[str]:
        """Unordered-typed names a .cpp inherits from its own header."""
        key = str(sf.path)
        if key not in self._externs:
            header = self.header_for(sf)
            self._externs[key] = ({d.name for d in self.decls_for(header)}
                                  if header is not None else set())
        return self._externs[key]

    def accessors_for(self, sf: SourceFile) -> set[str]:
        """DET-3 accessor names visible in this TU (file + own header)."""
        key = str(sf.path)
        if key not in self._accessors:
            names = collect_accessors(sf.code, self.aliases)
            header = self.header_for(sf)
            if header is not None:
                names |= collect_accessors(header.code, self.aliases)
            self._accessors[key] = names
        return self._accessors[key]
