"""Driver: file gathering, rule dispatch, CLI.

tools/st_lint.py execs ``main`` from here; the flags, exit codes, and
output formats are the stable interface (docs/STATIC_ANALYSIS.md):

  exit 0  clean tree
  exit 1  findings (or, under --strict, suppression-hygiene violations)
  exit 2  usage errors (missing paths)

Every run builds the project index (symbols + call-graph facts) over
*all* scanned files and runs the inter-procedural families
(CON-3/LOCK-4/DET-4) on it. With ``--index-cache PATH`` the facts and
per-file findings are served from a content-hash-keyed JSON cache, so a
warm re-lint after touching one file re-lexes only that file.
``--changed-only`` narrows the per-file rules to files changed vs the
merge base while the index (and therefore the cross-file rules) stays
whole-program. ``--sarif`` emits SARIF 2.1.0 for CI upload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .callgraph import CallGraph
from .core import (CXX_SUFFIXES, DEFAULT_PATHS, EXCLUDED_DIR_NAMES,
                   HEADER_SUFFIXES, REPO_ROOT, RULES, Context, Finding,
                   SourceFile, load_file, rel_path)
from .index import (IndexCache, ProjectIndex, alias_fingerprint,
                    build_facts, content_hash)
from .rules import concurrency, determinism, hygiene, interproc, obs_docs
from .scopes import collect_aliases

DEFAULT_OBS_DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"


def gather_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.suffix in CXX_SUFFIXES and not any(
                        part in EXCLUDED_DIR_NAMES for part in child.parts):
                    files.append(child)
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def _own_header_text(path: Path) -> str | None:
    if path.suffix not in {".cpp", ".cc", ".cxx"}:
        return None
    for suffix in HEADER_SUFFIXES:
        candidate = path.with_suffix(suffix)
        if candidate.exists():
            return candidate.read_text(encoding="utf-8", errors="replace")
    return None


def run(paths: list[Path], strict: bool, obs_doc: Path | None = None,
        index_cache: Path | None = None,
        changed_only: set[str] | None = None,
        ) -> tuple[list[Finding], int, int]:
    """Lint ``paths``. ``changed_only``: repo-relative posix paths whose
    per-file rules should run (the index stays whole-program regardless).
    ``index_cache``: JSON cache path (None = no persistence)."""
    file_paths = gather_files(paths)
    cache = IndexCache.load(index_cache) if index_cache is not None \
        and index_cache.exists() else IndexCache(path=index_cache)

    loaded: dict[str, SourceFile] = {}
    hashes: dict[str, str] = {}
    rels: list[str] = []
    by_rel_path: dict[str, Path] = {}

    def source(rel: str) -> SourceFile:
        if rel not in loaded:
            loaded[rel] = load_file(by_rel_path[rel])
        return loaded[rel]

    # Stage A: hashes + per-file alias sets (cached by content hash alone).
    per_file_aliases: dict[str, set[str]] = {}
    for p in file_paths:
        rel = rel_path(p)
        if rel in hashes:
            continue  # duplicate path on the command line
        rels.append(rel)
        by_rel_path[rel] = p
        text = p.read_text(encoding="utf-8", errors="replace")
        hashes[rel] = content_hash(text)
        cached = cache.aliases_for(rel, hashes[rel])
        per_file_aliases[rel] = set(cached) if cached is not None \
            else collect_aliases(source(rel).code)
    aliases: set[str] = set()
    for s in per_file_aliases.values():
        aliases |= s
    alias_fp = alias_fingerprint(aliases)

    # Stage B: facts (cached by content hash + alias fingerprint).
    index = ProjectIndex()
    for rel in rels:
        facts = cache.facts_for(rel, hashes[rel], alias_fp)
        if facts is None:
            facts = build_facts(source(rel), aliases)
            cache.store(rel, hashes[rel], facts, alias_fp)
        index.add_file(rel, facts)
    index.finalize()
    graph = CallGraph(index)

    # Stage C: per-file rules (cached by content + own-header + aliases).
    ctx = Context(files=[], aliases=aliases, obs_doc=obs_doc)
    findings: list[Finding] = []
    targets = [rel for rel in rels
               if changed_only is None or rel in changed_only]
    for rel in targets:
        header_text = _own_header_text(by_rel_path[rel])
        header_hash = content_hash(header_text) if header_text is not None \
            else ""
        cached = cache.findings_for(rel, hashes[rel], header_hash, alias_fp)
        if cached is not None:
            per_file = [Finding(**f) for f in cached]
        else:
            sf = source(rel)
            per_file = []
            determinism.check(sf, ctx, per_file)
            concurrency.check(sf, ctx, per_file)
            hygiene.check(sf, ctx, per_file)
            cache.store_findings(rel, header_hash, alias_fp,
                                 [vars(f) for f in per_file])
        findings.extend(per_file)
        if strict:
            findings.extend(Finding(**f) for f in
                            index.files[rel].get("bad_suppressions", []))

    # Stage D: whole-program rules from facts (cheap, never cached).
    interproc.check(index, graph, findings)
    obs_docs.check_tree_facts(index, obs_doc, findings)
    allow_sites = sum(index.files[rel].get("allow_sites", 0)
                      for rel in rels)

    if changed_only is not None:
        findings = [f for f in findings
                    if f.path in changed_only or f.rule == "OBS-2"]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    cache.prune(set(rels))
    cache.save()
    return findings, len(rels), allow_sites


def changed_files(merge_ref: str = "origin/main",
                  repo_root: Path | None = None) -> set[str]:
    """Repo-relative posix paths changed vs the merge base (plus any
    uncommitted/untracked files). Falls back to HEAD when the ref does
    not exist (e.g. no origin remote). Renames are followed
    (--find-renames): the *new* path of a renamed file is reported, so a
    rename-plus-edit is re-linted instead of silently skipped."""
    root = repo_root if repo_root is not None else REPO_ROOT

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", "-C", str(root), *args],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            return ""

    base = git("merge-base", "HEAD", merge_ref).strip()
    if not base:
        base = "HEAD"
    out: set[str] = set()
    # --name-status rows: "M\tpath", "A\tpath", "R095\told\tnew", ...
    for row in git("diff", "--name-status", "--find-renames",
                   base).splitlines():
        parts = row.split("\t")
        if len(parts) < 2:
            continue
        status = parts[0].strip()
        if status.startswith(("R", "C")) and len(parts) >= 3:
            out.add(parts[2].strip())  # renamed/copied: lint the new path
        elif not status.startswith("D"):
            out.add(parts[1].strip())
    for name in git("ls-files", "--others",
                    "--exclude-standard").splitlines():
        if name.strip():
            out.add(name.strip())
    return {n for n in out if n}


def to_sarif(findings: list[Finding]) -> dict:
    """SARIF 2.1.0 document for github/codeql-action/upload-sarif."""
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "st-lint",
                "informationUri":
                    "https://github.com/socialtrust/socialtrust",
                "rules": [{"id": rule,
                           "shortDescription": {"text": text},
                           "helpUri": f"docs/STATIC_ANALYSIS.md"
                                      f"#{rule.lower()}"}
                          for rule, text in sorted(RULES.items())],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": f.path,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(1, f.line)},
                }}],
            } for f in findings],
        }],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="st_lint.py",
        description="determinism & concurrency linter for the SocialTrust "
                    "tree (see docs/STATIC_ANALYSIS.md)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src bench tests)")
    parser.add_argument("--strict", action="store_true",
                        help="also enforce suppression hygiene (SUP-1)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--sarif", action="store_true",
                        help="emit findings as SARIF 2.1.0 on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--obs-doc", metavar="PATH", default=None,
                        help="metric-reference doc for OBS-1/OBS-2 "
                             "(default: docs/OBSERVABILITY.md, enabled only "
                             "when the scan covers the repo's src/ tree)")
    parser.add_argument("--index-cache", metavar="PATH", default=None,
                        help="persist the whole-program symbol index to "
                             "PATH (default: off; CI and the ctest "
                             "selfcheck pass build/stlint_index.json)")
    parser.add_argument("--changed-only", action="store_true",
                        help="run per-file rules only on files changed vs "
                             "merge-base(HEAD, origin/main); the index and "
                             "cross-file rules stay whole-program")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}  {description}")
        return 0

    raw_paths = args.paths or [REPO_ROOT / p for p in DEFAULT_PATHS]
    input_paths = [Path(p) for p in raw_paths]

    if args.obs_doc is not None:
        obs_doc = Path(args.obs_doc)
    else:
        # Only diff against the repo's own doc when the scan actually
        # covers the repo's src/ tree; fixture trees opt in via --obs-doc.
        repo_src = (REPO_ROOT / "src").resolve()
        covers_src = any(p.is_dir() and p.resolve() == repo_src
                         for p in input_paths)
        obs_doc = DEFAULT_OBS_DOC if covers_src else None

    index_cache = Path(args.index_cache) if args.index_cache else None
    changed = changed_files() if args.changed_only else None

    try:
        findings, file_count, allow_sites = run(
            input_paths, args.strict, obs_doc=obs_doc,
            index_cache=index_cache, changed_only=changed)
    except FileNotFoundError as err:
        print(err, file=sys.stderr)
        return 2

    if args.sarif:
        print(json.dumps(to_sarif(findings), indent=2))
    elif args.as_json:
        print(json.dumps({
            "files_scanned": file_count,
            "allow_sites": allow_sites,
            "findings": [vars(f) for f in findings],
        }, indent=2))
    else:
        for finding in findings:
            print(finding.as_text(), file=sys.stderr)
        print(f"st-lint: scanned {file_count} file(s): "
              f"{'OK' if not findings else f'{len(findings)} finding(s)'}")
    return 1 if findings else 0
