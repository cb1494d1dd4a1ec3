#!/usr/bin/env python3
"""st-lint: project-specific determinism & concurrency linter.

The parallel update interval (DESIGN.md §11) and the obs layer (§12)
promise hard contracts — bit-identical results at every thread count,
obs-on/off identity, exception-safe pool shutdown. Those contracts are
easy to break silently: one hash-order iteration feeding a reduction,
one ``rand()`` seeded from the wall clock, one naked ``std::thread`` in
a new bench, one BFS recompute inside a lock. This linter rejects
the known-dangerous source patterns before they compile.

Since v2 the engine is a real lexing front end (tools/stlint/): a C++
tokenizer, a brace/namespace/function scope tree, and scope-aware
declaration resolution. Rule text inside comments and string literals
can never fire a rule, iterated identifiers resolve to their nearest
declaration instead of a file-global name set, and rules can read
string literals (OBS-1 checks the metric-name literal itself).

v3 adds the whole-program layer: every run distils each file into a
fact record (functions, calls, writes, locks, class fields — index.py),
resolves call edges across translation units (callgraph.py), and runs
three inter-procedural rule families on the resulting graph. Facts are
cached content-hash-keyed in ``--index-cache`` JSON, so warm re-lints
re-lex only changed files.

Rule catalogue (python3 tools/st_lint.py --list-rules, rationale and
etiquette in docs/STATIC_ANALYSIS.md):

  DET-1   nondeterminism sources outside src/stats/rng.*
  DET-2   hash-order traversal of unordered containers in
          determinism-critical directories (the sanctioned
          flatten-then-sort idiom is recognised and exempt)
  DET-3   accessors returning references/iterators into unordered
          containers, iterated at the call site
  DET-4   (whole-program) hash-order iteration feeding an accumulation
          or ordering sink where the unordered accessor is defined in
          another translation unit; pointer-keyed ordered containers
  CON-1   naked std::thread / detach() outside src/util/thread_pool.*
  CON-2   raw new/delete/malloc
  CON-3   (whole-program) writes to shared non-atomic state from code
          reachable from a parallel_for / ThreadPool::submit body,
          without a held lock
  LOCK-1  second mutex acquired while one is held in the same scope
  LOCK-2  manual .lock()/.unlock() instead of an RAII guard
  LOCK-3  expensive work (recompute/BFS calls, allocating loops) inside
          a lock scope
  LOCK-4  (whole-program) lock-order cycles across function boundaries,
          reported with both acquisition chains
  OBS-1   metric names: snake_case, globally unique, documented in
          docs/OBSERVABILITY.md
  OBS-2   documented metrics that no longer exist in code
  HYG-1   every src/ .cpp includes its own header first
  HYG-2   no using namespace at namespace scope in headers
  SUP-1   (--strict) every suppression names its rule and a reason

Suppressions: append ``// st-lint: allow(RULE-ID reason)`` to the
offending line, or place the comment alone on the line directly above
it. The reason is mandatory under ``--strict``.

Usage:
    python3 tools/st_lint.py [--strict] [--json] [--sarif]
        [--list-rules] [--index-cache PATH] [--changed-only] [path ...]

Paths default to ``src bench tests examples`` relative to the repo
root; a path may be a directory (scanned recursively for C++ sources)
or a file. ``--changed-only`` restricts per-file rules to files changed
vs merge-base(HEAD, origin/main) while the index — and therefore every
whole-program rule — still sees the full tree (tools/pre-commit wires
this into a git hook).

Exit status: 0 when the tree is clean, 1 when findings (or, under
``--strict``, suppression-hygiene violations) were reported, 2 on
usage errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stlint.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
