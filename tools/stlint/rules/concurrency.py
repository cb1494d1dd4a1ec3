"""CON and LOCK rules.

CON-1/CON-2 carry over from the v1 engine (naked threads, raw
allocation), now matched on tokens so a `new` in a comment or string can
never fire.

The LOCK family encodes the project's locking discipline (DESIGN.md §13:
one shard lock at a time, values computed outside the critical section):

  LOCK-1  a second RAII guard acquired while one is still held in the
          same function — the deadlock shape the sharded cache avoids by
          design; take both with a single std::scoped_lock if two are
          truly needed.
  LOCK-2  manual .lock()/.unlock()/try_lock() or bare std::lock() — the
          unlock must survive early returns and exceptions, so locking
          is RAII-only.
  LOCK-3  expensive work inside a lock scope: calls into the known
          recompute/BFS surface, or a loop that allocates. The hot-path
          pattern is compute-outside, publish-under-lock.
"""

from __future__ import annotations

from ..core import (CON1_ALLOWED_PREFIXES, CON2_ALLOWED_PREFIXES,
                    LOCK2_ALLOWED_PREFIXES, Context, Finding, SourceFile,
                    emit, in_scope)
from ..lexer import Token
from ..scopes import Scope, match_forward, skip_template

# MutexLock is the project's annotated RAII guard over st::util::Mutex
# (src/util/thread_annotations.hpp) — a guard type for every LOCK rule.
LOCK_GUARD_TYPES = {"lock_guard", "unique_lock", "scoped_lock",
                    "shared_lock", "MutexLock"}
MANUAL_LOCK_CALLS = {"lock", "unlock", "try_lock", "try_lock_for",
                     "try_lock_until"}
# The recompute/BFS surface that must never run under a shard lock
# (SocialStateCache computes these between its two lock windows).
EXPENSIVE_CALLS = {"shortest_path", "common_friends",
                   "fof_closeness", "bottleneck_closeness",
                   "adjacent_closeness", "weighted_similarity",
                   "parallel_for"}
ALLOC_IDENTS = {"push_back", "emplace_back", "emplace", "insert", "new",
                "make_unique", "make_shared", "resize", "reserve"}


def check(sf: SourceFile, ctx: Context, findings: list[Finding]) -> None:
    _check_con1(sf, findings)
    _check_con2(sf, findings)
    sites = _lock_sites(sf)
    _check_lock1(sf, sites, findings)
    _check_lock2(sf, findings)
    _check_lock3(sf, sites, findings)


def _check_con1(sf: SourceFile, findings: list[Finding]) -> None:
    if in_scope(sf.rel, CON1_ALLOWED_PREFIXES):
        return
    code = sf.code
    n = len(code)
    for i, t in enumerate(code):
        if t.kind != "ident":
            continue
        nxt = code[i + 1].text if i + 1 < n else ""
        if t.text in ("thread", "jthread") and i >= 2 and \
                code[i - 1].text == "::" and code[i - 2].text == "std" and \
                nxt != "::":
            emit(findings, sf, t.line, "CON-1",
                 "naked std::thread; submit work to st::util::ThreadPool "
                 "so shutdown stays exception-safe "
                 "(std::thread::hardware_concurrency() etc. are fine)")
        elif t.text == "detach" and i > 0 and \
                code[i - 1].text in (".", "->") and nxt == "(":
            emit(findings, sf, t.line, "CON-1",
                 "detach() abandons the thread past pool shutdown; join "
                 "via the pool instead")


def _check_con2(sf: SourceFile, findings: list[Finding]) -> None:
    if in_scope(sf.rel, CON2_ALLOWED_PREFIXES):
        return
    code = sf.code
    n = len(code)
    for i, t in enumerate(code):
        if t.kind != "ident":
            continue
        prev = code[i - 1].text if i > 0 else ""
        nxt = code[i + 1].text if i + 1 < n else ""
        what = None
        if t.text == "new" and prev != "operator":
            what = "raw new"
        elif t.text == "delete" and prev not in ("operator", "="):
            what = "raw delete"
        elif t.text in ("malloc", "calloc", "realloc", "free") and \
                nxt == "(" and prev not in (".", "->"):
            what = "C allocation"
        if what is not None:
            emit(findings, sf, t.line, "CON-2",
                 f"{what}: use containers or std::make_unique "
                 f"(allow-list an arena file if one is ever needed)")


# --- LOCK family ------------------------------------------------------------

def _lock_sites(sf: SourceFile) -> list[tuple[int, int, int, Scope]]:
    """RAII guard declarations: (type_idx, name_idx, extent_end, scope).
    The extent runs from the declaration to the end of its enclosing
    block — exactly the region where the lock is held."""
    code = sf.code
    n = len(code)
    sites: list[tuple[int, int, int, Scope]] = []
    i = 0
    while i < n:
        t = code[i]
        if t.kind == "ident" and t.text in LOCK_GUARD_TYPES:
            j = i + 1
            if j < n and code[j].text == "<":
                j = skip_template(code, j)
            if j + 1 < n and code[j].kind == "ident" and \
                    code[j + 1].text in ("(", "{"):
                scope = sf.scopes.at(j)
                end = scope.end if scope.end >= 0 else n
                sites.append((i, j, end, scope))
                i = j + 1
                continue
        i += 1
    return sites


def _check_lock1(sf: SourceFile, sites, findings: list[Finding]) -> None:
    code = sf.code
    for a_type, a_name, a_end, a_scope in sites:
        for b_type, b_name, _, b_scope in sites:
            if b_type <= a_name or b_type > a_end:
                continue
            # A guard inside a nested lambda may run on another thread
            # (or not at all) — only lexically-same-function nesting is
            # the deadlock shape this rule polices.
            if a_scope.function is not b_scope.function:
                continue
            emit(findings, sf, code[b_name].line, "LOCK-1",
                 f"'{code[b_type].text} {code[b_name].text}' acquired "
                 f"while '{code[a_name].text}' is still held in this "
                 f"scope; the locking discipline is one shard at a time — "
                 f"release the first guard, or take both up front with a "
                 f"single std::scoped_lock")


def _check_lock2(sf: SourceFile, findings: list[Finding]) -> None:
    if in_scope(sf.rel, LOCK2_ALLOWED_PREFIXES):
        return
    code = sf.code
    n = len(code)
    for i, t in enumerate(code):
        if t.kind != "ident":
            continue
        nxt = code[i + 1].text if i + 1 < n else ""
        if t.text in MANUAL_LOCK_CALLS and i > 0 and \
                code[i - 1].text in (".", "->") and nxt == "(":
            emit(findings, sf, t.line, "LOCK-2",
                 f"manual .{t.text}(); scope a std::lock_guard / "
                 f"std::scoped_lock instead so the unlock survives early "
                 f"returns and exceptions")
        elif t.text == "lock" and i >= 2 and code[i - 1].text == "::" and \
                code[i - 2].text == "std" and nxt == "(":
            emit(findings, sf, t.line, "LOCK-2",
                 "std::lock() acquires with no owning guard; use a single "
                 "std::scoped_lock over both mutexes instead")


def _check_lock3(sf: SourceFile, sites, findings: list[Finding]) -> None:
    code = sf.code
    n = len(code)
    seen: set[tuple[int, str]] = set()

    def fire(line: int, message: str) -> None:
        if (line, message) not in seen:
            seen.add((line, message))
            emit(findings, sf, line, "LOCK-3", message)

    for _, name_idx, end, _ in sites:
        guard = code[name_idx].text
        j = name_idx + 1
        while j < min(end, n):
            t = code[j]
            if t.kind != "ident":
                j += 1
                continue
            nxt = code[j + 1].text if j + 1 < n else ""
            if t.text in EXPENSIVE_CALLS and nxt == "(":
                fire(t.line,
                     f"{t.text}() called while '{guard}' holds a lock; "
                     f"compute outside the critical section and publish "
                     f"the result under the lock")
            elif t.text in ("for", "while") and nxt == "(":
                close = match_forward(code, j + 1, "(", ")")
                if close + 1 < n and code[close + 1].text == "{":
                    body_lo = close + 2
                    body_hi = match_forward(code, close + 1, "{", "}")
                else:
                    body_lo = close + 1
                    body_hi = _semi_end(code, body_lo)
                body_hi = min(body_hi, end)
                if any(code[k].kind == "ident" and
                       code[k].text in ALLOC_IDENTS
                       for k in range(body_lo, body_hi)):
                    fire(t.line,
                         f"allocating loop inside the '{guard}' critical "
                         f"section; build outside the lock and publish "
                         f"under it, or annotate why the section must "
                         f"stay this long")
            j += 1


def _semi_end(code: list[Token], j: int) -> int:
    depth = 0
    n = len(code)
    while j < n:
        t = code[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            return j
        j += 1
    return n
