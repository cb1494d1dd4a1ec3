"""Inter-procedural rule families (v3): CON-3, LOCK-4, DET-4.

These rules consume the ProjectIndex facts and the CallGraph only —
never raw tokens — so they run whole-program on every lint, including
``--changed-only`` runs where most files' facts come from the cache.

  CON-3  writes to non-local, non-atomic state from the worker context
         (anything reachable from a parallel_for / ThreadPool::submit
         body) without a held lock. Sanctioned patterns stay silent:
         atomic members, writes inside a RAII guard extent, subscripted
         writes into non-unordered containers (the disjoint-slot idiom),
         member writes of an object that is local to the worker chain.
  LOCK-4 lock-order cycles in the global acquisition graph, lifted
         across function boundaries; both chains are reported.
  DET-4  determinism taint: iterating an unordered-container accessor
         defined in *another* TU (invisible to per-file DET-3) into a
         float accumulation or an ordered sink, and iteration over
         pointer-keyed ordered containers (address order).
"""

from __future__ import annotations

from ..callgraph import CallGraph
from ..core import DET2_SCOPE_PREFIXES, Finding, in_scope
from ..index import ProjectIndex

CON3_SCOPE_PREFIXES = ("src/",)


def check(index: ProjectIndex, graph: CallGraph,
          findings: list[Finding]) -> None:
    check_con3(index, graph, findings)
    check_lock4(index, graph, findings)
    check_det4(index, graph, findings)


def _emit(index: ProjectIndex, findings: list[Finding], rel: str,
          line: int, rule: str, message: str) -> None:
    if not index.suppressed(rel, line, rule):
        findings.append(Finding(rel, line, rule, message))


# --- CON-3 ------------------------------------------------------------------

def _root_type_words(index: ProjectIndex, fn: dict, root: str) -> list[str]:
    t = fn["local_types"].get(root)
    cur = fn
    while t is None and cur["parent"] >= 0:
        cur = index.functions[cur["_base"] + cur["parent"]]
        t = cur["local_types"].get(root)
    if t is None and fn["cls"]:
        f = index.field_of(fn["cls"], root)
        if f is not None:
            t = f["type"]
    return t.split() if t else []


def _under_own_lock(fn: dict, tok: int) -> bool:
    return any(l["tok"] < tok <= l["end"] for l in fn["locks"])


def check_con3(index: ProjectIndex, graph: CallGraph,
               findings: list[Finding]) -> None:
    workers = graph.worker_context()
    if not workers:
        return
    # Callers inside the worker context, for the caller-holds-the-lock
    # exemption: a helper whose every worker-context call site sits in a
    # guard extent is protected by its callers.
    locked_callees: dict[int, list[bool]] = {}
    for gid in workers:
        fn = index.functions[gid]
        for target, call in graph.callees(gid):
            if target in workers:
                locked_callees.setdefault(target, []).append(
                    _under_own_lock(fn, call["tok"]))
    for gid, info in sorted(workers.items()):
        fn = index.functions[gid]
        rel = fn["_file"]
        if not in_scope(rel, CON3_SCOPE_PREFIXES):
            continue
        sites = locked_callees.get(gid)
        if sites and all(sites):
            continue  # only ever called with a caller's lock held
        for w in fn["writes"]:
            root = w["root"]
            if not root:
                continue
            if root != "this" and root in fn["locals"]:
                continue
            if _under_own_lock(fn, w["tok"]):
                continue
            member = w["member"] if root == "this" else root
            fld = index.field_of(fn["cls"], member) if fn["cls"] else None
            if fld is not None and fld.get("atomic"):
                continue
            type_words = (fld["type"].split() if fld is not None
                          else _root_type_words(index, fn, root))
            if "atomic" in type_words:
                continue
            if fld is not None and info.instance_local:
                continue  # member of a worker-local instance
            if w["sub"]:
                unordered = (fld is not None and fld.get("unordered")) or \
                    any(word.startswith("unordered_")
                        for word in type_words)
                if not unordered:
                    continue  # disjoint-slot writes are the sanctioned idiom
                what = (f"subscripted write into unordered container "
                        f"'{member}' (rehash moves slots under "
                        f"concurrent writers)")
            elif w["mut"]:
                what = f"mutating call {member}.{w['mut']}() on shared state"
            else:
                what = f"write to non-local state '{member}'"
            _emit(index, findings, rel, w["line"], "CON-3",
                  f"{what} in worker context [{info.witness}] without a "
                  f"held lock or atomic type; guard it, make it atomic, or "
                  f"restructure to thread-private accumulation")


# --- LOCK-4 -----------------------------------------------------------------

def check_lock4(index: ProjectIndex, graph: CallGraph,
                findings: list[Finding]) -> None:
    edges: dict[str, dict[str, tuple[str, str, int]]] = {}
    memo: dict = {}

    def add_edge(a: str, b: str, witness: str, rel: str, line: int) -> None:
        edges.setdefault(a, {})
        if b not in edges[a]:
            edges[a][b] = (witness, rel, line)

    for fn in index.functions:
        rel = fn["_file"]
        for lock in fn["locks"]:
            a = graph.lock_class(fn, lock)
            for other in fn["locks"]:
                if lock["tok"] < other["tok"] <= lock["end"]:
                    b = graph.lock_class(fn, other)
                    if a != b:  # same-class nesting is LOCK-1's beat
                        add_edge(a, b,
                                 f"{fn['qname']} acquires {a} then {b} "
                                 f"({rel}:{other['line']})",
                                 rel, other["line"])
            for target, call in graph.callees(fn["_gid"]):
                if not (lock["tok"] < call["tok"] <= lock["end"]):
                    continue
                for b, chain in graph.acquired_closure(target,
                                                       memo).items():
                    if a == b:
                        add_edge(a, b,
                                 f"{fn['qname']} holds {a} "
                                 f"({rel}:{lock['line']}) and calls "
                                 f"{chain} which re-acquires it",
                                 rel, call["line"])
                    else:
                        add_edge(a, b,
                                 f"{fn['qname']} holds {a} "
                                 f"({rel}:{lock['line']}) then "
                                 f"{chain}", rel, call["line"])

    # Cycle detection: self-edges plus any strongly-connected component
    # with more than one node is a potential deadlock.
    reported: set[tuple[str, ...]] = set()
    for a, outs in sorted(edges.items()):
        if a in outs:
            key = (a,)
            if key not in reported:
                reported.add(key)
                witness, rel, line = outs[a]
                _emit(index, findings, rel, line, "LOCK-4",
                      f"lock {a} re-acquired while already held: {witness}; "
                      f"a non-recursive mutex self-deadlocks here")
    for a, outs in sorted(edges.items()):
        for b in sorted(outs):
            if b <= a or b not in edges or a not in edges.get(b, {}):
                continue
            key = tuple(sorted((a, b)))
            if key in reported:
                continue
            reported.add(key)
            w_ab, rel, line = outs[b]
            w_ba, _, _ = edges[b][a]
            _emit(index, findings, rel, line, "LOCK-4",
                  f"lock-order cycle between {a} and {b}: "
                  f"[{w_ab}] vs [{w_ba}]; pick one global order or take "
                  f"both up front with std::scoped_lock")
    # Longer cycles (A -> B -> C -> A) without a 2-cycle shortcut.
    for cycle in _long_cycles(edges):
        key = tuple(sorted(cycle))
        if key in reported or len(cycle) < 3:
            continue
        reported.add(key)
        first, second = cycle[0], cycle[1]
        witness, rel, line = edges[first][second]
        chain = " -> ".join(cycle + [cycle[0]])
        _emit(index, findings, rel, line, "LOCK-4",
              f"lock-order cycle {chain}; first edge: [{witness}]; pick "
              f"one global acquisition order")


def _long_cycles(edges: dict[str, dict]) -> list[list[str]]:
    cycles: list[list[str]] = []
    seen_keys: set[tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: list[str],
            on_path: set[str]) -> None:
        for nxt in sorted(edges.get(node, {})):
            if nxt == start and len(path) >= 3:
                key = tuple(sorted(path))
                if key not in seen_keys:
                    seen_keys.add(key)
                    cycles.append(list(path))
            elif nxt not in on_path and nxt > start and len(path) < 6:
                on_path.add(nxt)
                path.append(nxt)
                dfs(start, nxt, path, on_path)
                path.pop()
                on_path.discard(nxt)

    for start in sorted(edges):
        dfs(start, start, [start], {start})
    return cycles


# --- DET-4 ------------------------------------------------------------------

def _own_header_rel(rel: str, index: ProjectIndex) -> str | None:
    for cxx in (".cpp", ".cc", ".cxx"):
        if rel.endswith(cxx):
            stem = rel[: -len(cxx)]
            for h in (".hpp", ".h", ".hxx"):
                if stem + h in index.files:
                    return stem + h
            return None
    return None


def check_det4(index: ProjectIndex, graph: CallGraph,
               findings: list[Finding]) -> None:
    # Walk the finalized (global) records, not the raw per-file facts:
    # _root_type_words resolves a lambda's enclosing-scope types through
    # the parent chain, which only the global records can address.
    fns_by_file: dict[str, list[dict]] = {}
    for fn in index.functions:
        fns_by_file.setdefault(fn["_file"], []).append(fn)
    for rel in sorted(index.files):
        if not in_scope(rel, DET2_SCOPE_PREFIXES):
            continue
        facts = index.files[rel]
        visible = {name for name, _ in facts.get("accessor_sites", [])}
        header_rel = _own_header_rel(rel, index)
        if header_rel is not None:
            visible |= {name for name, _ in
                        index.files[header_rel].get("accessor_sites", [])}
        for fn in fns_by_file.get(rel, []):
            for it in fn["iters"]:
                if not (it["accum"] or it["sink"]):
                    continue
                if it["kind"] == "call":
                    name = it["name"]
                    if name in visible:
                        continue  # per-file DET-3 already owns this one
                    sites = index.accessors.get(name)
                    if not sites:
                        continue
                    where = ", ".join(f"{r}:{line}" for r, line in
                                      sorted(set(sites))[:3])
                    sink = ("a floating-point accumulation" if it["accum"]
                            else "an ordered output")
                    _emit(index, findings, rel, it["line"], "DET-4",
                          f"{name}() returns a reference/iterator into an "
                          f"unordered container (defined at {where}, "
                          f"outside this TU) and the iteration feeds "
                          f"{sink}: hash order crosses the call edge; "
                          f"flatten to a vector and sort at the source, or "
                          f"return a sorted copy")
                elif it["kind"] == "var":
                    words = _root_type_words(index, fn, it["name"])
                    if not words:
                        continue
                    ordered_assoc = any(w in ("set", "map", "multiset",
                                              "multimap") for w in words)
                    if ordered_assoc and "ptr" in words:
                        sink = ("a floating-point accumulation"
                                if it["accum"] else "an ordered output")
                        _emit(index, findings, rel, it["line"], "DET-4",
                              f"iteration over pointer-keyed container "
                              f"'{it['name']}' feeds {sink}: pointer "
                              f"comparison is address order, which varies "
                              f"per run; key on a stable id instead")
