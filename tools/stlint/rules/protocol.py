"""Flow-sensitive protocol rules (v4): REV-1/REV-2, EXC-1.

These run on the per-function CFGs serialised into the fact records
(index.py / cfg.py) through the worklist framework in dataflow.py, so
they stay whole-program *and* cache-warm like the v3 families.

  REV-1  path-sensitive revision protocol: every path through a public
         mutating method of SocialGraph / ReferenceSocialGraph that
         commits an observable member write must reach a
         bump()/bump_structure()/bump_value() (or an epoch-counter
         write) before returning. A mutator with no bump at all fails on
         every writing path; one that bumps on one branch but returns
         early on another fails on that path alone, and the offending
         path is reported as a block-level witness chain (LOCK-4 style).
  REV-2  the inverse: representation-only entry points (rebuild,
         materialize, begin_interval, ...) must NOT reach a bump —
         storage reorganisation that advances witnesses would spuriously
         invalidate O(changed) reuse — and rebuild() must not call a
         public const accessor, which would read torn CSR state.
  EXC-1  exception safety in mutators: no committed observable write may
         precede a potentially-throwing event (allocating container
         call, throwing same-tree callee, explicit uncaught throw)
         unless the write is rolled back in a catch that re-writes the
         field, or the function is noexcept.

Soundness notes (see docs/STATIC_ANALYSIS.md §v4 for the catalogue):
guarded-commit gens (`bool changed = helper(...); if (changed) bump();`)
are discharged when a bump sits in a block guarded by the result
variable; writes to representation-only fields (overlay/tombstone
buffers, rebuild counters) and to interaction state (which carries no
revision) are not protocol-observable; unresolved cross-TU calls are
assumed non-throwing unless they match the allocating-method list.
"""

from __future__ import annotations

from .. import dataflow
from ..callgraph import CallGraph
from ..cfg import ENTRY, EXIT, RAISE
from ..core import (BUMP_FIELD_MARKERS, INTERACTION_FIELD_MARKERS,
                    REPR_FIELD_MARKERS, REPRESENTATION_ONLY, Finding)
from ..index import ProjectIndex

REV_CLASSES = ("SocialGraph", "ReferenceSocialGraph")
BUMP_NAMES = {"bump", "bump_structure", "bump_value"}
# Container methods that may allocate (and therefore throw bad_alloc).
ALLOC_CALLS = {"push_back", "emplace_back", "emplace", "insert", "resize",
               "reserve", "assign", "push_front", "emplace_front", "push",
               "append", "emplace_hint", "make_unique", "make_shared", "at"}


def check(index: ProjectIndex, graph: CallGraph,
          findings: list[Finding]) -> None:
    for cls in REV_CLASSES:
        a = _Analysis(index, graph, cls)
        a.check_rev1(findings)
        a.check_rev2(findings)
        a.check_exc1(findings)


def _emit(index: ProjectIndex, findings: list[Finding], rel: str,
          line: int, rule: str, message: str) -> None:
    if not index.suppressed(rel, line, rule):
        findings.append(Finding(rel, line, rule, message))


# --- event classification ---------------------------------------------------

class _Analysis:
    """Per-class event classification + summaries over the CFG facts."""

    def __init__(self, index: ProjectIndex, graph: CallGraph, cls: str):
        self.index = index
        self.graph = graph
        self.cls = cls
        self.family = set(graph._class_family(cls))
        self._events: dict[int, list[list[dict]]] = {}
        self._summaries: dict[int, dict] = {}
        self._stack: set[int] = set()

    # -- name resolution ----------------------------------------------------

    def _is_local(self, fn: dict, root: str) -> bool:
        cur = fn
        while True:
            if root in cur["locals"]:
                return True
            if cur["parent"] < 0:
                return False
            cur = self.index.functions[cur["_base"] + cur["parent"]]

    def _member_field(self, fn: dict, w: dict) -> str:
        """The class field a write lands in, '' when it is local-only."""
        root, member = w["root"], w["member"]
        hops = 0
        cur = fn
        while hops < 4:
            ra = cur.get("ref_aliases") or {}
            if root in ra:
                aroot, amember = ra[root]
                member = amember or member
                root = aroot
                hops += 1
                continue
            if cur["parent"] < 0:
                break
            cur = self.index.functions[cur["_base"] + cur["parent"]]
        if root == "this":
            if member and self.index.field_of(self.cls, member) is not None:
                return member
            return member  # unknown field declared out of tree: keep it
        if root and not self._is_local(fn, root) and \
                self.index.field_of(self.cls, root) is not None:
            return root
        return ""

    def _repr_context(self, fn: dict) -> bool:
        """fn (or the named function a lambda nests under) is one of the
        representation-only entry points."""
        cur = fn
        while cur["kind"] == "lambda" and cur["parent"] >= 0:
            cur = self.index.functions[cur["_base"] + cur["parent"]]
        return cur["name"] in REPRESENTATION_ONLY

    # -- per-function events ------------------------------------------------

    def events(self, gid: int) -> list[list[dict]]:
        """Per-block ordered protocol events. Event kinds:
        gen (committed observable write; 'site' is unique, 'guard' is the
        result-local for guarded-commit calls), kill (revision bump),
        throw (potentially-throwing call)."""
        if gid in self._events:
            return self._events[gid]
        index, graph = self.index, self.graph
        fn = index.functions[gid]
        blocks = (fn.get("cfg") or {}).get("blocks") or []
        out: list[list[dict]] = [[] for _ in blocks]
        repr_fn = self._repr_context(fn)
        site = 0
        for bid, b in enumerate(blocks):
            for kind, idx in b["ev"]:
                if kind == "w":
                    w = fn["writes"][idx]
                    field = self._member_field(fn, w)
                    if not field:
                        continue
                    if any(m in field for m in BUMP_FIELD_MARKERS):
                        out[bid].append({"t": "kill", "line": w["line"]})
                    elif repr_fn or any(m in field
                                        for m in REPR_FIELD_MARKERS) or \
                            field.startswith(INTERACTION_FIELD_MARKERS):
                        continue
                    elif b.get("h"):
                        # catch-handler re-write: rollback, not a commit
                        out[bid].append({"t": "rollback", "field": field,
                                         "line": w["line"]})
                    else:
                        out[bid].append({"t": "gen", "site": site,
                                         "field": field, "line": w["line"],
                                         "guard": ""})
                        site += 1
                    continue
                c = fn["calls"][idx]
                if c["name"] in BUMP_NAMES and \
                        c.get("recv", "") in ("", "this"):
                    out[bid].append({"t": "kill", "line": c["line"]})
                    continue
                throwing = c["name"] in ALLOC_CALLS
                killed = False
                gen_callee = False
                for t in graph.resolve(fn, c):
                    s = self.summary(t)
                    throwing = throwing or s["throws"]
                    if index.functions[t]["cls"] in self.family:
                        killed = killed or s["always_bumps"]
                        gen_callee = gen_callee or s["dirty"]
                if throwing:
                    out[bid].append({"t": "throw", "what": c["name"],
                                     "line": c["line"]})
                if killed:
                    out[bid].append({"t": "kill", "line": c["line"]})
                elif gen_callee and not repr_fn:
                    out[bid].append({"t": "gen", "site": site,
                                     "field": f"{c['name']}()",
                                     "line": c["line"],
                                     "guard": c.get("asg", "")})
                    site += 1
        self._discharge_guarded(blocks, out)
        self._events[gid] = out
        return out

    def _discharge_guarded(self, blocks: list[dict],
                           events: list[list[dict]]) -> None:
        """`bool changed = helper(...); if (changed) bump();` — drop the
        helper's gen when a kill sits in a block guarded by the result."""
        guarded_kills: set[str] = set()
        for bid, b in enumerate(blocks):
            if any(ev["t"] == "kill" for ev in events[bid]):
                guarded_kills.update(b.get("g") or [])
        if not guarded_kills:
            return
        for evs in events:
            evs[:] = [ev for ev in evs
                      if not (ev["t"] == "gen" and ev.get("guard")
                              and ev["guard"] in guarded_kills)]

    # -- summaries ----------------------------------------------------------

    def summary(self, gid: int) -> dict:
        if gid in self._summaries:
            return self._summaries[gid]
        if gid in self._stack:  # recursion: optimistic bottom
            return {"dirty": False, "always_bumps": False,
                    "writes": False, "throws": False}
        self._stack.add(gid)
        try:
            fn = self.index.functions[gid]
            blocks = (fn.get("cfg") or {}).get("blocks") or []
            events = self.events(gid)
            transfer = self._make_transfer(events)
            writes = any(ev["t"] == "gen" for evs in events for ev in evs)
            throws = any(ev["t"] == "throw" for evs in events
                         for ev in evs)
            throws = throws or any(RAISE in b["s"] for b in blocks)
            dirty = False
            if writes and blocks:
                ins = dataflow.solve(blocks, ENTRY, dataflow.EMPTY,
                                     transfer)
                for bid, b in enumerate(blocks):
                    if EXIT in b["s"] and bid in ins and \
                            transfer(bid, ins[bid]):
                        dirty = True
                        break
            always = False
            if blocks:
                always = self._always_bumps(blocks, events)
            result = {"dirty": dirty, "always_bumps": always,
                      "writes": writes, "throws": throws}
        finally:
            self._stack.discard(gid)
        self._summaries[gid] = result
        return result

    def _make_transfer(self, events: list[list[dict]]):
        fields = {ev["site"]: ev["field"] for evs in events for ev in evs
                  if ev["t"] == "gen"}

        def transfer(bid: int, state: frozenset) -> frozenset:
            s = set(state)
            for ev in events[bid]:
                if ev["t"] == "gen":
                    s.add(ev["site"])
                elif ev["t"] == "kill":
                    s.clear()
                elif ev["t"] == "rollback":
                    s = {x for x in s if fields.get(x) != ev["field"]}
            return frozenset(s)
        return transfer

    def _make_exc_transfer(self, events: list[list[dict]],
                           blocks: list[dict]):
        """Out-state along exceptional edges: the union of the states at
        each potentially-throwing call. A write ordered after a block's
        last throwing call (in particular the receiver mutation of that
        very call, e.g. ``log_.push_back(v)``) can never be committed
        when the handler runs, so it must not flow into it. Blocks that
        end in an explicit ``throw`` contribute their full out-state."""
        fields = {ev["site"]: ev["field"] for evs in events for ev in evs
                  if ev["t"] == "gen"}

        def exc_transfer(bid: int, state: frozenset) -> frozenset:
            s = set(state)
            acc: set = set()
            for ev in events[bid]:
                if ev["t"] == "throw":
                    acc |= s
                elif ev["t"] == "gen":
                    s.add(ev["site"])
                elif ev["t"] == "kill":
                    s.clear()
                elif ev["t"] == "rollback":
                    s = {x for x in s if fields.get(x) != ev["field"]}
            if blocks[bid].get("t"):
                acc |= s
            return frozenset(acc)
        return exc_transfer

    def _always_bumps(self, blocks: list[dict],
                      events: list[list[dict]]) -> bool:
        """Must-analysis: a kill on every normal path to exit."""
        has_kill = any(ev["t"] == "kill" for evs in events for ev in evs)
        if not has_kill:
            return False

        def transfer(bid: int, state: frozenset) -> frozenset:
            if any(ev["t"] == "kill" for ev in events[bid]):
                return frozenset({"bumped"})
            return state

        ins = dataflow.solve(blocks, ENTRY, dataflow.EMPTY, transfer,
                             meet="intersect")
        saw_exit = False
        for bid, b in enumerate(blocks):
            if EXIT in b["s"]:
                if bid not in ins:
                    continue  # unreached (dead) exit edge
                saw_exit = True
                if "bumped" not in transfer(bid, ins[bid]):
                    return False
        return saw_exit

    # -- roots --------------------------------------------------------------

    def mutator_roots(self) -> list[tuple[str, int]]:
        info = self.index.classes.get(self.cls)
        if info is None:
            return []
        out: list[tuple[str, int]] = []
        for name, decl in sorted(info["methods"].items()):
            if decl["visibility"] != "public" or decl["const"]:
                continue
            if name == self.cls or name.startswith("~") or \
                    name in BUMP_NAMES or name in REPRESENTATION_ONLY or \
                    name.startswith("operator"):
                continue
            for gid in self.index.by_qname.get(f"{self.cls}::{name}", []):
                out.append((name, gid))
        return out

    # -- REV-1 --------------------------------------------------------------

    def check_rev1(self, findings: list[Finding]) -> None:
        for name, gid in self.mutator_roots():
            fn = self.index.functions[gid]
            blocks = (fn.get("cfg") or {}).get("blocks") or []
            if not blocks:
                continue
            events = self.events(gid)
            if not any(ev["t"] == "gen" for evs in events for ev in evs):
                continue
            transfer = self._make_transfer(events)

            def is_bad(bid: int, state: frozenset) -> bool:
                return EXIT in blocks[bid]["s"] and \
                    bool(transfer(bid, state))

            path = dataflow.find_trace(blocks, ENTRY, dataflow.EMPTY,
                                       transfer, is_bad)
            if not path:
                continue
            # pending site on the offending path, for the message
            state: frozenset = dataflow.EMPTY
            for bid in path:
                state = transfer(bid, state)
            pend = self._site_info(events, min(state)) if state else None
            chain = self._format_chain(blocks, path)
            where = (f" (write to '{pend['field']}' at "
                     f"{fn['_file']}:{pend['line']})" if pend else "")
            _emit(self.index, findings, fn["_file"], fn["line"], "REV-1",
                  f"{self.cls}::{name}() commits an observable member "
                  f"write{where} but the path [{chain}] returns without "
                  f"bump()/bump_structure()/bump_value(); a stale witness "
                  f"revision silently corrupts O(changed) reuse")

    @staticmethod
    def _site_info(events: list[list[dict]], site: int) -> dict | None:
        for evs in events:
            for ev in evs:
                if ev["t"] == "gen" and ev["site"] == site:
                    return ev
        return None

    @staticmethod
    def _format_chain(blocks: list[dict], path: list[int]) -> str:
        parts = []
        for bid in path:
            b = blocks[bid]
            label = b["k"]
            if b.get("l"):
                label += f"@L{b['l']}"
            if "r" in b:
                label += f" -> return@L{b['r']}"
            parts.append(label)
        return " -> ".join(parts)

    # -- REV-2 --------------------------------------------------------------

    def check_rev2(self, findings: list[Finding]) -> None:
        index, graph = self.index, self.graph
        info = index.classes.get(self.cls)
        if info is None:
            return
        for name in sorted(REPRESENTATION_ONLY):
            roots = list(index.by_qname.get(f"{self.cls}::{name}", []))
            if not roots:
                continue
            closure = _same_class_closure(index, graph, self.family, roots)
            for gid in closure:
                fn = index.functions[gid]
                hit: tuple[int, str] | None = None
                for call in fn["calls"]:
                    if call["name"] in BUMP_NAMES and \
                            call.get("recv", "") in ("", "this"):
                        hit = (call["line"], f"{call['name']}()")
                        break
                if hit is None:
                    for w in fn["writes"]:
                        field = self._member_field(fn, w)
                        if field and any(m in field
                                         for m in BUMP_FIELD_MARKERS):
                            hit = (w["line"], f"write to '{field}'")
                            break
                if hit is not None:
                    _emit(index, findings, fn["_file"], hit[0], "REV-2",
                          f"representation-only {self.cls}::{name}() "
                          f"reaches {hit[1]} in {fn['qname']}; storage "
                          f"reorganisation must not advance revision "
                          f"witnesses (it would spuriously invalidate "
                          f"O(changed) reuse)")
        # rebuild() must not call public const accessors: a reader invoked
        # mid-rebuild would observe torn CSR state.
        rebuild_roots = list(index.by_qname.get(f"{self.cls}::rebuild", []))
        for gid in _same_class_closure(index, graph, self.family,
                                       rebuild_roots):
            fn = index.functions[gid]
            for target, call in graph.callees(gid):
                callee = index.functions[target]
                if callee["cls"] != self.cls:
                    continue
                decl = info["methods"].get(callee["name"]) or {}
                if decl.get("visibility") == "public" and \
                        (callee["const"] or decl.get("const")):
                    _emit(index, findings, fn["_file"], call["line"],
                          "REV-2",
                          f"{fn['qname']}() (reachable from "
                          f"{self.cls}::rebuild()) calls public const "
                          f"accessor {self.cls}::{callee['name']}() — "
                          f"accessors must not run mid-rebuild; use the "
                          f"private materialized state directly")

    # -- EXC-1 --------------------------------------------------------------

    def check_exc1(self, findings: list[Finding]) -> None:
        index = self.index
        for name, gid in self.mutator_roots():
            fn = index.functions[gid]
            if fn.get("noexcept"):
                continue
            blocks = (fn.get("cfg") or {}).get("blocks") or []
            if not blocks:
                continue
            events = self.events(gid)
            has_gen = any(ev["t"] == "gen" for evs in events for ev in evs)
            has_throw = any(ev["t"] == "throw" for evs in events
                            for ev in evs)
            raises = any(RAISE in b["s"] for b in blocks)
            if not has_gen or not (has_throw or raises):
                continue
            transfer = self._make_transfer(events)
            ins = dataflow.solve(blocks, ENTRY, dataflow.EMPTY, transfer,
                                 exc_transfer=self._make_exc_transfer(
                                     events, blocks))
            reported = False
            for bid, b in enumerate(blocks):
                if reported or bid not in ins:
                    continue
                state = set(ins[bid])
                for ev in events[bid]:
                    if ev["t"] == "gen":
                        state.add(ev["site"])
                    elif ev["t"] == "kill":
                        state.clear()
                    elif ev["t"] == "throw" and state:
                        pend = self._site_info(events, min(state))
                        if pend and self._rolled_back(blocks, events,
                                                      b, pend["field"]):
                            continue
                        _emit(index, findings, fn["_file"], ev["line"],
                              "EXC-1",
                              f"{self.cls}::{name}(): committed write to "
                              f"'{pend['field'] if pend else '?'}' (line "
                              f"{pend['line'] if pend else '?'}) precedes "
                              f"potentially-throwing '{ev['what']}()'; an "
                              f"exception here strands the write without "
                              f"a bump — reorder the commit after the "
                              f"throwing work, roll back in a catch, or "
                              f"mark the method noexcept")
                        reported = True
                        break
                if reported:
                    break
                # explicit uncaught throw with committed state pending
                if RAISE in b["s"] and bid in ins and \
                        transfer(bid, ins[bid]):
                    out = transfer(bid, ins[bid])
                    pend = self._site_info(events, min(out))
                    _emit(index, findings, fn["_file"],
                          b.get("l") or fn["line"], "EXC-1",
                          f"{self.cls}::{name}(): throw statement "
                          f"propagates while the write to "
                          f"'{pend['field'] if pend else '?'}' (line "
                          f"{pend['line'] if pend else '?'}) is committed "
                          f"but not bumped; validate before mutating or "
                          f"roll the write back before throwing")
                    reported = True

    def _rolled_back(self, blocks: list[dict], events: list[list[dict]],
                     b: dict, field: str) -> bool:
        """The throwing block has catch edges and some handler-reachable
        block re-writes the pending field (the rollback idiom)."""
        heads = b.get("c") or []
        if not heads:
            return False
        for bid in dataflow.reachable(blocks, heads):
            for ev in events[bid]:
                if ev["t"] in ("gen", "rollback") and ev["field"] == field:
                    return True
        return False


def _same_class_closure(index: ProjectIndex, graph: CallGraph,
                        family: set[str], roots: list[int]) -> list[int]:
    seen: list[int] = []
    queue = list(roots)
    while queue:
        gid = queue.pop()
        if gid in seen:
            continue
        seen.append(gid)
        for target, _ in graph.callees(gid):
            if index.functions[target]["cls"] in family:
                queue.append(target)
    return seen

