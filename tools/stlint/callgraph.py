"""Whole-program call graph over the ProjectIndex fact records.

Call edges are resolved by name plus whatever scope information the
facts carry:

  * explicit qualifier      `Cls::f(...)`        -> Cls::f
  * method on a receiver    `x.f(...)`           -> T::f where T is x's
    declared type (local, param, or member field), searched up the base
    chain and down to derived classes (the base-pointer case)
  * unqualified in a method  `f(...)`            -> same-class f first,
    then free functions
  * conservative fallback: several definitions sharing the resolved
    qualified name (overloads) all become targets; an unknown receiver
    links to every method with that name.

The worker-context computation seeds from lambdas passed to
`parallel_for` / `ThreadPool::submit` call sites, discovers wrapper
dispatchers (functions that forward a callable parameter into a
dispatcher, e.g. `run_blocks`) to a fixpoint, and closes over call
edges. Each reached function carries an *instance-local* bit: a method
invoked on a receiver that is local to its caller operates on
thread-private state, so its member self-writes are exempt from CON-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .index import ProjectIndex

DISPATCHER_NAMES = {"parallel_for", "submit"}


@dataclass
class WorkerInfo:
    """One function reached from a worker body, with its access path."""
    gid: int
    instance_local: bool
    witness: str  # "parallel_for at file:line -> f -> g"


class CallGraph:
    def __init__(self, index: ProjectIndex):
        self.index = index
        self._derived: dict[str, list[str]] = {}
        for cname, info in index.classes.items():
            for base in info["bases"]:
                self._derived.setdefault(base, []).append(cname)
        self._edges: dict[int, list[tuple[int, dict]]] = {}

    # --- resolution --------------------------------------------------------

    def _class_family(self, cls: str) -> list[str]:
        """cls, its bases (inherited methods), and its derived classes
        (virtual dispatch through a base pointer)."""
        seen: list[str] = []
        queue = [cls]
        while queue:
            c = queue.pop()
            if c in seen or c not in self.index.classes:
                if c not in seen and c == cls:
                    seen.append(c)
                continue
            seen.append(c)
            queue.extend(self.index.classes[c]["bases"])
            queue.extend(self._derived.get(c, []))
        return seen or [cls]

    def _receiver_type(self, fn: dict, recv: str) -> str | None:
        t = fn["local_types"].get(recv)
        if t is None and fn["cls"]:
            f = self.index.field_of(fn["cls"], recv)
            if f is not None:
                t = f["type"]
        if t is None and fn["parent"] >= 0:
            # a lambda's captured name: look in the enclosing function
            parent = self.index.functions[fn["_base"] + fn["parent"]]
            return self._receiver_type(parent, recv)
        return t

    def _methods_named(self, name: str) -> list[int]:
        """Every method called `name`: the callees of a call whose
        receiver's type is unknown (conservative)."""
        return [g for g in self.index.by_name.get(name, [])
                if self.index.functions[g]["cls"]]

    def resolve(self, fn: dict, call: dict) -> list[int]:
        name = call["name"]
        index = self.index
        if call.get("on_result"):
            return self._methods_named(name)
        if call.get("qual"):
            return list(index.by_qname.get(f"{call['qual']}::{name}", []))
        # `auto f = [..]{..}; ... f(...)` — the local *is* the lambda
        if not call.get("recv") and \
                name in (fn.get("lambda_locals") or {}):
            return [fn["_base"] + fn["lambda_locals"][name]]
        if call.get("recv") and call["recv"] != "this":
            rtype = self._receiver_type(fn, call["recv"])
            if rtype is not None:
                for word in rtype.split():
                    if word in index.classes:
                        targets: list[int] = []
                        for c in self._class_family(word):
                            targets.extend(
                                index.by_qname.get(f"{c}::{name}", []))
                        return targets
                return []  # known non-class receiver (vector, map, ...)
            return self._methods_named(name)
        # unqualified (or this->): same class chain first, then free fns
        if fn["cls"]:
            for c in self._class_family(fn["cls"]):
                hit = index.by_qname.get(f"{c}::{name}")
                if hit:
                    return list(hit)
        if call.get("recv") == "this":
            return []
        return list(index.by_qname.get(name, []))

    def callees(self, gid: int) -> list[tuple[int, dict]]:
        if gid not in self._edges:
            fn = self.index.functions[gid]
            out = []
            for call in fn["calls"]:
                for target in self.resolve(fn, call):
                    if target != gid:  # recursion: keep the node, skip self
                        out.append((target, call))
            # a lambda's body belongs to its enclosing function's behaviour
            # only when invoked; nested lambdas reached via call records.
            self._edges[gid] = out
        return self._edges[gid]

    # --- worker context (CON-3) -------------------------------------------

    def _all_resolved_calls(self) -> list[tuple[dict, dict, list[int]]]:
        """Every (fn, call, resolved targets) triple, resolved once —
        the dispatcher fixpoint and the seed scan both walk this list
        repeatedly, and resolution is the expensive part."""
        if not hasattr(self, "_resolved_calls"):
            self._resolved_calls = [
                (fn, call, self.resolve(fn, call))
                for fn in self.index.functions
                for call in fn["calls"]]
        return self._resolved_calls

    def dispatcher_gids(self) -> set[int]:
        """Fixpoint of wrapper dispatchers: functions forwarding one of
        their own parameters into a dispatcher call."""
        wrappers: set[int] = set()
        changed = True
        while changed:
            changed = False
            for fn, call, targets in self._all_resolved_calls():
                if fn["_gid"] in wrappers:
                    continue
                pnames = {p["name"] for p in fn["params"] if p["name"]}
                if not pnames:
                    continue
                is_dispatch = call["name"] in DISPATCHER_NAMES or any(
                    t in wrappers for t in targets)
                if is_dispatch and pnames & set(call["args"]):
                    wrappers.add(fn["_gid"])
                    changed = True
        return wrappers

    def worker_context(self) -> dict[int, WorkerInfo]:
        """gid -> WorkerInfo for every function reachable from a worker
        body. instance_local=False wins when a function is reached both
        ways (the shared-instance path is the dangerous one)."""
        index = self.index
        wrappers = self.dispatcher_gids()
        seeds: list[WorkerInfo] = []
        for fn, call, targets in self._all_resolved_calls():
            is_dispatch = call["name"] in DISPATCHER_NAMES or any(
                t in wrappers for t in targets)
            if not is_dispatch:
                continue
            for local_id in call["lambdas"]:
                gid = fn["_base"] + local_id
                seeds.append(WorkerInfo(
                    gid, False,
                    f"{call['name']} at {fn['_file']}:{call['line']}"))
            # a lambda-typed local passed by *name* into a dispatcher
            # (`auto work = [&]{..}; pool->parallel_for(n, work);`) runs
            # on workers just like an inline literal
            ll = fn.get("lambda_locals") or {}
            for arg in call["args"]:
                if arg in ll:
                    seeds.append(WorkerInfo(
                        fn["_base"] + ll[arg], False,
                        f"{call['name']} at {fn['_file']}:{call['line']}"))
        best: dict[int, WorkerInfo] = {}
        queue = list(seeds)
        while queue:
            info = queue.pop(0)
            cur = best.get(info.gid)
            if cur is not None and not (cur.instance_local
                                        and not info.instance_local):
                continue  # already recorded at least as dangerously
            best[info.gid] = info
            fn = index.functions[info.gid]
            for target, call in self.callees(info.gid):
                callee = index.functions[target]
                inst_local = self._callee_instance_local(
                    fn, call, callee, info.instance_local)
                queue.append(WorkerInfo(
                    target, inst_local,
                    f"{info.witness} -> {callee['qname']}"))
        return best

    def _callee_instance_local(self, caller: dict, call: dict,
                               callee: dict, caller_local: bool) -> bool:
        if not callee["cls"]:
            return True  # free function: no instance state to speak of
        recv = call.get("recv", "")
        if recv and recv != "this":
            # locals and params of the caller — or, for a lambda, of any
            # enclosing function whose frame the capture aliases — are
            # worker-private (by-ref params propagate their own caller's
            # locality transitively through the witness chain); a local
            # reference may be bound to shared state, so a call through
            # one is only as local as the caller
            cur = caller
            while True:
                if recv in cur["locals"]:
                    return recv not in cur["ref_locals"] or caller_local
                if cur["parent"] < 0:
                    break
                cur = self.index.functions[cur["_base"] + cur["parent"]]
            if caller["cls"] and \
                    self.index.field_of(caller["cls"], recv) is not None:
                # member sub-object: as local as the caller's instance
                return caller_local
            return False
        # implicit/this call: same instance as the caller; so is a call
        # on a call's result (`graph().add_relationship(..)`), which in
        # this tree reaches the caller's own per-run objects
        return caller_local

    # --- lock acquisition closure (LOCK-4) --------------------------------

    def lock_class(self, fn: dict, lock: dict) -> str:
        index = self.index
        recv, fld = lock["recv"], lock["field"]
        if recv == fld or not recv:  # bare `mutex_`
            if fn["cls"] is not None and fn["cls"]:
                if index.field_of(fn["cls"], fld) is not None:
                    return f"{fn['cls']}::{fld}"
            if fld in fn["locals"]:
                return f"{fn['qname']}::{fld}"
            owners = [c for c, info in index.classes.items()
                      if fld in info["fields"]
                      and info["fields"][fld].get("mutex")]
            if len(owners) == 1:
                return f"{owners[0]}::{fld}"
            return fld
        rtype = self._receiver_type(fn, recv)
        if rtype:
            for word in rtype.split():
                if word in index.classes and \
                        index.field_of(word, fld) is not None:
                    return f"{word}::{fld}"
        owners = [c for c, info in index.classes.items()
                  if fld in info["fields"]
                  and info["fields"][fld].get("mutex")]
        if len(owners) == 1:
            return f"{owners[0]}::{fld}"
        return f"{recv}.{fld}"

    def acquired_closure(self, gid: int,
                         _memo: dict | None = None,
                         _stack: set | None = None) -> dict[str, str]:
        """lock class -> witness chain for every lock a call to gid may
        take, transitively."""
        memo = _memo if _memo is not None else {}
        stack = _stack if _stack is not None else set()
        if gid in memo:
            return memo[gid]
        if gid in stack:
            return {}
        stack.add(gid)
        fn = self.index.functions[gid]
        out: dict[str, str] = {}
        for lock in fn["locks"]:
            cls = self.lock_class(fn, lock)
            out.setdefault(cls, f"{fn['qname']} ({fn['_file']}:{lock['line']})")
        for target, call in self.callees(gid):
            for cls, chain in self.acquired_closure(target, memo,
                                                    stack).items():
                out.setdefault(cls, f"{fn['qname']} -> {chain}")
        stack.discard(gid)
        memo[gid] = out
        return out
