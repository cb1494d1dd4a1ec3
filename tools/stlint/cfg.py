"""Per-function control-flow graphs over the code-token stream (v4).

``build_cfg`` turns one function body (a token range plus the write/call
events ``index.build_facts`` already collected) into a basic-block graph:

  * block 0 is the entry, block 1 the exit (every ``return`` and the
    implicit fall-off-the-end edge leads here), block 2 the raise sink
    (an uncaught ``throw``);
  * ``if``/``else`` chains, ``while``/``for``/range-``for``/``do`` loops
    (with back edges), ``switch`` with fallthrough between case arms,
    ``break``/``continue``, ``try``/``catch`` (every block inside a try
    region gets an edge to each handler), and ternaries whose arms carry
    events all split blocks;
  * each block keeps the *ordered* member-write / call events that the
    flow-sensitive rules (REV/EXC, rules/protocol.py) replay through
    the dataflow framework, plus the identifier names of the condition
    guarding the block (the guarded-commit idiom needs them).

The graph is part of the serialisable fact record, so whole-program
flow-sensitive rules stay cache-warm: a block is plain dicts/lists —
``{"s": succs, "ev": [[kind, idx], ...], "l": line, "k": kind,
"g": [guard idents], "c": [catch heads]}`` — with ``ev`` entries indexing
into the function's ``writes`` (kind ``"w"``) and ``calls`` (``"c"``).

Nested lambdas are opaque: their bodies were already excluded from the
event lists, and the statement walker never treats a lambda's ``return``
or braces as control flow of the enclosing function.
"""

from __future__ import annotations

import bisect

from .lexer import Token
from .scopes import match_forward

ENTRY = 0
EXIT = 1
RAISE = 2

# Keywords that start a statement the walker models explicitly.
_CTRL = {"if", "while", "for", "do", "switch", "return", "break",
         "continue", "throw", "try", "goto"}
_MAX_GUARD_IDENTS = 8


def block(kind: str, line: int) -> dict:
    return {"s": [], "ev": [], "l": line, "k": kind}


class _Builder:
    def __init__(self, code: list[Token], lo: int, hi: int,
                 events: list[tuple[int, str, int]]):
        self.code = code
        self.lo = lo
        self.hi = min(hi, len(code))
        # (tok, kind, idx) sorted with calls before same-token writes, so
        # `member_.push_back(x)` (one token carrying both a throwing call
        # and a mutating write) raises *before* it commits.
        self.events = sorted(events,
                             key=lambda e: (e[0], 0 if e[1] == "c" else 1))
        self._ev_toks = [e[0] for e in self.events]
        self.blocks: list[dict] = [block("entry", 0),
                                   block("exit", 0),
                                   block("raise", 0)]

    # --- graph primitives ---------------------------------------------------

    def new(self, kind: str, line: int, guards: list[str] | None = None,
            catches: list[int] | None = None) -> int:
        b = block(kind, line)
        if guards:
            b["g"] = guards[:_MAX_GUARD_IDENTS]
        if catches:
            b["c"] = list(catches)
        self.blocks.append(b)
        return len(self.blocks) - 1

    def edge(self, a: int, b: int) -> None:
        if b not in self.blocks[a]["s"]:
            self.blocks[a]["s"].append(b)

    def place(self, bid: int, a: int, b: int) -> None:
        """Append the events whose token index falls in [a, b)."""
        i = bisect.bisect_left(self._ev_toks, a)
        while i < len(self.events) and self.events[i][0] < b:
            tok, kind, idx = self.events[i]
            self.blocks[bid]["ev"].append([kind, idx])
            if self.blocks[bid]["l"] == 0:
                self.blocks[bid]["l"] = self.code[tok].line
            i += 1

    def has_events(self, a: int, b: int) -> bool:
        i = bisect.bisect_left(self._ev_toks, a)
        return i < len(self.events) and self.events[i][0] < b

    def idents(self, a: int, b: int) -> list[str]:
        out: list[str] = []
        for j in range(a, min(b, self.hi)):
            t = self.code[j]
            if t.kind == "ident" and t.text not in out:
                out.append(t.text)
        return out[:_MAX_GUARD_IDENTS]

    # --- statement walking --------------------------------------------------

    def line(self, i: int) -> int:
        return self.code[i].line if i < len(self.code) else 0

    def stmt_end(self, i: int, end: int) -> int:
        """Index just past the `;` ending a plain statement (depth-aware:
        lambda bodies, initialiser braces, and call parens are skipped)."""
        depth = 0
        j = i
        while j < end:
            t = self.code[j].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                if depth == 0:
                    return j  # malformed / end of enclosing block
                depth -= 1
            elif t == ";" and depth == 0:
                return j + 1
            j += 1
        return end

    def stmts(self, i: int, end: int, cur: int | None, ctx: dict) -> int | None:
        """Parse statements in [i, end); returns the open block falling
        off the end (None when every path jumped away)."""
        while i < end:
            if cur is None:  # unreachable tail (after return/break/...)
                cur = self.new("join", self.line(i))
            i2, cur = self.stmt(i, end, cur, ctx)
            i = i2 if i2 > i else i + 1  # never stall on stray tokens
        return cur

    def stmt(self, i: int, end: int, cur: int,
             ctx: dict) -> tuple[int, int | None]:
        t = self.code[i]
        prev = self.code[i - 1].text if i > 0 else ""
        if t.kind == "ident" and t.text in _CTRL and \
                prev not in (".", "->", "::"):
            handler = getattr(self, f"_stmt_{t.text}")
            return handler(i, end, cur, ctx)
        if t.text == "{":
            close = match_forward(self.code, i, "{", "}")
            out = self.stmts(i + 1, close, cur, ctx)
            return close + 1, out
        if t.text == ";":
            return i + 1, cur
        return self._stmt_plain(i, end, cur, ctx)

    def _cond(self, i: int) -> tuple[int, int, int]:
        """(open_paren, close_paren, after) for `kw (cond)`; tolerates
        `if constexpr` by skipping idents before the paren."""
        j = i + 1
        while j < self.hi and self.code[j].kind == "ident":
            j += 1
        if j >= self.hi or self.code[j].text != "(":
            return i, i, i + 1
        close = match_forward(self.code, j, "(", ")")
        return j, close, close + 1

    # --- control constructs -------------------------------------------------

    def _stmt_if(self, i: int, end: int, cur: int,
                 ctx: dict) -> tuple[int, int | None]:
        op, cp, after = self._cond(i)
        self.place(cur, op, cp + 1)
        guards = self.idents(op + 1, cp)
        then_b = self.new("then", self.line(after), guards,
                          ctx.get("catches"))
        self.edge(cur, then_b)
        i2, then_out = self.stmt(after, end, then_b, ctx)
        else_out: int | None = cur
        if i2 < end and self.code[i2].kind == "ident" and \
                self.code[i2].text == "else":
            else_b = self.new("else", self.line(i2), guards,
                              ctx.get("catches"))
            self.edge(cur, else_b)
            i2, else_out = self.stmt(i2 + 1, end, else_b, ctx)
        if then_out is None and else_out is None:
            return i2, None
        join = self.new("join", self.line(i2), None, ctx.get("catches"))
        if then_out is not None:
            self.edge(then_out, join)
        if else_out is not None:
            self.edge(else_out, join)
        return i2, join

    def _loop(self, i_body: int, end: int, cur: int, ctx: dict,
              cond_lo: int, cond_hi: int,
              step_lo: int = -1, step_hi: int = -1) -> tuple[int, int]:
        guards = self.idents(cond_lo, cond_hi)
        hdr = self.new("loop", self.line(cond_lo), None, ctx.get("catches"))
        self.edge(cur, hdr)
        self.place(hdr, cond_lo, cond_hi)
        exit_b = self.new("join", self.line(i_body), None,
                          ctx.get("catches"))
        body_b = self.new("body", self.line(i_body), guards,
                          ctx.get("catches"))
        self.edge(hdr, body_b)
        self.edge(hdr, exit_b)
        step_b = hdr
        if step_lo >= 0 and step_lo < step_hi:
            step_b = self.new("step", self.line(step_lo), None,
                              ctx.get("catches"))
            self.place(step_b, step_lo, step_hi)
            self.edge(step_b, hdr)
        inner = dict(ctx)
        inner["break"] = exit_b
        inner["continue"] = step_b
        i2, body_out = self.stmt(i_body, end, body_b, inner)
        if body_out is not None:
            self.edge(body_out, step_b)
        return i2, exit_b

    def _stmt_while(self, i: int, end: int, cur: int,
                    ctx: dict) -> tuple[int, int | None]:
        op, cp, after = self._cond(i)
        return self._loop(after, end, cur, ctx, op + 1, cp)

    def _stmt_for(self, i: int, end: int, cur: int,
                  ctx: dict) -> tuple[int, int | None]:
        op, cp, after = self._cond(i)
        colon = semi1 = semi2 = -1
        depth = 0
        for j in range(op + 1, cp):
            txt = self.code[j].text
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and txt == ":" and colon < 0 and semi1 < 0:
                colon = j
            elif depth == 0 and txt == ";":
                if semi1 < 0:
                    semi1 = j
                elif semi2 < 0:
                    semi2 = j
        if colon >= 0:  # range-for: the range expr runs once, up front
            self.place(cur, colon + 1, cp + 1)
            return self._loop(after, end, cur, ctx, op + 1, colon)
        if semi1 < 0:
            semi1 = semi2 = cp
        if semi2 < 0:
            semi2 = cp
        self.place(cur, op + 1, semi1 + 1)  # init clause
        return self._loop(after, end, cur, ctx, semi1 + 1, semi2,
                          semi2 + 1, cp)

    def _stmt_do(self, i: int, end: int, cur: int,
                 ctx: dict) -> tuple[int, int | None]:
        body_b = self.new("body", self.line(i + 1), None,
                          ctx.get("catches"))
        self.edge(cur, body_b)
        exit_b = self.new("join", self.line(i + 1), None,
                          ctx.get("catches"))
        cond_b = self.new("loop", self.line(i + 1), None,
                          ctx.get("catches"))
        inner = dict(ctx)
        inner["break"] = exit_b
        inner["continue"] = cond_b
        i2, body_out = self.stmt(i + 1, end, body_b, inner)
        if body_out is not None:
            self.edge(body_out, cond_b)
        # `while (cond) ;`
        if i2 < end and self.code[i2].kind == "ident" and \
                self.code[i2].text == "while":
            op, cp, after = self._cond(i2)
            self.place(cond_b, op + 1, cp)
            i2 = after
            if i2 < end and self.code[i2].text == ";":
                i2 += 1
        self.edge(cond_b, body_b)
        self.edge(cond_b, exit_b)
        return i2, exit_b

    def _stmt_switch(self, i: int, end: int, cur: int,
                     ctx: dict) -> tuple[int, int | None]:
        op, cp, after = self._cond(i)
        self.place(cur, op, cp + 1)
        guards = self.idents(op + 1, cp)
        if after >= end or self.code[after].text != "{":
            return after, cur
        close = match_forward(self.code, after, "{", "}")
        exit_b = self.new("join", self.line(close), None,
                          ctx.get("catches"))
        # depth-0 `case expr:` / `default:` labels inside the braces
        labels: list[tuple[int, int]] = []  # (label tok, stmt start)
        depth = 0
        has_default = False
        j = after + 1
        while j < close:
            txt = self.code[j].text
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and self.code[j].kind == "ident" and \
                    txt in ("case", "default"):
                k = j + 1
                while k < close and self.code[k].text != ":":
                    k += 1
                labels.append((j, k + 1))
                has_default = has_default or txt == "default"
                j = k
            j += 1
        if not labels:
            out = self.stmts(after + 1, close, cur, ctx)
            return close + 1, out
        inner = dict(ctx)
        inner["break"] = exit_b
        fall: int | None = None
        for n, (lbl, body_start) in enumerate(labels):
            seg_end = labels[n + 1][0] if n + 1 < len(labels) else close
            case_b = self.new("case", self.line(lbl), guards,
                              ctx.get("catches"))
            self.edge(cur, case_b)
            if fall is not None:  # fallthrough from the previous arm
                self.edge(fall, case_b)
            fall = self.stmts(body_start, seg_end, case_b, inner)
        if fall is not None:
            self.edge(fall, exit_b)
        if not has_default:
            self.edge(cur, exit_b)
        return close + 1, exit_b

    def _stmt_try(self, i: int, end: int, cur: int,
                  ctx: dict) -> tuple[int, int | None]:
        if i + 1 >= end or self.code[i + 1].text != "{":
            return i + 1, cur
        body_close = match_forward(self.code, i + 1, "{", "}")
        # Collect the handlers first so try-body blocks can point at them.
        catches: list[tuple[int, int, int]] = []  # (head id, body lo, hi)
        j = body_close + 1
        while j < end and self.code[j].kind == "ident" and \
                self.code[j].text == "catch":
            op, cp, after = self._cond(j)
            if after >= end or self.code[after].text != "{":
                break
            c_close = match_forward(self.code, after, "{", "}")
            head = self.new("catch", self.line(j), None, ctx.get("catches"))
            catches.append((head, after + 1, c_close))
            j = c_close + 1
        heads = [c[0] for c in catches]
        inner = dict(ctx)
        inner["catches"] = heads + (ctx.get("catches") or [])
        first = len(self.blocks)
        body_b = self.new("body", self.line(i + 1), None, heads)
        self.edge(cur, body_b)
        body_out = self.stmts(i + 2, body_close, body_b, inner)
        # Any block born inside the try region may raise into each handler.
        for bid in range(first, len(self.blocks)):
            b = self.blocks[bid]
            if b["k"] == "catch" or bid in heads:
                continue
            for head in heads:
                self.edge(bid, head)
            if heads:
                b.setdefault("c", heads)
        join = self.new("join", self.line(j), None, ctx.get("catches"))
        if body_out is not None:
            self.edge(body_out, join)
        any_open = body_out is not None
        for head, c_lo, c_hi in catches:
            h_first = len(self.blocks)
            c_out = self.stmts(c_lo, c_hi, head, ctx)
            # handler-region marker: a re-write of a committed field in
            # here is the rollback idiom, not a fresh commit (EXC-1)
            self.blocks[head]["h"] = 1
            for bid in range(h_first, len(self.blocks)):
                self.blocks[bid]["h"] = 1
            if c_out is not None:
                self.edge(c_out, join)
                any_open = True
        return j, join if any_open or not heads else None

    def _stmt_return(self, i: int, end: int, cur: int,
                     ctx: dict) -> tuple[int, int | None]:
        j = self.stmt_end(i + 1, end)
        self.place(cur, i, j)
        if self.blocks[cur]["l"] == 0:
            self.blocks[cur]["l"] = self.line(i)
        self.blocks[cur]["r"] = self.line(i)
        self.edge(cur, EXIT)
        return j, None

    def _stmt_break(self, i: int, end: int, cur: int,
                    ctx: dict) -> tuple[int, int | None]:
        self.edge(cur, ctx.get("break", EXIT))
        return self.stmt_end(i + 1, end), None

    def _stmt_continue(self, i: int, end: int, cur: int,
                       ctx: dict) -> tuple[int, int | None]:
        self.edge(cur, ctx.get("continue", EXIT))
        return self.stmt_end(i + 1, end), None

    def _stmt_goto(self, i: int, end: int, cur: int,
                   ctx: dict) -> tuple[int, int | None]:
        self.edge(cur, EXIT)  # conservative: treat as leaving the function
        return self.stmt_end(i + 1, end), None

    def _stmt_throw(self, i: int, end: int, cur: int,
                    ctx: dict) -> tuple[int, int | None]:
        j = self.stmt_end(i + 1, end)
        self.place(cur, i, j)
        # throw-terminator: everything in this block executed before the
        # throw, so the whole out-state travels the exceptional edge
        self.blocks[cur]["t"] = 1
        heads = ctx.get("catches") or []
        for head in heads:
            self.edge(cur, head)
        if not heads:
            self.edge(cur, RAISE)
        return j, None

    def _stmt_plain(self, i: int, end: int, cur: int,
                    ctx: dict) -> tuple[int, int | None]:
        j = self.stmt_end(i, end)
        q = self._top_ternary(i, j)
        if q >= 0:
            c = self._ternary_colon(q + 1, j)
            if c >= 0 and (self.has_events(q + 1, c) or
                           self.has_events(c + 1, j)):
                self.place(cur, i, q + 1)
                guards = self.idents(i, q)
                a_b = self.new("then", self.line(q), guards,
                               ctx.get("catches"))
                b_b = self.new("else", self.line(c), guards,
                               ctx.get("catches"))
                self.edge(cur, a_b)
                self.edge(cur, b_b)
                self.place(a_b, q + 1, c)
                self.place(b_b, c + 1, j)
                join = self.new("join", self.line(j), None,
                                ctx.get("catches"))
                self.edge(a_b, join)
                self.edge(b_b, join)
                return j, join
        self.place(cur, i, j)
        return j, cur

    def _top_ternary(self, lo: int, hi: int) -> int:
        depth = 0
        for j in range(lo, hi):
            txt = self.code[j].text
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif txt == "?" and depth == 0:
                return j
        return -1

    def _ternary_colon(self, lo: int, hi: int) -> int:
        depth = tern = 0
        for j in range(lo, hi):
            txt = self.code[j].text
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif txt == "?" and depth == 0:
                tern += 1
            elif txt == ":" and depth == 0:
                if tern == 0:
                    return j
                tern -= 1
        return -1


def build_cfg(code: list[Token], lo: int, hi: int,
              events: list[tuple[int, str, int]]) -> dict:
    """CFG for one function body over code tokens [lo, hi). ``events``
    is [(token index, "w"|"c", index into writes/calls), ...]."""
    b = _Builder(code, lo, hi, events)
    out = b.stmts(lo, b.hi, ENTRY, {})
    if out is not None:
        b.edge(out, EXIT)
    if lo < b.hi:
        b.blocks[ENTRY]["l"] = code[lo].line
    return {"blocks": b.blocks}


def successors(cfg: dict, bid: int) -> list[int]:
    return cfg["blocks"][bid]["s"]


def predecessors(cfg: dict) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {i: [] for i in range(len(cfg["blocks"]))}
    for i, b in enumerate(cfg["blocks"]):
        for s in b["s"]:
            preds[s].append(i)
    return preds
