"""Project-wide symbol index for the whole-program rules.

``build_facts`` distils one SourceFile's token stream into a small,
JSON-serialisable fact record: function definitions (with their calls,
writes, lock acquisitions, and unordered-iteration sites), class fields
(atomic, mutex and unordered flags) and base classes, unordered aliases
and accessors, metric registrations, and suppression lines. The
whole-program rules (CON-3/LOCK-4/DET-4) consume facts only — never
tokens — so they stay whole-program even when most files are served
from the cache.

``IndexCache`` persists the facts to ``build/stlint_index.json`` keyed
by per-file content hashes. A warm re-lint after touching one file
re-lexes only that file (and re-checks its own header); every other
file's facts *and* per-file findings come straight from the cache. The
cached per-file findings are additionally keyed on the own-header hash
and the global unordered-alias fingerprint, because DET-2/DET-3 resolve
against both; an alias-set change (rare) drops all cached findings but
keeps the symbol facts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .core import SourceFile
from .lexer import Token
from .scopes import (Scope, _match_backward, match_forward, skip_template)

FACTS_VERSION = 11  # bump when the fact schema changes (invalidates caches)

ACCESS_SPECIFIERS = {"public", "private", "protected"}
CALL_KEYWORDS = {"if", "for", "while", "switch", "catch", "sizeof",
                 "alignof", "decltype", "return", "throw", "new", "delete",
                 "static_cast", "dynamic_cast", "const_cast",
                 "reinterpret_cast", "static_assert", "assert", "defined",
                 "noexcept", "requires", "co_await", "co_return", "co_yield"}
TYPE_NOISE = {"const", "constexpr", "static", "mutable", "volatile",
              "inline", "virtual", "explicit", "typename", "auto",
              "unsigned", "signed", "std"}
MUTATING_METHODS = {"push_back", "emplace_back", "emplace", "insert",
                    "erase", "clear", "resize", "assign", "pop_back",
                    "push_front", "pop_front", "push", "pop"}
UNORDERED_WORDS = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()


def alias_fingerprint(aliases: set[str]) -> str:
    return hashlib.sha256(",".join(sorted(aliases)).encode()).hexdigest()


# --- signature / declaration helpers ---------------------------------------

def _enclosing_class(scope: Scope) -> str:
    cls = scope.enclosing("class")
    return cls.name if cls is not None else ""


def _split_qname(name: str, scope: Scope) -> tuple[str, str]:
    """(class, bare name) for a function scope's recorded name."""
    if "::" in name:
        parts = name.split("::")
        return parts[-2], parts[-1]
    return _enclosing_class(scope), name


def _param_list(code: list[Token], open_paren: int,
                close_paren: int) -> list[dict]:
    """Split the top-level comma groups of (open..close) into params."""
    params: list[dict] = []
    group: list[Token] = []

    def flush() -> None:
        if not group:
            return
        name = ""
        # drop a default-argument tail `= expr`
        for idx in range(len(group)):
            if group[idx].text == "=":
                del group[idx:]
                break
        if group and group[-1].kind == "ident" and \
                group[-1].text not in TYPE_NOISE and len(group) > 1:
            name = group[-1].text
        type_words = [t.text for t in group if t.kind == "ident"]
        if name and type_words and type_words[-1] == name:
            type_words = type_words[:-1]
        params.append({"name": name, "type": " ".join(type_words)})

    depth = 0
    j = open_paren + 1
    while j < close_paren:
        t = code[j]
        if t.text == "<":
            end = skip_template(code, j)
            group.extend(code[j:end])
            j = end
            continue
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        if t.text == "," and depth == 0:
            flush()
            group = []
        else:
            group.append(t)
        j += 1
    flush()
    return params


def _function_head(code: list[Token], scope: Scope) -> tuple[int, int]:
    """(open_paren, close_paren) of the function scope's parameter list;
    (-1, -1) when none was found (e.g. `] {`)."""
    k = scope.start - 1
    while k >= 0 and ((code[k].kind == "ident") or
                      code[k].text in ("&", "&&", "->", "::", ">", "*")):
        if code[k].text == ">":  # trailing return `-> T<..>`: keep walking
            k = _match_backward(code, k, "<", ">")
        k -= 1
    if k >= 0 and code[k].text == ")":
        open_paren = _match_backward(code, k, "(", ")")
        if open_paren - 1 >= 0 and \
                code[open_paren - 1].kind == "ident" and \
                code[open_paren - 1].text == "noexcept":
            # the parens we found were `noexcept(cond)`: the parameter
            # list sits before the `noexcept` and any qualifiers
            k = open_paren - 1
            while k >= 0 and code[k].kind == "ident":
                k -= 1
            if k >= 0 and code[k].text == ")":
                return _match_backward(code, k, "(", ")"), k
            return -1, -1
        return open_paren, k
    return -1, -1


def _collect_locals(code: list[Token], lo: int, hi: int,
                    scope_ends: dict[int, int]
                    ) -> tuple[dict[str, str], set[str]]:
    """(name -> type string, reference names) for declarations inside a
    function body.

    Over-collecting is safe (it only makes CON-3 more conservative), so
    the pattern is permissive: `Type [*&const]* name` followed by a
    declarator-ish token, `auto [a, b]` structured bindings, and range-for
    loop variables all count. A first declarator declared with `&` or
    `&&` is also a reference name: it may be bound to shared state
    (`Stats& s = Stats::instance();`), so it is not worker-private."""
    out: dict[str, str] = {}
    refs: set[str] = set()
    j = lo
    n = min(hi, len(code))
    while j < n:
        t = code[j]
        if t.kind != "ident" or t.text in CALL_KEYWORDS:
            j += 1
            continue
        prev = code[j - 1].text if j > 0 else ""
        if prev in (".", "->", "::"):
            j += 1
            continue
        type_words = [t.text]
        k = j + 1
        while k < n and code[k].text == "::" and k + 1 < n and \
                code[k + 1].kind == "ident":
            type_words.append(code[k + 1].text)
            k += 2
        if k < n and code[k].text == "<":
            end = skip_template(code, k)
            type_words.extend(tok.text for tok in code[k:end]
                              if tok.kind == "ident")
            k = end
        # structured binding `auto [a, b] = ...` / `auto& [a, b] : ...`
        saw_amp = False
        while k < n and (code[k].text in ("&", "&&", "*")
                         or (code[k].kind == "ident"
                             and code[k].text in ("const", "constexpr"))):
            saw_amp = saw_amp or code[k].text in ("&", "&&")
            if code[k].kind == "ident":
                type_words.append(code[k].text)
            k += 1
        if k < n and code[k].text == "[" and t.text == "auto":
            close = match_forward(code, k, "[", "]")
            for b in range(k + 1, close):
                if code[b].kind == "ident":
                    out[code[b].text] = "auto"
            j = close + 1
            continue
        if k < n and code[k].kind == "ident" and \
                code[k].text not in CALL_KEYWORDS and k > j:
            after = code[k + 1].text if k + 1 < n else ""
            if after in (";", "=", "{", "(", ",", ")", "[", ":"):
                out.setdefault(code[k].text, " ".join(type_words))
                if saw_amp:
                    refs.add(code[k].text)
                # follow `Type a = ..., b = ..., c;` comma declarators
                m = k + 1
                depth = 0
                while m < n:
                    tm = code[m].text
                    if tm in ("(", "[", "{"):
                        depth += 1
                    elif tm in (")", "]", "}"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif tm == ";" and depth == 0:
                        break
                    elif tm == "," and depth == 0 and m + 1 < n and \
                            code[m + 1].kind == "ident":
                        follow = code[m + 2].text if m + 2 < n else ""
                        if follow in (";", "=", ",", "{", "[", "("):
                            out.setdefault(code[m + 1].text,
                                           " ".join(type_words))
                    m += 1
                j = k + 1
                continue
        j += 1
    return out, refs


def _chain_back(code: list[Token], k: int, lo: int) -> tuple[str, str, bool]:
    """Walk a postfix chain backwards from index k (the token just before
    an assignment operator or a `.`/`->`). Returns (root, member,
    subscripted); root == '' when the chain bottoms out in a call result
    or parenthesised expression we do not model."""
    member = ""
    sub = False
    while k >= lo:
        t = code[k]
        if t.text == "]":
            k = _match_backward(code, k, "[", "]") - 1
            sub = True
            continue
        if t.text == ")":
            return "", member, sub
        if t.kind == "ident":
            if k - 1 >= lo and code[k - 1].text in (".", "->", "::"):
                member = member or t.text
                k -= 2
                continue
            if t.text == "this":
                return "this", member, sub
            if t.text in CALL_KEYWORDS:  # `return x_ = v;` bottoms out here
                return "", member, sub
            return t.text, member, sub
        return "", member, sub
    return "", member, sub


def _statement_has_accum(code: list[Token], lo: int, hi: int) -> bool:
    """A compound assignment (`+=` et al) inside [lo, hi): the lexer
    emits one-char puncts, so `x += y` is `+` `=`."""
    for j in range(lo, min(hi, len(code) - 1)):
        if code[j].text in ("+", "-", "*", "/") and \
                code[j + 1].text == "=" and \
                (j == lo or code[j - 1].text not in
                 ("+", "-", "*", "/", "=", "<", ">", "!")):
            return True
    return False


def _body_extent(code: list[Token], close_paren: int) -> tuple[int, int]:
    n = len(code)
    b = close_paren + 1
    if b < n and code[b].text == "{":
        return b + 1, match_forward(code, b, "{", "}")
    j = b
    depth = 0
    while j < n:
        t = code[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            return b, j
        j += 1
    return b, n


def _top_level_colon(code: list[Token], lo: int, hi: int) -> int | None:
    depth = 0
    for j in range(lo, hi):
        t = code[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ":" and depth == 0:
            return j
    return None


# --- class facts ------------------------------------------------------------

def _class_bases(code: list[Token], scope: Scope) -> list[str]:
    k = scope.start - 1
    limit = max(0, scope.start - 40)
    colon = -1
    while k >= limit and code[k].text not in (";", "}", "{"):
        if code[k].text == ":" and code[k].kind == "punct":
            colon = k
        if code[k].kind == "ident" and code[k].text in ("class", "struct"):
            break
        k -= 1
    if colon < 0:
        return []
    bases = []
    for j in range(colon + 1, scope.start):
        t = code[j]
        if t.kind == "ident" and t.text not in ("public", "private",
                                                "protected", "virtual",
                                                "final", "std"):
            bases.append(t.text)
    return bases


def _scan_class_body(code: list[Token], scope: Scope,
                     scope_ends: dict[int, int]) -> dict:
    """Field declarations at class-body depth."""
    fields: dict[str, dict] = {}
    j = scope.start + 1
    end = scope.end if scope.end >= 0 else len(code)
    stmt: list[tuple[int, Token]] = []

    def flush(stmt_toks: list[tuple[int, Token]]) -> None:
        if not stmt_toks:
            return
        # a top-level `(` makes a method declaration, which is skipped;
        # anything else declares fields
        depth = 0
        paren = -1
        for pos, (idx, tok) in enumerate(stmt_toks):
            if tok.text == "<":
                continue
            if tok.text in ("[", "{"):
                depth += 1
            elif tok.text in ("]", "}"):
                depth -= 1
            elif tok.text == "(" and depth == 0:
                paren = pos
                break
            elif tok.text == ")":
                depth -= 1
        if paren > 0:
            return
        # field(s): split `T a_, b_;` on top-level commas (template and
        # paren/brace commas don't separate declarators)
        groups: list[list[Token]] = [[]]
        depth = angle = 0
        for idx, tok in stmt_toks:
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.text == "<":
                angle += 1
            elif tok.text == ">":
                angle = max(0, angle - 1)
            elif tok.text == "," and depth == 0 and angle == 0:
                groups.append([])
                continue
            groups[-1].append(tok)
        type_words: list[str] = []
        names: list[tuple[str, int]] = []
        for tok in groups[0]:
            if tok.text in ("=", "{"):
                break
            if tok.kind == "ident":
                type_words.append(tok.text)
        if len(type_words) >= 2:
            names.append((type_words[-1], groups[0][0].line))
            type_words = type_words[:-1]
        for extra in groups[1:]:
            for tok in extra:
                if tok.kind == "ident":
                    names.append((tok.text, tok.line))
                    break
                if tok.text in ("=", "{"):
                    break
        if not names:
            return
        type_str = " ".join(type_words)
        for name, line in names:
            fields[name] = {
                "type": type_str,
                "atomic": "atomic" in type_str,
                "mutex": "mutex" in type_str.lower(),
                "unordered": any(w in UNORDERED_WORDS
                                 for w in type_words),
                "line": line}

    while j < end:
        t = code[j]
        if t.kind == "ident" and t.text in ACCESS_SPECIFIERS and \
                j + 1 < end and code[j + 1].text == ":":
            flush(stmt)
            stmt = []
            j += 2
            continue
        if t.text == "{":
            flush(stmt)
            stmt = []
            j = scope_ends.get(j, j) + 1
            continue
        if t.text == ";":
            flush(stmt)
            stmt = []
            j += 1
            continue
        if t.text == "<":
            nxt = skip_template(code, j)
            stmt.extend((k, code[k]) for k in range(j, min(nxt, end)))
            j = nxt
            continue
        stmt.append((j, t))
        j += 1
    flush(stmt)
    return {"fields": fields, "bases": _class_bases(code, scope)}


# --- function facts ---------------------------------------------------------

LOCK_GUARD_WORDS = {"lock_guard", "unique_lock", "scoped_lock",
                    "shared_lock", "MutexLock"}
DISPATCHER_BASE = {"parallel_for", "submit"}


def _scan_function(code: list[Token], scope: Scope, fn_id: int,
                   parent_id: int, all_scopes: list[Scope],
                   scope_ids: dict[int, int]) -> dict:
    if scope.kind == "lambda":
        # A lambda operates on its enclosing method's instance: inherit
        # the class through the function chain, because an out-of-line
        # `void Cls::run() { ... [this]{...} ... }` has no lexical class
        # scope around the lambda.
        cls = _enclosing_class(scope)
        if not cls:
            anc = scope.parent
            while anc is not None and anc.kind != "function":
                anc = anc.parent
            if anc is not None and anc.name:
                cls = _split_qname(anc.name, anc)[0]
        name = f"<lambda@{code[scope.start].line}>"
        qname = name
    else:
        cls, name = _split_qname(scope.name or f"<anon@{code[scope.start].line}>",
                                 scope)
        qname = f"{cls}::{name}" if cls else name
    open_p, close_p = _function_head(code, scope)
    params = _param_list(code, open_p, close_p) if open_p >= 0 else []
    lo = scope.start + 1
    hi = scope.end if scope.end >= 0 else len(code)
    scope_ends = {s.start: (s.end if s.end >= 0 else hi)
                  for s in all_scopes}
    locals_map, ref_locals = _collect_locals(code, lo, hi, scope_ends)
    for p in params:
        if p["name"]:
            locals_map.setdefault(p["name"], p["type"])
    # lambda captures: [&] / [=] / explicit lists — names captured by value
    # still alias enclosing state when written through references, so
    # capture analysis stays with the rule layer (locals of the *enclosing*
    # function are non-local here).
    rec: dict = {
        "id": fn_id, "qname": qname, "name": name, "cls": cls,
        "kind": scope.kind, "line": code[scope.start].line,
        "parent": parent_id, "params": params,
        "locals": sorted(locals_map),
        "ref_locals": sorted(ref_locals),
        "local_types": locals_map,
        "calls": [], "writes": [], "locks": [], "iters": [],
    }
    _scan_body(code, lo, hi, rec, scope_ends, scope, scope_ids)
    return rec


def _scan_body(code: list[Token], lo: int, hi: int, rec: dict,
               scope_ends: dict[int, int], scope: Scope,
               scope_ids: dict[int, int]) -> None:
    n = min(hi, len(code))

    def in_nested(idx: int) -> bool:
        return any(s.start < idx < (s.end if s.end >= 0 else n)
                   for s in _nested_fn_extents)

    _nested_fn_extents = []
    stack = list(scope.children)
    while stack:
        s = stack.pop()
        if s.kind in ("function", "lambda"):
            _nested_fn_extents.append(s)
        else:
            stack.extend(s.children)

    j = lo
    while j < n:
        t = code[j]
        if in_nested(j):
            j += 1
            continue
        if t.kind == "ident":
            nxt = code[j + 1].text if j + 1 < n else ""
            prev = code[j - 1] if j > 0 else None
            # RAII lock guards
            if t.text in LOCK_GUARD_WORDS:
                k = j + 1
                if k < n and code[k].text == "<":
                    k = skip_template(code, k)
                if k + 1 < n and code[k].kind == "ident" and \
                        code[k + 1].text in ("(", "{"):
                    close = match_forward(code, k + 1, "(" if
                                          code[k + 1].text == "(" else "{",
                                          ")" if code[k + 1].text == "("
                                          else "}")
                    mroot, mfield, _ = _chain_back(code, close - 1, k + 2)
                    extent_end = _guard_extent(code, k, hi, scope_ends)
                    rec["locks"].append({
                        "line": code[k].line, "tok": k, "end": extent_end,
                        "recv": mroot, "field": mfield or mroot,
                        "raw": " ".join(c.text for c in
                                        code[k + 2:close])})
                    j = close + 1
                    continue
            # calls
            if nxt == "(" and t.text not in CALL_KEYWORDS and \
                    t.text not in LOCK_GUARD_WORDS:
                prev_txt = prev.text if prev is not None else ""
                looks_decl = (prev is not None and prev.kind == "ident"
                              and prev.text not in CALL_KEYWORDS
                              and prev.text != "return") or \
                    prev_txt in (">", "*")
                if not looks_decl:
                    close = match_forward(code, j + 1, "(", ")")
                    recv, qual = "", ""
                    on_result = False
                    if prev_txt in (".", "->"):
                        recv, _, _ = _chain_back(code, j - 2, max(lo - 64, 0))
                        # `Obs::instance().flush()`: the receiver is a
                        # call's result (or another unmodelled expression)
                        on_result = not recv
                    elif prev_txt == "::" and j >= 2 and \
                            code[j - 2].kind == "ident":
                        qual = code[j - 2].text
                    args, lambdas = _call_args(code, j + 1, close, scope)
                    call_rec = {
                        "name": t.text, "line": t.line, "tok": j,
                        "recv": recv, "on_result": on_result,
                        "qual": qual, "args": args,
                        "lambdas": [scope_ids[s.start] for s in lambdas
                                    if s.start in scope_ids]}
                    rec["calls"].append(call_rec)
                    # mutating container calls double as writes
                    if t.text in MUTATING_METHODS and prev_txt in (".", "->"):
                        root, member, sub = _chain_back(code, j - 2,
                                                        max(lo - 64, 0))
                        rec["writes"].append({
                            "root": root, "member": member, "line": t.line,
                            "tok": j, "sub": sub, "mut": t.text})
                    j += 1
                    continue
            # unordered iteration shapes (resolved against accessor tables
            # at rule time): range-for over a call or variable
            if t.text == "for" and nxt == "(":
                close = match_forward(code, j + 1, "(", ")")
                colon = _top_level_colon(code, j + 2, close)
                if colon is not None:
                    kind, iname = _range_root(code, colon + 1, close)
                    if kind:
                        b_lo, b_hi = _body_extent(code, close)
                        rec["iters"].append({
                            "line": t.line, "kind": kind, "name": iname,
                            "accum": _statement_has_accum(code, b_lo, b_hi),
                            "sink": _has_sink(code, b_lo, b_hi)})
        # assignments / increments
        if t.text == "=" and t.kind == "punct":
            nxt_t = code[j + 1].text if j + 1 < n else ""
            prev_t = code[j - 1].text if j > 0 else ""
            if nxt_t != "=" and prev_t not in ("=", "!", "<", ">"):
                back = j - 1
                if prev_t in ("+", "-", "*", "/", "%", "&", "|", "^"):
                    back = j - 2
                root, member, sub = _chain_back(code, back, max(lo - 64, 0))
                if root and not _is_decl_site(code, back, root):
                    rec["writes"].append({
                        "root": root, "member": member, "line": t.line,
                        "tok": j, "sub": sub, "mut": ""})
        elif t.text in ("+", "-") and j + 1 < n and \
                code[j + 1].text == t.text and \
                (j == 0 or code[j - 1].text != t.text):
            # x++ / ++x — root on whichever side is an identifier chain
            root, member, sub = _chain_back(code, j - 1, max(lo - 64, 0))
            if not root and j + 2 < n and code[j + 2].kind == "ident":
                k = j + 2
                while k + 1 < n and code[k + 1].text in (".", "->", "::"):
                    k += 2
                root, member, sub = _chain_back(code, k, j + 2)
            if root:
                rec["writes"].append({
                    "root": root, "member": member, "line": t.line,
                    "tok": j, "sub": sub, "mut": ""})
        j += 1


def _guard_extent(code: list[Token], name_idx: int, fn_end: int,
                  scope_ends: dict[int, int]) -> int:
    """End of the innermost block containing the guard declaration."""
    best = fn_end
    for start, end in scope_ends.items():
        if start < name_idx < end <= best and end >= 0:
            best = end
    return best


def _is_decl_site(code: list[Token], last: int, root: str) -> bool:
    """`Type name = ...` — the token chain before the root is a type."""
    k = last
    while k >= 0 and code[k].kind != "ident":
        if code[k].text in ("]",):
            k = _match_backward(code, k, "[", "]") - 1
            continue
        if code[k].text in (".", "->", "::"):
            return False
        k -= 1
    if k < 0 or code[k].text != root:
        return False
    p = k - 1
    if p >= 0 and code[p].text in ("&", "&&", "*"):
        p -= 1
    while p >= 0 and code[p].kind == "ident" and \
            code[p].text in ("const", "constexpr", "static", "mutable"):
        p -= 1
    if p >= 0 and code[p].text == ">":
        return True
    if p < 0 or code[p].kind != "ident" or code[p].text in CALL_KEYWORDS:
        return False
    before = code[p - 1].text if p > 0 else ""
    return before not in (".", "->")


def _call_args(code: list[Token], open_paren: int, close_paren: int,
               scope: Scope) -> tuple[list[str], list[Scope]]:
    """Top-level bare-identifier args + lambda scopes inside the call."""
    args: list[str] = []
    depth = 0
    group: list[Token] = []

    def flush() -> None:
        idents = [t for t in group if t.kind == "ident"]
        if len(group) <= 2 and idents:
            args.append(idents[-1].text)

    for j in range(open_paren + 1, close_paren):
        t = code[j]
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "," and depth == 0:
            flush()
            group = []
            continue
        if depth == 0:
            group.append(t)
    flush()
    lambdas = []
    stack = list(scope.children)
    while stack:
        s = stack.pop()
        if s.kind == "lambda" and open_paren < s.start < close_paren:
            lambdas.append(s)
        elif s.start < close_paren and (s.end < 0 or s.end > open_paren):
            stack.extend(s.children)
    return args, lambdas


def _range_root(code: list[Token], lo: int, hi: int) -> tuple[str, str]:
    last = hi - 1
    if last < lo:
        return "", ""
    if code[last].text == ")":
        open_p = _match_backward(code, last, "(", ")")
        f = open_p - 1
        if f >= lo and code[f].kind == "ident":
            return "call", code[f].text
        return "", ""
    if code[last].kind == "ident":
        k = last
        while k - 1 >= lo and code[k - 1].text in (".", "->", "::"):
            k -= 2
        return "var", code[last].text
    return "", ""


def _has_sink(code: list[Token], lo: int, hi: int) -> bool:
    for j in range(lo, min(hi, len(code) - 1)):
        if code[j].kind == "ident" and \
                code[j].text in ("push_back", "emplace_back", "insert") and \
                code[j + 1].text == "(":
            return True
    return False


def _lambda_assign_name(code: list[Token], scope: Scope) -> str:
    """The local a lambda literal is assigned to: walks back from the
    lambda's `{` over the head (`-> ret`, `mutable`, params, captures)
    looking for `name = [`. Empty string for inline lambda arguments."""
    k = scope.start - 1
    while k >= 0 and ((code[k].kind == "ident") or
                      code[k].text in ("&", "&&", "->", "::", ">", "*")):
        if code[k].text == ">":
            k = _match_backward(code, k, "<", ">")
        k -= 1
    if k >= 0 and code[k].text == ")":  # parameter list
        k = _match_backward(code, k, "(", ")") - 1
        while k >= 0 and code[k].kind == "ident":
            k -= 1
    if k < 0 or code[k].text != "]":  # capture list
        return ""
    k = _match_backward(code, k, "[", "]") - 1
    if k >= 1 and code[k].text == "=" and code[k].kind == "punct" and \
            code[k - 1].kind == "ident" and \
            (k < 2 or code[k - 2].text not in (".", "->")):
        return code[k - 1].text
    return ""


# --- accessors with lines (DET-4 needs the defining site) -------------------

def _collect_accessor_sites(code: list[Token],
                            aliases: set[str]) -> list[list]:
    """Like scopes.collect_accessors but keeps the declaration line."""
    sites: list[list] = []
    n = len(code)
    i = 0
    while i < n:
        t = code[i]
        is_unordered = t.kind == "ident" and t.text in UNORDERED_WORDS
        is_alias = t.kind == "ident" and t.text in aliases
        if not (is_unordered or is_alias):
            i += 1
            continue
        j = i + 1
        if j < n and code[j].text == "<":
            j = skip_template(code, j)
        elif is_unordered:
            i += 1
            continue
        into = False
        if j + 1 < n and code[j].text == "::" and \
                code[j + 1].kind == "ident" and \
                "iterator" in code[j + 1].text:
            into = True
            j += 2
        while j < n and (code[j].text in ("&", "&&")
                         or (code[j].kind == "ident"
                             and code[j].text == "const")):
            if code[j].text in ("&", "&&"):
                into = True
            j += 1
        if into and j + 1 < n and code[j].kind == "ident" and \
                code[j + 1].text == "(":
            sites.append([code[j].text, code[j].line])
        i = max(j, i + 1)
    return sites


# --- facts ------------------------------------------------------------------

def build_facts(sf: SourceFile, aliases: set[str]) -> dict:
    """Distil one file into the JSON-serialisable fact record."""
    from .scopes import collect_aliases
    code = sf.code
    tree = sf.scopes
    all_scopes: list[Scope] = []
    stack = [tree.file_scope]
    while stack:
        s = stack.pop()
        all_scopes.append(s)
        stack.extend(s.children)
    fn_scopes = [s for s in all_scopes if s.kind in ("function", "lambda")]
    fn_scopes.sort(key=lambda s: s.start)
    scope_ids = {s.start: i for i, s in enumerate(fn_scopes)}
    functions = []
    for i, s in enumerate(fn_scopes):
        parent = s.parent.function if s.parent is not None else None
        parent_id = scope_ids.get(parent.start, -1) if parent else -1
        functions.append(_scan_function(code, s, i, parent_id, all_scopes,
                                        scope_ids))
    # `auto f = [..](..) {..};` — record the local name a lambda is bound
    # to on its *enclosing* function, so the call graph can resolve later
    # `f(...)` calls (and dispatcher arguments passed by name) to the
    # lambda's own function record.
    for i, s in enumerate(fn_scopes):
        fn = functions[i]
        if fn["kind"] != "lambda" or fn["parent"] < 0:
            continue
        name = _lambda_assign_name(code, s)
        if name:
            functions[fn["parent"]].setdefault("lambda_locals",
                                               {})[name] = i
    classes = {}
    for s in all_scopes:
        if s.kind == "class" and s.name:
            body = _scan_class_body(
                code, s, {sc.start: (sc.end if sc.end >= 0 else len(code))
                          for sc in all_scopes})
            if s.name in classes:  # merge re-opened/duplicate names
                classes[s.name]["fields"].update(body["fields"])
                classes[s.name]["bases"] = sorted(
                    set(classes[s.name]["bases"]) | set(body["bases"]))
            else:
                classes[s.name] = body
    from .rules.obs_docs import registrations
    return {
        "version": FACTS_VERSION,
        "aliases": sorted(collect_aliases(code)),
        "accessor_sites": _collect_accessor_sites(code, aliases),
        "registrations": [[line, name] for line, name in registrations(sf)],
        "suppressions": {str(line): [s.rule for s in subs]
                         for line, subs in sf.suppressions.items()},
        "allow_sites": sf.allow_sites,
        "bad_suppressions": [vars(f) for f in sf.bad_suppressions],
        "functions": functions,
        "classes": classes,
    }


# --- the cache --------------------------------------------------------------

@dataclass
class IndexCache:
    """build/stlint_index.json: per-file facts + findings keyed by hashes."""

    path: object = None  # pathlib.Path | None (None = in-memory only)
    data: dict = field(default_factory=lambda: {"version": FACTS_VERSION,
                                                "files": {}})
    hits: int = 0
    misses: int = 0

    @classmethod
    def load(cls, path) -> "IndexCache":
        cache = cls(path=path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if raw.get("version") == FACTS_VERSION and \
                    isinstance(raw.get("files"), dict):
                cache.data = raw
        except (OSError, ValueError):
            pass
        return cache

    def aliases_for(self, rel: str, file_hash: str) -> list | None:
        """The file's own alias names, valid on a content-hash match
        alone (collect_aliases sees only this file's tokens). Needed
        before the global alias fingerprint exists."""
        entry = self.data["files"].get(rel)
        if entry and entry.get("hash") == file_hash:
            return entry["facts"].get("aliases", [])
        return None

    def facts_for(self, rel: str, file_hash: str,
                  alias_fp: str) -> dict | None:
        entry = self.data["files"].get(rel)
        if entry and entry.get("hash") == file_hash and \
                entry.get("facts_alias_fp") == alias_fp:
            self.hits += 1
            return entry["facts"]
        self.misses += 1
        return None

    def findings_for(self, rel: str, file_hash: str, header_hash: str,
                     alias_fp: str) -> list | None:
        entry = self.data["files"].get(rel)
        if entry and entry.get("hash") == file_hash and \
                entry.get("header_hash") == header_hash and \
                entry.get("alias_fp") == alias_fp and \
                entry.get("findings") is not None:
            return entry["findings"]
        return None

    def store(self, rel: str, file_hash: str, facts: dict,
              alias_fp: str) -> None:
        entry = self.data["files"].setdefault(rel, {})
        if entry.get("hash") != file_hash:
            entry.pop("findings", None)
        entry["hash"] = file_hash
        entry["facts"] = facts
        entry["facts_alias_fp"] = alias_fp

    def store_findings(self, rel: str, header_hash: str, alias_fp: str,
                       findings: list) -> None:
        entry = self.data["files"].setdefault(rel, {})
        entry["header_hash"] = header_hash
        entry["alias_fp"] = alias_fp
        entry["findings"] = findings

    def prune(self, keep: set[str]) -> None:
        self.data["files"] = {rel: e for rel, e in
                              self.data["files"].items() if rel in keep}

    def save(self) -> None:
        if self.path is None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.data), encoding="utf-8")
        except OSError:
            pass  # cache is an optimisation, never a failure


# --- the project index ------------------------------------------------------

class ProjectIndex:
    """Whole-program symbol table assembled from per-file facts."""

    def __init__(self) -> None:
        self.files: dict[str, dict] = {}          # rel -> facts
        self.functions: list[dict] = []           # flat, each with _file
        self.by_name: dict[str, list[int]] = {}   # bare name -> fn ids
        self.by_qname: dict[str, list[int]] = {}
        self.classes: dict[str, dict] = {}        # merged class facts
        self.accessors: dict[str, list[tuple[str, int]]] = {}
        self.aliases: set[str] = set()

    def add_file(self, rel: str, facts: dict) -> None:
        self.files[rel] = facts

    def finalize(self) -> None:
        self.functions = []
        self.by_name = {}
        self.by_qname = {}
        self.classes = {}
        self.accessors = {}
        self.aliases = set()
        for rel in sorted(self.files):
            facts = self.files[rel]
            self.aliases |= set(facts.get("aliases", []))
            base = len(self.functions)
            for fn in facts.get("functions", []):
                gid = base + fn["id"]
                rec = dict(fn)
                rec["_file"] = rel
                rec["_gid"] = gid
                rec["_base"] = base
                self.functions.append(rec)
                self.by_name.setdefault(rec["name"], []).append(gid)
                self.by_qname.setdefault(rec["qname"], []).append(gid)
            for cname, cfacts in facts.get("classes", {}).items():
                if cname in self.classes:
                    merged = self.classes[cname]
                    merged["fields"].update(cfacts.get("fields", {}))
                    merged["bases"] = sorted(set(merged["bases"]) |
                                             set(cfacts.get("bases", [])))
                else:
                    self.classes[cname] = {
                        "fields": dict(cfacts.get("fields", {})),
                        "bases": list(cfacts.get("bases", []))}
            for name, line in facts.get("accessor_sites", []):
                self.accessors.setdefault(name, []).append((rel, line))

    def field_of(self, cls: str, name: str) -> dict | None:
        seen = set()
        queue = [cls]
        while queue:
            c = queue.pop()
            if c in seen:
                continue
            seen.add(c)
            info = self.classes.get(c)
            if info is None:
                continue
            if name in info["fields"]:
                return info["fields"][name]
            queue.extend(info["bases"])
        return None

    def suppressed(self, rel: str, line: int, rule: str) -> bool:
        facts = self.files.get(rel)
        if not facts:
            return False
        return rule in facts.get("suppressions", {}).get(str(line), [])
