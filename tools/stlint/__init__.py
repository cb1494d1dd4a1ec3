"""stlint — the token/scope-aware analysis engine behind tools/st_lint.py.

Package layout (see docs/STATIC_ANALYSIS.md for the rule catalogue):

  lexer.py   C++ tokenizer: comments, string/char/raw-string literals,
             preprocessor directives, identifiers, punctuation — every
             token carries its line, so findings stay line-addressable.
  scopes.py  brace/namespace/class/function scope tree over the token
             stream, plus scope-aware declaration resolution.
  core.py    shared datamodel: Finding, Suppression, SourceFile (tokens +
             scopes + raw lines), suppression parsing, path scoping.
  rules/     one module per rule family (determinism, concurrency,
             hygiene, obs_docs), each registering into rules.ALL_RULES.
  cli.py     driver: file gathering, rule dispatch, --strict/--json/
             --sarif/--list-rules, exit codes.

tools/st_lint.py is the stable CLI entry point; everything here is an
implementation detail behind it.
"""
