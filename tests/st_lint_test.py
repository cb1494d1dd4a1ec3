#!/usr/bin/env python3
"""Unit suite for tools/st_lint.py.

Runs the linter as a subprocess (the same way ctest and CI invoke it)
against fixture snippets written to a temp tree that mirrors the repo
layout (src/core/..., src/stats/..., tests/...), asserting that:

  * every rule fires on its known-bad snippet and names its rule ID,
  * a seeded fixture tree with one violation per rule exits non-zero,
  * clean code and out-of-scope code pass,
  * same-line and preceding-line ``st-lint: allow(RULE reason)``
    suppress, and reason-less / unknown-rule suppressions are SUP-1
    under ``--strict``,
  * ``--json`` emits well-formed output.

Invoked by ctest as ``st_lint_unit`` (see tests/CMakeLists.txt); also
runs under plain ``python3 tests/st_lint_test.py`` or pytest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "st_lint.py"

# The whole-program layer (index / call graph) is also exercised
# in-process: resolution assertions are much sharper against the real
# data structures than against rendered findings.
sys.path.insert(0, str(REPO_ROOT / "tools"))

from stlint.callgraph import CallGraph  # noqa: E402
from stlint.core import load_file  # noqa: E402
from stlint.index import ProjectIndex, build_facts  # noqa: E402
from stlint.scopes import collect_aliases  # noqa: E402


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), *args],
        capture_output=True, text=True, check=False)


class LintFixtureCase(unittest.TestCase):
    """Base: a temp tree mirroring the repo layout, one file per test."""

    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="st_lint_test_")
        self.root = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, rel: str, content: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        return path

    def lint(self, *paths: Path, strict: bool = False,
             as_json: bool = False) -> subprocess.CompletedProcess:
        args = []
        if strict:
            args.append("--strict")
        if as_json:
            args.append("--json")
        args += [str(p) for p in paths]
        return run_lint(*args)

    def assert_fires(self, proc: subprocess.CompletedProcess,
                     rule: str) -> None:
        self.assertEqual(proc.returncode, 1, proc.stderr + proc.stdout)
        self.assertIn(rule, proc.stderr)

    def assert_clean(self, proc: subprocess.CompletedProcess) -> None:
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)


class RuleFiringTests(LintFixtureCase):
    def test_det1_rand(self) -> None:
        f = self.write("src/core/bad.cpp",
                       "int f() { return rand() % 7; }\n")
        self.assert_fires(self.lint(f), "DET-1")

    def test_det1_random_device(self) -> None:
        f = self.write("src/sim/bad.cpp",
                       "auto s = std::random_device{}();\n")
        self.assert_fires(self.lint(f), "DET-1")

    def test_det1_clock_as_seed(self) -> None:
        f = self.write(
            "bench/bad.cpp",
            "auto seed = std::chrono::steady_clock::now()"
            ".time_since_epoch().count();\n")
        self.assert_fires(self.lint(f), "DET-1")

    def test_det1_timing_clock_is_fine(self) -> None:
        f = self.write(
            "bench/ok.cpp",
            "auto start = std::chrono::steady_clock::now();\n")
        self.assert_clean(self.lint(f))

    def test_det1_allowed_in_rng(self) -> None:
        f = self.write("src/stats/rng.cpp",
                       "auto d = std::random_device{};\n")
        self.assert_clean(self.lint(f))

    def test_det2_range_for(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <unordered_map>
double sum(const std::unordered_map<int, double>& unused) {
  std::unordered_map<int, double> m;
  double total = 0.0;
  for (const auto& [k, v] : m) total += v;
  return total;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_iterator_loop(self) -> None:
        f = self.write("src/reputation/bad.cpp", """
#include <unordered_set>
int count() {
  std::unordered_set<int> s;
  int n = 0;
  for (auto it = s.begin(); it != s.end(); ++it) ++n;
  return n;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_alias_aware(self) -> None:
        f = self.write("src/sim/bad.cpp", """
#include <unordered_map>
using PairMap = std::unordered_map<int, double>;
double g() {
  PairMap pairs;
  double t = 0.0;
  for (const auto& [k, v] : pairs) t += v;
  return t;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_member_declared_in_own_header(self) -> None:
        self.write("src/core/widget.hpp", """
#pragma once
#include <unordered_map>
struct Widget {
  std::unordered_map<int, double> counts_;
  double total() const;
};
""")
        cpp = self.write("src/core/widget.cpp", """
#include "widget.hpp"
double Widget::total() const {
  double t = 0.0;
  for (const auto& [k, v] : counts_) t += v;
  return t;
}
""")
        proc = self.lint(self.root / "src")
        self.assert_fires(proc, "DET-2")
        self.assertIn(str(cpp.name), proc.stderr)

    def test_det2_out_of_scope_dir_passes(self) -> None:
        f = self.write("src/trace/ok.cpp", """
#include <unordered_map>
double sum() {
  std::unordered_map<int, double> m;
  double t = 0.0;
  for (const auto& [k, v] : m) t += v;
  return t;
}
""")
        self.assert_clean(self.lint(f))

    def test_det2_hash_order_csr_rebuild_fires(self) -> None:
        # A CSR rebuild that walks an unordered_map of pending rows emits
        # edges in hash order — the epoch snapshot then differs run to run.
        f = self.write("src/graph/bad_rebuild.cpp", """
#include <cstdint>
#include <unordered_map>
#include <vector>
void rebuild(const std::unordered_map<std::uint32_t,
                                      std::vector<std::uint32_t>>& delta,
             std::vector<std::uint64_t>& offsets,
             std::vector<std::uint32_t>& targets) {
  offsets.clear();
  targets.clear();
  for (const auto& [node, row] : delta) {
    offsets.push_back(targets.size());
    targets.insert(targets.end(), row.begin(), row.end());
  }
  offsets.push_back(targets.size());
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_node_ordered_csr_rebuild_passes(self) -> None:
        # The shipped shape: sweep dense node ids in order, sort each row
        # before emitting — deterministic regardless of mutation history.
        f = self.write("src/graph/ok_rebuild.cpp", """
#include <algorithm>
#include <cstdint>
#include <vector>
void rebuild(std::vector<std::vector<std::uint32_t>>& rows,
             std::vector<std::uint64_t>& offsets,
             std::vector<std::uint32_t>& targets) {
  offsets.clear();
  targets.clear();
  for (std::size_t node = 0; node < rows.size(); ++node) {
    std::sort(rows[node].begin(), rows[node].end());
    offsets.push_back(targets.size());
    targets.insert(targets.end(), rows[node].begin(), rows[node].end());
  }
  offsets.push_back(targets.size());
}
""")
        self.assert_clean(self.lint(f))

    def test_det2_hash_order_schedule_iteration_fires(self) -> None:
        # Building a message schedule by walking an unordered_map of
        # per-partition summaries emits it in hash order — the schedule
        # then differs run to run.
        f = self.write("src/core/bad_exchange.cpp", """
#include <cstdint>
#include <unordered_map>
#include <vector>
std::vector<std::uint32_t> schedule(
    const std::unordered_map<std::uint32_t, std::uint64_t>& summaries) {
  std::vector<std::uint32_t> order;
  for (const auto& [part, bytes] : summaries) {
    order.push_back(part);
  }
  return order;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det1_rand_seeded_pairing_fires(self) -> None:
        # Pairing partitions off rand() makes the schedule a function of
        # the process, not of (seed, round).
        f = self.write("src/core/bad_pairing.cpp", """
#include <cstdint>
#include <cstdlib>
#include <vector>
std::vector<std::uint32_t> pairing(std::size_t parts) {
  std::vector<std::uint32_t> order(parts);
  for (std::size_t i = 0; i < parts; ++i) {
    order[i] = static_cast<std::uint32_t>(rand() % parts);
  }
  return order;
}
""")
        self.assert_fires(self.lint(f), "DET-1")

    def test_det_sorted_round_robin_pairing_passes(self) -> None:
        # A seeded splitmix Fisher-Yates over dense partition ids — pure
        # function of (seed, round), no hash order, no process entropy.
        f = self.write("src/core/ok_pairing.cpp", """
#include <cstdint>
#include <utility>
#include <vector>
namespace {
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace
std::vector<std::uint32_t> pairing(std::size_t parts, std::uint64_t seed,
                                   std::size_t round) {
  std::vector<std::uint32_t> order(parts);
  for (std::size_t s = 0; s < parts; ++s) {
    order[s] = static_cast<std::uint32_t>(s);
  }
  std::uint64_t state = mix64(seed ^ (round + 1));
  for (std::size_t i = parts; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}
""")
        self.assert_clean(self.lint(f))

    def test_det2_accumulate_over_begin(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <numeric>
#include <unordered_map>
double total() {
  std::unordered_map<int, double> weights;
  return std::accumulate(weights.begin(), weights.end(), 0.0,
                         [](double t, const auto& kv) {
                           return t + kv.second;
                         });
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_iterator_pair_insert(self) -> None:
        f = self.write("src/reputation/bad.cpp", """
#include <unordered_set>
#include <vector>
std::vector<int> flatten() {
  std::unordered_set<int> flagged;
  std::vector<int> out;
  out.insert(out.end(), flagged.begin(), flagged.end());
  return out;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_iterator_pair_assign(self) -> None:
        f = self.write("src/sim/bad.cpp", """
#include <unordered_map>
#include <vector>
void snapshot() {
  std::unordered_map<int, double> totals;
  std::vector<std::pair<int, double>> out;
  out.assign(totals.cbegin(), totals.cend());
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_ranges_for_each(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <algorithm>
#include <unordered_map>
double total() {
  std::unordered_map<int, double> weights;
  double t = 0.0;
  std::ranges::for_each(weights, [&](const auto& kv) { t += kv.second; });
  return t;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_det2_algorithms_over_vector_pass(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <algorithm>
#include <numeric>
#include <vector>
double total() {
  std::vector<double> values;
  std::vector<double> out;
  out.insert(out.end(), values.begin(), values.end());
  std::ranges::for_each(values, [](double) {});
  return std::accumulate(values.begin(), values.end(), 0.0);
}
""")
        self.assert_clean(self.lint(f))

    def test_det2_find_over_unordered_passes(self) -> None:
        # Order-insensitive algorithms are fine: the result does not
        # depend on traversal order.
        f = self.write("src/core/ok.cpp", """
#include <algorithm>
#include <unordered_set>
bool has(int x) {
  std::unordered_set<int> s;
  return std::find(s.begin(), s.end(), x) != s.end();
}
""")
        self.assert_clean(self.lint(f))

    def test_det2_vector_loop_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <vector>
double sum() {
  std::vector<double> values;
  double t = 0.0;
  for (double v : values) t += v;
  return t;
}
""")
        self.assert_clean(self.lint(f))

    def test_con1_thread(self) -> None:
        f = self.write("src/sim/bad.cpp",
                       "#include <thread>\n"
                       "void f() { std::thread t([] {}); t.join(); }\n")
        self.assert_fires(self.lint(f), "CON-1")

    def test_con1_detach(self) -> None:
        f = self.write("tests/bad.cpp", "void f(auto& t) { t.detach(); }\n")
        self.assert_fires(self.lint(f), "CON-1")

    def test_con1_static_members_pass(self) -> None:
        f = self.write(
            "src/core/ok.cpp",
            "#include <thread>\n"
            "auto n = std::thread::hardware_concurrency();\n")
        self.assert_clean(self.lint(f))

    def test_con1_allowed_in_pool(self) -> None:
        f = self.write("src/util/thread_pool.cpp",
                       "#include <thread>\nstd::thread worker;\n")
        self.assert_clean(self.lint(f))

    def test_con2_new_delete(self) -> None:
        f = self.write("src/core/bad.cpp",
                       "int* f() { return new int(3); }\n"
                       "void g(int* p) { delete p; }\n")
        self.assert_fires(self.lint(f), "CON-2")

    def test_con2_deleted_function_passes(self) -> None:
        f = self.write("src/core/ok.hpp",
                       "struct S { S(const S&) = delete; };\n")
        self.assert_clean(self.lint(f))

    def test_con2_comment_mention_passes(self) -> None:
        f = self.write("src/core/ok.cpp",
                       "// each new node attaches m edges\nint x = 0;\n")
        self.assert_clean(self.lint(f))

    def test_hyg1_wrong_first_include(self) -> None:
        self.write("src/core/thing.hpp", "#pragma once\n")
        f = self.write("src/core/thing.cpp",
                       "#include <vector>\n#include \"core/thing.hpp\"\n")
        self.assert_fires(self.lint(f), "HYG-1")

    def test_hyg1_own_header_first_passes(self) -> None:
        self.write("src/core/thing.hpp", "#pragma once\n")
        f = self.write("src/core/thing.cpp",
                       "#include \"core/thing.hpp\"\n#include <vector>\n")
        self.assert_clean(self.lint(f))

    def test_hyg1_no_own_header_passes(self) -> None:
        f = self.write("tests/some_test.cpp", "#include <vector>\n")
        self.assert_clean(self.lint(f))

    def test_hyg2_using_namespace_in_header(self) -> None:
        f = self.write("src/core/bad.hpp", "using namespace std;\n")
        self.assert_fires(self.lint(f), "HYG-2")

    def test_hyg2_in_cpp_passes(self) -> None:
        f = self.write("bench/ok.cpp", "using namespace std;\n")
        self.assert_clean(self.lint(f))


class SeededTreeTest(LintFixtureCase):
    """Acceptance: one violation per rule, all named, non-zero exit."""

    def test_one_violation_per_rule(self) -> None:
        self.write("src/core/det.hpp", "#pragma once\n")
        self.write("src/core/det.cpp", """
#include <unordered_map>
#include "core/det.hpp"
int seed_source() { return rand(); }
double reduce() {
  std::unordered_map<int, double> m;
  double t = 0.0;
  for (const auto& [k, v] : m) t += v;
  return t;
}
""")
        self.write("src/core/con.hpp",
                   "#pragma once\nusing namespace std;\n")
        self.write("src/sim/con.cpp", """
#include <thread>
void f() { std::thread t([] {}); t.detach(); }
int* g() { return new int(1); }
""")
        proc = self.lint(self.root / "src", strict=True)
        self.assertNotEqual(proc.returncode, 0)
        for rule in ("DET-1", "DET-2", "CON-1", "CON-2", "HYG-1", "HYG-2"):
            self.assertIn(rule, proc.stderr,
                          f"{rule} missing from:\n{proc.stderr}")


class SuppressionTests(LintFixtureCase):
    BAD_LOOP = ("  for (const auto& [k, v] : m) t += v;")

    def file_with(self, loop_line: str, prefix: str = "") -> Path:
        return self.write("src/core/f.cpp", f"""
#include <unordered_map>
double reduce() {{
  std::unordered_map<int, double> m;
  double t = 0.0;
{prefix}{loop_line}
  return t;
}}
""")

    def test_same_line_allow(self) -> None:
        f = self.file_with(self.BAD_LOOP +
                           "  // st-lint: allow(DET-2 integer sum)")
        self.assert_clean(self.lint(f, strict=True))

    def test_preceding_line_allow(self) -> None:
        f = self.file_with(
            self.BAD_LOOP,
            prefix="  // st-lint: allow(DET-2 sorted downstream)\n")
        self.assert_clean(self.lint(f, strict=True))

    def test_allow_without_reason_is_sup1_in_strict(self) -> None:
        f = self.file_with(self.BAD_LOOP + "  // st-lint: allow(DET-2)")
        proc = self.lint(f, strict=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("SUP-1", proc.stderr)

    def test_allow_unknown_rule_is_sup1(self) -> None:
        f = self.write("src/core/f.cpp",
                       "int x = 0;  // st-lint: allow(FOO-9 whatever)\n")
        proc = self.lint(f, strict=True)
        self.assert_fires(proc, "SUP-1")
        self.assert_clean(self.lint(f))  # non-strict tolerates it

    def test_allow_for_wrong_rule_does_not_suppress(self) -> None:
        f = self.file_with(self.BAD_LOOP +
                           "  // st-lint: allow(CON-1 wrong rule)")
        self.assert_fires(self.lint(f), "DET-2")

    def test_bare_nolint_is_sup1_in_strict(self) -> None:
        f = self.write("src/core/f.cpp", "int x = 0;  // NOLINT\n")
        proc = self.lint(f, strict=True)
        self.assert_fires(proc, "SUP-1")

    def test_nolint_without_reason_is_sup1_in_strict(self) -> None:
        f = self.write("src/core/f.cpp",
                       "int x = 0;  // NOLINT(some-check)\n")
        proc = self.lint(f, strict=True)
        self.assert_fires(proc, "SUP-1")

    def test_nolint_with_check_and_reason_passes(self) -> None:
        f = self.write(
            "src/core/f.cpp",
            "int x = 0;  // NOLINT(some-check): documented reason\n")
        self.assert_clean(self.lint(f, strict=True))


class Det3AccessorTests(LintFixtureCase):
    """DET-3: iterating an accessor that returns a reference into an
    unordered container."""

    def test_range_for_over_ref_accessor_fires(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <unordered_map>
struct Ledger {
  std::unordered_map<int, double> counts_;
  const std::unordered_map<int, double>& last_counts() const {
    return counts_;
  }
};
double sum(const Ledger& l) {
  double t = 0.0;
  for (const auto& [k, v] : l.last_counts()) t += v;
  return t;
}
""")
        self.assert_fires(self.lint(f), "DET-3")

    def test_accessor_declared_in_own_header_fires(self) -> None:
        self.write("src/core/ledger2.hpp", """
#pragma once
#include <unordered_map>
struct Ledger2 {
  std::unordered_map<int, double> counts_;
  const std::unordered_map<int, double>& last_counts() const;
  double total() const;
};
""")
        self.write("src/core/ledger2.cpp", """
#include "core/ledger2.hpp"
double Ledger2::total() const {
  double t = 0.0;
  for (const auto& [k, v] : last_counts()) t += v;
  return t;
}
""")
        self.assert_fires(self.lint(self.root / "src"), "DET-3")

    def test_sorted_copy_accessor_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <vector>
struct Ledger {
  std::vector<std::pair<int, double>> sorted_counts() const;
};
double sum(const Ledger& l) {
  double t = 0.0;
  for (const auto& kv : l.sorted_counts()) t += kv.second;
  return t;
}
""")
        self.assert_clean(self.lint(f))


class FlattenThenSortTests(LintFixtureCase):
    """The sanctioned flatten-then-sort idiom needs no allow() under the
    token engine: a range-for body that only push_backs into one vector,
    followed by a sort of that vector, is recognised as order-pinned."""

    TEMPLATE = """
#include <algorithm>
#include <unordered_map>
#include <vector>
std::vector<std::pair<int, double>> flatten() {{
  std::unordered_map<int, double> m;
  std::vector<std::pair<int, double>> work;
  work.reserve(m.size());
  for (const auto& kv : m) {{
    work.push_back(kv);
  }}
{sort_line}
  return work;
}}
"""

    def test_flatten_then_sort_passes_without_allow(self) -> None:
        f = self.write("src/core/ok.cpp", self.TEMPLATE.format(
            sort_line="  std::sort(work.begin(), work.end());"))
        self.assert_clean(self.lint(f, strict=True))

    def test_flatten_without_sort_still_fires(self) -> None:
        f = self.write("src/core/bad.cpp",
                       self.TEMPLATE.format(sort_line=""))
        self.assert_fires(self.lint(f), "DET-2")


class LockDisciplineTests(LintFixtureCase):
    def test_lock1_nested_guards_fire(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <mutex>
std::mutex a_m, b_m;
void f() {
  std::lock_guard<std::mutex> la(a_m);
  std::lock_guard<std::mutex> lb(b_m);
}
""")
        self.assert_fires(self.lint(f), "LOCK-1")

    def test_lock1_sequential_scopes_pass(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <mutex>
std::mutex a_m, b_m;
void f() {
  { std::lock_guard<std::mutex> la(a_m); }
  { std::lock_guard<std::mutex> lb(b_m); }
  std::scoped_lock both(a_m, b_m);
}
""")
        self.assert_clean(self.lint(f))

    def test_lock1_guard_in_lambda_passes(self) -> None:
        # A guard inside a nested lambda body may run on another thread;
        # only same-function lexical nesting is the deadlock shape.
        f = self.write("src/core/ok.cpp", """
#include <mutex>
std::mutex a_m, b_m;
void f(auto& pool) {
  std::lock_guard<std::mutex> la(a_m);
  pool.submit([&] { std::lock_guard<std::mutex> lb(b_m); });
}
""")
        self.assert_clean(self.lint(f))

    def test_lock2_manual_lock_unlock_fires(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <mutex>
std::mutex m;
void f() {
  m.lock();
  m.unlock();
}
""")
        self.assert_fires(self.lint(f), "LOCK-2")

    def test_lock2_raii_guard_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <mutex>
std::mutex m;
void f() { std::lock_guard lock(m); }
""")
        self.assert_clean(self.lint(f))

    def test_lock3_expensive_call_under_lock_fires(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <mutex>
std::mutex m;
int shortest_path(int, int);
int f() {
  std::lock_guard lock(m);
  return shortest_path(1, 2);
}
""")
        self.assert_fires(self.lint(f), "LOCK-3")

    def test_lock3_allocating_loop_under_lock_fires(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <mutex>
#include <vector>
std::mutex m;
void f(std::vector<int>& out) {
  std::lock_guard lock(m);
  for (int i = 0; i < 8; ++i) out.push_back(i);
}
""")
        self.assert_fires(self.lint(f), "LOCK-3")

    def test_lock3_compute_outside_publish_under_lock_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <mutex>
#include <vector>
std::mutex m;
int shortest_path(int, int);
std::vector<int> g_out;
void f() {
  std::vector<int> staged;
  for (int i = 0; i < 8; ++i) staged.push_back(i);
  int hops = shortest_path(1, 2);
  std::lock_guard lock(m);
  g_out = std::move(staged);
  g_out.push_back(hops);
}
""")
        self.assert_clean(self.lint(f))


class WorklistShapeTests(LintFixtureCase):
    """The shapes of the deleted dirty-pair worklist (DESIGN.md §14
    records its removal), kept as rule fixtures: the cache sweep walked
    index refs and erased stale entries under a shard lock, staging
    swept keys into a pre-sized buffer; index rebuilds flattened and
    sorted the unordered map's keys before re-emitting refs. These
    fixtures pin that the engine accepts exactly those shapes and still
    rejects their naive variants."""

    def test_staged_sweep_walk_passes(self) -> None:
        # The sweep's shape: find/erase under the lock are fine, the
        # swept keys land in a pre-sized buffer (no allocation in-loop)
        # and are bulk-appended in a single statement.
        f = self.write("src/core/ok.cpp", """
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>
std::mutex m;
std::unordered_map<std::uint64_t, int> entries;
std::vector<std::uint64_t> refs;
void sweep(std::vector<std::uint64_t>& out) {
  std::vector<std::uint64_t> staged;
  std::lock_guard lock(m);
  if (staged.size() < refs.size()) staged.resize(refs.size());
  std::size_t n_staged = 0;
  std::size_t keep = 0;
  for (const std::uint64_t key : refs) {
    auto it = entries.find(key);
    if (it == entries.end()) continue;
    if (it->second > 0) {
      refs[keep++] = key;
      continue;
    }
    staged[n_staged++] = key;
    entries.erase(it);
  }
  refs.resize(keep);
  out.insert(out.end(), staged.begin(), staged.begin() + n_staged);
}
""")
        self.assert_clean(self.lint(f))

    def test_allocating_sweep_walk_fires(self) -> None:
        # Same walk, but the swept keys are pushed straight into the
        # output under the lock — the allocating-loop shape LOCK-3 exists
        # to reject.
        f = self.write("src/core/bad.cpp", """
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>
std::mutex m;
std::unordered_map<std::uint64_t, int> entries;
std::vector<std::uint64_t> refs;
void sweep(std::vector<std::uint64_t>& out) {
  std::lock_guard lock(m);
  for (const std::uint64_t key : refs) {
    auto it = entries.find(key);
    if (it == entries.end()) continue;
    out.push_back(key);
    entries.erase(it);
  }
}
""")
        self.assert_fires(self.lint(f), "LOCK-3")

    def test_sorted_index_rebuild_passes(self) -> None:
        # The compaction shape: flatten the unordered map's keys, sort,
        # then rebuild the ref list from the sorted keys — the sanctioned
        # flatten-then-sort idiom, no DET-2.
        f = self.write("src/core/ok.cpp", """
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>
std::unordered_map<std::uint64_t, int> entries;
std::vector<std::pair<int, std::uint64_t>> refs;
void compact() {
  std::vector<std::uint64_t> keys;
  keys.reserve(entries.size());
  for (const auto& kv : entries) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  refs.clear();
  for (const std::uint64_t key : keys) {
    refs.emplace_back(entries.find(key)->second, key);
  }
}
""")
        self.assert_clean(self.lint(f))

    def test_hash_order_index_rebuild_fires(self) -> None:
        # Rebuilding the ref list straight off the unordered map bakes
        # hash order into the index — DET-2.
        f = self.write("src/core/bad.cpp", """
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>
std::unordered_map<std::uint64_t, int> entries;
std::vector<std::pair<int, std::uint64_t>> refs;
void compact() {
  refs.clear();
  for (const auto& kv : entries) {
    refs.emplace_back(kv.second, kv.first);
  }
}
""")
        self.assert_fires(self.lint(f), "DET-2")


class ObsDocsTests(LintFixtureCase):
    """OBS-1/OBS-2: metric names vs the Metric reference tables. Fixture
    trees opt in with --obs-doc (by default the doc diff only runs when
    the scan covers the repo's real src/ tree)."""

    DOC = """# Observability

## Metric reference

### Counters

| Metric | Meaning |
| --- | --- |
| `social_cache.hits` | value-layer cache hits |
"""

    REG = """
struct Registry {{ struct C {{ }}; C& counter(const char*); }};
void wire(Registry& r) {{
  r.counter("{name}");
}}
"""

    def lint_with_doc(self, *extra: str) -> subprocess.CompletedProcess:
        doc = self.write("docs/OBSERVABILITY.md", self.DOC)
        return run_lint("--obs-doc", str(doc), str(self.root / "src"),
                        *extra)

    def test_documented_metric_passes(self) -> None:
        self.write("src/core/metrics.cpp",
                   self.REG.format(name="social_cache.hits"))
        self.assert_clean(self.lint_with_doc())

    def test_rename_in_code_fails_both_directions(self) -> None:
        # Metric renamed in code but not in the doc: the new name is
        # undocumented (OBS-1) and the old doc row is dead (OBS-2).
        self.write("src/core/metrics.cpp",
                   self.REG.format(name="social_cache.hitz"))
        proc = self.lint_with_doc()
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("OBS-1", proc.stderr)
        self.assertIn("OBS-2", proc.stderr)

    def test_non_snake_case_fires(self) -> None:
        self.write("src/core/metrics.cpp",
                   self.REG.format(name="SocialCache.Hits"))
        proc = self.lint_with_doc()
        self.assert_fires(proc, "OBS-1")
        self.assertIn("snake_case", proc.stderr)

    def test_duplicate_registration_fires(self) -> None:
        self.write("src/core/metrics_a.cpp",
                   self.REG.format(name="social_cache.hits"))
        self.write("src/core/metrics_b.cpp",
                   self.REG.format(name="social_cache.hits"))
        proc = self.lint_with_doc()
        self.assert_fires(proc, "OBS-1")
        self.assertIn("already registered", proc.stderr)

    def test_doc_checks_off_for_fixture_trees_by_default(self) -> None:
        # Without --obs-doc a fixture scan never diffs against the
        # repo's own documentation.
        self.write("src/core/metrics.cpp",
                   self.REG.format(name="not.in.any.doc"))
        self.assert_clean(self.lint(self.root / "src"))


class BudgetTests(LintFixtureCase):
    """SUP-2: the checked-in allow() budget."""

    def seeded(self) -> Path:
        self.write("src/core/f.cpp", """
#include <unordered_map>
double reduce() {
  std::unordered_map<int, double> m;
  double t = 0.0;
  for (const auto& [k, v] : m) t += v;  // st-lint: allow(DET-2 integer sum)
  return t;
}
""")
        return self.write("budget.json", '{"max_allow_sites": 0}\n')

    def test_over_budget_fires_sup2_in_strict(self) -> None:
        budget = self.seeded()
        proc = run_lint("--strict", "--budget", str(budget),
                        str(self.root / "src"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("SUP-2", proc.stderr)

    def test_within_budget_passes(self) -> None:
        self.seeded()
        budget = self.write("budget_ok.json", '{"max_allow_sites": 1}\n')
        proc = run_lint("--strict", "--budget", str(budget),
                        str(self.root / "src"))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_budget_not_enforced_without_strict(self) -> None:
        budget = self.seeded()
        proc = run_lint("--budget", str(budget), str(self.root / "src"))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_real_budget_matches_tree(self) -> None:
        # The repo's own budget file must stay in sync with the tree:
        # exactly max_allow_sites allow() comments, no slack to grow into.
        budget = json.loads(
            (REPO_ROOT / "tools" / "lint_budget.json").read_text())
        proc = run_lint("--json", "--strict",
                        *(str(REPO_ROOT / d)
                          for d in ("src", "bench", "tests", "examples")))
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["allow_sites"], budget["max_allow_sites"])


class LexerRegressionTests(LintFixtureCase):
    """Rule-triggering text inside comments and string literals must
    never fire under the token engine."""

    def test_rule_text_in_comments_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
// rand() here, and std::thread there, and for (auto& kv : m) too
/* delete p; m.lock(); shortest_path(a, b);
   for (auto it = m.begin(); it != m.end(); ++it) {} */
int x = 0;
""")
        self.assert_clean(self.lint(f, strict=True))

    def test_rule_text_in_string_literals_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
const char* a = "std::thread t; t.detach(); rand();";
const char* b = "for (const auto& [k, v] : counts) {}";
int x = 0;
""")
        self.assert_clean(self.lint(f, strict=True))

    def test_rule_text_in_raw_string_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
const char* doc = R"(new int(3); delete p; malloc(8);
std::unordered_map<int, int> m; for (auto& kv : m) {})";
int x = 0;
""")
        self.assert_clean(self.lint(f, strict=True))

    def test_code_after_comment_still_fires(self) -> None:
        # The inverse guard: stripping comments must not eat real code.
        f = self.write("src/core/bad.cpp",
                       "int f() { /* benign */ return rand(); }\n")
        self.assert_fires(self.lint(f), "DET-1")


class ScopeResolutionTests(LintFixtureCase):
    """Declaration resolution is scope-aware: names no longer inherit
    guilt from unrelated declarations elsewhere in the file."""

    def test_vector_shadowing_other_functions_unordered_passes(self) -> None:
        f = self.write("src/core/ok.cpp", """
#include <unordered_map>
#include <vector>
double a() {
  std::unordered_map<int, double> counts;
  return static_cast<double>(counts.size());
}
double b() {
  std::vector<double> counts;
  double t = 0.0;
  for (double v : counts) t += v;
  return t;
}
""")
        self.assert_clean(self.lint(f))

    def test_same_function_unordered_still_fires(self) -> None:
        f = self.write("src/core/bad.cpp", """
#include <unordered_map>
double a() {
  std::unordered_map<int, double> counts;
  double t = 0.0;
  for (const auto& [k, v] : counts) t += v;
  return t;
}
""")
        self.assert_fires(self.lint(f), "DET-2")

    def test_hyg2_function_local_using_in_header_passes(self) -> None:
        f = self.write("src/core/ok.hpp", """
#pragma once
inline int f() {
  using namespace std;
  return 0;
}
""")
        self.assert_clean(self.lint(f))

    def test_hyg2_namespace_scope_in_header_still_fires(self) -> None:
        f = self.write("src/core/bad.hpp", """
#pragma once
namespace st {
using namespace std;
}
""")
        self.assert_fires(self.lint(f), "HYG-2")


class OutputAndCliTests(LintFixtureCase):
    def test_json_output(self) -> None:
        f = self.write("src/core/bad.cpp", "int f() { return rand(); }\n")
        proc = self.lint(f, as_json=True)
        self.assertEqual(proc.returncode, 1)
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["files_scanned"], 1)
        self.assertEqual(len(payload["findings"]), 1)
        self.assertEqual(payload["findings"][0]["rule"], "DET-1")
        self.assertIn("line", payload["findings"][0])

    def test_list_rules(self) -> None:
        proc = run_lint("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("DET-1", "DET-2", "CON-1", "CON-2",
                     "HYG-1", "HYG-2", "SUP-1"):
            self.assertIn(rule, proc.stdout)

    def test_missing_path_is_usage_error(self) -> None:
        proc = run_lint(str(self.root / "no_such_dir"))
        self.assertEqual(proc.returncode, 2)

    def test_real_tree_is_clean_under_strict(self) -> None:
        proc = run_lint("--strict",
                        str(REPO_ROOT / "src"),
                        str(REPO_ROOT / "bench"),
                        str(REPO_ROOT / "tests"),
                        str(REPO_ROOT / "examples"))
        self.assertEqual(proc.returncode, 0, proc.stderr)


class CallGraphCase(LintFixtureCase):
    """Base for in-process assertions against the v3 index/call graph."""

    def build_graph(self, files: dict[str, str]
                    ) -> tuple[ProjectIndex, CallGraph]:
        index = ProjectIndex()
        sources = {}
        aliases: set[str] = set()
        for rel, content in files.items():
            sources[rel] = load_file(self.write(rel, content))
            aliases |= collect_aliases(sources[rel].code)
        for rel, sf in sources.items():
            index.add_file(rel, build_facts(sf, aliases))
        index.finalize()
        return index, CallGraph(index)

    def fn_by_qname(self, index: ProjectIndex, qname: str) -> dict:
        gids = index.by_qname.get(qname, [])
        self.assertTrue(gids, f"no function {qname!r} in the index")
        return index.functions[gids[0]]

    def call_named(self, fn: dict, name: str) -> dict:
        for call in fn["calls"]:
            if call["name"] == name:
                return call
        self.fail(f"{fn['qname']} records no call to {name!r}")


class CallGraphResolutionTests(CallGraphCase):
    """Name+scope call resolution: overloads, virtual dispatch through a
    base pointer, recursion, qualified and typed-receiver calls."""

    def test_free_function_overloads_fan_out(self) -> None:
        index, graph = self.build_graph({"src/core/a.cpp": """
int scale(int x) { return x + 1; }
double scale(double x) { return x * 2.0; }
int use(int v) { return scale(v); }
"""})
        self.assertEqual(len(index.by_qname["scale"]), 2)
        fn = self.fn_by_qname(index, "use")
        targets = graph.resolve(fn, self.call_named(fn, "scale"))
        self.assertEqual(sorted(targets), sorted(index.by_qname["scale"]))

    def test_method_via_base_pointer_reaches_derived(self) -> None:
        index, graph = self.build_graph({"src/core/shapes.cpp": """
class Base {
 public:
  virtual void step() { ticks_ = ticks_ + 1; }
 protected:
  int ticks_ = 0;
};
class Derived : public Base {
 public:
  void step() { ticks_ = ticks_ + 2; }
};
void drive(Base* b) { b->step(); }
"""})
        fn = self.fn_by_qname(index, "drive")
        targets = graph.resolve(fn, self.call_named(fn, "step"))
        qnames = sorted(index.functions[g]["qname"] for g in targets)
        self.assertEqual(qnames, ["Base::step", "Derived::step"])

    def test_recursion_keeps_node_skips_self_edge(self) -> None:
        index, graph = self.build_graph({"src/core/rec.cpp": """
int fact(int n) {
  if (n <= 1) return 1;
  return n * fact(n - 1);
}
"""})
        gid = index.by_qname["fact"][0]
        self.assertEqual(graph.callees(gid), [])

    def test_qualified_call_resolves_exactly(self) -> None:
        index, graph = self.build_graph({"src/core/q.cpp": """
struct Helper {
  static int run() { return 3; }
};
struct Other {
  static int run() { return 4; }
};
int use2() { return Helper::run(); }
"""})
        fn = self.fn_by_qname(index, "use2")
        targets = graph.resolve(fn, self.call_named(fn, "run"))
        self.assertEqual([index.functions[g]["qname"] for g in targets],
                         ["Helper::run"])

    def test_typed_local_receiver_resolves_one_class(self) -> None:
        index, graph = self.build_graph({"src/core/recv.cpp": """
class Alpha {
 public:
  void go() {}
};
class Beta {
 public:
  void go() {}
};
void f() {
  Alpha a;
  a.go();
}
"""})
        fn = self.fn_by_qname(index, "f")
        targets = graph.resolve(fn, self.call_named(fn, "go"))
        self.assertEqual([index.functions[g]["qname"] for g in targets],
                         ["Alpha::go"])


class Con3WorkerContextTests(LintFixtureCase):
    """CON-3: unlocked shared writes reachable from a worker body."""

    ACC_HPP = """#pragma once
class Pool;
class Accumulator {
 public:
  void run(Pool& pool);
 private:
  void helper(double v);
  double sum_ = 0.0;
};
"""

    def test_shared_write_through_helper_hop_fires(self) -> None:
        self.write("src/core/acc.hpp", self.ACC_HPP)
        f = self.write("src/core/acc.cpp", """
#include "core/acc.hpp"
void Accumulator::helper(double v) { sum_ += v; }
void Accumulator::run(Pool& pool) {
  pool.parallel_for(8, [this](unsigned long i) { helper(2.0); });
}
""")
        proc = self.lint(self.root / "src")
        self.assert_fires(proc, "CON-3")
        self.assertIn("sum_", proc.stderr)
        self.assertIn("parallel_for", proc.stderr)
        del f

    def test_disjoint_slot_write_passes(self) -> None:
        self.write("src/core/slots.hpp", """#pragma once
#include <vector>
class Pool;
class SlotFiller {
 public:
  void run(Pool& pool);
 private:
  std::vector<double> slots_;
};
""")
        self.write("src/core/slots.cpp", """
#include "core/slots.hpp"
void SlotFiller::run(Pool& pool) {
  pool.parallel_for(8, [this](unsigned long i) { slots_[i] = 1.0; });
}
""")
        self.assert_clean(self.lint(self.root / "src"))

    def test_write_under_raii_guard_passes(self) -> None:
        self.write("src/core/guarded.hpp", """#pragma once
#include <mutex>
class Pool;
class Guarded {
 public:
  void run(Pool& pool);
 private:
  void helper(double v);
  std::mutex mu_;
  double sum_ = 0.0;
};
""")
        self.write("src/core/guarded.cpp", """
#include "core/guarded.hpp"
void Guarded::helper(double v) {
  std::lock_guard lk(mu_);
  sum_ += v;
}
void Guarded::run(Pool& pool) {
  pool.parallel_for(8, [this](unsigned long i) { helper(2.0); });
}
""")
        self.assert_clean(self.lint(self.root / "src"))

    def test_atomic_member_write_passes(self) -> None:
        self.write("src/core/atomics.hpp", """#pragma once
#include <atomic>
class Pool;
class Counter {
 public:
  void run(Pool& pool);
 private:
  std::atomic<long> count_{0};
};
""")
        self.write("src/core/atomics.cpp", """
#include "core/atomics.hpp"
void Counter::run(Pool& pool) {
  pool.parallel_for(8, [this](unsigned long i) { count_ = count_ + 1; });
}
""")
        self.assert_clean(self.lint(self.root / "src"))


class Lock4OrderTests(LintFixtureCase):
    """LOCK-4: the lock-order graph lifted across function boundaries."""

    def test_cross_function_cycle_fires_with_both_chains(self) -> None:
        self.write("src/core/order.hpp", """#pragma once
#include <mutex>
class B;
class A {
 public:
  void f();
  void k();
 private:
  std::mutex ma_;
  B* b_ = nullptr;
};
class B {
 public:
  void g();
  void h();
 private:
  std::mutex mb_;
  A* a_ = nullptr;
};
""")
        f = self.write("src/core/order.cpp", """
#include "core/order.hpp"
void A::f() {
  std::lock_guard lk(ma_);
  b_->g();
}
void A::k() { std::lock_guard lk(ma_); }
void B::g() { std::lock_guard lk(mb_); }
void B::h() {
  std::lock_guard lk(mb_);
  a_->k();
}
""")
        proc = self.lint(self.root / "src")
        self.assert_fires(proc, "LOCK-4")
        # Both acquisition chains are named in the report.
        self.assertIn("A::f", proc.stderr)
        self.assertIn("B::h", proc.stderr)
        self.assertIn("A::ma_", proc.stderr)
        self.assertIn("B::mb_", proc.stderr)
        del f

    def test_consistent_global_order_passes(self) -> None:
        self.write("src/core/order2.hpp", """#pragma once
#include <mutex>
class B2;
class A2 {
 public:
  void f();
 private:
  std::mutex ma_;
  B2* b_ = nullptr;
};
class B2 {
 public:
  void g();
 private:
  std::mutex mb_;
};
""")
        self.write("src/core/order2.cpp", """
#include "core/order2.hpp"
void A2::f() {
  std::lock_guard lk(ma_);
  b_->g();
}
void B2::g() { std::lock_guard lk(mb_); }
""")
        self.assert_clean(self.lint(self.root / "src"))

    def test_mutexlock_counts_as_guard_for_lock1(self) -> None:
        # The annotated RAII guard (src/util/thread_annotations.hpp) is a
        # first-class guard type for the whole LOCK family.
        f = self.write("src/core/annotated_guard.cpp", """
#include "util/thread_annotations.hpp"
void f(st::util::Mutex& a, st::util::Mutex& b) {
  st::util::MutexLock la(a);
  st::util::MutexLock lb(b);
}
""")
        self.assert_fires(self.lint(f), "LOCK-1")


class Det4TaintTests(LintFixtureCase):
    """DET-4: hash-order taint crossing translation-unit boundaries."""

    STORE_HPP = """#pragma once
#include <unordered_map>
class PairStore {
 public:
  const std::unordered_map<unsigned, double>& pair_sums() const;
 private:
  std::unordered_map<unsigned, double> sums_;
};
"""
    STORE_CPP = """
#include "core/pair_store.hpp"
const std::unordered_map<unsigned, double>& PairStore::pair_sums() const {
  return sums_;
}
"""

    def test_cross_tu_unordered_accessor_fires(self) -> None:
        self.write("src/core/pair_store.hpp", self.STORE_HPP)
        self.write("src/core/pair_store.cpp", self.STORE_CPP)
        self.write("src/core/reducer.cpp", """
#include "core/pair_store.hpp"
double reduce(const PairStore& store) {
  double total = 0.0;
  for (const auto& kv : store.pair_sums()) {
    total += kv.second;
  }
  return total;
}
""")
        proc = self.lint(self.root / "src")
        self.assert_fires(proc, "DET-4")
        self.assertIn("pair_sums", proc.stderr)
        # The per-file families cannot see the accessor's return type
        # from reducer.cpp — exactly the gap DET-4 covers.
        self.assertNotIn("DET-2", proc.stderr)
        self.assertNotIn("DET-3", proc.stderr)

    def test_sorted_copy_accessor_passes(self) -> None:
        self.write("src/core/pair_store2.hpp", """#pragma once
#include <unordered_map>
#include <utility>
#include <vector>
class PairStore2 {
 public:
  std::vector<std::pair<unsigned, double>> sorted_pairs() const;
 private:
  std::unordered_map<unsigned, double> sums_;
};
""")
        self.write("src/core/pair_store2.cpp", """
#include "core/pair_store2.hpp"
#include <algorithm>
std::vector<std::pair<unsigned, double>> PairStore2::sorted_pairs() const {
  std::vector<std::pair<unsigned, double>> out(sums_.begin(), sums_.end());
  std::sort(out.begin(), out.end());
  return out;
}
""")
        self.write("src/core/reducer2.cpp", """
#include "core/pair_store2.hpp"
double reduce2(const PairStore2& store) {
  double total = 0.0;
  for (const auto& kv : store.sorted_pairs()) {
    total += kv.second;
  }
  return total;
}
""")
        self.assert_clean(self.lint(self.root / "src"))


class Api2RevisionTests(LintFixtureCase):
    """API-2: SocialGraph/InterestProfiles mutation-path discipline."""

    def test_mutation_without_bump_fires(self) -> None:
        f = self.write("src/graph/sg.cpp", """
class SocialGraph {
 public:
  void add_edge(unsigned a, unsigned b) { edges_ = edges_ + 1; }
  void remove_edge(unsigned a, unsigned b) {
    edges_ = edges_ - 1;
    bump();
  }
  unsigned revision() const { return rev_; }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned edges_ = 0;
  unsigned rev_ = 0;
};
""")
        proc = self.lint(f)
        self.assert_fires(proc, "API-2")
        self.assertIn("add_edge", proc.stderr)
        self.assertNotIn("remove_edge", proc.stderr)

    def test_mutation_reaching_bump_passes(self) -> None:
        f = self.write("src/graph/sg2.cpp", """
class SocialGraph {
 public:
  void remove_edge(unsigned a, unsigned b) {
    edges_ = edges_ - 1;
    note();
  }
 private:
  void note() { bump(); }
  void bump() { rev_ = rev_ + 1; }
  unsigned edges_ = 0;
  unsigned rev_ = 0;
};
""")
        self.assert_clean(self.lint(f))

    def test_rebuild_calling_public_accessor_fires(self) -> None:
        f = self.write("src/graph/sg3.cpp", """
class SocialGraph {
 public:
  void rebuild() {
    bump();
    cached_ = revision();
  }
  unsigned revision() const { return rev_; }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned rev_ = 0;
  unsigned cached_ = 0;
};
""")
        proc = self.lint(f)
        self.assert_fires(proc, "API-2")
        self.assertIn("revision", proc.stderr)
        self.assertIn("rebuild", proc.stderr)


class SeededBugAuditTests(LintFixtureCase):
    """The PR-3 seeded-bug audit: ebay.cpp's original hash-order
    reduction, re-introduced behind a fixture copy with the unordered
    accessor one helper hop away in another TU. The v2 per-file families
    (DET-2/DET-3) are blind to it; DET-4 must catch it."""

    def test_det4_catches_ebay_hash_order_across_tu(self) -> None:
        self.write("src/reputation/pair_ledger.hpp", """#pragma once
#include <unordered_map>
namespace st::reputation {
class PairLedger {
 public:
  /// Collapsed (rater, ratee) -> summed vote for the current cycle.
  const std::unordered_map<unsigned long, double>& pair_sums() const;
 private:
  std::unordered_map<unsigned long, double> sums_;
};
}  // namespace st::reputation
""")
        self.write("src/reputation/pair_ledger.cpp", """
#include "reputation/pair_ledger.hpp"
namespace st::reputation {
const std::unordered_map<unsigned long, double>&
PairLedger::pair_sums() const {
  return sums_;
}
}  // namespace st::reputation
""")
        self.write("src/reputation/ebay_seeded.hpp", """#pragma once
#include <vector>
namespace st::reputation {
class PairLedger;
class EbaySeeded {
 public:
  void update(const PairLedger& ledger);
 private:
  void collapse(const PairLedger& ledger);
  std::vector<double> raw_;
};
}  // namespace st::reputation
""")
        self.write("src/reputation/ebay_seeded.cpp", """
#include "reputation/ebay_seeded.hpp"
#include "reputation/pair_ledger.hpp"
namespace st::reputation {
void EbaySeeded::update(const PairLedger& ledger) { collapse(ledger); }
void EbaySeeded::collapse(const PairLedger& ledger) {
  for (const auto& kv : ledger.pair_sums()) {
    raw_[kv.first] += kv.second;
  }
}
}  // namespace st::reputation
""")
        proc = self.lint(self.root / "src")
        self.assert_fires(proc, "DET-4")
        self.assertIn("ebay_seeded.cpp", proc.stderr)
        self.assertIn("pair_sums", proc.stderr)
        # v2's families stay silent: the unordered return type is only
        # declared in pair_ledger.hpp, which is neither the iterating
        # file nor its own header.
        self.assertNotIn("DET-2", proc.stderr)
        self.assertNotIn("DET-3", proc.stderr)


class IndexCacheTests(LintFixtureCase):
    """The content-hash-keyed index cache behind --index-cache."""

    def _lint_cached(self, cache: Path, *paths: Path
                     ) -> subprocess.CompletedProcess:
        return run_lint("--index-cache", str(cache),
                        *[str(p) for p in paths])

    def test_single_file_edit_invalidates_only_that_file(self) -> None:
        self.write("src/core/pair_store.hpp", Det4TaintTests.STORE_HPP)
        self.write("src/core/pair_store.cpp", Det4TaintTests.STORE_CPP)
        reducer = self.write("src/core/reducer.cpp", """
#include "core/pair_store.hpp"
double reduce(const PairStore& store) {
  double total = 0.0;
  for (const auto& kv : store.pair_sums()) {
    total += kv.second;
  }
  return total;
}
""")
        cache = self.root / "cache.json"
        proc = self._lint_cached(cache, self.root / "src")
        self.assert_fires(proc, "DET-4")
        before = json.loads(cache.read_text(encoding="utf-8"))["files"]
        store_rel = next(r for r in before if r.endswith("pair_store.cpp"))
        reducer_rel = next(r for r in before if r.endswith("reducer.cpp"))

        # Edit only the iterating file: one comment line shifts the
        # finding down by one.
        reducer.write_text("// touched\n" + reducer.read_text(
            encoding="utf-8"), encoding="utf-8")
        proc = self._lint_cached(cache, self.root / "src")
        self.assert_fires(proc, "DET-4")
        after = json.loads(cache.read_text(encoding="utf-8"))["files"]

        # The untouched TU's cache entry is byte-identical (symbols
        # served from cache); the edited TU was re-indexed.
        self.assertEqual(before[store_rel], after[store_rel])
        self.assertNotEqual(before[reducer_rel]["hash"],
                            after[reducer_rel]["hash"])
        old_line = next(f["line"] for f in before[reducer_rel].get(
            "findings", []) if True) if before[reducer_rel].get(
            "findings") else None
        # Cross-file diagnostic stays correct: the DET-4 line moved with
        # the edit.
        old_fns = {f["qname"]: f["line"]
                   for f in before[reducer_rel]["facts"]["functions"]}
        new_fns = {f["qname"]: f["line"]
                   for f in after[reducer_rel]["facts"]["functions"]}
        self.assertEqual(new_fns["reduce"], old_fns["reduce"] + 1)
        del old_line

    def test_warm_relint_is_fraction_of_cold(self) -> None:
        """Acceptance: warm re-lint after touching one src/ file is a
        small fraction of the cold whole-repo wall-clock. The hard bound
        asserted here is generous (50%) to survive loaded CI runners;
        the exact measured numbers are printed."""
        for d in ("src", "bench", "tests", "examples"):
            shutil.copytree(REPO_ROOT / d, self.root / d,
                            ignore=shutil.ignore_patterns("*.py"))
        cache = self.root / "cache.json"
        paths = [str(self.root / d)
                 for d in ("src", "bench", "tests", "examples")]

        t0 = time.perf_counter()
        proc = run_lint("--index-cache", str(cache), *paths)
        cold = time.perf_counter() - t0
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)

        touched = self.root / "src" / "reputation" / "ledger.cpp"
        touched.write_text(touched.read_text(encoding="utf-8")
                           + "\n// touched by the cache test\n",
                           encoding="utf-8")
        t0 = time.perf_counter()
        proc = run_lint("--index-cache", str(cache), *paths)
        warm = time.perf_counter() - t0
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)

        ratio = warm / cold
        print(f"\n[index-cache] cold whole-repo: {cold:.3f}s, warm after "
              f"one-file edit: {warm:.3f}s, ratio {ratio:.1%}")
        self.assertLess(
            ratio, 0.50,
            f"warm re-lint took {warm:.3f}s vs cold {cold:.3f}s "
            f"({ratio:.1%}); the index cache should make warm runs a "
            f"small fraction of cold")


class ChangedOnlyTests(LintFixtureCase):
    """--changed-only: per-file findings filtered to the git change set
    while the index stays whole-program."""

    def test_unchanged_file_findings_filtered(self) -> None:
        f = self.write("src/core/bad.cpp", "int f() { return rand(); }\n")
        self.assert_fires(self.lint(f), "DET-1")
        # The fixture lives outside the repo's change set, so its
        # per-file findings are filtered under --changed-only.
        proc = run_lint("--changed-only", str(f))
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)

    def test_changed_files_helper_returns_paths(self) -> None:
        from stlint.cli import changed_files
        changed = changed_files()
        self.assertIsInstance(changed, set)
        for rel in changed:
            self.assertNotIn("\n", rel)


class SarifOutputTests(LintFixtureCase):
    def test_sarif_document_shape(self) -> None:
        f = self.write("src/core/bad.cpp", "int f() { return rand(); }\n")
        proc = run_lint("--sarif", str(f))
        self.assertEqual(proc.returncode, 1)
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for rule in ("DET-4", "CON-3", "LOCK-4", "API-2"):
            self.assertIn(rule, rule_ids)
        result = run["results"][0]
        self.assertEqual(result["ruleId"], "DET-1")
        self.assertEqual(
            result["locations"][0]["physicalLocation"]["region"]
            ["startLine"], 1)


class CfgCase(CallGraphCase):
    """Base for in-process assertions against the v4 per-function CFGs
    serialised into the fact records."""

    def cfg_of(self, src: str, qname: str) -> tuple[dict, list[dict]]:
        index, _ = self.build_graph({"src/core/cfg_fix.cpp": src})
        fn = self.fn_by_qname(index, qname)
        blocks = fn["cfg"]["blocks"]
        self.assertGreaterEqual(len(blocks), 3)  # entry/exit/raise
        return fn, blocks

    @staticmethod
    def kinds(blocks: list[dict]) -> list[str]:
        return [b["k"] for b in blocks]

    @staticmethod
    def by_kind(blocks: list[dict], kind: str) -> list[int]:
        return [i for i, b in enumerate(blocks) if b["k"] == kind]


class CfgBuilderTests(CfgCase):
    """Shape of the basic-block graphs build_cfg produces."""

    def test_if_else_splits_then_else_join(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(int x) {
    if (x) { a_ = 1; } else { a_ = 2; }
    a_ = 3;
  }
  int a_ = 0;
};
""", "C::f")
        ks = self.kinds(blocks)
        self.assertIn("then", ks)
        self.assertIn("else", ks)
        self.assertIn("join", ks)
        # both arms carry exactly one write event and meet at the join
        then_b = blocks[self.by_kind(blocks, "then")[0]]
        else_b = blocks[self.by_kind(blocks, "else")[0]]
        self.assertEqual(len(then_b["ev"]), 1)
        self.assertEqual(len(else_b["ev"]), 1)
        self.assertEqual(then_b["s"], else_b["s"])

    def test_early_return_records_line_and_exits(self) -> None:
        from stlint.cfg import EXIT
        _, blocks = self.cfg_of("""
struct C {
  int f(int x) {
    if (x) return 0;
    a_ = 1;
    return a_;
  }
  int a_ = 0;
};
""", "C::f")
        then_id = self.by_kind(blocks, "then")[0]
        self.assertIn(EXIT, blocks[then_id]["s"])
        self.assertIn("r", blocks[then_id])

    def test_while_loop_has_back_edge(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(int n) {
    while (n > 0) { a_ = a_ + 1; n = n - 1; }
  }
  int a_ = 0;
};
""", "C::f")
        hdr = self.by_kind(blocks, "loop")[0]
        # some block downstream of the body points back at the header
        self.assertTrue(any(hdr in b["s"] and i != hdr
                            for i, b in enumerate(blocks) if i > hdr),
                        f"no back edge to loop header in {blocks}")

    def test_classic_for_gets_step_block(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(int n) {
    for (int i = 0; i < n; i = i + 1) { a_ = a_ + i; }
  }
  int a_ = 0;
};
""", "C::f")
        steps = self.by_kind(blocks, "step")
        self.assertEqual(len(steps), 1)
        hdr = self.by_kind(blocks, "loop")[0]
        self.assertIn(hdr, blocks[steps[0]]["s"])

    def test_range_for_has_no_step_block(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f() {
    for (int v : items_) { a_ = a_ + v; }
  }
  int a_ = 0;
  int items_[4] = {0, 1, 2, 3};
};
""", "C::f")
        self.assertEqual(self.by_kind(blocks, "step"), [])
        self.assertTrue(self.by_kind(blocks, "loop"))

    def test_do_while_body_precedes_condition(self) -> None:
        from stlint.cfg import ENTRY
        _, blocks = self.cfg_of("""
struct C {
  void f(int n) {
    do { a_ = a_ + 1; } while (n > a_);
  }
  int a_ = 0;
};
""", "C::f")
        body = self.by_kind(blocks, "body")[0]
        loop = self.by_kind(blocks, "loop")[0]
        self.assertIn(body, blocks[ENTRY]["s"])  # body runs first
        self.assertIn(body, blocks[loop]["s"])   # and again on true

    def test_switch_fallthrough_edges_between_arms(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(int x) {
    switch (x) {
      case 0:
        a_ = 1;          // falls through
      case 1:
        a_ = 2;
        break;
      default:
        a_ = 3;
    }
  }
  int a_ = 0;
};
""", "C::f")
        cases = self.by_kind(blocks, "case")
        self.assertEqual(len(cases), 3)
        self.assertIn(cases[1], blocks[cases[0]]["s"],
                      "case 0 must fall through into case 1")
        self.assertNotIn(cases[2], blocks[cases[1]]["s"],
                         "break must stop the case-1 arm falling through")

    def test_switch_without_default_may_skip_all_arms(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(int x) {
    switch (x) {
      case 0: a_ = 1; break;
    }
    a_ = 2;
  }
  int a_ = 0;
};
""", "C::f")
        case_b = self.by_kind(blocks, "case")[0]
        dispatch = next(i for i, b in enumerate(blocks)
                        if case_b in b["s"])
        # the dispatching block also jumps straight past the arms
        self.assertGreaterEqual(len(blocks[dispatch]["s"]), 2)

    def test_break_leaves_loop_not_function(self) -> None:
        from stlint.cfg import EXIT
        _, blocks = self.cfg_of("""
struct C {
  void f(int n) {
    while (n > 0) {
      if (n == 3) break;
      n = n - 1;
    }
    a_ = 1;
  }
  int a_ = 0;
};
""", "C::f")
        then_b = blocks[self.by_kind(blocks, "then")[0]]
        self.assertNotIn(EXIT, then_b["s"])
        hdr = self.by_kind(blocks, "loop")[0]
        # break target is also a successor of the loop header (its exit)
        self.assertTrue(set(then_b["s"]) & set(blocks[hdr]["s"]))

    def test_continue_jumps_to_step_block(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(int n) {
    for (int i = 0; i < n; i = i + 1) {
      if (i == 2) continue;
      a_ = a_ + i;
    }
  }
  int a_ = 0;
};
""", "C::f")
        step = self.by_kind(blocks, "step")[0]
        then_b = blocks[self.by_kind(blocks, "then")[0]]
        self.assertIn(step, then_b["s"])

    def test_try_blocks_point_at_catch_head(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f() {
    try {
      a_ = 1;
    } catch (...) {
      a_ = 0;
    }
  }
  int a_ = 0;
};
""", "C::f")
        catches = self.by_kind(blocks, "catch")
        self.assertEqual(len(catches), 1)
        try_bodies = [b for b in blocks
                      if b["k"] == "body" and catches[0] in b["s"]]
        self.assertTrue(try_bodies, "try body must edge into the handler")
        self.assertEqual(try_bodies[0].get("c"), catches)

    def test_uncaught_throw_edges_to_raise_sink(self) -> None:
        from stlint.cfg import RAISE
        _, blocks = self.cfg_of("""
struct C {
  void f(int x) {
    if (x < 0) throw x;
    a_ = x;
  }
  int a_ = 0;
};
""", "C::f")
        self.assertTrue(any(RAISE in b["s"] for b in blocks))

    def test_ternary_with_writes_splits_arms(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(bool c) {
    c ? (a_ = 1) : (a_ = 2);
  }
  int a_ = 0;
};
""", "C::f")
        self.assertIn("then", self.kinds(blocks))
        self.assertIn("else", self.kinds(blocks))

    def test_guard_idents_recorded_on_branch(self) -> None:
        _, blocks = self.cfg_of("""
struct C {
  void f(bool added) {
    if (added) a_ = 1;
  }
  int a_ = 0;
};
""", "C::f")
        then_b = blocks[self.by_kind(blocks, "then")[0]]
        self.assertEqual(then_b.get("g"), ["added"])


class DataflowTests(unittest.TestCase):
    """The worklist framework itself, over hand-built graphs."""

    #      0 -> 3 -> {4, 5} -> 6 -> 1      (2 = raise, unused)
    DIAMOND = [
        {"s": [3], "ev": []}, {"s": [], "ev": []}, {"s": [], "ev": []},
        {"s": [4, 5], "ev": []}, {"s": [6], "ev": []},
        {"s": [6], "ev": []}, {"s": [1], "ev": []},
    ]

    @staticmethod
    def _transfer(gen: dict[int, str]):
        from stlint import dataflow

        def transfer(bid: int, state: dataflow.State) -> dataflow.State:
            if bid in gen:
                return state | {gen[bid]}
            return state
        return transfer

    def test_union_meet_keeps_one_path_facts(self) -> None:
        from stlint import dataflow
        ins = dataflow.solve(self.DIAMOND, 0, dataflow.EMPTY,
                             self._transfer({4: "x"}))
        self.assertEqual(ins[6], frozenset({"x"}))

    def test_intersect_meet_requires_every_path(self) -> None:
        from stlint import dataflow
        ins = dataflow.solve(self.DIAMOND, 0, dataflow.EMPTY,
                             self._transfer({4: "x"}), meet="intersect")
        self.assertEqual(ins[6], frozenset())
        ins = dataflow.solve(self.DIAMOND, 0, dataflow.EMPTY,
                             self._transfer({4: "x", 5: "x"}),
                             meet="intersect")
        self.assertEqual(ins[6], frozenset({"x"}))

    def test_find_trace_returns_shortest_witness(self) -> None:
        from stlint import dataflow
        transfer = self._transfer({4: "x"})
        path = dataflow.find_trace(
            self.DIAMOND, 0, dataflow.EMPTY, transfer,
            lambda bid, state: bid == 6 and "x" in state)
        self.assertEqual(path, [0, 3, 4, 6])
        clean = dataflow.find_trace(
            self.DIAMOND, 0, dataflow.EMPTY, transfer,
            lambda bid, state: bid == 6 and "y" in state)
        self.assertEqual(clean, [])


class Rev1PathSensitivityTests(LintFixtureCase):
    """REV-1: per-path revision-protocol enforcement, including the
    seeded early-return bug API-2's whole-closure boolean cannot see."""

    EARLY_RETURN = """
class SocialGraph {
 public:
  bool set_weight(unsigned a, unsigned w) {
    weight_ = w;
    if (w == 0) return false;
    bump_value(a);
    return true;
  }
 private:
  void bump_value(unsigned a) { rev_ = rev_ + 1; }
  unsigned weight_ = 0;
  unsigned rev_ = 0;
};
"""

    def test_early_return_skipping_bump_fires_with_witness(self) -> None:
        f = self.write("src/graph/sg_rev.cpp", self.EARLY_RETURN)
        proc = self.lint(f)
        self.assert_fires(proc, "REV-1")
        self.assertIn("set_weight", proc.stderr)
        # the offending path is printed as a block-level chain ending in
        # the early return
        self.assertIn("entry@L", proc.stderr)
        self.assertIn("return@L", proc.stderr)

    def test_seeded_audit_api2_is_blind_to_the_same_bug(self) -> None:
        """The mandated differential: the closure DOES reach bump_value,
        so API-2's whole-closure boolean is satisfied; only the
        path-sensitive analysis reports the unbumped early return."""
        f = self.write("src/graph/sg_rev2.cpp", self.EARLY_RETURN)
        proc = self.lint(f)
        self.assert_fires(proc, "REV-1")
        self.assertNotIn("API-2", proc.stderr + proc.stdout)

    def test_bump_on_every_path_is_clean(self) -> None:
        f = self.write("src/graph/sg_ok.cpp", """
class SocialGraph {
 public:
  void set_weight(unsigned a, unsigned w) {
    if (w == 0) {
      weight_ = 0;
      bump_value(a);
      return;
    }
    weight_ = w;
    bump_value(a);
  }
 private:
  void bump_value(unsigned a) { rev_ = rev_ + 1; }
  unsigned weight_ = 0;
  unsigned rev_ = 0;
};
""")
        self.assert_clean(self.lint(f))

    GUARDED = """
class SocialGraph {
 public:
  bool link(unsigned a, unsigned b) {
    const bool added = insert_half(a, b);
    const bool added_rev = insert_half(b, a);
    if (added || added_rev) bump_structure(a, b);
    return added;
  }
 private:
  bool insert_half(unsigned f, unsigned t) {
    edges_ = edges_ + 1;
    return true;
  }
  void bump_structure(unsigned a, unsigned b) { rev_ = rev_ + 1; }
  unsigned edges_ = 0;
  unsigned rev_ = 0;
};
"""

    def test_guarded_commit_idiom_is_clean(self) -> None:
        f = self.write("src/graph/sg_guard.cpp", self.GUARDED)
        self.assert_clean(self.lint(f))

    def test_discarded_helper_result_fires(self) -> None:
        """The real-tree bug shape: the second half-edge insert's result
        is dropped, so that commit is not covered by the guarded bump."""
        f = self.write("src/graph/sg_drop.cpp", self.GUARDED.replace(
            "const bool added_rev = insert_half(b, a);",
            "insert_half(b, a);").replace(
            "if (added || added_rev)", "if (added)"))
        proc = self.lint(f)
        self.assert_fires(proc, "REV-1")
        self.assertIn("insert_half", proc.stderr)

    def test_representation_fields_are_not_observable(self) -> None:
        f = self.write("src/graph/sg_repr.cpp", """
class SocialGraph {
 public:
  void compact(unsigned n) {
    overlay_count_ = n;
    tombstones_ = 0;
  }
 private:
  unsigned overlay_count_ = 0;
  unsigned tombstones_ = 0;
};
""")
        self.assert_clean(self.lint(f))

    def test_epoch_counter_write_counts_as_bump(self) -> None:
        f = self.write("src/graph/sg_epoch.cpp", """
class SocialGraph {
 public:
  void grow(unsigned n) {
    nodes_ = n;
    epoch_ = epoch_ + 1;
  }
 private:
  unsigned nodes_ = 0;
  unsigned epoch_ = 0;
};
""")
        self.assert_clean(self.lint(f))


class Rev2RepresentationTests(LintFixtureCase):
    """REV-2: representation-only entry points must not advance
    revision witnesses."""

    def test_rebuild_reaching_bump_fires(self) -> None:
        f = self.write("src/graph/sg_rb.cpp", """
class SocialGraph {
 public:
  void rebuild() { compact(); }
 private:
  void compact() {
    packed_ = 1;
    bump();
  }
  void bump() { rev_ = rev_ + 1; }
  unsigned packed_ = 0;
  unsigned rev_ = 0;
};
""")
        proc = self.lint(f)
        self.assert_fires(proc, "REV-2")
        self.assertIn("rebuild", proc.stderr)

    def test_rebuild_without_bump_is_clean(self) -> None:
        f = self.write("src/graph/sg_rb_ok.cpp", """
class SocialGraph {
 public:
  void rebuild() { packed_ = 1; }
 private:
  unsigned packed_ = 0;
};
""")
        self.assert_clean(self.lint(f))


class Exc1ExceptionSafetyTests(LintFixtureCase):
    """EXC-1: committed writes may not precede throwing work unless
    rolled back or the method is noexcept."""

    def test_write_before_allocating_call_fires(self) -> None:
        f = self.write("src/graph/sg_exc.cpp", """
#include <vector>
class SocialGraph {
 public:
  void add(unsigned v) {
    count_ = count_ + 1;
    log_.push_back(v);
    bump();
  }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned count_ = 0;
  unsigned rev_ = 0;
  std::vector<unsigned> log_;
};
""")
        proc = self.lint(f)
        self.assert_fires(proc, "EXC-1")
        self.assertIn("push_back", proc.stderr)

    def test_noexcept_method_is_exempt(self) -> None:
        f = self.write("src/graph/sg_noexc.cpp", """
#include <vector>
class SocialGraph {
 public:
  void add(unsigned v) noexcept {
    count_ = count_ + 1;
    log_.push_back(v);
    bump();
  }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned count_ = 0;
  unsigned rev_ = 0;
  std::vector<unsigned> log_;
};
""")
        self.assert_clean(self.lint(f))

    def test_validate_before_mutate_is_clean(self) -> None:
        f = self.write("src/graph/sg_val.cpp", """
#include <vector>
class SocialGraph {
 public:
  void add(unsigned v) {
    log_.push_back(v);
    count_ = count_ + 1;
    bump();
  }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned count_ = 0;
  unsigned rev_ = 0;
  std::vector<unsigned> log_;
};
""")
        self.assert_clean(self.lint(f))

    def test_catch_rollback_discharges(self) -> None:
        f = self.write("src/graph/sg_rb2.cpp", """
#include <vector>
class SocialGraph {
 public:
  void add(unsigned v) {
    count_ = count_ + 1;
    try {
      log_.push_back(v);
    } catch (...) {
      count_ = count_ - 1;
      throw;
    }
    bump();
  }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned count_ = 0;
  unsigned rev_ = 0;
  std::vector<unsigned> log_;
};
""")
        proc = self.lint(f)
        self.assertNotIn("EXC-1", proc.stderr + proc.stdout)

    def test_catch_without_rollback_fires(self) -> None:
        f = self.write("src/graph/sg_norb.cpp", """
#include <vector>
class SocialGraph {
 public:
  void add(unsigned v) {
    count_ = count_ + 1;
    try {
      log_.push_back(v);
    } catch (...) {
      dropped_ = dropped_ + 1;
    }
    bump();
  }
 private:
  void bump() { rev_ = rev_ + 1; }
  unsigned count_ = 0;
  unsigned rev_ = 0;
  unsigned dropped_ = 0;
  std::vector<unsigned> log_;
};
""")
        proc = self.lint(f)
        self.assert_fires(proc, "EXC-1")


class ChangedOnlyRenameTests(LintFixtureCase):
    """--changed-only follows git renames: the new path is re-linted."""

    def _git(self, *args: str) -> str:
        proc = subprocess.run(["git", "-C", str(self.root), *args],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_changed_files_follows_renames(self) -> None:
        from stlint.cli import changed_files
        self._git("init", "-q")
        self._git("config", "user.email", "test@example.invalid")
        self._git("config", "user.name", "test")
        # several lines so the one-line edit stays above git's 50%
        # rename-similarity threshold (a fully-rewritten 1-liner would
        # surface as A + D, which is exactly the case we must not hit)
        body = ("int f() {{ return {0}; }}\n"
                "int g() {{ return 10; }}\n"
                "int h() {{ return 20; }}\n"
                "int k() {{ return 30; }}\n")
        self.write("src/core/old_name.cpp", body.format(1))
        self._git("add", "-A")
        self._git("commit", "-q", "-m", "base")
        base = self._git("rev-parse", "HEAD").strip()

        # rename + small edit: shows up as an R0xx row, not A/D
        old = self.root / "src" / "core" / "old_name.cpp"
        new = self.root / "src" / "core" / "new_name.cpp"
        old.rename(new)
        new.write_text(body.format(2), encoding="utf-8")
        self._git("add", "-A")
        self._git("commit", "-q", "-m", "rename")
        status = self._git("diff", "--name-status", "--find-renames", base)
        self.assertIn("R", status.split()[0])

        changed = changed_files(merge_ref=base, repo_root=self.root)
        self.assertIn("src/core/new_name.cpp", changed)
        self.assertNotIn("src/core/old_name.cpp", changed)


class SarifHelpUriTests(LintFixtureCase):
    def test_rules_link_to_catalogue_anchors(self) -> None:
        f = self.write("src/core/bad.cpp", "int f() { return rand(); }\n")
        proc = run_lint("--sarif", str(f))
        doc = json.loads(proc.stdout)
        rules = {r["id"]: r for r in
                 doc["runs"][0]["tool"]["driver"]["rules"]}
        for rule in ("REV-1", "REV-2", "EXC-1"):
            self.assertIn(rule, rules)
            self.assertEqual(rules[rule]["helpUri"],
                             f"docs/STATIC_ANALYSIS.md#{rule.lower()}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
