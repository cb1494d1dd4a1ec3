#pragma once
// Shared command-line parsing for bench/example binaries.
//
// Every experiment binary accepts the same core switches:
//   --seed <u64>     base RNG seed (default 42)
//   --runs <n>       independent repetitions (default 5, as in the paper)
//   --csv <dir>      also write each table as CSV into <dir>
//   --quiet          suppress INFO logging
// plus binary-specific flags accessed via get_* helpers.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace st::util {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, std::string def) const;
  /// Numeric flags: `def` when the flag is absent or has no value.
  /// Otherwise the whole value must parse (base 10 for the integer
  /// getters) and fit the type — get_u64 rejects a minus sign, and
  /// get_double rejects inf/nan — or std::invalid_argument naming the
  /// flag and its value is thrown.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t def) const;
  double get_double(const std::string& name, double def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace st::util
