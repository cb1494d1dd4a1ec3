#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace st::util {

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* why) {
  throw std::invalid_argument("--" + name + " '" + value + "': " + why);
}

/// Runs a strto*-style `parse` over the whole of `value`: trailing
/// characters (or no digits at all) and ERANGE are errors, not the
/// silent prefix or clamp strto* would return.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& value,
                 Parse parse) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const auto parsed = parse(begin, &end);
  if (end == begin || *end != '\0') reject(name, value, "not a number");
  if (errno == ERANGE) reject(name, value, "out of range");
  return parsed;
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      std::string value;
      auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      flags_[name] = value;
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name, std::string def) const {
  auto v = get(name);
  return v && !v->empty() ? *v : std::move(def);
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  return parse_whole(name, *v, [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

std::uint64_t CliArgs::get_u64(const std::string& name,
                               std::uint64_t def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  // strtoull negates a leading '-' modulo 2^64 instead of failing.
  const std::size_t first = v->find_first_not_of(" \t\n\v\f\r");
  if (first != std::string::npos && (*v)[first] == '-') {
    reject(name, *v, "negative value for an unsigned flag");
  }
  return parse_whole(name, *v, [](const char* s, char** end) {
    return std::strtoull(s, end, 10);
  });
}

double CliArgs::get_double(const std::string& name, double def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  const double parsed = parse_whole(
      name, *v, [](const char* s, char** end) { return std::strtod(s, end); });
  if (!std::isfinite(parsed)) reject(name, *v, "out of range");
  return parsed;
}

}  // namespace st::util
