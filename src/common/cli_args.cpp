#include "common/cli_args.h"

#include <cstring>
#include <set>
#include <stdexcept>

namespace ebv::cli {
namespace {

/// The flags each ebvpart verb reads, besides the global --failpoints.
const std::map<std::string, std::set<std::string>>& verb_flags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"generate",
       {"family", "vertices", "edges", "eta", "seed", "side", "attach",
        "out"}},
      {"convert",
       {"in", "out", "budget-mb", "threads", "dedup", "keep-self-loops",
        "tmp", "trace"}},
      {"stats", {"graph", "mmap", "deep"}},
      {"partition",
       {"graph", "mmap", "algo", "parts", "alpha", "beta", "order", "seed",
        "threads", "batch", "out", "trace"}},
      {"run",
       {"graph", "mmap", "partition", "algo", "parts", "app", "threads",
        "resident-workers", "spill-dir", "combine", "prefetch",
        "checkpoint-dir", "checkpoint-every", "resume", "trace",
        "phase-stats"}},
      {"serve",
       {"mmap", "partition", "socket", "workers", "queues", "max-sessions",
        "neighbor-limit", "max-run-parts", "duration"}},
      {"query",
       {"socket", "op", "graph-index", "vertices", "edges", "source", "hops",
        "limit", "app", "parts", "algo", "kind", "count"}},
  };
  return flags;
}

}  // namespace

ArgMap parse_args(int argc, char** argv, int first) {
  ArgMap args;
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::invalid_argument(std::string("expected --flag, got ") +
                                  argv[i]);
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

void check_flags(const std::string& verb, const ArgMap& args) {
  const auto known = verb_flags().find(verb);
  if (known == verb_flags().end()) return;
  for (const auto& [flag, value] : args) {
    if (flag != "failpoints" && known->second.count(flag) == 0) {
      throw std::invalid_argument("unknown flag --" + flag + " for '" +
                                  verb + "'");
    }
  }
}

std::string get(const ArgMap& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  if (it != args.end()) return it->second;
  if (!fallback.empty()) return fallback;
  throw std::invalid_argument("missing required --" + key);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value,
                         std::uint64_t max_value) {
  if (value.empty()) {
    throw std::invalid_argument("--" + flag +
                                ": expected a non-negative integer, got ''");
  }
  std::uint64_t result = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("--" + flag +
                                  ": expected a non-negative integer, got '" +
                                  value + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (result > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument("--" + flag + ": value '" + value +
                                  "' is out of range");
    }
    result = result * 10 + digit;
  }
  if (result > max_value) {
    throw std::invalid_argument("--" + flag + ": value '" + value +
                                "' exceeds the maximum " +
                                std::to_string(max_value));
  }
  return result;
}

std::uint64_t get_uint(const ArgMap& args, const std::string& key,
                       const std::string& fallback, std::uint64_t max_value) {
  return parse_uint(key, get(args, key, fallback), max_value);
}

double parse_double(const std::string& flag, const std::string& value) {
  if (value.empty()) {
    throw std::invalid_argument("--" + flag + ": expected a number, got ''");
  }
  std::size_t consumed = 0;
  double result = 0.0;
  try {
    result = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + flag + ": expected a number, got '" +
                                value + "'");
  }
  if (consumed != value.size()) {
    throw std::invalid_argument("--" + flag + ": expected a number, got '" +
                                value + "'");
  }
  return result;
}

double get_double(const ArgMap& args, const std::string& key,
                  const std::string& fallback) {
  return parse_double(key, get(args, key, fallback));
}

}  // namespace ebv::cli
