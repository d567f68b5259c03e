// `--flag value` argument parsing shared by the ebvpart CLI (and unit
// tested in tests/cli_args_test.cpp).
//
// The numeric parsers validate the FULL string and name the offending
// flag in every error: bare std::stoul would accept trailing junk
// ("--parts 8x" silently became 8) and throw a bare std::invalid_argument
// with no hint of which flag was malformed.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace ebv::cli {

using ArgMap = std::map<std::string, std::string>;

/// Parse `argv[first..]` as `--flag value` pairs. Throws
/// std::invalid_argument for a non-flag token or a trailing flag with no
/// value (which the old parser dropped silently). Repeated flags keep the
/// last value.
ArgMap parse_args(int argc, char** argv, int first);

/// Throws std::invalid_argument ("unknown flag --X for 'verb'") when
/// `args` holds a flag that ebvpart's `verb` does not read. Each verb's
/// flags are listed once, in cli_args.cpp; every verb also takes the
/// global --failpoints. A verb the list does not name is left to the
/// caller, which prints the usage.
void check_flags(const std::string& verb, const ArgMap& args);

/// Value of --key, or `fallback` when absent and non-empty; throws
/// std::invalid_argument naming the flag when absent with no fallback.
std::string get(const ArgMap& args, const std::string& key,
                const std::string& fallback = "");

/// Full-string decimal parse of an unsigned flag value: every character
/// must be a digit and the result must fit `max_value`. Throws
/// std::invalid_argument with a message naming `--<flag>` otherwise.
std::uint64_t parse_uint(
    const std::string& flag, const std::string& value,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

/// parse_uint over the flag's value in `args` (or `fallback` when absent).
std::uint64_t get_uint(
    const ArgMap& args, const std::string& key, const std::string& fallback,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

/// Full-string parse of a floating-point flag value; same error contract
/// as parse_uint ("1.5x" and "" are rejected, the flag is named).
double parse_double(const std::string& flag, const std::string& value);

/// parse_double over the flag's value in `args` (or `fallback` when absent).
double get_double(const ArgMap& args, const std::string& key,
                  const std::string& fallback);

}  // namespace ebv::cli
