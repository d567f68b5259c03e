#include "common/stale_sweep.h"

#include <cctype>
#include <cstdlib>
#include <filesystem>

#ifndef _WIN32
#include <cerrno>
#include <signal.h>
#endif

namespace ebv {

namespace {

namespace fs = std::filesystem;

/// Parse a process_unique_suffix() token ("<pid>-<n>", both decimal);
/// returns the pid or nullopt.
std::optional<long> parse_suffix_token(const std::string& token) {
  const std::size_t dash = token.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= token.size()) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (i == dash) continue;
    if (std::isdigit(static_cast<unsigned char>(token[i])) == 0) {
      return std::nullopt;
    }
  }
  // ebvlint: allow(naked-number-parse): every character was validated
  // as a digit above, so partial-consumption truncation cannot happen.
  return std::strtol(token.c_str(), nullptr, 10);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::optional<long> temp_file_owner_pid(const std::string& file_name) {
  // Worker spill snapshot: ebv-workers.<pid>-<n>.ebvw
  if (file_name.rfind("ebv-workers.", 0) == 0 &&
      ends_with(file_name, ".ebvw")) {
    const std::size_t start = std::string("ebv-workers.").size();
    const std::size_t end = file_name.size() - std::string(".ebvw").size();
    if (end <= start) return std::nullopt;
    return parse_suffix_token(file_name.substr(start, end - start));
  }
  // Checkpoint temp: <ckpt>.ebvc.tmp.<pid>-<n>
  const std::size_t ebvc_tmp = file_name.find(".ebvc.tmp.");
  if (ebvc_tmp != std::string::npos) {
    const std::size_t start = ebvc_tmp + std::string(".ebvc.tmp.").size();
    return parse_suffix_token(file_name.substr(start));
  }
  // Serve daemon socket: ebv-serve.<pid>-<n>.sock
  if (file_name.rfind("ebv-serve.", 0) == 0 && ends_with(file_name, ".sock")) {
    const std::size_t start = std::string("ebv-serve.").size();
    const std::size_t end = file_name.size() - std::string(".sock").size();
    if (end <= start) return std::nullopt;
    return parse_suffix_token(file_name.substr(start, end - start));
  }
  // Weight spool: <out>.wspool.<pid>-<n>.tmp
  if (ends_with(file_name, ".tmp") &&
      file_name.find(".wspool.") != std::string::npos) {
    const std::string stem =
        file_name.substr(0, file_name.size() - std::string(".tmp").size());
    const std::size_t dot = stem.rfind('.');
    if (dot == std::string::npos) return std::nullopt;
    return parse_suffix_token(stem.substr(dot + 1));
  }
  // Converter run file: <out>.run<k>.<pid>-<n>.tmp
  if (ends_with(file_name, ".tmp") && file_name.find(".run") != std::string::npos) {
    const std::string stem =
        file_name.substr(0, file_name.size() - std::string(".tmp").size());
    const std::size_t dot = stem.rfind('.');
    if (dot == std::string::npos) return std::nullopt;
    return parse_suffix_token(stem.substr(dot + 1));
  }
  return std::nullopt;
}

bool process_alive(long pid) {
#ifdef _WIN32
  (void)pid;
  return true;
#else
  if (pid <= 0) return true;  // malformed token: do not touch the file
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno != ESRCH;
#endif
}

std::size_t sweep_stale_temp_files(const std::string& dir) {
  std::size_t removed = 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  for (const fs::directory_entry& entry : it) {
    std::error_code entry_ec;
    // Daemon sockets (ebv-serve.*.sock) are socket inodes, not regular
    // files — admit both; every other shape only ever matches a file.
    const bool regular = entry.is_regular_file(entry_ec) && !entry_ec;
    std::error_code sock_ec;
    const bool socket = entry.is_socket(sock_ec) && !sock_ec;
    if (!regular && !socket) continue;
    const std::optional<long> pid =
        temp_file_owner_pid(entry.path().filename().string());
    if (!pid.has_value() || process_alive(*pid)) continue;
    if (fs::remove(entry.path(), entry_ec) && !entry_ec) ++removed;
  }
  return removed;
}

}  // namespace ebv
