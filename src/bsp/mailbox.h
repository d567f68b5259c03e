// Destination inbox for the BSP runtime's replica-synchronisation
// messages (extracted from runtime.cpp when the task-graph scheduler
// made it a shared component).
//
// SpillMailbox<T> is a single-owner mailbox: messages accumulate in
// append order; under a bounded residency budget the destination worker
// may not be materialised until a later phase, so an inbox that
// outgrows its in-memory cap flushes to an append-only spill file
// (oldest prefix on disk, newest suffix in memory — drain() replays the
// file first, preserving append order exactly). With no spill path
// configured it is a plain vector. It takes no lock: the runtime's
// ordering chains give every push, drain and buffer() rewrite exclusive
// access (docs/ARCHITECTURE.md, "The task-graph superstep scheduler").
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace ebv::bsp {

template <typename T>
class SpillMailbox {
  static_assert(std::is_trivially_copyable_v<T>,
                "spilled messages are written as raw bytes");

 public:
  /// `path` empty disables file overflow; `cap` is the in-memory bound.
  void configure(std::string path, std::uint64_t cap) {
    path_ = std::move(path);
    cap_ = std::max<std::uint64_t>(cap, 1);
  }

  void push(const T& msg) {
    buf_.push_back(msg);
    if (!path_.empty() && buf_.size() >= cap_) flush();
  }

  /// Direct access to the in-memory tail (message combining rewrites
  /// pending values in place; combining mailboxes never flush, so the
  /// recorded indices stay valid for the whole superstep).
  [[nodiscard]] std::vector<T>& buffer() { return buf_; }

  template <typename Fn>
  void drain(Fn&& fn) {
    if (spilled_ > 0) {
      const obs::trace::Span span("mailbox.drain", spilled_);
      out_.flush();
      if (!out_) fail_io("flush");
      out_.close();
      std::ifstream in(path_, std::ios::binary);
      if (!in) fail_io("reopen");
      std::vector<T> chunk;
      std::uint64_t remaining = spilled_;
      while (remaining > 0) {
        chunk.resize(static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, 1u << 14)));
        failpoint::maybe_fail_stream("mailbox.read", in);
        in.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size() * sizeof(T)));
        if (!in) fail_io("read");
        for (const T& msg : chunk) fn(msg);
        remaining -= chunk.size();
      }
      in.close();
      std::remove(path_.c_str());
      created_ = false;
      spilled_ = 0;
    }
    for (const T& msg : buf_) fn(msg);
    buf_.clear();
  }

  /// Peek every held message in append order (spilled prefix, then the
  /// in-memory tail) WITHOUT consuming — the checkpoint writer's view of
  /// undrained state. The spill file stays open and append-able.
  template <typename Fn>
  void for_each(Fn&& fn) {
    if (spilled_ > 0) {
      out_.flush();
      if (!out_) fail_io("flush");
      std::ifstream in(path_, std::ios::binary);
      if (!in) fail_io("reopen");
      std::vector<T> chunk;
      std::uint64_t remaining = spilled_;
      while (remaining > 0) {
        chunk.resize(static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, 1u << 14)));
        failpoint::maybe_fail_stream("mailbox.read", in);
        in.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size() * sizeof(T)));
        if (!in) fail_io("read");
        for (const T& msg : chunk) fn(msg);
        remaining -= chunk.size();
      }
    }
    for (const T& msg : buf_) fn(msg);
  }

  ~SpillMailbox() {
    if (created_) {
      out_.close();
      std::remove(path_.c_str());
    }
  }

 private:
  void flush() {
    const obs::trace::Span span("mailbox.spill", buf_.size());
    if (!out_.is_open()) {
      out_.open(path_, std::ios::binary | std::ios::trunc);
      // The file may exist even when open fails half-way; from here on
      // the overflow file is ours to reclaim whatever happens.
      created_ = true;
      if (!out_) fail_io("open");
    }
    failpoint::maybe_fail_stream("mailbox.append", out_);
    out_.write(reinterpret_cast<const char*>(buf_.data()),
               static_cast<std::streamsize>(buf_.size() * sizeof(T)));
    if (!out_) fail_io("append");
    spilled_ += buf_.size();
    buf_.clear();
  }

  /// Surface the failure with the controlling flag and the path, and
  /// remove the partial overflow file first — an aborted mailbox never
  /// leaves state behind (ISSUE 7's never-partial guarantee).
  [[noreturn]] void fail_io(const char* what) {
    if (created_) {
      out_.close();
      std::remove(path_.c_str());
      created_ = false;
      spilled_ = 0;
    }
    throw std::runtime_error(std::string("mailbox spill (--spill-dir): ") +
                             what + " failed: " + path_);
  }

  std::vector<T> buf_;
  std::string path_;
  std::uint64_t cap_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t spilled_ = 0;
  bool created_ = false;
  std::ofstream out_;
};

}  // namespace ebv::bsp
