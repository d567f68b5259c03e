#include "bsp/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/assert.h"
#include "common/failpoint.h"
#include "common/unique_id.h"
#include "graph/section_io.h"

namespace ebv::bsp {
namespace {

namespace fs = std::filesystem;

using io::detail::get_field;
using io::detail::kSectionEndianMarker;
using io::detail::put_field;

// Header field offsets within the 4 KiB header page (docs/FORMATS.md).
constexpr char kMagic[4] = {'E', 'B', 'V', 'C'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderBytes = 4096;

constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffEndian = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffNumWorkers = 16;
constexpr std::size_t kOffSupersteps = 20;
constexpr std::size_t kOffNumVertices = 24;
constexpr std::size_t kOffNumEdges = 32;
constexpr std::size_t kOffTableOffset = 40;
constexpr std::size_t kOffTableBytes = 48;
constexpr std::size_t kOffTotalMessages = 56;
constexpr std::size_t kOffRawMessages = 64;
constexpr std::size_t kOffExecution = 72;
constexpr std::size_t kOffCompSum = 80;
constexpr std::size_t kOffCommSum = 88;
constexpr std::size_t kOffDeltaC = 96;
constexpr std::size_t kOffPeakResident = 104;
constexpr std::size_t kOffNameLen = 108;
constexpr std::size_t kOffName = 112;
constexpr std::size_t kMaxNameBytes = 256;

/// Newest checkpoints kept after a successful publish.
constexpr std::size_t kKeepCheckpoints = 2;

// The steps matrix is checkpointed as raw rows.
static_assert(std::is_trivially_copyable_v<WorkerStepStats> &&
                  sizeof(WorkerStepStats) == 40,
              "EBVC serialises WorkerStepStats rows as raw bytes");

// Per-worker array index within WorkerEntry::off (fixed order; docs).
enum Array : std::size_t {
  kArrValues = 0,
  kArrLastSync = 1,
  kArrUpdated = 2,
  kNumWorkerArrays = 3,
};

struct WorkerEntry {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_updated = 0;
  std::uint64_t off[kNumWorkerArrays] = {};
};
static_assert(sizeof(WorkerEntry) == 40, "EBVC worker table entry layout");

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("EBVC: " + what);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

/// The full file layout, derivable from the counts alone — computed
/// up-front by the writer (so the header is final before any byte is
/// streamed and the trailing checksum covers it unpatched) and
/// recomputed by the reader as the section-boundary validator.
struct Layout {
  std::uint64_t msgs_offset = 0;
  std::uint64_t steps_offset = 0;
  std::vector<WorkerEntry> table;
  std::uint64_t table_offset = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t checksum_offset = 0;  // == file size - 8
};

Layout compute_layout(PartitionId num_workers, std::uint32_t supersteps,
                      const std::vector<WorkerEntry>& counts) {
  Layout layout;
  std::uint64_t off = kHeaderBytes;
  layout.msgs_offset = off;
  off += 8ull * num_workers;
  layout.steps_offset = off;
  off += static_cast<std::uint64_t>(sizeof(WorkerStepStats)) * supersteps *
         num_workers;
  layout.table = counts;
  for (WorkerEntry& e : layout.table) {
    e.off[kArrValues] = off;
    off += 8 * e.num_vertices;
    e.off[kArrLastSync] = off;
    off += 8 * e.num_vertices;
    e.off[kArrUpdated] = off;
    off += align8(4 * e.num_updated);
  }
  layout.table_offset = off;
  layout.table_bytes = static_cast<std::uint64_t>(sizeof(WorkerEntry)) *
                       num_workers;
  off += layout.table_bytes;
  layout.checksum_offset = off;
  return layout;
}

/// Checksummed streaming writer over an ofstream.
class ChecksumWriter {
 public:
  explicit ChecksumWriter(std::ofstream& out) : out_(out) {}

  void put(const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    hash_ = fnv1a64(hash_, data, bytes);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
  }

  /// Write a u32 array followed by the 0/4-byte pad to 8 alignment.
  void put_u32_array(const std::vector<VertexId>& v) {
    put(v.data(), v.size() * 4);
    if (v.size() % 2 != 0) {
      const std::uint32_t zero = 0;
      put(&zero, 4);
    }
  }

  void put_trailing_checksum() {
    const std::uint64_t h = hash_;
    out_.write(reinterpret_cast<const char*>(&h), sizeof h);
  }

 private:
  std::ofstream& out_;
  std::uint64_t hash_ = kFnvBasis;
};

void serialise_to(const std::string& path, const Checkpoint& ckpt,
                  const Layout& layout) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot open for writing (--checkpoint-dir): " + path);
  failpoint::maybe_fail_stream("checkpoint.write", out);

  const PartitionId p = ckpt.num_workers;
  std::vector<char> header(kHeaderBytes, 0);
  std::memcpy(header.data() + kOffMagic, kMagic, sizeof kMagic);
  put_field(header, kOffVersion, kVersion);
  put_field(header, kOffEndian, kSectionEndianMarker);
  put_field(header, kOffHeaderBytes, static_cast<std::uint32_t>(kHeaderBytes));
  put_field(header, kOffNumWorkers, static_cast<std::uint32_t>(p));
  put_field(header, kOffSupersteps, ckpt.completed_supersteps);
  put_field(header, kOffNumVertices,
            static_cast<std::uint64_t>(ckpt.num_global_vertices));
  put_field(header, kOffNumEdges,
            static_cast<std::uint64_t>(ckpt.num_global_edges));
  put_field(header, kOffTableOffset, layout.table_offset);
  put_field(header, kOffTableBytes, layout.table_bytes);
  put_field(header, kOffTotalMessages, ckpt.total_messages);
  put_field(header, kOffRawMessages, ckpt.raw_messages);
  put_field(header, kOffExecution, ckpt.execution_seconds);
  put_field(header, kOffCompSum, ckpt.comp_seconds_sum);
  put_field(header, kOffCommSum, ckpt.comm_seconds_sum);
  put_field(header, kOffDeltaC, ckpt.delta_c_seconds);
  put_field(header, kOffPeakResident, ckpt.peak_resident_workers);
  const std::size_t name_len = std::min(ckpt.program.size(), kMaxNameBytes);
  put_field(header, kOffNameLen, static_cast<std::uint32_t>(name_len));
  if (name_len > 0) {
    std::memcpy(header.data() + kOffName, ckpt.program.data(), name_len);
  }

  ChecksumWriter w(out);
  w.put(header.data(), header.size());
  w.put(ckpt.messages_sent_per_worker.data(), 8ull * p);
  for (const std::vector<WorkerStepStats>& row : ckpt.steps) {
    w.put(row.data(), row.size() * sizeof(WorkerStepStats));
  }
  for (PartitionId i = 0; i < p; ++i) {
    w.put(ckpt.values[i].data(), ckpt.values[i].size() * 8);
    w.put(ckpt.last_sync[i].data(), ckpt.last_sync[i].size() * 8);
    w.put_u32_array(ckpt.updated[i]);
  }
  w.put(layout.table.data(), layout.table.size() * sizeof(WorkerEntry));
  w.put_trailing_checksum();
  out.flush();
  if (!out) fail("write failed (--checkpoint-dir): " + path);
  out.close();
  if (!out) fail("close failed (--checkpoint-dir): " + path);
}

void sync_file(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) fail("cannot reopen for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync failed: " + path);
#else
  (void)path;
#endif
}

void sync_dir(const std::string& dir) {
#ifndef _WIN32
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open directory for fsync: " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("directory fsync failed: " + dir);
#else
  (void)dir;
#endif
}

}  // namespace

std::string checkpoint_file_name(std::uint32_t completed_supersteps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%08u.ebvc", completed_supersteps);
  return buf;
}

std::vector<std::pair<std::uint32_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint32_t, std::string>> found;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return found;
  for (const fs::directory_entry& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::string name = entry.path().filename().string();
    // ckpt-XXXXXXXX.ebvc, exactly 8 digits.
    if (name.size() != 18 || name.rfind("ckpt-", 0) != 0 ||
        name.compare(13, 5, ".ebvc") != 0) {
      continue;
    }
    std::uint32_t step = 0;
    bool digits = true;
    for (std::size_t i = 5; i < 13; ++i) {
      const char c = name[i];
      if (c < '0' || c > '9') {
        digits = false;
        break;
      }
      step = step * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (!digits) continue;
    found.emplace_back(step, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::string write_checkpoint(const std::string& dir, const Checkpoint& ckpt) {
  const PartitionId p = ckpt.num_workers;
  EBV_REQUIRE(p >= 1, "checkpoint needs at least one worker");
  EBV_REQUIRE(ckpt.values.size() == p && ckpt.last_sync.size() == p &&
                  ckpt.updated.size() == p &&
                  ckpt.messages_sent_per_worker.size() == p,
              "checkpoint per-worker arrays must cover every worker");
  EBV_REQUIRE(ckpt.steps.size() == ckpt.completed_supersteps,
              "checkpoint needs one steps row per completed superstep");
  for (const std::vector<WorkerStepStats>& row : ckpt.steps) {
    EBV_REQUIRE(row.size() == p, "steps rows must cover every worker");
  }
  for (PartitionId i = 0; i < p; ++i) {
    EBV_REQUIRE(ckpt.last_sync[i].size() == ckpt.values[i].size(),
                "last_sync must mirror the value array");
  }

  std::vector<WorkerEntry> counts(p);
  for (PartitionId i = 0; i < p; ++i) {
    counts[i].num_vertices = ckpt.values[i].size();
    counts[i].num_updated = ckpt.updated[i].size();
  }
  const Layout layout = compute_layout(p, ckpt.completed_supersteps, counts);

  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string final_path =
      (fs::path(dir) / checkpoint_file_name(ckpt.completed_supersteps))
          .string();

  std::string tmp;
  const auto attempt = [&]() {
    tmp = final_path + ".tmp." + process_unique_suffix();
    serialise_to(tmp, ckpt, layout);
    sync_file(tmp);
    if (failpoint::hit("checkpoint.rename") != failpoint::Action::kNone) {
      fail("rename failed (injected, --checkpoint-dir): " + tmp);
    }
    if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
      fail("rename failed (--checkpoint-dir): " + tmp + " -> " + final_path);
    }
    tmp.clear();
    // Make the publish durable: the rename must hit the directory before
    // older checkpoints become eligible for pruning.
    sync_dir(dir);
  };
  const auto cleanup = [&]() {
    if (!tmp.empty()) {
      std::remove(tmp.c_str());
      tmp.clear();
    }
  };
  failpoint::with_retry(failpoint::RetryPolicy{}, attempt, cleanup);

  // Prune: keep the newest kKeepCheckpoints so the predecessor survives
  // a torn successor. Best-effort (a lost race is not an error).
  const auto published = list_checkpoints(dir);
  if (published.size() > kKeepCheckpoints) {
    for (std::size_t i = 0; i + kKeepCheckpoints < published.size(); ++i) {
      std::error_code rm_ec;
      fs::remove(published[i].second, rm_ec);
    }
  }
  return final_path;
}

Checkpoint read_checkpoint_file(const std::string& path) {
  if (failpoint::hit("checkpoint.read") == failpoint::Action::kShortRead) {
    fail("short read (injected): " + path);
  }
  const io::detail::MappedFile file(path);
  const std::byte* base = file.data();
  const std::size_t size = file.size();

  if (size < kHeaderBytes + 8) fail("file shorter than header + checksum");
  // Checksum FIRST: everything after this point may trust the bytes to
  // be exactly what one serialise_to() call produced (a torn or
  // bit-flipped file never reaches the structural checks below).
  std::uint64_t stored = 0;
  std::memcpy(&stored, base + size - 8, 8);
  if (fnv1a64(kFnvBasis, base, size - 8) != stored) {
    fail("checksum mismatch (torn or corrupt write): " + path);
  }

  io::detail::check_header_prologue(base, size, kMagic, kVersion, "EBVC");

  Checkpoint ckpt;
  const auto p = get_field<std::uint32_t>(base, kOffNumWorkers);
  if (p == 0) fail("zero workers");
  ckpt.num_workers = p;
  ckpt.completed_supersteps = get_field<std::uint32_t>(base, kOffSupersteps);
  const auto v64 = get_field<std::uint64_t>(base, kOffNumVertices);
  if (v64 >= kInvalidVertex) fail("vertex count exceeds 32-bit id space");
  ckpt.num_global_vertices = static_cast<VertexId>(v64);
  ckpt.num_global_edges = get_field<std::uint64_t>(base, kOffNumEdges);
  ckpt.total_messages = get_field<std::uint64_t>(base, kOffTotalMessages);
  ckpt.raw_messages = get_field<std::uint64_t>(base, kOffRawMessages);
  ckpt.execution_seconds = get_field<double>(base, kOffExecution);
  ckpt.comp_seconds_sum = get_field<double>(base, kOffCompSum);
  ckpt.comm_seconds_sum = get_field<double>(base, kOffCommSum);
  ckpt.delta_c_seconds = get_field<double>(base, kOffDeltaC);
  ckpt.peak_resident_workers =
      get_field<std::uint32_t>(base, kOffPeakResident);
  const auto name_len = get_field<std::uint32_t>(base, kOffNameLen);
  if (name_len > kMaxNameBytes) fail("program name exceeds the header");
  ckpt.program.assign(reinterpret_cast<const char*>(base) + kOffName,
                      name_len);

  // Counts are bounded by the file size BEFORE any size arithmetic so a
  // hostile header cannot wrap the layout products (same rule as EBVW).
  const std::uint64_t budget = size;
  if (static_cast<std::uint64_t>(p) > budget / sizeof(WorkerEntry)) {
    fail("worker count exceeds the file");
  }
  if (static_cast<std::uint64_t>(ckpt.completed_supersteps) >
      budget / sizeof(WorkerStepStats) / p) {
    fail("superstep count exceeds the file");
  }

  const auto table_offset = get_field<std::uint64_t>(base, kOffTableOffset);
  const auto table_bytes = get_field<std::uint64_t>(base, kOffTableBytes);
  if (table_bytes !=
      static_cast<std::uint64_t>(p) * sizeof(WorkerEntry)) {
    fail("worker table has wrong length");
  }
  if (table_offset % 8 != 0 || table_offset < kHeaderBytes ||
      table_offset > size || size - table_offset < table_bytes + 8) {
    fail("worker table exceeds the file (truncated?)");
  }
  std::vector<WorkerEntry> table(p);
  std::memcpy(table.data(), base + table_offset,
              static_cast<std::size_t>(table_bytes));
  for (const WorkerEntry& e : table) {
    if (e.num_vertices > budget / 8 || e.num_updated > budget / 4) {
      fail("worker array count exceeds the file");
    }
  }

  // The layout is a pure function of the counts; recomputing it and
  // demanding an exact match validates every section boundary at once.
  const Layout layout = compute_layout(p, ckpt.completed_supersteps, table);
  if (layout.checksum_offset + 8 != size) {
    fail("file length does not match the layout (truncated?)");
  }
  if (layout.table_offset != table_offset) {
    fail("worker table offset does not match the layout");
  }
  for (PartitionId i = 0; i < p; ++i) {
    if (std::memcmp(layout.table[i].off, table[i].off,
                    sizeof table[i].off) != 0) {
      fail("worker section offsets do not match the layout");
    }
  }

  ckpt.messages_sent_per_worker.resize(p);
  std::memcpy(ckpt.messages_sent_per_worker.data(),
              base + layout.msgs_offset, 8ull * p);
  ckpt.steps.resize(ckpt.completed_supersteps);
  const std::byte* steps_at = base + layout.steps_offset;
  for (std::vector<WorkerStepStats>& row : ckpt.steps) {
    row.resize(p);
    std::memcpy(row.data(), steps_at, p * sizeof(WorkerStepStats));
    steps_at += p * sizeof(WorkerStepStats);
  }

  ckpt.values.resize(p);
  ckpt.last_sync.resize(p);
  ckpt.updated.resize(p);
  for (PartitionId i = 0; i < p; ++i) {
    const WorkerEntry& e = table[i];
    const auto nv = static_cast<std::size_t>(e.num_vertices);
    const auto* values =
        reinterpret_cast<const Value*>(base + e.off[kArrValues]);
    ckpt.values[i].assign(values, values + nv);
    const auto* sync =
        reinterpret_cast<const Value*>(base + e.off[kArrLastSync]);
    ckpt.last_sync[i].assign(sync, sync + nv);
    const auto* updated =
        reinterpret_cast<const VertexId*>(base + e.off[kArrUpdated]);
    ckpt.updated[i].assign(updated,
                           updated + static_cast<std::size_t>(e.num_updated));
    for (const VertexId lv : ckpt.updated[i]) {
      if (lv >= e.num_vertices) fail("frontier vertex out of range");
    }
  }
  return ckpt;
}

std::optional<Checkpoint> load_latest_checkpoint(const std::string& dir) {
  const auto published = list_checkpoints(dir);
  for (auto it = published.rbegin(); it != published.rend(); ++it) {
    try {
      return read_checkpoint_file(it->second);
    } catch (const std::exception&) {
      // Torn or corrupt: fall back to the predecessor.
    }
  }
  return std::nullopt;
}

}  // namespace ebv::bsp
