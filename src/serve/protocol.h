// EBVQ wire protocol for `ebvpart serve` / `ebvpart query`: framed,
// length-prefixed, versioned little-endian messages over a stream socket.
//
// Every message — request or response — is one frame: a fixed 24-byte
// header followed by `body_len` payload bytes (byte-level spec in
// docs/SERVE.md, same style as docs/FORMATS.md):
//
//   | offset | size | field                                       |
//   | ------ | ---- | ------------------------------------------- |
//   | 0      | u32  | magic "EBVQ" (45 42 56 51)                  |
//   | 4      | u16  | version, currently 1                        |
//   | 6      | u16  | type (MsgType)                              |
//   | 8      | u16  | status (Status; 0 = kOk in every request)   |
//   | 10     | u16  | reserved, must be 0                         |
//   | 12     | u32  | body_len                                    |
//   | 16     | u64  | request_id (echoed verbatim in the response)|
//
// Responses echo the request's type and request_id; a non-kOk status
// carries a flag-named error message ("error: ...") as the body. The
// reader side follows the same bounded-read discipline as
// common/binary_io.h: a hostile body_len is rejected against a hard cap
// BEFORE any allocation or read, truncation is detected at EOF, and a
// frame with bad magic/version is answered with an error frame and the
// connection closed — never an OOM, never a crash.
//
// Payload encoding is explicit little-endian field-by-field (no struct
// punning), shared by the server handlers and the client, so the two
// sides cannot drift.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace ebv::serve {

inline constexpr std::uint32_t kFrameMagic = 0x51564245u;  // "EBVQ"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// Hard caps enforced by the frame reader before any allocation. A
/// request is small (batched ids); responses carry rendered tables and
/// neighborhoods, so they get more headroom.
inline constexpr std::uint32_t kMaxRequestBody = 1u << 20;    // 1 MiB
inline constexpr std::uint32_t kMaxResponseBody = 16u << 20;  // 16 MiB

/// Batch/readback bounds validated by the payload decoders.
inline constexpr std::uint32_t kMaxBatch = 65'536;
inline constexpr std::uint32_t kMaxHops = 64;
inline constexpr std::uint32_t kMaxNeighborhood = 1u << 20;

/// Message types. Responses reuse the request's type; direction is
/// positional (client writes requests, server writes responses).
enum class MsgType : std::uint16_t {
  kPing = 0,       // health check; empty body both ways, never queued
  kStats = 1,      // graph stats table (byte-identical to `stats --mmap`)
  kDegree = 2,     // batched out/in-degree lookup
  kNeighbors = 3,  // bounded k-hop neighborhood (forward BFS)
  kPartition = 4,  // batched edge -> part lookup from the .ebvp
  kReplicas = 5,   // batched vertex -> master + replica parts lookup
  kRun = 6,        // per-request BSP app on the snapshot (or a subgraph)
  kMetrics = 7,    // live metrics report (rendered text); never queued
};

enum class Status : std::uint16_t {
  kOk = 0,
  kOverloaded = 1,    // request class at its queue depth; retry later
  kBadRequest = 2,    // malformed frame/payload or out-of-range operand
  kShuttingDown = 3,  // server is draining; no new work accepted
  kInternalError = 4,
};

/// Admission-control classes: each has an independent depth limit on its
/// share of the server's one admission queue, so an expensive class
/// (kRun) at its limit cannot crowd the cheap lookup classes out of
/// admission. kPartition/kReplicas share the router-lookup class.
enum class RequestClass : std::uint8_t {
  kStats = 0,
  kDegree = 1,
  kNeighbors = 2,
  kLookup = 3,
  kRun = 4,
};
inline constexpr std::size_t kNumClasses = 5;

[[nodiscard]] const char* msg_type_name(MsgType type);
[[nodiscard]] const char* status_name(Status status);
[[nodiscard]] const char* class_name(RequestClass cls);

/// Admission class of a queued message type; throws ProtocolError for
/// kPing (answered inline by the session, never queued) and for unknown
/// types.
[[nodiscard]] RequestClass class_of(MsgType type);
[[nodiscard]] bool is_known_type(std::uint16_t type);

/// Raised by every payload decoder on malformed input (truncated body,
/// zero-length or over-limit batch, trailing bytes). The server answers
/// with Status::kBadRequest and the flag-named message.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint16_t status = 0;
  std::uint16_t reserved = 0;
  std::uint32_t body_len = 0;
  std::uint64_t request_id = 0;
};

void encode_frame_header(const FrameHeader& header,
                         unsigned char out[kFrameHeaderBytes]);
[[nodiscard]] FrameHeader decode_frame_header(
    const unsigned char in[kFrameHeaderBytes]);

// --- Payload buffer helpers -------------------------------------------------

/// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) string.
  void str(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounded little-endian payload reader: every accessor throws
/// ProtocolError on truncation; expect_end() rejects trailing bytes so a
/// decoder consumes its body exactly.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> body) : body_(body) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  /// Length-prefixed (u32) string, capped at `max_len`.
  [[nodiscard]] std::string str(std::uint32_t max_len);
  [[nodiscard]] std::size_t remaining() const { return body_.size() - pos_; }
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> body_;
  std::size_t pos_ = 0;
};

// --- Request payloads -------------------------------------------------------

/// Every request names the target snapshot by its index in the server's
/// `--mmap` list (0 for single-snapshot deployments).
struct StatsRequest {
  std::uint32_t graph_index = 0;
};

struct DegreeRequest {
  std::uint32_t graph_index = 0;
  std::vector<VertexId> vertices;  // 1..kMaxBatch entries
};

struct NeighborsRequest {
  std::uint32_t graph_index = 0;
  VertexId source = 0;
  std::uint32_t hops = 1;   // 1..kMaxHops
  std::uint32_t limit = 0;  // max vertices returned; 0 picks server default
};

struct PartitionRequest {
  std::uint32_t graph_index = 0;
  std::vector<EdgeId> edges;  // 1..kMaxBatch entries
};

struct ReplicasRequest {
  std::uint32_t graph_index = 0;
  std::vector<VertexId> vertices;  // 1..kMaxBatch entries
};

/// Per-request analytics: partition the snapshot (or the `hops`-bounded
/// subgraph around `source`) with `algo` into `parts` workers and run the
/// app; the response body is the rendered run table — byte-identical to
/// `ebvpart run --mmap <snapshot> --algo <algo> --parts <parts> --app
/// <app>` when hops == 0.
struct RunRequest {
  std::uint32_t graph_index = 0;
  std::uint8_t app = 0;  // 0 = cc, 1 = pr, 2 = sssp
  std::uint32_t parts = 8;
  VertexId source = 0;    // SSSP source / subgraph seed (hops > 0)
  std::uint32_t hops = 0; // 0 = whole snapshot, else k-hop bounded subgraph
  std::string algo = "ebv";
};

std::vector<std::uint8_t> encode_stats_request(const StatsRequest& req);
std::vector<std::uint8_t> encode_degree_request(const DegreeRequest& req);
std::vector<std::uint8_t> encode_neighbors_request(const NeighborsRequest& req);
std::vector<std::uint8_t> encode_partition_request(const PartitionRequest& req);
std::vector<std::uint8_t> encode_replicas_request(const ReplicasRequest& req);
std::vector<std::uint8_t> encode_run_request(const RunRequest& req);

/// Decoders validate structure only (batch in [1, kMaxBatch], hops in
/// [1, kMaxHops], exact body consumption); range checks against the
/// actual graph happen in the handlers. All throw ProtocolError.
StatsRequest decode_stats_request(std::span<const std::uint8_t> body);
DegreeRequest decode_degree_request(std::span<const std::uint8_t> body);
NeighborsRequest decode_neighbors_request(std::span<const std::uint8_t> body);
PartitionRequest decode_partition_request(std::span<const std::uint8_t> body);
ReplicasRequest decode_replicas_request(std::span<const std::uint8_t> body);
RunRequest decode_run_request(std::span<const std::uint8_t> body);

// --- Response payloads ------------------------------------------------------

struct DegreeInfo {
  std::uint32_t out_degree = 0;
  std::uint32_t in_degree = 0;
};

struct NeighborsResponse {
  bool truncated = false;          // hit the vertex limit before exhausting
  std::vector<VertexId> vertices;  // ascending, includes the source
};

struct ReplicaInfo {
  PartitionId master = kInvalidPartition;
  std::vector<PartitionId> parts;  // ascending; empty for uncovered vertices
};

std::vector<std::uint8_t> encode_degree_response(
    std::span<const DegreeInfo> degrees);
std::vector<std::uint8_t> encode_neighbors_response(
    const NeighborsResponse& resp);
std::vector<std::uint8_t> encode_partition_response(
    std::span<const PartitionId> parts);
std::vector<std::uint8_t> encode_replicas_response(
    std::span<const ReplicaInfo> replicas);

std::vector<DegreeInfo> decode_degree_response(
    std::span<const std::uint8_t> body);
NeighborsResponse decode_neighbors_response(std::span<const std::uint8_t> body);
std::vector<PartitionId> decode_partition_response(
    std::span<const std::uint8_t> body);
std::vector<ReplicaInfo> decode_replicas_response(
    std::span<const std::uint8_t> body);

// --- Socket frame I/O (POSIX) -----------------------------------------------

/// Write one frame (header + body), looping over partial writes; SIGPIPE
/// is suppressed per-call (MSG_NOSIGNAL). Returns false when the peer is
/// gone or the descriptor errors — callers treat that as a dead session.
bool write_frame(int fd, MsgType type, Status status, std::uint64_t request_id,
                 std::span<const std::uint8_t> body);

enum class ReadOutcome {
  kFrame,      // a complete, structurally valid frame was read
  kEof,        // clean close at a frame boundary
  kMalformed,  // bad magic/version/reserved or oversized body_len; the
               // body was NOT read (it cannot be trusted) — answer an
               // error frame, then close
  kError,      // truncated header/body or I/O error — close silently
};

struct ReadFrameResult {
  ReadOutcome outcome = ReadOutcome::kError;
  FrameHeader header;
  std::vector<std::uint8_t> body;
  std::string error;  // human-readable detail for kMalformed/kError
};

/// Read one frame with the bounded-read discipline described above:
/// body_len is checked against `max_body` BEFORE any body allocation.
ReadFrameResult read_frame(int fd, std::uint32_t max_body);

/// Connect to a unix-domain socket. Returns the fd; throws
/// std::runtime_error (with errno detail) on failure.
int connect_unix(const std::string& socket_path);

}  // namespace ebv::serve
