// RPC model mirroring the Lustre PtlRPC requests that NRS-TBF schedules.
//
// The paper's TBF rules classify RPCs by JobID, NID (client network id) or
// opcode; we carry all three so rule matching behaves like the real NRS.
// 1 RPC = 1 token (the paper's convention in §IV-F).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.h"

namespace adaptbf {

/// Lustre JobID ("%e.%H" in the paper: executable.hostname). We keep it a
/// small integer id plus a human-readable name for rule matching/printing.
class JobId {
 public:
  constexpr JobId() = default;
  explicit constexpr JobId(std::uint32_t v) : value_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  constexpr auto operator<=>(const JobId&) const = default;

  static constexpr std::uint32_t kInvalid = UINT32_MAX;

 private:
  std::uint32_t value_ = kInvalid;
};

/// Client network identifier (in real Lustre, "10.0.0.1@tcp").
class Nid {
 public:
  constexpr Nid() = default;
  explicit constexpr Nid(std::uint32_t v) : value_(v) {}
  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  constexpr auto operator<=>(const Nid&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// Subset of PtlRPC opcodes relevant to OST bandwidth control.
enum class Opcode : std::uint8_t {
  kOstRead = 0,
  kOstWrite = 1,
  kOstPunch = 2,
  kOstSync = 3,
};

[[nodiscard]] std::string_view to_string(Opcode op);

/// Access locality of the payload, used by the disk model. The paper's
/// motivating example is a job issuing "numerous small, random writes".
enum class Locality : std::uint8_t { kSequential = 0, kRandom = 1 };

/// One bulk I/O request as seen by the OST scheduler.
struct Rpc {
  std::uint64_t id = 0;        ///< Globally unique, assigned at issue time.
  JobId job;                   ///< Owning job (rule classification key).
  Nid nid;                     ///< Issuing client node.
  Opcode opcode = Opcode::kOstWrite;
  Locality locality = Locality::kSequential;
  std::uint32_t size_bytes = 0;  ///< Bulk payload size (1 MiB typical).
  SimTime issue_time;            ///< When the client handed it to the server.
  std::uint32_t process = 0;     ///< Issuing process index within the job.
  /// Issuing process's index in its ClientSystem, which routes the
  /// completion back by it.
  std::uint32_t route = 0;
};

/// Completion record the OST reports to metrics and back to the client.
struct RpcCompletion {
  Rpc rpc;
  SimTime start_service;  ///< When an I/O thread picked it up.
  SimTime end_service;    ///< When the bulk transfer finished.

  [[nodiscard]] SimDuration queue_delay() const {
    return start_service - rpc.issue_time;
  }
  [[nodiscard]] SimDuration service_time() const {
    return end_service - start_service;
  }
  [[nodiscard]] SimDuration latency() const {
    return end_service - rpc.issue_time;
  }
};

}  // namespace adaptbf

template <>
struct std::hash<adaptbf::JobId> {
  std::size_t operator()(const adaptbf::JobId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

template <>
struct std::hash<adaptbf::Nid> {
  std::size_t operator()(const adaptbf::Nid& nid) const noexcept {
    return std::hash<std::uint32_t>{}(nid.value());
  }
};
