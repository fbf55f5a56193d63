// TBF rules: the classification + rate policy objects of the NRS-TBF
// scheduler (Lustre's `nrs_tbf_rule`).
//
// A rule pairs a matcher (which RPCs it classifies) with a token rate and a
// rank. Rules live in an ordered list; the first matching rule classifies an
// RPC. AdapTBF's Rule Management Daemon creates one JobID rule per active
// job and retunes its rate every observation window (§III-D).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rpc/rpc.h"

namespace adaptbf {

/// Matches RPCs by any combination of JobID / NID / opcode. Empty vectors
/// act as wildcards (match anything), mirroring Lustre TBF expressions like
/// `jobid={dd.0} & opcode={ost_write}`.
class RpcMatcher {
 public:
  RpcMatcher() = default;  ///< Matches every RPC.

  [[nodiscard]] static RpcMatcher for_job(JobId job);
  [[nodiscard]] static RpcMatcher for_nid(Nid nid);
  [[nodiscard]] static RpcMatcher for_opcode(Opcode op);

  RpcMatcher& add_job(JobId job);
  RpcMatcher& add_nid(Nid nid);
  RpcMatcher& add_opcode(Opcode op);

  [[nodiscard]] bool matches(const Rpc& rpc) const;
  [[nodiscard]] bool is_wildcard() const;
  /// True when the matcher constrains the JobID only: it matches exactly
  /// the RPCs whose job is in jobs(). The scheduler indexes such rules by
  /// job instead of testing them against every arrival.
  [[nodiscard]] bool is_job_only() const {
    return !jobs_.empty() && nids_.empty() && opcodes_.empty();
  }
  [[nodiscard]] const std::vector<JobId>& jobs() const { return jobs_; }

  /// Human-readable expression ("jobid={3} & opcode={ost_write}").
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<JobId> jobs_;
  std::vector<Nid> nids_;
  std::vector<Opcode> opcodes_;
};

/// Immutable identity + mutable tuning of one TBF rule.
struct RuleSpec {
  std::string name;      ///< Unique; rule updates address rules by name.
  RpcMatcher matcher;
  double rate = 1.0;     ///< Tokens (RPCs) per second. Clamped to >= 0.
  double depth = 3.0;    ///< Bucket depth; Lustre default is 3.
  /// Rank orders rules for classification (lower = matched first) and
  /// breaks deadline ties (lower = served first). AdapTBF sets rank from
  /// job priority so idle capacity prefers high-priority queues (§III-D).
  std::int32_t rank = 0;
};

/// Counters the scheduler keeps per rule, exposed for tests and metrics.
struct RuleStats {
  std::uint64_t arrived = 0;   ///< RPCs classified to this rule.
  std::uint64_t served = 0;    ///< RPCs dequeued under this rule.
  std::uint64_t rate_changes = 0;
};

}  // namespace adaptbf
