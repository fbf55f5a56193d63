// Classification equivalence: the scheduler's indexed classification
// (exact-job index plus residual rule list) must pick the same rule as the
// brute-force definition — scan the active rules in start order and keep
// the first with the strictly lowest rank — under random rule churn.
//
// A reference model tracks the active rules, each job's queue (its bound
// rule and pending RPC ids) and the fallback queue. Every arrival checks
// the chosen rule through rule_stats().arrived and the queue it landed in;
// every dequeue checks that the RPC comes off the front of the queue the
// model holds it in and is credited (rule_stats().served) to that queue's
// rule. Names come from a small pool, so rules restart under the same name
// with different matchers and move between the index and the residual
// list.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/random.h"
#include "tbf/tbf_scheduler.h"

namespace adaptbf {
namespace {

constexpr std::uint32_t kJobs = 6;
constexpr std::uint32_t kNids = 3;
constexpr int kNamePool = 10;
constexpr Opcode kOpcodes[] = {Opcode::kOstRead, Opcode::kOstWrite,
                               Opcode::kOstPunch, Opcode::kOstSync};

/// Brute-force mirror of one rule's matcher (empty = wildcard dimension).
struct ModelMatcher {
  std::vector<std::uint32_t> jobs;
  std::vector<std::uint32_t> nids;
  std::vector<Opcode> opcodes;

  [[nodiscard]] bool matches(const Rpc& rpc) const {
    auto in = [](const auto& set, auto value) {
      return set.empty() ||
             std::find(set.begin(), set.end(), value) != set.end();
    };
    return in(jobs, rpc.job.value()) && in(nids, rpc.nid.value()) &&
           in(opcodes, rpc.opcode);
  }

  [[nodiscard]] RpcMatcher to_matcher() const {
    RpcMatcher matcher;
    for (auto job : jobs) matcher.add_job(JobId(job));
    for (auto nid : nids) matcher.add_nid(Nid(nid));
    for (auto op : opcodes) matcher.add_opcode(op);
    return matcher;
  }
};

struct ModelRule {
  std::string name;
  ModelMatcher matcher;
  std::int32_t rank = 0;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
};

struct ModelQueue {
  std::optional<std::string> rule;  ///< Bound rule; nullopt = no queue.
  std::deque<std::uint64_t> ids;
};

class Model {
 public:
  explicit Model(std::uint64_t seed) : rng_(seed) {}

  ModelMatcher random_matcher() {
    ModelMatcher m;
    const auto job = [&] {
      return static_cast<std::uint32_t>(rng_.next_in(1, kJobs));
    };
    const auto nid = [&] {
      return static_cast<std::uint32_t>(rng_.next_in(0, kNids - 1));
    };
    const auto opcode = [&] { return kOpcodes[rng_.next_in(0, 3)]; };
    switch (rng_.next_in(0, 5)) {
      case 0:  // job-only, one job
        m.jobs = {job()};
        break;
      case 1: {  // job-only, several jobs (possibly repeated)
        m.jobs = {job(), job()};
        if (rng_.next_double() < 0.5) m.jobs.push_back(m.jobs.front());
        break;
      }
      case 2:
        m.nids = {nid()};
        break;
      case 3:
        m.opcodes = {opcode(), opcode()};
        break;
      case 4:  // mixed
        m.jobs = {job()};
        if (rng_.next_double() < 0.5) {
          m.opcodes = {opcode()};
        } else {
          m.nids = {nid()};
        }
        break;
      default:  // wildcard
        break;
    }
    return m;
  }

  std::int32_t random_rank() {
    return static_cast<std::int32_t>(rng_.next_in(0, 2)) - 1;  // many ties
  }

  /// First active rule in start order with the strictly lowest rank.
  [[nodiscard]] std::optional<std::size_t> classify(const Rpc& rpc) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (!active_[i].matcher.matches(rpc)) continue;
      if (!best || active_[i].rank < active_[*best].rank) best = i;
    }
    return best;
  }

  void check_stats(const TbfScheduler& scheduler) const {
    for (const auto& rule : active_) {
      const RuleStats* stats = scheduler.rule_stats(rule.name);
      ASSERT_NE(stats, nullptr) << rule.name;
      EXPECT_EQ(stats->arrived, rule.arrived) << rule.name;
      EXPECT_EQ(stats->served, rule.served) << rule.name;
    }
    std::vector<std::string> names;
    for (const auto& rule : active_) names.push_back(rule.name);
    EXPECT_EQ(scheduler.active_rules(), names);
  }

  ModelRule* find(const std::string& name) {
    for (auto& rule : active_)
      if (rule.name == name) return &rule;
    return nullptr;
  }

  void run(int operations) {
    TbfScheduler scheduler;
    SimTime now = SimTime::zero();
    std::uint64_t next_id = 1;
    for (int op = 0; op < operations; ++op) {
      now += SimDuration::micros(
          static_cast<std::int64_t>(rng_.next_in(0, 3000)));
      const double dice = rng_.next_double();
      if (dice < 0.45) {
        Rpc rpc;
        rpc.id = next_id++;
        rpc.job = JobId(static_cast<std::uint32_t>(rng_.next_in(1, kJobs)));
        rpc.nid = Nid(static_cast<std::uint32_t>(rng_.next_in(0, kNids - 1)));
        rpc.opcode = kOpcodes[rng_.next_in(0, 3)];
        const auto expected = classify(rpc);
        scheduler.enqueue(rpc, now);
        if (!expected) {
          fallback_.push_back(rpc.id);
        } else {
          ModelRule& rule = active_[*expected];
          ++rule.arrived;
          ModelQueue& queue = queues_[rpc.job.value()];
          queue.rule = rule.name;  // binds or rebinds, keeping pending ids
          queue.ids.push_back(rpc.id);
        }
        EXPECT_EQ(scheduler.fallback_backlog(), fallback_.size()) << op;
        EXPECT_EQ(scheduler.queue_backlog(rpc.job),
                  queues_[rpc.job.value()].ids.size())
            << op;
      } else if (dice < 0.70) {
        while (auto rpc = scheduler.dequeue(now)) {
          if (!fallback_.empty() && fallback_.front() == rpc->id) {
            fallback_.pop_front();
            continue;
          }
          ModelQueue& queue = queues_[rpc->job.value()];
          ASSERT_TRUE(queue.rule.has_value()) << "op " << op;
          ASSERT_FALSE(queue.ids.empty()) << "op " << op;
          ASSERT_EQ(queue.ids.front(), rpc->id) << "op " << op;
          queue.ids.pop_front();
          ModelRule* rule = find(*queue.rule);
          ASSERT_NE(rule, nullptr);
          ++rule->served;
        }
      } else if (dice < 0.82) {
        // Start a rule under a free name from the pool (often a restart).
        const std::string name =
            "r" + std::to_string(rng_.next_in(0, kNamePool - 1));
        if (find(name) != nullptr) continue;
        ModelRule rule;
        rule.name = name;
        rule.matcher = random_matcher();
        rule.rank = random_rank();
        RuleSpec spec;
        spec.name = name;
        spec.matcher = rule.matcher.to_matcher();
        spec.rate = 50.0 + rng_.next_double() * 5000.0;
        spec.rank = rule.rank;
        scheduler.start_rule(spec);
        active_.push_back(rule);
      } else if (dice < 0.91) {
        if (active_.empty()) continue;
        ModelRule& rule = active_[rng_.next_in(0, active_.size() - 1)];
        rule.rank = random_rank();
        EXPECT_TRUE(scheduler.change_rule(
            rule.name, 50.0 + rng_.next_double() * 5000.0, rule.rank, now));
      } else {
        if (active_.empty()) continue;
        const std::size_t index = rng_.next_in(0, active_.size() - 1);
        const std::string name = active_[index].name;
        EXPECT_TRUE(scheduler.stop_rule(name, now));
        // Bound queues fold into the fallback in ascending JobId order.
        for (auto& [job, queue] : queues_) {
          if (queue.rule != name) continue;
          fallback_.insert(fallback_.end(), queue.ids.begin(),
                           queue.ids.end());
          queue.ids.clear();
          queue.rule.reset();
        }
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
        EXPECT_FALSE(scheduler.has_rule(name));
        EXPECT_EQ(scheduler.rule_stats(name), nullptr);
      }
      check_stats(scheduler);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  Xoshiro256 rng_;
  std::vector<ModelRule> active_;  ///< Start order.
  std::map<std::uint32_t, ModelQueue> queues_;  ///< Ascending JobId.
  std::deque<std::uint64_t> fallback_;
};

class TbfClassificationPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TbfClassificationPropertyTest, MatchesBruteForceFirstLowestRank) {
  Model model(GetParam());
  model.run(6000);
}

INSTANTIATE_TEST_SUITE_P(Churn, TbfClassificationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "seed" + std::to_string(p.param);
                         });

TEST(TbfClassification, RestartedNameKeepsItsIdAndStartsFresh) {
  TbfScheduler scheduler;
  RuleSpec spec;
  spec.name = "a";
  spec.matcher = RpcMatcher::for_job(JobId(1));
  const TbfScheduler::RuleId id = scheduler.start_rule(spec);
  EXPECT_EQ(scheduler.find_rule("a"), id);
  Rpc rpc;
  rpc.job = JobId(1);
  scheduler.enqueue(rpc, SimTime::zero());
  ASSERT_TRUE(scheduler.stop_rule(id, SimTime::zero()));
  EXPECT_FALSE(scheduler.is_active(id));
  EXPECT_FALSE(scheduler.change_rule(id, 1.0, 0, SimTime::zero()));
  // Restarted as a wildcard: same id, fresh stats, still classifies job 1.
  spec.matcher = RpcMatcher{};
  EXPECT_EQ(scheduler.start_rule(spec), id);
  EXPECT_EQ(scheduler.rule_stats("a")->arrived, 0u);
  scheduler.enqueue(rpc, SimTime::zero());
  EXPECT_EQ(scheduler.rule_stats("a")->arrived, 1u);
  EXPECT_EQ(scheduler.find_rule("never"), TbfScheduler::kNoRule);
}

}  // namespace
}  // namespace adaptbf
