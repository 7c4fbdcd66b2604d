// Text on demand must not change what the analysis tools observe. The
// Logger builds a record's detail only for a text consumer (retention, echo,
// a kText sink); the convergence detector and the update-rate monitor read
// tags only. For one seeded hybrid clique and one seeded hybrid
// internet-like run, four consumer setups must agree on every convergence
// instant, every detector activity count, the update-rate buckets and the
// route-change timeline. The retained text itself is checked line for line
// against a golden captured from the eager logger that built every detail
// at the emit site, and the detector's activity counts and every counter
// the fact table feeds are pinned to that run's values.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fact.hpp"
#include "framework/convergence.hpp"
#include "framework/experiment.hpp"
#include "framework/monitor.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

enum class Consumer { kNone, kRetain, kTracker, kRateMonitor };

constexpr core::Duration kBucket = core::Duration::millis(500);

/// What one run exposes to the analysis tools.
struct Observed {
  std::vector<std::int64_t> instants_ns;   // ConvergenceResult::instant
  std::vector<std::uint64_t> activity;     // detector count at each wait
  std::map<std::uint64_t, std::uint64_t> buckets;  // kRateMonitor only
  std::vector<std::string> timeline;               // kTracker only
  std::vector<std::string> log_lines;              // kRetain only
  std::vector<core::LogRecord> records;            // kRetain only
  std::map<std::string, std::int64_t> counters;    // fact-fed, at the end
};

/// Every counter the fact table feeds, with its value (absent: never fed).
std::map<std::string, std::int64_t> fact_counters(Experiment& exp) {
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < core::kFactKindCount; ++i) {
    const char* name = core::fact_row(static_cast<core::FactKind>(i)).counter;
    if (name == nullptr) continue;
    if (const auto* c = exp.telemetry().metrics().find_counter(name)) {
      out[name] = c->value();
    }
  }
  return out;
}

ExperimentConfig config_for(Consumer consumer, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  cfg.retain_logs = consumer == Consumer::kRetain;
  return cfg;
}

std::string timeline_entry(core::TimePoint when, const std::string& router,
                           bool lost, const std::string& detail) {
  return when.to_string() + " " + router + (lost ? " lost " : " -> ") + detail;
}

/// Attaches the consumer's monitor, then runs `drive` (announcements,
/// start, events) with a callback that waits for convergence and records
/// what the detector saw.
template <typename Drive>
Observed observe(Experiment& exp, Consumer consumer, Drive drive) {
  RouteChangeTracker* tracker = nullptr;
  UpdateRateMonitor* rate = nullptr;
  if (consumer == Consumer::kTracker) {
    tracker = &exp.attach_monitor<RouteChangeTracker>();
  } else if (consumer == Consumer::kRateMonitor) {
    rate = &exp.attach_monitor<UpdateRateMonitor>(kBucket);
  }
  Observed out;
  const auto* detector = exp.monitor<ConvergenceDetector>();
  const auto wait = [&] {
    const auto result = exp.wait_converged();
    EXPECT_FALSE(result.timed_out);
    out.instants_ns.push_back(result.instant.nanos_since_origin());
    out.activity.push_back(detector->activity_count());
  };
  drive(wait);
  if (tracker != nullptr) {
    for (const auto& c : tracker->changes()) {
      out.timeline.push_back(
          timeline_entry(c.when, c.router, c.lost, c.detail));
    }
  }
  if (rate != nullptr) out.buckets = rate->buckets();
  out.counters = fact_counters(exp);
  out.records = exp.logger().records();
  for (const auto& rec : out.records) out.log_lines.push_back(rec.to_string());
  return out;
}

/// A 5-AS clique with two cluster members: AS 1 originates, then withdraws
/// (Fig. 2's path hunting plus speaker relays and FlowMods).
Observed run_clique(Consumer consumer) {
  Experiment exp{topology::clique(5), {AsNumber{4}, AsNumber{5}},
                 config_for(consumer, 41)};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  return observe(exp, consumer, [&](const auto& wait) {
    exp.announce_prefix(AsNumber{1}, pfx);
    EXPECT_TRUE(exp.start());
    wait();
    exp.withdraw_prefix(AsNumber{1}, pfx);
    wait();
  });
}

/// A policy-routed internet-like graph with two transit ASes in the
/// cluster: two origins, a withdrawal, and a stub's provider link failing
/// and coming back (session resets on both sides).
Observed run_internet(Consumer consumer) {
  core::Rng topo_rng{43};
  topology::InternetLikeParams params;
  params.tier1 = 3;
  params.transit = 4;
  params.stubs = 6;
  const auto spec = topology::internet_like(params, topo_rng);
  const std::set<AsNumber> members{spec.ases[3], spec.ases[4]};
  Experiment exp{spec, members, config_for(consumer, 43)};
  const auto origin = spec.ases.back();  // a stub
  const auto pfx = *net::Prefix::parse("10.50.0.0/16");
  const topology::LinkSpec* uplink = nullptr;
  for (const auto& l : spec.links) {
    if (l.a == origin || l.b == origin) {
      uplink = &l;
      break;
    }
  }
  if (uplink == nullptr) throw std::logic_error("origin has no links");
  return observe(exp, consumer, [&](const auto& wait) {
    exp.announce_prefix(origin, pfx);
    exp.announce_prefix(spec.ases.front(),
                        *net::Prefix::parse("10.52.0.0/16"));
    EXPECT_TRUE(exp.start());
    wait();
    exp.withdraw_prefix(origin, pfx);
    wait();
    exp.fail_link(uplink->a, uplink->b);
    wait();
    exp.restore_link(uplink->a, uplink->b);
    wait();
  });
}

/// UpdateRateMonitor's buckets, recomputed from retained records.
std::map<std::uint64_t, std::uint64_t> buckets_from(
    const std::vector<core::LogRecord>& records) {
  std::map<std::uint64_t, std::uint64_t> buckets;
  for (const auto& rec : records) {
    if (rec.kind != core::FactKind::kUpdateTx &&
        rec.kind != core::FactKind::kSpeakerAnnounce &&
        rec.kind != core::FactKind::kSpeakerWithdraw) {
      continue;
    }
    ++buckets[static_cast<std::uint64_t>(rec.when.nanos_since_origin() /
                                         kBucket.count_nanos())];
  }
  return buckets;
}

/// RouteChangeTracker's route changes, read off the retained records.
std::vector<std::string> timeline_from(
    const std::vector<core::LogRecord>& records) {
  std::vector<std::string> timeline;
  for (const auto& rec : records) {
    const bool lost = rec.kind == core::FactKind::kBestLost;
    if (!lost && rec.kind != core::FactKind::kBestChanged) continue;
    timeline.push_back(
        timeline_entry(rec.when, rec.component, lost, rec.detail));
  }
  return timeline;
}

std::vector<std::string> read_golden(const std::string& name) {
  std::ifstream in{std::string{BGPSDN_GOLDEN_DIR} + "/" + name};
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// What the detector and the fact-fed counters saw, pinned from the run
/// that produced the golden.
struct Pinned {
  std::vector<std::uint64_t> activity;
  std::map<std::string, std::int64_t> counters;
};

template <typename Run>
void expect_consumers_agree(Run run, const std::string& golden,
                            const Pinned& pinned) {
  const Observed none = run(Consumer::kNone);
  const Observed retain = run(Consumer::kRetain);
  const Observed tracked = run(Consumer::kTracker);
  const Observed rated = run(Consumer::kRateMonitor);

  // The detector sees the same (event, time) stream whoever reads text.
  ASSERT_FALSE(none.instants_ns.empty());
  for (const Observed* other : {&retain, &tracked, &rated}) {
    EXPECT_EQ(none.instants_ns, other->instants_ns);
    EXPECT_EQ(none.activity, other->activity);
  }
  EXPECT_GT(none.activity.front(), 0u);
  for (const Observed* each : {&none, &retain, &tracked, &rated}) {
    EXPECT_EQ(each->activity, pinned.activity);
    EXPECT_EQ(each->counters, pinned.counters);
  }

  // The tag-only monitor and the text sink saw what was retained.
  EXPECT_FALSE(rated.buckets.empty());
  EXPECT_EQ(rated.buckets, buckets_from(retain.records));
  EXPECT_FALSE(tracked.timeline.empty());
  EXPECT_EQ(tracked.timeline, timeline_from(retain.records));

  // Without a text consumer nothing is retained.
  EXPECT_TRUE(none.records.empty());
  EXPECT_TRUE(tracked.records.empty());
  EXPECT_TRUE(rated.records.empty());

  // The retained text matches the eager logger's, byte for byte.
  const std::vector<std::string> expected = read_golden(golden);
  ASSERT_EQ(retain.log_lines.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(retain.log_lines[i], expected[i]) << golden << " line " << i + 1;
  }
}

TEST(LogTextEquivalence, HybridCliqueAcrossConsumers) {
  expect_consumers_agree(run_clique, "log_text_clique.txt",
                         {{91, 167},
                          {{"bgp.decision.best_changes", 12},
                           {"bgp.router.updates_tx", 42},
                           {"bgp.session.established", 24},
                           {"bgp.session.transitions", 86},
                           {"bgp.session.updates_rx", 50},
                           {"bgp.session.updates_tx", 50},
                           {"ctrl.idr.prefix_recomputes", 4},
                           {"ctrl.idr.recompute_passes", 4},
                           {"sdn.switch.flow_mods", 4},
                           {"speaker.announces_tx", 4},
                           {"speaker.updates_rx", 16},
                           {"speaker.withdraws_tx", 4}}});
}

TEST(LogTextEquivalence, HybridInternetLikeAcrossConsumers) {
  expect_consumers_agree(run_internet, "log_text_internet.txt",
                         {{372, 528, 532, 538},
                          {{"bgp.decision.best_changes", 54},
                           {"bgp.router.updates_tx", 128},
                           {"bgp.session.dropped", 2},
                           {"bgp.session.established", 74},
                           {"bgp.session.transitions", 264},
                           {"bgp.session.updates_rx", 164},
                           {"bgp.session.updates_tx", 164},
                           {"ctrl.idr.prefix_recomputes", 6},
                           {"ctrl.idr.recompute_passes", 4},
                           {"sdn.switch.flow_mods", 6},
                           {"speaker.announces_tx", 24},
                           {"speaker.updates_rx", 20},
                           {"speaker.withdraws_tx", 12}}});
}

}  // namespace
}  // namespace bgpsdn::framework
