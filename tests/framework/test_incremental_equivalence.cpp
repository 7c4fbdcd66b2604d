// The recomputation acceptance criteria: for the same seeded scenario, the
// IDR controller's delta-SPT engine must leave every observable byte —
// legacy Loc-RIBs, member flow tables, convergence instants, and the
// telemetry snapshot minus the counters that measure the engine itself —
// identical to the goldens in golden/incremental_ring_*.txt, at 1 and at 4
// worker threads. The goldens were captured from the from-scratch
// AsTopologyGraph engine and checked equal to the delta-SPT engine at
// capture time; AsTopologyGraph stays as the decision-level oracle in
// tests/controller/test_decider_oracle.cpp. A final test pins the point of
// the delta engine: its exact recomputation work under topology churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/trial.hpp"
#include "telemetry/json.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

// Counters/histograms that *measure the recomputation engine*; the goldens
// leave them out, ChurnRecomputeCostReduction pins them instead.
bool engine_internal(const std::string& name) {
  return name == "ctrl.idr.prefix_recomputes" ||
         name == "ctrl.idr.prefixes_dirty" ||
         name == "ctrl.idr.spt_vertices_replayed" ||
         name == "ctrl.idr.batch_prefixes";
}

std::string filtered_metrics(const telemetry::Json& snapshot) {
  telemetry::Json out = telemetry::Json::object();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    telemetry::Json kept = telemetry::Json::object();
    if (const auto* s = snapshot.find(section)) {
      for (const auto& [name, value] : s->entries()) {
        if (!engine_internal(name)) kept[name] = value;
      }
    }
    out[section] = std::move(kept);
  }
  return out.dump();
}

struct EquivCapture {
  std::string ribs;
  std::string flows;
  std::string metrics;
  std::vector<std::int64_t> checkpoints;  // loop ns after each wait_converged

  /// The golden-file form: every field, checkpoints first.
  std::string to_text() const {
    std::string out = "# checkpoints\n";
    for (const auto ns : checkpoints) out += std::to_string(ns) + "\n";
    out += "# ribs\n" + ribs;
    out += "# flows\n" + flows;
    out += "# metrics\n" + metrics + "\n";
    return out;
  }
};

ExperimentConfig scenario_config(std::uint64_t seed, bool bridging) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.subcluster_bridging = bridging;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  return cfg;
}

void capture_state(Experiment& exp, EquivCapture& cap) {
  // Legacy Loc-RIBs, sorted AS-then-prefix so the dump is canonical.
  std::map<std::string, std::string> ribs;
  for (const auto as : exp.spec().ases) {
    if (exp.is_member(as)) continue;
    const auto& rib = exp.router(as).loc_rib();
    for (const auto& prefix : rib.prefixes()) {
      const auto* route = rib.find(prefix);
      ribs[as.to_string() + " " + prefix.to_string()] =
          route->attributes->to_string() + " from=" +
          std::to_string(route->learned_from.value()) + " at=" +
          std::to_string(route->installed_at.nanos_since_origin());
    }
  }
  for (const auto& [key, value] : ribs) {
    cap.ribs += key + " -> " + value + "\n";
  }
  // Member flow tables, in table order (which is itself part of the
  // contract: priority ties break on insertion order).
  for (const auto as : exp.spec().ases) {
    if (!exp.is_member(as)) continue;
    cap.flows += "== " + as.to_string() + "\n";
    for (const auto& e : exp.member_switch(as).table().entries()) {
      cap.flows += e.to_string() + "\n";
    }
  }
  cap.metrics = filtered_metrics(exp.telemetry().metrics().snapshot());
}

// One seeded churn scenario on an 8-AS ring with a 4-member cluster chain
// (3-4-5-6). The ring makes intra-cluster distance matter, and failing the
// middle cluster link splits the members into two sub-clusters, exercising
// the bridging fallback (or the pruning path with bridging off).
EquivCapture run_ring_churn(std::uint64_t seed, bool bridging) {
  const auto spec = topology::ring(8);
  Experiment exp{spec,
                 {AsNumber{3}, AsNumber{4}, AsNumber{5}, AsNumber{6}},
                 scenario_config(seed, bridging)};
  const auto pfx = *net::Prefix::parse("10.99.0.0/16");
  exp.announce_prefix(AsNumber{1}, pfx);

  EquivCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
  };

  EXPECT_TRUE(exp.start());
  checkpoint();

  // Route churn with no topology change.
  exp.withdraw_prefix(AsNumber{1}, pfx);
  checkpoint();
  exp.announce_prefix(AsNumber{1}, pfx);
  checkpoint();

  // Cluster-link churn: the edge-delta changelog path.
  exp.fail_link(AsNumber{4}, AsNumber{5});  // splits {3,4} | {5,6}
  checkpoint();
  exp.restore_link(AsNumber{4}, AsNumber{5});
  checkpoint();
  exp.fail_link(AsNumber{5}, AsNumber{6});
  checkpoint();
  exp.restore_link(AsNumber{5}, AsNumber{6});
  checkpoint();

  // Legacy-link churn: route updates through the speaker.
  exp.fail_link(AsNumber{1}, AsNumber{2});
  checkpoint();
  exp.restore_link(AsNumber{1}, AsNumber{2});
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

std::string read_golden(const std::string& name) {
  std::ifstream in{std::string{BGPSDN_GOLDEN_DIR} + "/" + name};
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Compares a capture with the golden line by line, so a divergence names
/// the first differing line.
void expect_matches_golden(const EquivCapture& cap, const std::string& golden,
                           const std::string& what) {
  // Guard against vacuous equality: the scenario must actually produce
  // routes and flow rules.
  ASSERT_FALSE(cap.ribs.empty()) << what;
  ASSERT_NE(cap.flows.find("dst=10.99.0.0/16"), std::string::npos) << what;
  std::istringstream got_lines{cap.to_text()};
  std::istringstream want_lines{read_golden(golden)};
  std::string got;
  std::string want;
  for (std::size_t line = 1; std::getline(want_lines, want); ++line) {
    ASSERT_TRUE(std::getline(got_lines, got))
        << golden << " ends early at line " << line << " (" << what << ")";
    ASSERT_EQ(got, want) << golden << " line " << line << " (" << what << ")";
  }
  EXPECT_FALSE(std::getline(got_lines, got))
      << golden << " has extra lines (" << what << ")";
}

std::string golden_name(std::uint64_t seed) {
  return "incremental_ring_" + std::to_string(seed) + ".txt";
}

TEST(IncrementalEquivalence, RingChurnWithBridging) {
  for (const std::uint64_t seed : {11u, 12u}) {
    expect_matches_golden(run_ring_churn(seed, true), golden_name(seed),
                          "jobs 1");
  }
}

TEST(IncrementalEquivalence, RingChurnWithoutBridging) {
  expect_matches_golden(run_ring_churn(13, false), golden_name(13), "jobs 1");
}

TEST(IncrementalEquivalence, ByteIdenticalAcrossJobCounts) {
  // Every golden scenario raced across four workers, twice over: the
  // captures must not depend on the job count (the determinism invariant
  // extended to the delta engine).
  const std::uint64_t seeds[] = {11, 12, 13};
  std::vector<EquivCapture> caps(2 * std::size(seeds));
  parallel_for_index(caps.size(), 4, [&](std::size_t i) {
    const std::uint64_t seed = seeds[i % std::size(seeds)];
    caps[i] = run_ring_churn(seed, seed != 13);
  });
  for (std::size_t i = 0; i < caps.size(); ++i) {
    expect_matches_golden(caps[i], golden_name(seeds[i % std::size(seeds)]),
                          "jobs 4, run " + std::to_string(i));
  }
}

TEST(IncrementalEquivalence, ChurnRecomputeCostReduction) {
  // The cost criterion, as exact counts: under a cluster-link flap train on
  // an 8-clique with six members, the delta engine re-decides nothing (no
  // tree moves when a redundant clique link flaps).
  const auto spec = topology::clique(8);
  std::set<AsNumber> members;
  for (std::uint32_t a = 3; a <= 8; ++a) members.insert(AsNumber{a});
  Experiment exp{spec, members, scenario_config(5, true)};
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.91.0.0/16"));
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.92.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.93.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.94.0.0/16"));
  ASSERT_TRUE(exp.start());
  exp.wait_converged();
  const auto& m = exp.telemetry().metrics();
  const auto counter = [&m](const char* name) -> std::uint64_t {
    const auto* c = m.find_counter(name);
    return c == nullptr ? 0 : static_cast<std::uint64_t>(c->value());
  };
  // Bring-up: four prefixes, eight decisions, 44 settles to seed the trees.
  const std::uint64_t recomputes0 = counter("ctrl.idr.prefix_recomputes");
  const std::uint64_t replayed0 = counter("ctrl.idr.spt_vertices_replayed");
  EXPECT_EQ(recomputes0, 8u);
  EXPECT_EQ(replayed0, 44u);
  for (int i = 0; i < 6; ++i) {
    exp.fail_link(AsNumber{3}, AsNumber{4});
    exp.wait_converged();
    exp.restore_link(AsNumber{3}, AsNumber{4});
    exp.wait_converged();
  }
  EXPECT_EQ(counter("ctrl.idr.prefix_recomputes") - recomputes0, 0u);
  EXPECT_EQ(counter("ctrl.idr.spt_vertices_replayed") - replayed0, 0u);
}

}  // namespace
}  // namespace bgpsdn::framework
