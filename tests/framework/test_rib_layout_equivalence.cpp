// The RIB-compaction acceptance criteria: for the same seeded scenario, the
// compact slab layout and the node-based reference layout must leave every
// observable byte identical — legacy Loc-RIBs, member flow tables,
// convergence instants, and the full telemetry snapshot — at 1 and at 4
// worker threads, across ring, clique and internet-like churn. The layouts
// may differ only in mem.* accounting, which bench_scale gates separately.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/trial.hpp"
#include "telemetry/json.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using bgp::RibLayout;
using core::AsNumber;

struct LayoutCapture {
  std::string ribs;
  std::string flows;
  std::string metrics;
  std::vector<double> checkpoints;  // loop clock after each wait_converged
};

ExperimentConfig layout_config(RibLayout layout, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.rib_layout = layout;
  cfg.timers.mrai = core::Duration::millis(500);
  return cfg;
}

void capture_state(Experiment& exp, LayoutCapture& cap) {
  // Legacy Loc-RIBs, sorted AS-then-prefix so the dump is canonical. The
  // dump includes the tiebreak identity fields, not just the attributes:
  // the compact layout stores them out-of-line and must reproduce them.
  std::map<std::string, std::string> ribs;
  for (const auto as : exp.spec().ases) {
    if (exp.is_member(as)) continue;
    const auto& rib = exp.router(as).loc_rib();
    for (const auto& prefix : rib.prefixes()) {
      const auto* route = rib.find(prefix);
      ribs[as.to_string() + " " + prefix.to_string()] =
          route->attributes->to_string() + " from=" +
          std::to_string(route->learned_from.value()) + " id=" +
          std::to_string(route->peer_bgp_id.bits()) + " addr=" +
          std::to_string(route->peer_address.bits()) + " at=" +
          std::to_string(route->installed_at.nanos_since_origin());
    }
  }
  for (const auto& [key, value] : ribs) {
    cap.ribs += key + " -> " + value + "\n";
  }
  // Member flow tables, in table order (priority ties break on insertion
  // order, so the order itself is part of the contract).
  for (const auto as : exp.spec().ases) {
    if (!exp.is_member(as)) continue;
    cap.flows += "== " + as.to_string() + "\n";
    for (const auto& e : exp.member_switch(as).table().entries()) {
      cap.flows += e.to_string() + "\n";
    }
  }
  cap.metrics = exp.telemetry().metrics().snapshot().dump();
}

// Seeded churn on an 8-AS ring with a 4-member cluster chain: route churn,
// cluster-link churn and legacy-link churn, checkpointing the virtual clock
// after every convergence wait.
LayoutCapture run_ring_churn(RibLayout layout, std::uint64_t seed) {
  const auto spec = topology::ring(8);
  Experiment exp{spec,
                 {AsNumber{3}, AsNumber{4}, AsNumber{5}, AsNumber{6}},
                 layout_config(layout, seed)};
  const auto pfx = *net::Prefix::parse("10.99.0.0/16");
  exp.announce_prefix(AsNumber{1}, pfx);
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.98.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin() * 1e-9);
  };

  EXPECT_TRUE(exp.start());
  checkpoint();
  exp.withdraw_prefix(AsNumber{1}, pfx);
  checkpoint();
  exp.announce_prefix(AsNumber{1}, pfx);
  checkpoint();
  exp.fail_link(AsNumber{4}, AsNumber{5});
  checkpoint();
  exp.restore_link(AsNumber{4}, AsNumber{5});
  checkpoint();
  exp.fail_link(AsNumber{1}, AsNumber{2});
  checkpoint();
  exp.restore_link(AsNumber{1}, AsNumber{2});
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

// Clique churn: dense peering means every router holds a full candidate set
// per prefix, exercising multi-candidate spans and implicit withdraws.
LayoutCapture run_clique_churn(RibLayout layout, std::uint64_t seed) {
  const auto spec = topology::clique(6);
  Experiment exp{spec, {AsNumber{5}, AsNumber{6}}, layout_config(layout, seed)};
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.91.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.92.0.0/16"));
  exp.announce_prefix(AsNumber{3}, *net::Prefix::parse("10.93.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin() * 1e-9);
  };

  EXPECT_TRUE(exp.start());
  checkpoint();
  for (int i = 0; i < 3; ++i) {
    exp.fail_link(AsNumber{1}, AsNumber{2});
    checkpoint();
    exp.restore_link(AsNumber{1}, AsNumber{2});
    checkpoint();
  }
  exp.withdraw_prefix(AsNumber{2}, *net::Prefix::parse("10.92.0.0/16"));
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

// Policy-routed internet-like churn (pure legacy): valley-free export gives
// asymmetric candidate sets, and the session-reset path (link failure drops
// the session entirely) exercises erase_session on populated slabs.
LayoutCapture run_internet_churn(RibLayout layout, std::uint64_t seed) {
  core::Rng topo_rng{seed};
  topology::InternetLikeParams params;
  params.tier1 = 3;
  params.transit = 6;
  params.stubs = 10;
  const auto spec = topology::internet_like(params, topo_rng);

  Experiment exp{spec, {}, layout_config(layout, seed)};
  const auto origin = spec.ases.back();  // a stub
  const auto pfx = *net::Prefix::parse("10.50.0.0/16");
  exp.announce_prefix(origin, pfx);
  exp.announce_prefix(origin, *net::Prefix::parse("10.51.0.0/16"));
  exp.announce_prefix(spec.ases.front(), *net::Prefix::parse("10.52.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin() * 1e-9);
  };

  EXPECT_TRUE(exp.start());
  checkpoint();
  exp.withdraw_prefix(origin, pfx);
  checkpoint();
  exp.announce_prefix(origin, pfx);
  checkpoint();
  // Fail one of the origin stub's provider links: its session resets and
  // every prefix learned over it is flushed.
  const auto& provider_link = [&]() -> const topology::LinkSpec& {
    for (const auto& l : spec.links) {
      if (l.a == origin || l.b == origin) return l;
    }
    throw std::logic_error("origin has no links");
  }();
  exp.fail_link(provider_link.a, provider_link.b);
  checkpoint();
  exp.restore_link(provider_link.a, provider_link.b);
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

void expect_equal_captures(const LayoutCapture& compact,
                           const LayoutCapture& reference, const char* what) {
  // Guard against vacuous equality: the scenario must actually produce
  // routes (and flow rules, when a cluster is present).
  EXPECT_FALSE(compact.ribs.empty()) << what;
  EXPECT_EQ(compact.ribs, reference.ribs) << what;
  EXPECT_EQ(compact.flows, reference.flows) << what;
  EXPECT_EQ(compact.metrics, reference.metrics) << what;
  ASSERT_EQ(compact.checkpoints.size(), reference.checkpoints.size()) << what;
  for (std::size_t i = 0; i < compact.checkpoints.size(); ++i) {
    // Bit-equal, not approximately equal: convergence timing must not move.
    EXPECT_EQ(compact.checkpoints[i], reference.checkpoints[i])
        << what << " #" << i;
  }
}

TEST(RibLayoutEquivalence, RingChurn) {
  for (const std::uint64_t seed : {21u, 22u}) {
    expect_equal_captures(run_ring_churn(RibLayout::kCompact, seed),
                          run_ring_churn(RibLayout::kReference, seed), "ring");
  }
}

TEST(RibLayoutEquivalence, CliqueChurn) {
  expect_equal_captures(run_clique_churn(RibLayout::kCompact, 23),
                        run_clique_churn(RibLayout::kReference, 23), "clique");
}

TEST(RibLayoutEquivalence, InternetLikeChurn) {
  expect_equal_captures(run_internet_churn(RibLayout::kCompact, 24),
                        run_internet_churn(RibLayout::kReference, 24),
                        "internet");
}

TEST(RibLayoutEquivalence, ByteIdenticalAcrossJobCounts) {
  // Both layouts, two seeds, raced across worker threads: the captures must
  // not depend on the job count. The per-simulation attribute store and its
  // export cache are the structures under suspicion here.
  const auto run_with_jobs = [](std::size_t jobs) {
    std::vector<LayoutCapture> caps(4);
    parallel_for_index(4, jobs, [&](std::size_t i) {
      caps[i] = run_ring_churn(
          i % 2 == 0 ? RibLayout::kCompact : RibLayout::kReference, 41 + i / 2);
    });
    return caps;
  };
  const auto serial = run_with_jobs(1);
  const auto threaded = run_with_jobs(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ribs, threaded[i].ribs) << i;
    EXPECT_EQ(serial[i].flows, threaded[i].flows) << i;
    EXPECT_EQ(serial[i].metrics, threaded[i].metrics) << i;
  }
}

TEST(RibLayoutEquivalence, CompactMemoryStaysBelowReference) {
  // The point of the refactor, at unit scale: same clique scenario, the
  // compact layout's RIB footprint must undercut the reference layout's.
  // (The 5x order-of-magnitude gate runs at 10k ASes in bench_scale; at 6
  // ASes the structural win is smaller but must already be visible.)
  const auto mem_of = [](RibLayout layout) {
    const auto spec = topology::clique(6);
    Experiment exp{spec, {}, layout_config(layout, 31)};
    for (std::uint32_t i = 0; i < 8; ++i) {
      exp.announce_prefix(
          AsNumber{1 + i % 4},
          net::Prefix{net::Ipv4Addr{10, 60, static_cast<std::uint8_t>(i), 0},
                      24});
    }
    EXPECT_TRUE(exp.start());
    exp.wait_converged();
    return exp.memory_stats();
  };
  const auto compact = mem_of(RibLayout::kCompact);
  const auto reference = mem_of(RibLayout::kReference);
  EXPECT_LT(compact.rib_total(), reference.rib_total());
  EXPECT_EQ(reference.attr_registry, 0u);
  EXPECT_GT(compact.attr_registry, 0u);
}

}  // namespace
}  // namespace bgpsdn::framework
