// The RIB-compaction acceptance criteria: for the same seeded scenario, the
// slab-backed RIBs must leave every observable byte — legacy Loc-RIBs,
// member flow tables, convergence instants and the full telemetry snapshot —
// identical to the goldens in golden/rib_churn_*.txt, at 1 and at 4 worker
// threads, across ring, clique and internet-like churn. The goldens were
// captured from the node-based std::map RIBs (since retired to the unit
// oracle in tests/bgp/rib_oracle.hpp); mem.* accounting is not part of them,
// bench_scale holds it to a byte budget instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/trial.hpp"
#include "telemetry/json.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

struct LayoutCapture {
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

ExperimentConfig layout_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  return cfg;
}

void capture_state(Experiment& exp, LayoutCapture& cap) {
  // Legacy Loc-RIBs, sorted AS-then-prefix so the dump is canonical. The
  // dump includes the tiebreak identity fields, not just the attributes:
  // the RIBs store them out-of-line and must reproduce them.
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
LayoutCapture run_ring_churn(std::uint64_t seed) {
  const auto spec = topology::ring(8);
  Experiment exp{spec,
                 {AsNumber{3}, AsNumber{4}, AsNumber{5}, AsNumber{6}},
                 layout_config(seed)};
  const auto pfx = *net::Prefix::parse("10.99.0.0/16");
  exp.announce_prefix(AsNumber{1}, pfx);
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.98.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
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
LayoutCapture run_clique_churn(std::uint64_t seed) {
  const auto spec = topology::clique(6);
  Experiment exp{spec, {AsNumber{5}, AsNumber{6}}, layout_config(seed)};
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.91.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.92.0.0/16"));
  exp.announce_prefix(AsNumber{3}, *net::Prefix::parse("10.93.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
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
LayoutCapture run_internet_churn(std::uint64_t seed) {
  core::Rng topo_rng{seed};
  topology::InternetLikeParams params;
  params.tier1 = 3;
  params.transit = 6;
  params.stubs = 10;
  const auto spec = topology::internet_like(params, topo_rng);

  Experiment exp{spec, {}, layout_config(seed)};
  const auto origin = spec.ases.back();  // a stub
  const auto pfx = *net::Prefix::parse("10.50.0.0/16");
  exp.announce_prefix(origin, pfx);
  exp.announce_prefix(origin, *net::Prefix::parse("10.51.0.0/16"));
  exp.announce_prefix(spec.ases.front(), *net::Prefix::parse("10.52.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
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

std::string read_golden(const std::string& name) {
  std::ifstream in{std::string{BGPSDN_GOLDEN_DIR} + "/" + name};
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `run` once serially and four times raced on four workers, and
/// compares every capture with the golden line by line, so a divergence
/// names the first differing line.
void expect_golden(const std::function<LayoutCapture()>& run,
                   const std::string& golden) {
  const std::string expected = read_golden(golden);
  for (const std::size_t jobs : {1u, 4u}) {
    std::vector<LayoutCapture> caps(jobs);
    parallel_for_index(jobs, jobs, [&](std::size_t i) { caps[i] = run(); });
    for (const auto& cap : caps) {
      // Guard against vacuous equality: the scenario must produce routes.
      ASSERT_FALSE(cap.ribs.empty()) << golden;
      std::istringstream got_lines{cap.to_text()};
      std::istringstream want_lines{expected};
      std::string got;
      std::string want;
      for (std::size_t line = 1; std::getline(want_lines, want); ++line) {
        ASSERT_TRUE(std::getline(got_lines, got))
            << golden << " ends early at line " << line << " (jobs " << jobs
            << ")";
        ASSERT_EQ(got, want)
            << golden << " line " << line << " (jobs " << jobs << ")";
      }
      EXPECT_FALSE(std::getline(got_lines, got))
          << golden << " has extra lines (jobs " << jobs << ")";
    }
  }
}

TEST(RibLayoutEquivalence, RingChurn) {
  for (const std::uint64_t seed : {21u, 22u}) {
    expect_golden([seed] { return run_ring_churn(seed); },
                  "rib_churn_ring_" + std::to_string(seed) + ".txt");
  }
}

TEST(RibLayoutEquivalence, CliqueChurn) {
  expect_golden([] { return run_clique_churn(23); }, "rib_churn_clique_23.txt");
}

TEST(RibLayoutEquivalence, InternetLikeChurn) {
  expect_golden([] { return run_internet_churn(24); },
                "rib_churn_internet_24.txt");
}

TEST(RibLayoutEquivalence, ByteIdenticalAcrossJobCounts) {
  // Four seeds raced across worker threads: the captures must not depend
  // on the job count. The per-simulation attribute store and its export
  // cache are the structures under suspicion here.
  const auto run_with_jobs = [](std::size_t jobs) {
    std::vector<LayoutCapture> caps(4);
    parallel_for_index(4, jobs,
                       [&](std::size_t i) { caps[i] = run_ring_churn(41 + i); });
    return caps;
  };
  const auto serial = run_with_jobs(1);
  const auto threaded = run_with_jobs(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].to_text(), threaded[i].to_text()) << i;
  }
}

TEST(RibLayoutEquivalence, CompactMemoryStaysBelowReference) {
  // The point of the slab RIBs, at unit scale: the model bytes of this
  // clique scenario may not exceed what they were when the node-based
  // layout was retired (bench_scale holds the 1k/10k sweeps to the same
  // kind of budget). The bytes are deterministic, so the budget is exact.
  constexpr std::uint64_t kRibBudget = 16192;
  const auto spec = topology::clique(6);
  Experiment exp{spec, {}, layout_config(31)};
  for (std::uint32_t i = 0; i < 8; ++i) {
    exp.announce_prefix(
        AsNumber{1 + i % 4},
        net::Prefix{net::Ipv4Addr{10, 60, static_cast<std::uint8_t>(i), 0},
                    24});
  }
  EXPECT_TRUE(exp.start());
  exp.wait_converged();
  const auto mem = exp.memory_stats();
  EXPECT_LE(mem.rib_total(), kRibBudget);
  EXPECT_GT(mem.attr_registry, 0u);
}

}  // namespace
}  // namespace bgpsdn::framework
