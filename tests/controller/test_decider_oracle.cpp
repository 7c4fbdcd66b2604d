// Oracle fuzz for the IDR controller's recomputation engine: seeded runs of
// cluster-link fail/restore, external routes added and removed (cluster-
// crossing ones included) and origin moves, with sub-cluster bridging on
// and off. After every step, IncrementalDecider::decide must equal a fresh
// AsTopologyGraph::decide field by field for every prefix. The decider is
// driven the way IdrController drives it: topology deltas are sometimes
// applied eagerly and sometimes left for decide() to catch up on, and a
// prefix with no inputs left has its tree dropped. When deltas are applied,
// every prefix whose decision the oracle moves must be in the returned
// dirty set — except prefixes on the AsTopologyGraph fallback (cluster-
// crossing routes under bridging), whose trees are dropped and which
// apply_topology_deltas() does not report: an open gap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "controller/as_topology.hpp"
#include "controller/switch_graph.hpp"
#include "core/random.hpp"

namespace bgpsdn::controller {
namespace {

using sdn::Dpid;

bgp::AttrSetRef intern(bgp::PathAttributes attrs) {
  static bgp::AttrRegistry store;
  return store.intern(std::move(attrs));
}

// --- field renderings, so a mismatch prints both sides --------------------

std::string hops_text(const PrefixDecision& d) {
  std::string out;
  for (const auto& [dpid, hop] : d.hops) {
    out += std::to_string(dpid) + ":" +
           std::to_string(static_cast<int>(hop.kind)) + "/" +
           std::to_string(hop.next_switch) + "/" + std::to_string(hop.egress) +
           "/" + std::to_string(hop.distance) + " ";
  }
  return out;
}

std::string paths_text(const PrefixDecision& d) {
  std::string out;
  for (const auto& [dpid, path] : d.as_paths) {
    out += std::to_string(dpid) + ":[" + path.to_string() + "] ";
  }
  return out;
}

std::string origins_text(const PrefixDecision& d) {
  std::string out;
  for (const auto& [dpid, origin] : d.origins) {
    out += std::to_string(dpid) + ":" + bgp::to_string(origin) + " ";
  }
  return out;
}

struct Link {
  Dpid a;
  core::PortId a_port;
  Dpid b;
  core::PortId b_port;
  bool up{true};
};

/// A random cluster of `switches` members (owner AS 10 * dpid): a ring
/// plus random chords, one or two border peerings per switch.
class OracleRun {
 public:
  OracleRun(std::uint64_t seed, bool bridging)
      : rng_{seed}, decider_{graph_, speaker_, bridging}, bridging_{bridging} {
    const auto switches = static_cast<Dpid>(rng_.uniform_int(4, 7));
    std::map<Dpid, std::uint32_t> next_port;
    for (Dpid d = 1; d <= switches; ++d) {
      graph_.add_switch(d, core::AsNumber{static_cast<std::uint32_t>(10 * d)});
      next_port[d] = 1;
    }
    const auto connect = [&](Dpid a, Dpid b) {
      for (const auto& l : links_) {
        if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return;
      }
      const Link link{a, core::PortId{next_port[a]++}, b,
                      core::PortId{next_port[b]++}};
      graph_.add_link(link.a, link.a_port, link.b, link.b_port);
      links_.push_back(link);
    };
    for (Dpid d = 1; d <= switches; ++d) connect(d, d % switches + 1);
    for (int i = 0; i < 2; ++i) {
      const auto a = static_cast<Dpid>(rng_.uniform_int(1, switches));
      const auto b = static_cast<Dpid>(rng_.uniform_int(1, switches));
      if (a != b) connect(a, b);
    }
    std::uint32_t relay = 0;
    for (Dpid d = 1; d <= switches; ++d) {
      const int borders = rng_.chance(0.5) ? 2 : 1;
      for (int i = 0; i < borders; ++i) {
        speaker::Peering p;
        p.cluster_as = *graph_.owner_of(d);
        p.border_dpid = d;
        p.switch_external_port = core::PortId{next_port[d]++};
        p.expected_peer_as = core::AsNumber{100 + relay};
        peer_as_.push_back(p.expected_peer_as);
        speaker_.add_peering(core::PortId{relay++}, p);
      }
    }
    switches_ = switches;
    for (int i = 0; i < 5; ++i) {
      prefixes_.push_back(*net::Prefix::parse("10." + std::to_string(i) +
                                              ".0.0/16"));
    }
  }

  /// One random step, then the oracle check for every prefix.
  void step(std::size_t n) {
    const std::size_t kind = pick(10);
    if (kind <= 2) {
      flip_link();
    } else if (kind <= 5) {
      add_route();
    } else if (kind <= 7) {
      remove_route();
    } else {
      move_origin();
    }
    // The controller replays deltas at the start of a pass; decide()
    // alone must also catch up.
    std::optional<std::vector<net::Prefix>> dirty;
    if (rng_.chance(0.5)) {
      dirty = decider_.apply_topology_deltas();
      // Route and origin steps dirty their prefix in the controller; only
      // a topology step relies on the returned set.
      if (kind > 2) dirty.reset();
    }
    for (const auto& prefix : prefixes_) check(prefix, dirty, n);
  }

  std::size_t crossing_routes_seen() const { return crossing_seen_; }
  std::size_t split_checks() const { return split_checks_; }
  std::size_t moved_by_topology() const { return moved_by_topology_; }

 private:
  /// Uniform index in [0, n).
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  void flip_link() {
    auto& link = links_[pick(links_.size())];
    link.up = !link.up;
    // Either side's PortStatus moves both directions.
    if (rng_.chance(0.5)) {
      graph_.set_port_state(link.a, link.a_port, link.up);
    } else {
      graph_.set_port_state(link.b, link.b_port, link.up);
    }
  }

  void add_route() {
    const auto& prefix = pick_prefix();
    const auto peering = static_cast<speaker::PeeringId>(pick(peer_as_.size()));
    std::vector<core::AsNumber> path{peer_as_[peering]};
    const auto legacy = pick(4);
    for (std::size_t i = 0; i < legacy; ++i) {
      path.emplace_back(static_cast<std::uint32_t>(1000 + pick(6)));
    }
    if (rng_.chance(0.3)) {
      // Cross the cluster: re-enter through a member AS.
      path.emplace_back(static_cast<std::uint32_t>(10 * (1 + pick(switches_))));
      path.emplace_back(static_cast<std::uint32_t>(2000 + pick(3)));
      ++crossing_seen_;
    }
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath{std::move(path)};
    attrs.origin = static_cast<bgp::Origin>(pick(3));
    routes_[prefix][peering] = intern(std::move(attrs));
  }

  void remove_route() {
    auto& routes = routes_[pick_prefix()];
    if (routes.empty()) return;
    routes.erase(std::next(routes.begin(),
                           static_cast<std::ptrdiff_t>(pick(routes.size()))));
  }

  void move_origin() {
    const auto& prefix = pick_prefix();
    const auto to = pick(switches_ + 1);
    if (to == 0) {
      origins_.erase(prefix);
    } else {
      origins_[prefix] = static_cast<Dpid>(to);
    }
  }

  const net::Prefix& pick_prefix() { return prefixes_[pick(prefixes_.size())]; }

  void check(const net::Prefix& prefix,
             const std::optional<std::vector<net::Prefix>>& dirty,
             std::size_t n) {
    std::vector<ExternalRoute> routes;
    for (const auto& [peering, attrs] : routes_[prefix]) {
      routes.push_back({peering, attrs});
    }
    std::optional<Dpid> origin;
    if (const auto it = origins_.find(prefix); it != origins_.end()) {
      origin = it->second;
    }
    const PrefixDecision got = decider_.decide(prefix, routes, origin);
    if (routes.empty() && !origin) decider_.drop(prefix);
    const PrefixDecision want =
        AsTopologyGraph{graph_, speaker_, bridging_}.decide(routes, origin);
    if (!graph_.is_connected()) ++split_checks_;
    const std::string where =
        "step " + std::to_string(n) + " prefix " + prefix.to_string();
    const std::uint64_t fallbacks = decider_.reference_fallbacks();
    const bool fallback = fallbacks != fallbacks_seen_;
    fallbacks_seen_ = fallbacks;
    auto& last = last_[prefix];
    const bool moved = hops_text(last) != hops_text(want) ||
                       paths_text(last) != paths_text(want);
    if (dirty && !fallback && !last_fallback_[prefix] && moved) {
      ++moved_by_topology_;
      EXPECT_TRUE(std::find(dirty->begin(), dirty->end(), prefix) !=
                  dirty->end())
          << where << ": decision moved but the prefix is not dirty";
    }
    last = want;
    last_fallback_[prefix] = fallback;
    ASSERT_EQ(hops_text(got), hops_text(want)) << where;
    ASSERT_EQ(paths_text(got), paths_text(want)) << where;
    ASSERT_EQ(origins_text(got), origins_text(want)) << where;
    ASSERT_EQ(got.pruned_routes, want.pruned_routes) << where;
  }

  core::Rng rng_;
  SwitchGraph graph_;
  speaker::ClusterBgpSpeaker speaker_;
  IncrementalDecider decider_;
  bool bridging_;
  Dpid switches_{0};
  std::vector<Link> links_;
  std::vector<core::AsNumber> peer_as_;
  std::vector<net::Prefix> prefixes_;
  std::map<net::Prefix, std::map<speaker::PeeringId, bgp::AttrSetRef>> routes_;
  std::map<net::Prefix, Dpid> origins_;
  std::size_t crossing_seen_{0};
  std::size_t split_checks_{0};
  /// Oracle decision and fallback flag per prefix at its previous check.
  std::map<net::Prefix, PrefixDecision> last_;
  std::map<net::Prefix, bool> last_fallback_;
  std::uint64_t fallbacks_seen_{0};
  std::size_t moved_by_topology_{0};
};

void run_seeds(bool bridging) {
  std::size_t moved_by_topology = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleRun run{seed, bridging};
    for (std::size_t n = 0; n < 150; ++n) {
      run.step(n);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Guard against a vacuous run: crossing routes and split clusters
    // must both have occurred.
    EXPECT_GT(run.crossing_routes_seen(), 0u);
    EXPECT_GT(run.split_checks(), 0u);
    moved_by_topology += run.moved_by_topology();
  }
  // The dirty-set check must have seen topology steps that move decisions.
  EXPECT_GT(moved_by_topology, 0u);
}

TEST(IncrementalDeciderOracle, MatchesAsTopologyGraphWithBridging) {
  run_seeds(true);
}

TEST(IncrementalDeciderOracle, MatchesAsTopologyGraphWithoutBridging) {
  run_seeds(false);
}

}  // namespace
}  // namespace bgpsdn::controller
