// Adj-RIB-Out against an independent oracle, and the attribute store's
// per-simulation lifetime.
//
// The oracle recomputes every router's advertisement from its converged
// Loc-RIB with PolicyEngine::apply_export plus the mandatory prepend and
// the peering's NEXT_HOP, sharing no code with the router's export cache,
// and checks the peer's Adj-RIB-In holds that bundle after import policy.
// Peerings with extra prepends, prefix filters and route maps cover the
// uncached export path next to the cached one.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "framework/experiment.hpp"
#include "test_helpers.hpp"
#include "topology/generators.hpp"

namespace bgpsdn {
namespace {

using core::AsNumber;

const net::Prefix kDenied = *net::Prefix::parse("10.7.1.0/24");

/// Wires `spec` into routers that share one attribute store. Every fifth
/// peering side gets two extra prepends, a prefix filter, or a route map
/// that tags and prunes long paths, in turn.
class OracleTopo {
 public:
  explicit OracleTopo(const topology::TopologySpec& spec) {
    for (const auto as : spec.ases) {
      bgp::RouterConfig rc;
      rc.asn = as;
      rc.router_id = topo_.alloc().router_id(as);
      rc.timers = testing::MiniTopo::quick_timers();
      rc.attr_registry = store_;
      routers_[as] = &topo_.net().add<bgp::BgpRouter>(as.to_string(), rc);
    }
    std::size_t side = 0;
    for (const auto& link : spec.links) {
      auto& a = *routers_.at(link.a);
      auto& b = *routers_.at(link.b);
      const auto id = topo_.net().connect(a.id(), b.id(),
                                          {core::Duration::millis(2), 0, 0.0});
      const auto& l = topo_.net().link(id);
      const auto p2p = topo_.alloc().next_p2p();
      a.add_peer(l.a.port, peer_config(spec.policy_mode, link.a_sees_b,
                                       p2p.left, p2p.right, b.asn(), side++));
      b.add_peer(l.b.port,
                 peer_config(spec.policy_mode, bgp::reverse(link.a_sees_b),
                             p2p.right, p2p.left, a.asn(), side++));
    }
  }

  bgp::BgpRouter& router(AsNumber as) { return *routers_.at(as); }
  const std::map<AsNumber, bgp::BgpRouter*>& routers() const { return routers_; }
  testing::MiniTopo& topo() { return topo_; }
  const bgp::AttrRegistry& store() const { return *store_; }

 private:
  static bgp::PeerConfig peer_config(bgp::PolicyMode mode, bgp::Relationship rel,
                                     net::Ipv4Addr local, net::Ipv4Addr remote,
                                     AsNumber peer_as, std::size_t side) {
    bgp::PeerConfig pc;
    pc.policy.mode = mode;
    pc.policy.relationship = rel;
    pc.local_address = local;
    pc.remote_address = remote;
    pc.expected_peer_as = peer_as;
    switch (side % 5) {
      case 1:
        pc.policy.prepend = 2;
        break;
      case 2:
        pc.policy.export_deny = {kDenied};
        break;
      case 3:
        pc.policy.export_map = [](bgp::PathAttributes& attrs) {
          attrs.communities.push_back(0xFFFF0001u);
          return attrs.as_path.length() <= 4;
        };
        break;
      default:
        break;
    }
    return pc;
  }

  bgp::AttrRegistryRef store_ = std::make_shared<bgp::AttrRegistry>();
  testing::MiniTopo topo_;
  std::map<AsNumber, bgp::BgpRouter*> routers_;
};

/// The port of `router` whose session faces `peer_as`.
std::optional<core::PortId> port_towards(const bgp::BgpRouter& router,
                                         AsNumber peer_as) {
  for (const auto port : router.peer_ports()) {
    if (router.session_on(port)->peer_as() == peer_as) return port;
  }
  return std::nullopt;
}

/// Relationship of the session a Loc-RIB winner was learned on.
std::optional<bgp::Relationship> learned_relationship(
    const bgp::BgpRouter& router, const bgp::Route& best) {
  if (best.is_local()) return std::nullopt;
  for (const auto port : router.peer_ports()) {
    if (router.session_on(port)->id() == best.learned_from) {
      return router.peer_config(port)->policy.relationship;
    }
  }
  ADD_FAILURE() << "winner learned on an unknown session";
  return std::nullopt;
}

/// Returns the number of (router, peer, prefix) advertisements checked.
std::size_t check_against_oracle(OracleTopo& net) {
  std::size_t advertised = 0;
  for (const auto& [as, router] : net.routers()) {
    for (const auto port : router->peer_ports()) {
      const bgp::Session* session = router->session_on(port);
      EXPECT_TRUE(session->established()) << as.to_string();
      const bgp::PeerConfig& pc = *router->peer_config(port);
      const bgp::AdjRibOut& out = *router->adj_rib_out(port);
      bgp::BgpRouter& remote = net.router(session->peer_as());
      const auto remote_port = port_towards(remote, as);
      EXPECT_TRUE(remote_port.has_value());
      if (!remote_port) continue;
      const auto remote_sid = remote.session_on(*remote_port)->id();
      const bgp::PeerPolicy& remote_policy =
          remote.peer_config(*remote_port)->policy;

      std::size_t exported = 0;
      for (const auto& prefix : router->loc_rib().prefixes()) {
        const bgp::Route best = *router->loc_rib().find(prefix);
        bgp::PathAttributes want = *best.attributes;
        const bool ok = bgp::PolicyEngine::apply_export(
            pc.policy, learned_relationship(*router, best), prefix, want, as);
        want.as_path = want.as_path.prepend(as);
        want.next_hop = pc.local_address;
        const std::string where = as.to_string() + " -> " +
                                  session->peer_as().to_string() + " " +
                                  prefix.to_string();

        const bgp::PathAttributes* adv = out.advertised(prefix);
        if (!ok) {
          EXPECT_EQ(adv, nullptr) << where;
        } else if (adv == nullptr) {
          ADD_FAILURE() << "missing advertisement " << where;
        } else {
          ++exported;
          // The shared bundle carries no NEXT_HOP; the wire copy gets the
          // peering's own address.
          EXPECT_EQ(adv->next_hop, net::Ipv4Addr{}) << where;
          bgp::PathAttributes stamped = *adv;
          stamped.next_hop = pc.local_address;
          EXPECT_EQ(stamped, want) << where;
        }

        const bgp::Route* in = remote.adj_rib_in().find(prefix, remote_sid);
        bgp::PathAttributes imported = want;
        const bool accepted =
            ok && !want.as_path.contains(remote.asn()) &&
            bgp::PolicyEngine::apply_import(remote_policy, prefix, imported);
        if (!accepted) {
          EXPECT_EQ(in, nullptr) << where;
        } else if (in == nullptr) {
          ADD_FAILURE() << "peer lacks the route " << where;
        } else {
          EXPECT_EQ(*in->attributes, imported) << where;
        }
      }
      EXPECT_EQ(out.size(), exported) << as.to_string() << " port";
      advertised += exported;
    }
  }
  return advertised;
}

void originate_and_converge(OracleTopo& net,
                            const std::vector<AsNumber>& origins) {
  std::uint8_t third = 0;
  for (const auto as : origins) {
    for (std::uint8_t i = 0; i < 2; ++i) {
      net.router(as).originate(net::Prefix{net::Ipv4Addr{10, 7, third++, 0}, 24});
    }
  }
  net.topo().start();
  net.topo().run_for(core::Duration::seconds(60));
}

TEST(ExportOracle, CliqueMatchesIndependentExport) {
  OracleTopo net{topology::clique(6)};
  originate_and_converge(net, {AsNumber{1}, AsNumber{4}});
  EXPECT_GT(check_against_oracle(net), 0u);
  EXPECT_GT(net.store().export_entries(), 0u);
}

TEST(ExportOracle, RingMatchesIndependentExport) {
  OracleTopo net{topology::ring(7)};
  originate_and_converge(net, {AsNumber{1}, AsNumber{3}, AsNumber{6}});
  EXPECT_GT(check_against_oracle(net), 0u);
}

TEST(ExportOracle, GaoRexfordGraphMatchesIndependentExport) {
  core::Rng rng{17};
  topology::InternetLikeParams params;
  params.tier1 = 3;
  params.transit = 6;
  params.stubs = 10;
  const auto spec = topology::internet_like(params, rng);
  ASSERT_EQ(spec.policy_mode, bgp::PolicyMode::kGaoRexford);
  OracleTopo net{spec};
  originate_and_converge(net, {spec.ases.front(), spec.ases.back(),
                               spec.ases[spec.ases.size() / 2]});
  EXPECT_GT(check_against_oracle(net), 0u);
}

// --- store lifetime ---------------------------------------------------------

struct StoreSnapshot {
  core::MemStats mem;
  std::size_t bundles{0};
  std::size_t exports{0};
  std::uint64_t interns{0};
};

StoreSnapshot run_hybrid(bgp::AttrRegistryRef& store_out) {
  core::Rng rng{23};
  topology::InternetLikeParams params;
  params.tier1 = 3;
  params.transit = 5;
  params.stubs = 8;
  const auto spec = topology::internet_like(params, rng);
  framework::ExperimentConfig cfg;
  cfg.seed = 23;
  cfg.timers.mrai = core::Duration::millis(300);
  framework::Experiment exp{spec, {spec.ases[0], spec.ases[1]}, cfg};
  exp.announce_prefix(spec.ases.back(), *net::Prefix::parse("10.60.0.0/16"));
  exp.announce_prefix(spec.ases[4], *net::Prefix::parse("10.61.0.0/16"));
  EXPECT_TRUE(exp.start());
  exp.wait_converged();
  store_out = exp.attr_registry();
  StoreSnapshot snap;
  snap.mem = exp.memory_stats();
  snap.bundles = store_out->size();
  snap.exports = store_out->export_entries();
  snap.interns = store_out->interns();
  return snap;
}

TEST(AttrStoreLifetime, BackToBackExperimentsAreIdentical) {
  // No attribute state survives an Experiment: a second run of the same
  // seed on the same thread sees exactly the first run's store.
  bgp::AttrRegistryRef first_store;
  bgp::AttrRegistryRef second_store;
  const StoreSnapshot first = run_hybrid(first_store);
  const StoreSnapshot second = run_hybrid(second_store);
  EXPECT_NE(first_store, second_store);
  EXPECT_GT(first.bundles, 0u);
  EXPECT_GT(first.exports, 0u);
  EXPECT_EQ(first.bundles, second.bundles);
  EXPECT_EQ(first.exports, second.exports);
  EXPECT_EQ(first.interns, second.interns);
  EXPECT_EQ(first.mem.attr_pool, second.mem.attr_pool);
  EXPECT_EQ(first.mem.attr_registry, second.mem.attr_registry);
  EXPECT_EQ(first.mem.total(), second.mem.total());
  // Each experiment is gone; everything it interned went with it.
  EXPECT_EQ(first_store->size(), 0u);
  EXPECT_EQ(first_store->export_entries(), 0u);
  EXPECT_EQ(second_store->size(), 0u);
  EXPECT_EQ(second_store->export_entries(), 0u);
}

}  // namespace
}  // namespace bgpsdn
