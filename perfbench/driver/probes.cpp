#include "probes.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bgp/message.hpp"

namespace perfbench {

namespace bgp = bgpsdn::bgp;
namespace net = bgpsdn::net;
using bgpsdn::core::AsNumber;
using Clock = std::chrono::steady_clock;

namespace {

// Fixed operation counts, so a probe does the same work on every run.
constexpr std::size_t kCodecOps = 20000;
constexpr std::size_t kFindOps = 400000;
constexpr std::size_t kLookupOps = 400000;
constexpr std::size_t kSampleRouters = 16;

/// Written with each probe's results so the timed calls are not elided.
volatile std::size_t g_probe_sink = 0;

double ns_since(Clock::time_point start, std::size_t ops) {
  const auto ns = std::chrono::duration<double, std::nano>(Clock::now() - start);
  return ns.count() / static_cast<double>(ops);
}

/// Up to kSampleRouters legacy ASes, evenly spread over the AS range.
std::vector<AsNumber> sample_legacy(const bgpsdn::framework::Experiment& e) {
  std::vector<AsNumber> legacy;
  for (const AsNumber as : e.spec().ases) {
    if (!e.is_member(as)) legacy.push_back(as);
  }
  std::vector<AsNumber> sample;
  const std::size_t step =
      std::max<std::size_t>(1, legacy.size() / kSampleRouters);
  for (std::size_t i = 0; i < legacy.size() && sample.size() < kSampleRouters;
       i += step) {
    sample.push_back(legacy[i]);
  }
  return sample;
}

/// UPDATEs as a router would send them from its converged Loc-RIB: one
/// per attribute bundle, carrying every prefix that shares it.
std::vector<bgp::UpdateMessage> updates_from(const bgp::LocRib& rib) {
  std::vector<bgp::UpdateMessage> updates;
  std::map<const bgp::PathAttributes*, std::size_t> by_bundle;
  rib.for_each([&](const bgp::Route& route) {
    const auto [it, fresh] =
        by_bundle.try_emplace(&*route.attributes, updates.size());
    if (fresh) {
      updates.emplace_back();
      updates.back().attributes = *route.attributes;
    }
    updates[it->second].nlri.push_back(route.prefix);
  });
  return updates;
}

}  // namespace

bool run_probes(bgpsdn::framework::Experiment& experiment, Metrics& out) {
  bool ok = true;
  const std::vector<AsNumber> routers = sample_legacy(experiment);

  std::vector<bgp::UpdateMessage> updates;
  std::vector<net::Prefix> prefixes;
  std::vector<const bgp::LocRib*> ribs;
  for (const AsNumber as : routers) {
    const bgp::LocRib& rib = experiment.router(as).loc_rib();
    for (auto& u : updates_from(rib)) updates.push_back(std::move(u));
    for (const auto& p : rib.prefixes()) {
      prefixes.push_back(p);
      ribs.push_back(&rib);
    }
  }

  double encode_ns = 0;
  double decode_ns = 0;
  if (!updates.empty()) {
    std::vector<std::vector<std::byte>> wires;
    for (const auto& u : updates) wires.push_back(bgp::encode(u));
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const auto decoded = bgp::decode(wires[i]);
      const auto* back =
          decoded ? std::get_if<bgp::UpdateMessage>(&*decoded) : nullptr;
      if (back == nullptr || !(*back == updates[i])) {
        std::fprintf(stderr, "probe: UPDATE %zu does not decode to itself\n",
                     i);
        ok = false;
      }
    }
    std::size_t sink = 0;
    auto start = Clock::now();
    for (std::size_t i = 0; i < kCodecOps; ++i) {
      sink += bgp::encode(updates[i % updates.size()]).size();
    }
    encode_ns = ns_since(start, kCodecOps);
    start = Clock::now();
    for (std::size_t i = 0; i < kCodecOps; ++i) {
      sink += bgp::decode(wires[i % wires.size()]).has_value();
    }
    decode_ns = ns_since(start, kCodecOps);
    g_probe_sink = sink;
  }
  out["bgp.codec.encode_ns"] = encode_ns;
  out["bgp.codec.decode_ns"] = decode_ns;

  double find_ns = 0;
  if (!prefixes.empty()) {
    std::size_t hits = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kFindOps; ++i) {
      const std::size_t k = i % prefixes.size();
      hits += ribs[k]->find(prefixes[k]) != nullptr;
    }
    find_ns = ns_since(start, kFindOps);
    if (hits != kFindOps) {
      std::fprintf(stderr, "probe: LocRib::find missed %zu installed prefixes\n",
                   kFindOps - hits);
      ok = false;
    }
  }
  out["bgp.rib.find_ns"] = find_ns;

  // Member flow tables, probed with one packet per destination prefix the
  // tables hold (legacy Loc-RIB prefixes plus the members' own).
  double lookup_ns = 0;
  std::vector<bgpsdn::sdn::FlowTable*> tables;
  for (const AsNumber as : experiment.members()) {
    tables.push_back(&experiment.member_switch(as).table());
  }
  if (!tables.empty() && !prefixes.empty()) {
    std::vector<net::Packet> packets;
    for (const auto& p : prefixes) {
      net::Packet packet;
      packet.dst = net::Ipv4Addr{p.network().bits() | 1u};
      packets.push_back(packet);
    }
    std::size_t matched = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kLookupOps; ++i) {
      auto* table = tables[i % tables.size()];
      matched += table->lookup(bgpsdn::core::PortId{0},
                               packets[i % packets.size()], false) != nullptr;
    }
    lookup_ns = ns_since(start, kLookupOps);
    g_probe_sink = matched;
  }
  out["sdn.flow.lookup_ns"] = lookup_ns;
  return ok;
}

}  // namespace perfbench
