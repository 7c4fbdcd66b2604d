// Network — the emulated topology: nodes, links, and packet delivery.
//
// This is the Mininet analogue. It owns every node, wires links between
// node ports, and moves packets on the shared event loop with per-link
// delay, serialization (bandwidth) and loss. Link failure/restoration is a
// first-class operation because the experiments revolve around it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/event_loop.hpp"
#include "core/ids.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::net {

/// Static properties of a point-to-point link.
struct LinkParams {
  core::Duration delay{core::Duration::millis(1)};
  /// Bits per second; 0 means infinite (no serialization delay).
  std::uint64_t bandwidth_bps{0};
  /// Independent per-packet drop probability.
  double loss{0.0};

  /// Throws std::invalid_argument on a negative delay or a loss outside
  /// [0, 1] (NaN included). Called by Network::connect so a bad topology
  /// spec fails at build time, not as silent mis-delivery mid-run.
  void validate() const;
};

/// One attachment point of a link.
struct LinkEnd {
  core::NodeId node{core::NodeId::invalid()};
  core::PortId port{core::PortId::invalid()};
};

struct Link {
  LinkEnd a;
  LinkEnd b;
  LinkParams params;
  bool up{true};
  /// Per-packet probability of in-flight payload corruption (fault
  /// injection); corrupted packets are still delivered, with 1-3 seeded
  /// bit flips applied.
  double corrupt{0.0};
  /// Earliest instant each direction's transmitter is free (bandwidth model).
  core::TimePoint tx_free[2]{};
};

/// Packet accounting, exposed for loss measurement and tests.
struct NetworkStats {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped_loss{0};
  std::uint64_t dropped_link_down{0};
  std::uint64_t dropped_ttl{0};
  std::uint64_t dropped_no_port{0};
  /// Packets whose payload was bit-flipped in flight (still delivered).
  std::uint64_t corrupted{0};
};

class Network {
 public:
  Network(core::EventLoop& loop, core::Logger& logger, core::Rng& rng)
      : loop_{loop}, logger_{logger}, rng_{rng} {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Construct and register a node. Returns a reference that stays valid for
  /// the lifetime of the Network.
  template <typename T, typename... Args>
  T& add(std::string name, Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    register_node(std::move(owned), std::move(name));
    return ref;
  }

  /// Connect two nodes with a fresh port on each. Returns the link id.
  core::LinkId connect(core::NodeId a, core::NodeId b, LinkParams params = {});

  /// Transmit a packet out of (from, port). Applies delay, bandwidth and
  /// loss; delivers to the peer if the link is up.
  void send(core::NodeId from, core::PortId port, Packet packet);

  /// Fail or restore a link; both endpoints get on_link_state callbacks.
  void set_link_up(core::LinkId id, bool up);
  bool link_is_up(core::LinkId id) const { return links_.at(id.value()).up; }

  /// Change a link's drop probability at runtime (degradation injection;
  /// no notification — endpoints only observe the loss itself). Values
  /// outside [0, 1] are clamped; NaN throws std::invalid_argument.
  void set_link_loss(core::LinkId id, double loss);

  /// Change a link's payload-corruption probability at runtime (fault
  /// injection). Same clamping/NaN contract as set_link_loss. Corrupted
  /// packets get 1-3 bit flips from the network RNG, so corruption is
  /// deterministic per seed.
  void set_link_corruption(core::LinkId id, double probability);

  /// The (node, port) on the other side of a local port; invalid ids if the
  /// port is unused.
  LinkEnd peer_of(core::NodeId node, core::PortId port) const;

  /// The link attached at (node, port), or invalid if none.
  core::LinkId link_at(core::NodeId node, core::PortId port) const;

  /// Find the link connecting two nodes (first match), or invalid.
  core::LinkId find_link(core::NodeId a, core::NodeId b) const;

  /// Call start() on every node, in registration order.
  void start_all();

  Node& node(core::NodeId id) { return *nodes_.at(id.value()); }
  const Node& node(core::NodeId id) const { return *nodes_.at(id.value()); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const Link& link(core::LinkId id) const { return links_.at(id.value()); }
  std::size_t port_count(core::NodeId node) const {
    return ports_.at(node.value()).size();
  }

  core::EventLoop& loop() { return loop_; }
  core::Logger& logger() { return logger_; }
  core::Rng& rng() { return rng_; }
  const NetworkStats& stats() const { return stats_; }

  /// BGP session ids are scoped to the network so that several simulations
  /// can coexist in one process (each with its own Network) and a given
  /// build order always yields the same ids. Controllers key per-network
  /// tables by session id, so uniqueness must span all nodes of a network.
  core::SessionIdAllocator& session_ids() { return session_ids_; }

  /// Telemetry hub scoped to this network (metrics + trace fan-out). Nodes
  /// reach it through Node::telemetry(); external observers attach trace
  /// sinks and read metric snapshots here.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Emit one fact now to this network's Logger and telemetry.
  void emit(const core::Fact& fact);

 private:
  void register_node(std::unique_ptr<Node> node, std::string name);
  void deliver(core::LinkId link_id, int direction, const Packet& packet);

  core::EventLoop& loop_;
  core::Logger& logger_;
  core::Rng& rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Link> links_;
  /// ports_[node][port] -> link id attached there.
  std::vector<std::vector<core::LinkId>> ports_;
  NetworkStats stats_;
  core::SessionIdAllocator session_ids_;
  telemetry::Telemetry telemetry_;
};

}  // namespace bgpsdn::net
