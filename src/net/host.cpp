#include "net/host.hpp"

#include "net/network.hpp"

namespace bgpsdn::net {

void Host::handle_packet(core::PortId ingress, const Packet& packet) {
  (void)ingress;
  if (packet.proto != Protocol::kProbe || packet.dst != address_) return;
  if (packet.payload.empty()) return;
  if (packet.payload[0] == kRequest) {
    ++probes_received_;
    Packet reply;
    reply.src = address_;
    reply.dst = packet.src;
    reply.proto = Protocol::kProbe;
    reply.flow_label = packet.flow_label;
    reply.payload = {kReply};
    // Hosts are single-homed: port 0 is the uplink to their AS router.
    send(core::PortId{0}, std::move(reply));
  } else {
    ++replies_received_;
    last_reply_label_ = packet.flow_label;
    if (reply_callback_) reply_callback_(packet.flow_label);
  }
}

void Host::send_probe(Ipv4Addr dst, std::uint64_t flow_label) {
  Packet probe;
  probe.src = address_;
  probe.dst = dst;
  probe.proto = Protocol::kProbe;
  probe.flow_label = flow_label;
  probe.payload = {kRequest};
  send(core::PortId{0}, std::move(probe));
}

}  // namespace bgpsdn::net
