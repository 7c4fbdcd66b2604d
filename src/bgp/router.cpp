#include "bgp/router.hpp"

#include <algorithm>

#include "core/event_loop.hpp"
#include "core/fact.hpp"
#include "core/random.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::bgp {

namespace {
/// Locally-originated routes always win the decision process.
constexpr std::uint32_t kLocalRoutePref = 1000;

/// Peer::export_class of a peering whose export is evaluated per prefix.
constexpr std::uint64_t kUncachedExport = 0;

AttrRegistryRef store_or_private(const AttrRegistryRef& shared) {
  return shared != nullptr ? shared : std::make_shared<AttrRegistry>();
}

/// Low byte of an export-cache key: how the exported winner was learned.
std::uint64_t learned_code(const std::optional<Relationship>& rel) {
  return rel.has_value() ? 1 + static_cast<std::uint64_t>(*rel) : 0;
}

/// Add `prefix` to the announcement group of `attrs` (one bundle per
/// UPDATE). Bundles of one store compare by identity, so the group lookup is
/// a pointer compare.
void add_to_group(
    std::vector<std::pair<AttrSetRef, std::vector<net::Prefix>>>& groups,
    const AttrSetRef& attrs, const net::Prefix& prefix) {
  auto it = std::find_if(groups.begin(), groups.end(),
                         [&](const auto& g) { return g.first == attrs; });
  if (it == groups.end()) {
    groups.push_back({attrs, {prefix}});
  } else {
    // lint: alloc-ok(grows the per-bundle NLRI list; amortized across the
    // burst and bounded by the drained set the groups were reserved for)
    it->second.push_back(prefix);
  }
}
}  // namespace

BgpRouter::BgpRouter(RouterConfig config)
    : config_{std::move(config)},
      store_{store_or_private(config_.attr_registry)},
      adj_rib_in_{store_},
      loc_rib_{store_},
      rib_out_store_{store_},
      dampener_{config_.damping} {
  PathAttributes local;
  local.origin = Origin::kIgp;
  local.local_pref = kLocalRoutePref;
  local_attrs_ = store_->intern(std::move(local));
}

void BgpRouter::add_peer(core::PortId port, PeerConfig peer_config) {
  SessionConfig sc;
  sc.id = allocate_session_id();
  sc.local_as = config_.asn;
  sc.local_id = config_.router_id;
  sc.local_address = peer_config.local_address;
  sc.remote_address = peer_config.remote_address;
  sc.expected_peer_as = peer_config.expected_peer_as;
  sc.timers = config_.timers;

  auto [it, fresh] = peers_.try_emplace(port);
  Peer& peer = it->second;
  // Every peer's Adj-RIB-Out is one column of the router-wide store so
  // per-prefix advertised state is shared across peers.
  if (fresh) peer.rib_out = AdjRibOut(rib_out_store_);
  peer.port = port;
  peer.config = std::move(peer_config);
  peer.export_class = export_class_of(peer.config.policy);
  peer.session = std::make_unique<Session>(*this, sc);
  peers_by_session_[sc.id.value()] = &peer;
  if (started_) peer.session->start();
}

void BgpRouter::attach_host(core::PortId port, const net::Prefix& prefix) {
  host_ports_[prefix] = port;
  fib_.insert(prefix, port);
  originate(prefix);
}

void BgpRouter::originate(const net::Prefix& prefix) {
  local_prefixes_.emplace(prefix, loop().now());
  emit({core::FactKind::kOriginAnnounce, session_log_name(),
        [&] { return prefix.to_string(); }});
  TxBatch batch{*this};
  recompute(prefix);
}

void BgpRouter::withdraw_origin(const net::Prefix& prefix) {
  if (local_prefixes_.erase(prefix) == 0) return;
  emit({core::FactKind::kOriginWithdraw, session_log_name(),
        [&] { return prefix.to_string(); }});
  TxBatch batch{*this};
  recompute(prefix);
}

void BgpRouter::start() {
  started_ = true;
  for (auto& [port, peer] : peers_) peer.session->start();
}

void BgpRouter::handle_packet(core::PortId ingress, const net::Packet& packet) {
  if (packet.proto == net::Protocol::kBgp) {
    Peer* peer = peer_on(ingress);
    if (peer != nullptr) peer->session->receive(packet.payload);
    return;
  }
  forward_data(packet);
}

void BgpRouter::forward_data(const net::Packet& packet) {
  const auto hit = fib_.lookup(packet.dst);
  if (!hit) {
    ++counters_.packets_no_route;
    return;
  }
  ++counters_.packets_forwarded;
  send(*hit->second, packet);
}

void BgpRouter::on_link_state(core::PortId port, bool up) {
  Peer* peer = peer_on(port);
  if (peer == nullptr) return;
  if (up) {
    peer->session->start();
  } else {
    peer->session->stop("link down");
  }
}

// --- SessionHost ----------------------------------------------------------

void BgpRouter::session_transmit(Session& session, net::Bytes wire) {
  Peer* peer = peer_of(session);
  if (peer == nullptr) return;
  net::Packet pkt;
  pkt.src = peer->config.local_address;
  pkt.dst = peer->config.remote_address;
  pkt.proto = net::Protocol::kBgp;
  pkt.payload = std::move(wire);
  send(peer->port, std::move(pkt));
}

void BgpRouter::session_established(Session& session) {
  Peer* peer = peer_of(session);
  emit({core::FactKind::kPeerUp, session_log_name(),
        [&] { return "peer " + session.peer_as().to_string(); }});
  if (config_.timers.mrai_style == MraiStyle::kPeriodicQuagga &&
      peer_mrai(*peer) > core::Duration::zero()) {
    // Initial table transfer goes out promptly; afterwards the
    // free-running advertisement timer paces everything.
    for (const auto& prefix : loc_rib_.prefixes()) {
      peer->pending.insert(prefix_index_.intern(prefix));
    }
    flush_peer(*peer);
    arm_mrai(*peer);
  } else {
    TxBatch batch{*this};
    for (const auto& prefix : loc_rib_.prefixes()) {
      schedule_peer_update(*peer, prefix_index_.intern(prefix));
    }
  }
}

void BgpRouter::session_down(Session& session, const std::string& reason) {
  Peer* peer = peer_of(session);
  emit({core::FactKind::kPeerDown, session_log_name(), [&] {
          return "peer " + session.peer_as().to_string() + ": " + reason;
        }});
  ++peer->epoch;
  peer->rib_out.clear();
  peer->pending.clear();
  peer->batch_dirty.clear();
  if (peer->mrai_timer.is_valid()) loop().cancel(peer->mrai_timer);
  peer->mrai_running = false;
  dampener_.clear_session(session.id());
  TxBatch batch{*this};
  for (const auto& prefix : adj_rib_in_.erase_session(session.id())) {
    recompute(prefix);
  }
}

void BgpRouter::session_update(Session& session, const UpdateMessage& update) {
  Peer* peer = peer_of(session);
  ++counters_.updates_rx;
  emit({core::FactKind::kUpdateRx, session_log_name(),
        [&] {
          return "from " + session.peer_as().to_string() + " " +
                 update.to_string();
        },
        {session.peer_as(), update.nlri.size(), update.withdrawn.size()}});
  const auto routes = update.nlri.size() + update.withdrawn.size();
  const auto cost = config_.processing.per_update +
                    config_.processing.per_route * static_cast<std::int64_t>(routes);
  const auto epoch = peer->epoch;
  enqueue_work(cost, [this, peer, epoch, update] {
    if (peer->epoch != epoch || !peer->session->established()) return;
    process_update(*peer, update);
  });
}

core::EventLoop& BgpRouter::session_loop() { return loop(); }
core::Rng& BgpRouter::session_rng() { return rng(); }
core::Logger& BgpRouter::session_logger() { return logger(); }
telemetry::Telemetry* BgpRouter::session_telemetry() { return telemetry(); }

void BgpRouter::init_metrics() {
  if (metrics_resolved_) return;
  metrics_resolved_ = true;
  if (auto* tel = telemetry()) {
    auto& metrics = tel->metrics();
    decision_runs_metric_ = &metrics.counter("bgp.decision.runs");
    decision_candidates_metric_ = &metrics.histogram("bgp.decision.candidates");
  }
}
const std::string& BgpRouter::session_log_name() const {
  // Built once the node is attached: its name is final from then on.
  if (log_name_.empty() || !attached()) {
    log_name_ = "bgp." + (name().empty() ? config_.asn.to_string() : name());
  }
  return log_name_;
}

// --- update processing ------------------------------------------------------

void BgpRouter::process_update(Peer& peer, const UpdateMessage& update) {
  const auto sid = peer.session->id();
  TxBatch batch{*this};
  for (const auto& prefix : update.withdrawn) {
    if (adj_rib_in_.erase(prefix, sid)) {
      note_flap(sid, prefix, /*withdrawal=*/true);
      recompute(prefix);
    }
  }
  if (update.nlri.empty()) return;
  const PeerPolicy& policy = peer.config.policy;
  const bool looped = update.attributes.as_path.contains(config_.asn);
  // Without a prefix filter or route map the import result is the same for
  // every NLRI of the UPDATE: intern it once.
  const bool per_prefix = !policy.import_deny.empty() || policy.import_map;
  AttrSetRef shared;
  if (!looped && !per_prefix) {
    PathAttributes attrs = update.attributes;
    PolicyEngine::apply_import(policy, update.nlri.front(), attrs);
    shared = store_->intern(std::move(attrs));
  }
  for (const auto& prefix : update.nlri) {
    if (looped) {
      ++counters_.routes_rejected_loop;
      if (adj_rib_in_.erase(prefix, sid)) recompute(prefix);
      continue;
    }
    Route route;
    route.prefix = prefix;
    if (per_prefix) {
      PathAttributes attrs = update.attributes;
      if (!PolicyEngine::apply_import(policy, prefix, attrs)) {
        ++counters_.routes_rejected_policy;
        if (adj_rib_in_.erase(prefix, sid)) recompute(prefix);
        continue;
      }
      route.attributes = store_->intern(std::move(attrs));
    } else {
      route.attributes = shared;
    }
    route.learned_from = sid;
    route.peer_bgp_id = peer.session->peer_bgp_id();
    route.peer_address = peer.config.remote_address;
    route.installed_at = loop().now();
    // Re-announcements with unchanged attributes keep their age (the
    // decision process prefers older routes) and do not count as flaps.
    // Interning makes this the pointer-identity fast path.
    const Route* existing = adj_rib_in_.find(prefix, sid);
    if (existing != nullptr && existing->attributes == route.attributes) {
      route.installed_at = existing->installed_at;
    } else if (existing != nullptr || dampener_.has_history(sid, prefix)) {
      // Attribute change or re-advertisement after a withdrawal: a flap.
      note_flap(sid, prefix, /*withdrawal=*/false);
    }
    // Dirty-prefix decision: an unchanged candidate set (a duplicate
    // re-announcement) cannot move the best path, so skip the decision
    // process entirely.
    if (adj_rib_in_.put(route)) recompute(prefix);
  }
}

void BgpRouter::note_flap(core::SessionId session, const net::Prefix& prefix,
                          bool withdrawal) {
  const auto verdict =
      dampener_.record_flap(session, prefix, withdrawal, loop().now());
  if (!verdict.suppressed) return;
  ++counters_.routes_suppressed;
  emit({core::FactKind::kRouteDamped, session_log_name(), [&] {
          return prefix.to_string() + " penalty " +
                 std::to_string(static_cast<int>(verdict.penalty));
        }});
  // Re-evaluate once the penalty decays to the reuse threshold.
  loop().schedule(verdict.reuse_after + core::Duration::millis(1),
                  [this, prefix] {
                    TxBatch batch{*this};
                    recompute(prefix);
                  });
}

// lint: hotpath(decision process runs once per affected prefix per UPDATE;
// at internet scale it dominates the event loop)
void BgpRouter::recompute(const net::Prefix& prefix) {
  init_metrics();
  const std::uint32_t slot = prefix_index_.intern(prefix);
  if (slot >= sources_.size()) sources_.resize(slot + 1);
  if (decision_runs_metric_ != nullptr) decision_runs_metric_->inc();
  // Incremental best-path selection over an allocation-free visitation of
  // the Adj-RIB-In candidates (visited in session-ascending order, so ties
  // resolve exactly as the old select_best-over-vector did). The running
  // winner is copied out: the Adj-RIB-In materializes each candidate into
  // scratch storage that the next visit reuses.
  Route best;
  bool have_best = false;
  std::size_t candidate_count = 0;
  adj_rib_in_.for_each_candidate(prefix, [&](const Route& r) {
    if (config_.damping.enabled &&
        dampener_.is_suppressed(r.learned_from, prefix, loop().now())) {
      return;
    }
    ++candidate_count;
    if (!have_best || compare_routes(r, best) < 0) {
      best = r;
      have_best = true;
    }
  });
  if (const auto it = local_prefixes_.find(prefix); it != local_prefixes_.end()) {
    Route local;
    local.prefix = prefix;
    local.attributes = local_attrs_;
    local.installed_at = it->second;
    ++candidate_count;
    if (!have_best || compare_routes(local, best) < 0) {
      best = local;
      have_best = true;
    }
  }

  if (decision_candidates_metric_ != nullptr) {
    decision_candidates_metric_->record(
        static_cast<std::int64_t>(candidate_count));
  }

  const Route* current = loc_rib_.find(prefix);
  const auto prefix_text = [&] { return prefix.to_string(); };

  if (!have_best) {
    if (current == nullptr) return;
    loc_rib_.remove(prefix);
    sources_[slot] = ExportSource{};
    if (host_ports_.count(prefix) == 0) fib_.erase(prefix);
    ++counters_.best_changes;
    emit({core::FactKind::kBestLost, session_log_name(), prefix_text,
          {prefix_text, candidate_count, true}});
  } else {
    const bool changed = current == nullptr ||
                         current->attributes != best.attributes ||
                         current->learned_from != best.learned_from;
    if (!changed) return;
    loc_rib_.install(best);
    ExportSource& source = sources_[slot];
    source.best = best.attributes;
    source.learned_from = best.learned_from;
    source.present = true;
    if (best.is_local()) {
      source.learned_rel.reset();
      // Delivered locally (to the attached host if any).
      if (const auto it = host_ports_.find(prefix); it != host_ports_.end()) {
        fib_.insert(prefix, it->second);
      } else {
        fib_.erase(prefix);
      }
    } else {
      const Peer* via = peers_by_session_.at(best.learned_from.value());
      source.learned_rel = via->config.policy.relationship;
      fib_.insert(prefix, via->port);
    }
    ++counters_.best_changes;
    emit({core::FactKind::kBestChanged, session_log_name(),
          [&] {
            // lint: alloc-ok(runs only when a reader asks for the text:
            // retention, echo or a sink calling detail())
            return prefix.to_string() + " via [" +
                   best.attributes->as_path.to_string() + "]";
          },
          {prefix_text, candidate_count, true}});
  }

  for (auto& [port, peer] : peers_) schedule_peer_update(peer, slot);
}

// --- advertisement / MRAI ---------------------------------------------------

std::uint64_t BgpRouter::export_class_of(const PeerPolicy& policy) const {
  if (!policy.export_deny.empty() || policy.export_map) return kUncachedExport;
  // Everything apply_export reads besides the bundle and how it was learned
  // (the low byte, filled in per lookup). The mode byte is offset by one so
  // no class equals kUncachedExport.
  return (std::uint64_t{config_.asn.value()} << 32) |
         ((static_cast<std::uint64_t>(policy.mode) + 1) << 24) |
         (static_cast<std::uint64_t>(policy.relationship) << 16) |
         (std::uint64_t{policy.prepend} << 8);
}

// lint: hotpath(one export evaluation per (prefix, peer) on every best-path
// change and flush; a cache hit is a short chain walk, no copy)
BgpRouter::ExportAction BgpRouter::evaluate_export(const Peer& peer,
                                                   std::uint32_t slot,
                                                   AttrSetRef& out_attrs) {
  const ExportSource& source = sources_[slot];
  if (!source.present) return ExportAction::kWithdraw;
  if (config_.split_horizon && source.learned_from == peer.session->id()) {
    return ExportAction::kWithdraw;
  }
  const bool cacheable = peer.export_class != kUncachedExport;
  const std::uint64_t klass = peer.export_class | learned_code(source.learned_rel);
  if (cacheable) {
    switch (store_->find_export(source.best, klass, out_attrs)) {
      case AttrRegistry::Cached::kExported:
        return ExportAction::kAnnounce;
      case AttrRegistry::Cached::kRejected:
        return ExportAction::kWithdraw;
      case AttrRegistry::Cached::kMiss:
        break;
    }
  }
  // Copy-out / edit / re-intern: the stored bundle is immutable. NEXT_HOP
  // is left empty so every peer of one class shares the result; it is
  // stamped per peer at send time.
  PathAttributes attrs = *source.best;
  const bool exported = PolicyEngine::apply_export(
      peer.config.policy, source.learned_rel, prefix_index_.prefix(slot), attrs,
      config_.asn);
  if (exported) {
    attrs.as_path = attrs.as_path.prepend(config_.asn);
    attrs.next_hop = net::Ipv4Addr{};
    out_attrs = store_->intern(std::move(attrs));
  }
  if (cacheable) {
    store_->cache_export(source.best, klass, exported ? &out_attrs : nullptr);
  }
  return exported ? ExportAction::kAnnounce : ExportAction::kWithdraw;
}

core::Duration BgpRouter::peer_mrai(const Peer& peer) const {
  return peer.config.mrai.value_or(config_.timers.mrai);
}

void BgpRouter::schedule_peer_update(Peer& peer, std::uint32_t slot) {
  if (!peer.session->established()) return;
  AttrSetRef attrs;
  const ExportAction action = evaluate_export(peer, slot, attrs);
  const bool announce = action == ExportAction::kAnnounce;
  const bool gated = (announce || config_.timers.mrai_applies_to_withdrawals) &&
                     peer_mrai(peer) > core::Duration::zero();
  if (!gated) {
    // Ungated (withdrawal, or MRAI disabled): send right away, leaving any
    // MRAI-gated announcements queued. Inside a TxBatch the send is
    // deferred to the batch flush so same-bundle prefixes pack into one
    // multi-NLRI UPDATE.
    peer.pending.erase(slot);
    if (tx_batch_depth_ > 0) {
      peer.batch_dirty.insert(slot);
      return;
    }
    const net::Prefix& prefix = prefix_index_.prefix(slot);
    UpdateGroups groups;
    std::vector<net::Prefix> withdrawals;
    if (announce) {
      if (!peer.rib_out.advertise(prefix, attrs)) return;  // duplicate
      groups.push_back({attrs, {prefix}});
    } else {
      if (!peer.rib_out.withdraw(prefix)) return;  // never advertised
      withdrawals.push_back(prefix);
    }
    emit_updates(peer, groups, withdrawals);
    return;
  }
  peer.pending.insert(slot);
  if (config_.timers.mrai_style == MraiStyle::kPeriodicQuagga) {
    // The free-running advertisement timer (armed at session
    // establishment) will flush this at its next tick.
    return;
  }
  if (!peer.mrai_running) {
    flush_peer(peer);
    arm_mrai(peer);
  }
}

// lint: hotpath(flush-buffer coalescing runs once per MRAI tick per peer;
// a convergence burst funnels every dirty prefix through here)
void BgpRouter::flush_peer(Peer& peer) {
  if (!peer.session->established()) {
    peer.pending.clear();
    return;
  }
  if (peer.mrai_span_open) {
    // Close the MRAI window opened at arm_mrai: this flush is the gated
    // advertisement the timer was pacing.
    peer.mrai_span_open = false;
    if (auto* tel = telemetry()) {
      tel->metrics()
          .histogram("bgp.mrai.wait_ns")
          .record((loop().now() - peer.mrai_armed_at).count_nanos());
    }
    emit({core::FactKind::kMraiWait, session_log_name(), {},
          {peer.session->peer_as(), peer.pending.size()}, peer.mrai_armed_at});
  }
  peer.pending.take_sorted(prefix_index_, flush_slots_);
  std::vector<net::Prefix> withdrawals;
  withdrawals.reserve(flush_slots_.size());
  UpdateGroups groups;
  groups.reserve(flush_slots_.size());
  for (const std::uint32_t slot : flush_slots_) {
    const net::Prefix& prefix = prefix_index_.prefix(slot);
    AttrSetRef attrs;
    if (evaluate_export(peer, slot, attrs) == ExportAction::kAnnounce) {
      if (!peer.rib_out.advertise(prefix, attrs)) continue;  // unchanged
      add_to_group(groups, attrs, prefix);
    } else {
      if (peer.rib_out.withdraw(prefix)) withdrawals.push_back(prefix);
    }
  }
  emit_updates(peer, groups, withdrawals);
}

// lint: hotpath(every UPDATE leaving the router is packed here; TX volume
// scales with topology size times churn)
void BgpRouter::emit_updates(Peer& peer, UpdateGroups& groups,
                             std::vector<net::Prefix>& withdrawals) {
  std::vector<UpdateMessage> messages;
  messages.reserve(groups.size() + 1);
  for (auto& [attrs, nlri] : groups) {
    UpdateMessage m;
    m.attributes = *attrs;
    // Exported bundles are shared by every peer of one export class; the
    // NEXT_HOP is this peering's own address.
    m.attributes.next_hop = peer.config.local_address;
    m.nlri = std::move(nlri);
    messages.push_back(std::move(m));
  }
  if (!withdrawals.empty()) {
    if (messages.empty()) messages.emplace_back();
    messages.front().withdrawn = std::move(withdrawals);
  }
  for (auto& m : messages) {
    ++counters_.updates_tx;
    emit({core::FactKind::kUpdateTx, session_log_name(),
          [&] {
            // lint: alloc-ok(runs only when a reader asks for the text:
            // retention, echo or a sink calling detail())
            return "to " + peer.session->peer_as().to_string() + " " +
                   m.to_string();
          },
          {peer.session->peer_as(), m.nlri.size(), m.withdrawn.size()}});
    peer.session->send_update(m);
  }
}

// lint: hotpath(batch-mode coalescing: one pass over every dirty prefix of
// every peer at each batch boundary)
void BgpRouter::flush_tx_batches() {
  for (auto& [port, peer] : peers_) {
    if (peer.batch_dirty.empty()) continue;
    peer.batch_dirty.take_sorted(prefix_index_, batch_slots_);
    if (!peer.session->established()) continue;
    // Export state is re-evaluated now, against the final Loc-RIB of the
    // burst — intermediate states within one batch never hit the wire
    // (exactly the coalescing the MRAI flush path always did).
    std::vector<net::Prefix> withdrawals;
    withdrawals.reserve(batch_slots_.size());
    UpdateGroups groups;
    groups.reserve(batch_slots_.size());
    bool spilled = false;
    for (const std::uint32_t slot : batch_slots_) {
      const net::Prefix& prefix = prefix_index_.prefix(slot);
      AttrSetRef attrs;
      const ExportAction action = evaluate_export(peer, slot, attrs);
      const bool announce = action == ExportAction::kAnnounce;
      const bool gated =
          (announce || config_.timers.mrai_applies_to_withdrawals) &&
          peer_mrai(peer) > core::Duration::zero();
      if (gated) {
        // The export flipped announce/withdraw since it was queued and is
        // now subject to MRAI: hand it to the gated machinery.
        peer.pending.insert(slot);
        spilled = true;
        continue;
      }
      if (announce) {
        if (!peer.rib_out.advertise(prefix, attrs)) continue;  // duplicate
        add_to_group(groups, attrs, prefix);
      } else {
        if (peer.rib_out.withdraw(prefix)) withdrawals.push_back(prefix);
      }
    }
    emit_updates(peer, groups, withdrawals);
    if (spilled && config_.timers.mrai_style == MraiStyle::kImmediateThenGate &&
        !peer.mrai_running) {
      flush_peer(peer);
      arm_mrai(peer);
    }
  }
}

void BgpRouter::arm_mrai(Peer& peer) {
  const auto mrai = peer_mrai(peer);
  if (mrai <= core::Duration::zero()) return;
  peer.mrai_running = true;
  peer.mrai_armed_at = loop().now();
  peer.mrai_span_open = true;
  const auto delay =
      rng().jittered(mrai, config_.timers.jitter_low, config_.timers.jitter_high);
  const auto epoch = peer.epoch;
  Peer* p = &peer;
  if (config_.timers.mrai_style == MraiStyle::kPeriodicQuagga) {
    // Free-running tick: flush pending (if any) and always re-arm.
    peer.mrai_timer = loop().schedule(delay, [this, p, epoch] {
      if (p->epoch != epoch || !p->session->established()) return;
      if (!p->pending.empty()) flush_peer(*p);
      arm_mrai(*p);
    });
    return;
  }
  peer.mrai_timer = loop().schedule(delay, [this, p, epoch] {
    if (p->epoch != epoch) return;
    p->mrai_running = false;
    if (!p->pending.empty()) {
      flush_peer(*p);
      arm_mrai(*p);
    }
  });
}

// --- misc -------------------------------------------------------------------

void BgpRouter::enqueue_work(core::Duration cost, std::function<void()> fn) {
  const auto now = loop().now();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += cost;
  loop().schedule_at(busy_until_, std::move(fn));
}

BgpRouter::Peer* BgpRouter::peer_on(core::PortId port) {
  const auto it = peers_.find(port);
  return it == peers_.end() ? nullptr : &it->second;
}

BgpRouter::Peer* BgpRouter::peer_of(const Session& session) {
  const auto it = peers_by_session_.find(session.id().value());
  return it == peers_by_session_.end() ? nullptr : it->second;
}

const Session* BgpRouter::session_on(core::PortId port) const {
  const auto it = peers_.find(port);
  return it == peers_.end() ? nullptr : it->second.session.get();
}

std::vector<const Session*> BgpRouter::sessions() const {
  std::vector<const Session*> out;
  out.reserve(peers_.size());
  for (const auto& [port, peer] : peers_) out.push_back(peer.session.get());
  return out;
}

std::vector<core::PortId> BgpRouter::peer_ports() const {
  std::vector<core::PortId> out;
  out.reserve(peers_.size());
  for (const auto& [port, peer] : peers_) out.push_back(port);
  return out;
}

const PeerConfig* BgpRouter::peer_config(core::PortId port) const {
  const auto it = peers_.find(port);
  return it == peers_.end() ? nullptr : &it->second.config;
}

const AdjRibOut* BgpRouter::adj_rib_out(core::PortId port) const {
  const auto it = peers_.find(port);
  return it == peers_.end() ? nullptr : &it->second.rib_out;
}

std::optional<core::PortId> BgpRouter::fib_lookup(net::Ipv4Addr dst) const {
  const auto hit = fib_.lookup(dst);
  if (!hit) return std::nullopt;
  return *hit->second;
}

}  // namespace bgpsdn::bgp
