#include "core/fact.hpp"

namespace bgpsdn::core {

const char* to_string(LogLevel level) {
  static constexpr const char* kNames[] = {"TRACE", "DEBUG", "INFO", "WARN",
                                           "ERROR"};
  return kNames[static_cast<std::size_t>(level)];
}

namespace {

using K = FactKind;
constexpr LogLevel D = LogLevel::kDebug;
constexpr LogLevel I = LogLevel::kInfo;
constexpr LogLevel W = LogLevel::kWarn;
constexpr bool kAct = true;  // counts as routing activity

// Columns: kind, tag, level, activity, counter, span category, span name,
// span argument names.
constexpr std::array<FactRow, kFactKindCount> kRows{{
    {K::kTtlExpired, "ttl_expired", D},
    {K::kLinkUp, "link_up", I},
    {K::kLinkDown, "link_down", I},
    {K::kOriginAnnounce, "origin_announce", I, kAct},
    {K::kOriginWithdraw, "origin_withdraw", I, kAct},
    {K::kPeerUp, "session_up", I, kAct},
    {K::kPeerDown, "session_down", I, kAct},
    {K::kUpdateRx, "update_rx", D, kAct, nullptr,
     "bgp", "update_rx", {"from", "nlri", "withdrawn"}},
    {K::kRouteDamped, "route_damped", I},
    {K::kBestChanged, "best_changed", I, kAct, "bgp.decision.best_changes",
     "bgp", "decision", {"prefix", "candidates", "best_changed"}},
    {K::kBestLost, "best_lost", I, kAct, "bgp.decision.best_changes",
     "bgp", "decision", {"prefix", "candidates", "best_changed"}},
    {K::kUpdateTx, "update_tx", D, kAct, "bgp.router.updates_tx",
     "bgp", "update_tx", {"to", "nlri", "withdrawn"}},
    {K::kMraiWait, nullptr, D, false, nullptr, "bgp", "mrai_wait", {"peer", "pending"}},
    {K::kCollectorRx, "collector_rx", D, kAct},
    {K::kOpenSent, "open_sent", D},
    {K::kOpenRx, "open_rx", D},
    {K::kSessionUp, "session_up", D, kAct, "bgp.session.established"},
    {K::kSessionDown, "session_down", D, kAct, "bgp.session.dropped"},
    {K::kFsm, nullptr, D, false, "bgp.session.transitions", "bgp", "fsm", {"from", "to"}},
    {K::kSessionUpdateRx, nullptr, D, false, "bgp.session.updates_rx"},
    {K::kSessionUpdateTx, nullptr, D, false, "bgp.session.updates_tx"},
    {K::kSpeakerAnnounce, "speaker_announce", D, kAct, "speaker.announces_tx",
     "speaker", "announce", {"peering", "prefix"}},
    {K::kSpeakerWithdraw, "speaker_withdraw", D, kAct, "speaker.withdraws_tx",
     "speaker", "withdraw", {"peering", "prefix"}},
    {K::kSpeakerRx, "speaker_rx", D, kAct, "speaker.updates_rx"},
    {K::kSpeakerCrash, "crash", W, false, "speaker.crashes"},
    {K::kControllerCrash, "crash", W},
    {K::kRestart, "restart", I},
    {K::kOfDecodeError, "of_decode_error", W},
    {K::kSwitchConnected, "switch_connected", I},
    {K::kPortStatus, "port_status", I},
    {K::kFlowModTx, "flow_mod_tx", D, kAct},
    {K::kStaleFlowMod, "stale_flow_mod", W, false, "sdn.switch.stale_flowmods_rejected"},
    {K::kFlowMod, "flow_mod", D, kAct, "sdn.switch.flow_mods",
     "sdn", "flow_mod", {"op", "match", "table_size"}},
    {K::kStandaloneEnter, "standalone_enter", I, false, "sdn.switch.standalone_entries",
     "sdn", "standalone", {"up"}},
    {K::kStandaloneExit, "standalone_exit", I, false, nullptr, "sdn", "standalone", {"up"}},
    {K::kAdoptShadow, "adopt_shadow", I},
    {K::kClusterLinkState, "cluster_link_state", I},
    {K::kRecompute, "recompute", I, false, "ctrl.idr.recompute_passes",
     "ctrl", "recompute_batch", {"prefixes"}},
    {K::kGraphTransform, nullptr, D, false, nullptr, "ctrl", "graph_transform", {"prefix", "n"}},
    {K::kDijkstra, nullptr, D, false, nullptr, "ctrl", "dijkstra", {"prefix", "n"}},
    // The last phase of every prefix recomputation, so it counts them.
    {K::kFlowInstall, nullptr, D, false, "ctrl.idr.prefix_recomputes",
     "ctrl", "flow_install", {"prefix", "n"}},
    {K::kRfSync, nullptr, D, false, nullptr, "ctrl", "rf_sync", {"adds", "dels"}},
    {K::kFallbackActivate, "activate", I, false, "ctrl.fallback.activations",
     "ctrl", "fallback_activate", {"origins"}},
    {K::kFallbackDeactivate, "deactivate", I},
    {K::kReplicasActivate, "activate", I},
    {K::kCandidacy, "candidacy", I},
    {K::kTakeover, "takeover", I, false, "ctrl.replica.takeovers"},
    {K::kReplicaCrash, "replica_crash", I, false, "ctrl.replica.crashes"},
    {K::kReplicaRestart, "replica_restart", I, false, "ctrl.replica.restarts"},
    {K::kReplPartition, "repl_partition", I, false, "ctrl.replica.partitions"},
    {K::kReplHeal, "repl_heal", I},
    {K::kDegrade, "degrade", I, false, "ctrl.replica.degradations"},
    {K::kRecover, "recover", I, false, "ctrl.replica.recoveries"},
    {K::kExpControllerCrash, "controller_crash", W, false, "framework.controller_crashes"},
    {K::kExpControllerRestart, "controller_restart", I, false, "framework.controller_restarts"},
    {K::kExpSpeakerCrash, "speaker_crash", W, false, "framework.speaker_crashes"},
    {K::kExpSpeakerRestart, "speaker_restart", I, false, "framework.speaker_restarts"},
    {K::kFault, nullptr, D, false, "faults.injected", "faults", nullptr, {"a", "b", "p"}},
}};

}  // namespace

const FactRow& fact_row(FactKind kind) {
  return kRows[static_cast<std::size_t>(kind)];
}

}  // namespace bgpsdn::core
