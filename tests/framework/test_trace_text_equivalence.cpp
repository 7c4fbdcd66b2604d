// The span counterpart of LogTextEquivalence: the JSONL trace of seeded
// hybrid runs is checked byte for byte against goldens captured from the
// emitters that built every span at their own call site. Between them the
// two runs produce every span kind the emulator knows: router rx/tx/
// decision, session fsm, mrai_wait, speaker, switch, the IDR controller's
// recompute batch and phases, fallback routing, the fault injector (the
// IDR run, under a fault plan) and the RouteFlow mirror's rf_sync (the
// RouteFlow run; a cluster runs one controller style at a time).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/fact.hpp"
#include "framework/experiment.hpp"
#include "framework/faults.hpp"
#include "framework/telemetry_monitor.hpp"
#include "telemetry/json.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

const net::Prefix kPfx = *net::Prefix::parse("10.0.0.0/16");

ExperimentConfig config_for(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.timers.hold = core::Duration::seconds(6);
  cfg.timers.keepalive = core::Duration::seconds(2);
  cfg.recompute_delay = core::Duration::millis(200);
  return cfg;
}

/// A 5-AS clique with two IDR-controlled members, traced from bring-up:
/// AS 1 originates, a fault plan fails and restores a legacy link, sets a
/// (lossless) loss probability, crashes and restarts the controller and
/// then the speaker, and AS 1 withdraws.
std::string run_idr_with_faults() {
  Experiment exp{topology::clique(5), {AsNumber{4}, AsNumber{5}},
                 config_for(61)};
  auto& tel = exp.attach_monitor<TelemetryMonitor>();
  exp.announce_prefix(AsNumber{1}, kPfx);
  EXPECT_TRUE(exp.start());
  exp.attach_monitor<FaultInjector>(FaultPlan::parse(
      "at 1 link-down 1 2\n"
      "at 2 link-up 1 2\n"
      "at 3 loss 2 3 0\n"
      "at 4 controller-crash\n"
      "at 8 controller-restart\n"
      "at 10 speaker-crash\n"
      "at 11 speaker-restart\n"));
  exp.run_for(core::Duration::seconds(14));
  exp.withdraw_prefix(AsNumber{1}, kPfx);
  EXPECT_FALSE(exp.wait_converged().timed_out);
  // Every counter the fact table feeds, as this run left it.
  const std::map<std::string, std::int64_t> pinned{
      {"bgp.router.updates_tx", 62},        {"bgp.decision.best_changes", 16},
      {"bgp.session.established", 38},      {"bgp.session.dropped", 14},
      {"bgp.session.transitions", 148},     {"bgp.session.updates_rx", 80},
      {"bgp.session.updates_tx", 80},       {"speaker.announces_tx", 12},
      {"speaker.withdraws_tx", 6},          {"speaker.crashes", 1},
      {"speaker.updates_rx", 27},           {"sdn.switch.flow_mods", 15},
      {"sdn.switch.standalone_entries", 2}, {"ctrl.idr.recompute_passes", 12},
      {"ctrl.idr.prefix_recomputes", 12},   {"ctrl.fallback.activations", 1},
      {"framework.controller_crashes", 1},  {"framework.controller_restarts", 1},
      {"framework.speaker_crashes", 1},     {"framework.speaker_restarts", 1},
      {"faults.injected", 7},
  };
  std::set<std::string> fed;
  for (std::size_t i = 0; i < core::kFactKindCount; ++i) {
    const char* name = core::fact_row(static_cast<core::FactKind>(i)).counter;
    if (name == nullptr) continue;
    fed.insert(name);
    const auto* c = exp.telemetry().metrics().find_counter(name);
    const auto want = pinned.find(name);
    if (want == pinned.end()) {
      EXPECT_EQ(c, nullptr) << name;
    } else {
      EXPECT_TRUE(c != nullptr && c->value() == want->second) << name;
    }
  }
  for (const auto& [name, value] : pinned) EXPECT_EQ(fed.count(name), 1u) << name;
  return tel.trace_jsonl();
}

/// A 4-AS clique whose two members run the RouteFlow mirror: AS 1
/// originates and then withdraws.
std::string run_routeflow() {
  ExperimentConfig cfg = config_for(62);
  cfg.controller_style = ControllerStyle::kRouteFlowMirror;
  Experiment exp{topology::clique(4), {AsNumber{3}, AsNumber{4}}, cfg};
  auto& tel = exp.attach_monitor<TelemetryMonitor>();
  exp.announce_prefix(AsNumber{1}, kPfx);
  EXPECT_TRUE(exp.start());
  exp.withdraw_prefix(AsNumber{1}, kPfx);
  EXPECT_FALSE(exp.wait_converged().timed_out);
  return tel.trace_jsonl();
}

std::string read_golden(const std::string& name) {
  std::ifstream in{std::string{BGPSDN_GOLDEN_DIR} + "/" + name};
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// (cat, name) of every span in a JSONL trace.
std::set<std::pair<std::string, std::string>> span_kinds(
    const std::string& jsonl) {
  std::set<std::pair<std::string, std::string>> kinds;
  std::istringstream in{jsonl};
  for (std::string line; std::getline(in, line);) {
    const auto span = telemetry::Json::parse(line);
    EXPECT_TRUE(span.has_value()) << line;
    if (!span) continue;
    kinds.emplace(span->find("cat")->as_string(),
                  span->find("name")->as_string());
  }
  return kinds;
}

void expect_matches_golden(const std::string& actual,
                           const std::string& golden) {
  const std::string expected = read_golden(golden);
  ASSERT_FALSE(expected.empty());
  std::istringstream want{expected};
  std::istringstream got{actual};
  std::size_t line_no = 0;
  for (std::string w; std::getline(want, w);) {
    ++line_no;
    std::string g;
    ASSERT_TRUE(static_cast<bool>(std::getline(got, g)))
        << golden << ": trace ends before line " << line_no;
    ASSERT_EQ(g, w) << golden << " line " << line_no;
  }
  EXPECT_EQ(actual, expected) << golden << ": trace runs past the golden";
}

TEST(TraceTextEquivalence, HybridIdrWithFaults) {
  const std::string trace = run_idr_with_faults();
  const auto kinds = span_kinds(trace);
  for (const auto& want : std::set<std::pair<std::string, std::string>>{
           {"bgp", "update_rx"},
           {"bgp", "update_tx"},
           {"bgp", "decision"},
           {"bgp", "fsm"},
           {"bgp", "mrai_wait"},
           {"speaker", "announce"},
           {"speaker", "withdraw"},
           {"sdn", "flow_mod"},
           {"sdn", "standalone"},
           {"ctrl", "recompute_batch"},
           {"ctrl", "graph_transform"},
           {"ctrl", "dijkstra"},
           {"ctrl", "flow_install"},
           {"ctrl", "fallback_activate"},
           {"faults", "link_down"},
           {"faults", "link_up"},
           {"faults", "link_loss"},
           {"faults", "controller_crash"},
           {"faults", "controller_restart"},
       }) {
    EXPECT_EQ(kinds.count(want), 1u) << want.first << "/" << want.second;
  }
  expect_matches_golden(trace, "trace_idr_faults.jsonl");
}

TEST(TraceTextEquivalence, RouteFlowMirror) {
  const std::string trace = run_routeflow();
  EXPECT_EQ(span_kinds(trace).count({"ctrl", "rf_sync"}), 1u);
  expect_matches_golden(trace, "trace_routeflow.jsonl");
}

}  // namespace
}  // namespace bgpsdn::framework
