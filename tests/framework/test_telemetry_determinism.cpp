// The telemetry acceptance criteria: capture works end-to-end through the
// Monitor API, and both the metrics snapshot and the span stream are
// byte-identical for a given seed regardless of the worker-thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "framework/connectivity.hpp"
#include "framework/experiment.hpp"
#include "framework/monitor.hpp"
#include "framework/telemetry_monitor.hpp"
#include "framework/trial.hpp"
#include "telemetry/json.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

ExperimentConfig fast_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  return cfg;
}

struct Capture {
  std::string trace_jsonl;
  std::string metrics_dump;
  double conv_seconds{0};
};

/// One fully-instrumented withdrawal run on a small hybrid clique.
Capture run_instrumented(std::uint64_t seed) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {core::AsNumber{3}, core::AsNumber{4}},
                 fast_config(seed)};
  auto& tel = exp.attach_monitor<TelemetryMonitor>();
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  EXPECT_TRUE(exp.start());
  const auto t0 = exp.loop().now();
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  const auto conv = exp.wait_converged();
  Capture cap;
  cap.trace_jsonl = tel.trace_jsonl();
  cap.metrics_dump = exp.telemetry().metrics().snapshot().dump();
  cap.conv_seconds = conv.since(t0).to_seconds();
  return cap;
}

TEST(TelemetryCapture, SpansFlowAndParse) {
  const Capture cap = run_instrumented(7);
  ASSERT_FALSE(cap.trace_jsonl.empty());

  // Every line is valid JSON with the span schema; all categories of the
  // update lifecycle show up on this scenario.
  std::size_t lines = 0;
  bool saw_bgp = false, saw_ctrl = false, saw_sdn = false, saw_speaker = false;
  std::size_t start = 0;
  while (start < cap.trace_jsonl.size()) {
    const std::size_t nl = cap.trace_jsonl.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const auto parsed =
        telemetry::Json::parse(cap.trace_jsonl.substr(start, nl - start));
    ASSERT_TRUE(parsed.has_value()) << "line " << lines;
    ASSERT_NE(parsed->find("t_ns"), nullptr);
    ASSERT_NE(parsed->find("cat"), nullptr);
    ASSERT_NE(parsed->find("name"), nullptr);
    const std::string& cat = parsed->find("cat")->as_string();
    saw_bgp = saw_bgp || cat == "bgp";
    saw_ctrl = saw_ctrl || cat == "ctrl";
    saw_sdn = saw_sdn || cat == "sdn";
    saw_speaker = saw_speaker || cat == "speaker";
    ++lines;
    start = nl + 1;
  }
  EXPECT_GT(lines, 50u);
  EXPECT_TRUE(saw_bgp);
  EXPECT_TRUE(saw_ctrl);
  EXPECT_TRUE(saw_sdn);
  EXPECT_TRUE(saw_speaker);
}

TEST(TelemetryCapture, MetricsCoverEveryLayer) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {core::AsNumber{3}, core::AsNumber{4}}, fast_config(7)};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  exp.wait_converged();

  const auto& m = exp.telemetry().metrics();
  for (const char* name :
       {"bgp.session.updates_tx", "bgp.session.updates_rx",
        "bgp.session.transitions", "bgp.session.established",
        "bgp.decision.runs", "sdn.switch.flow_mods",
        "ctrl.idr.recompute_passes", "ctrl.idr.flow_adds",
        "speaker.announces_tx", "framework.wait_converged.runs"}) {
    const auto* c = m.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_GT(c->value(), 0) << name;
  }
  ASSERT_NE(m.find_histogram("bgp.decision.candidates"), nullptr);
  ASSERT_NE(m.find_histogram("ctrl.idr.batch_wait_ns"), nullptr);
  EXPECT_GT(m.find_histogram("bgp.session.establish_ns")->count(), 0u);
}

TEST(TelemetryDeterminism, SameSeedIsByteIdentical) {
  const Capture a = run_instrumented(21);
  const Capture b = run_instrumented(21);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.metrics_dump, b.metrics_dump);
  EXPECT_EQ(a.conv_seconds, b.conv_seconds);

  const Capture c = run_instrumented(22);
  EXPECT_NE(a.trace_jsonl, c.trace_jsonl);
}

TEST(TelemetryDeterminism, ByteIdenticalAcrossJobCounts) {
  // The PR-1 invariant extended to telemetry: running the same seeded
  // trials on 1 worker vs 4 workers must produce identical captures.
  const auto run_with_jobs = [](std::size_t jobs) {
    std::vector<Capture> caps(4);
    parallel_for_index(4, jobs, [&](std::size_t i) {
      caps[i] = run_instrumented(100 + i);
    });
    return caps;
  };
  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace_jsonl, parallel[i].trace_jsonl) << "seed " << i;
    EXPECT_EQ(serial[i].metrics_dump, parallel[i].metrics_dump) << "seed " << i;
  }
}

TEST(TelemetryCapture, NoSinkMeansNoSpanStorage) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {core::AsNumber{4}}, fast_config(3)};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());
  EXPECT_FALSE(exp.telemetry().tracing());
  // Metrics still collect without any sink.
  EXPECT_GT(exp.telemetry().metrics().counter("bgp.session.updates_tx").value(),
            0);
}

TEST(MonitorApi, AttachRetrieveAndSnapshot) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {core::AsNumber{4}}, fast_config(5)};
  // The built-in convergence detector is always monitors_[0].
  ASSERT_EQ(exp.monitors().size(), 1u);
  EXPECT_STREQ(exp.monitors()[0]->kind(), "convergence");
  ASSERT_NE(exp.monitor<ConvergenceDetector>(), nullptr);

  auto& changes = exp.attach_monitor<RouteChangeTracker>();
  auto& tel = exp.attach_monitor<TelemetryMonitor>();
  EXPECT_EQ(exp.monitor<RouteChangeTracker>(), &changes);
  EXPECT_EQ(exp.monitor<TelemetryMonitor>(), &tel);
  EXPECT_EQ(exp.monitor<ConnectivityMonitor>(), nullptr);

  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());

  const telemetry::Json snap = exp.monitors_snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at(0).find("kind")->as_string(), "convergence");
  EXPECT_EQ(snap.at(1).find("kind")->as_string(), "route_changes");
  EXPECT_EQ(snap.at(2).find("kind")->as_string(), "telemetry");
  // Each entry carries a data object; telemetry's includes the metrics.
  ASSERT_NE(snap.at(2).find("data"), nullptr);
  ASSERT_NE(snap.at(2).find("data")->find("metrics"), nullptr);
}

TEST(WaitApi, ResultCarriesTimeoutAndQuietWindow) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {}, fast_config(9)};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());

  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  // Absurdly short timeout: the wait must report timed_out.
  const auto timed = exp.wait_converged(
      WaitOpts{core::Duration::seconds(100), core::Duration::millis(1)});
  EXPECT_TRUE(timed.timed_out);
  EXPECT_EQ(timed.quiet_window, core::Duration::seconds(100));

  const auto ok = exp.wait_converged(
      WaitOpts{core::Duration::seconds(2), core::Duration::seconds(600)});
  EXPECT_FALSE(ok.timed_out);
  EXPECT_EQ(ok.quiet_window, core::Duration::seconds(2));
  // Zero quiet defaults to 2x MRAI + 1 s.
  const auto defaulted = exp.wait_converged();
  EXPECT_EQ(defaulted.quiet_window,
            core::Duration::millis(500) * std::int64_t{2} +
                core::Duration::seconds(1));
}

TEST(WaitApi, StructuredResultAndTypedMonitorRetrieval) {
  // The replacement surface for the removed PR-2 shims: the structured
  // ConvergenceResult carries instant + timed_out, and the built-in
  // detector is reachable via the typed monitor<T>() accessor.
  const auto spec = topology::clique(4);
  Experiment exp{spec, {}, fast_config(13)};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  const ConvergenceResult conv = exp.wait_converged(
      WaitOpts{core::Duration::seconds(2), core::Duration::seconds(600)});
  EXPECT_FALSE(conv.timed_out);
  EXPECT_GT(conv.instant.nanos_since_origin(), 0);
  ASSERT_NE(exp.monitor<ConvergenceDetector>(), nullptr);
  EXPECT_STREQ(exp.monitor<ConvergenceDetector>()->kind(), "convergence");
}

}  // namespace
}  // namespace bgpsdn::framework
