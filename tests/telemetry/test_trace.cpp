// Trace spans and sinks: JSONL round-trip, sink lifecycle, no-op cost path.
#include "telemetry/sinks.hpp"
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace bgpsdn::telemetry {
namespace {

core::TimePoint at_ns(std::int64_t ns) {
  return core::TimePoint::from_nanos(ns);
}

/// Zero-duration span.
TraceSpan instant(core::TimePoint when, const char* cat, const char* name,
                  std::string comp) {
  return TraceSpan{when, when, cat, name, std::move(comp)};
}

TEST(TraceSpan, InstantHasZeroDuration) {
  const auto s = instant(at_ns(42), "bgp", "fsm", "r1.s1");
  EXPECT_EQ(s.start, s.end);
  EXPECT_EQ(s.duration(), core::Duration::zero());
}

TEST(TraceSpan, JsonlLineIsDeterministic) {
  TraceSpan s{at_ns(1000), at_ns(3000), "ctrl", "recompute_batch", "idr.c0"};
  s.arg("prefixes", Json{std::int64_t{4}});
  const std::string line = span_to_jsonl(s);
  EXPECT_EQ(line,
            "{\"args\":{\"prefixes\":4},\"cat\":\"ctrl\",\"comp\":\"idr.c0\","
            "\"dur_ns\":2000,\"name\":\"recompute_batch\",\"t_ns\":1000}");
}

TEST(TraceSpan, JsonlRoundTripsThroughParser) {
  TraceSpan s{at_ns(5), at_ns(5), "bgp", "update_rx", "router-2"};
  s.arg("from", Json{std::string{"1.0.0.1"}});
  s.arg("nlri", Json{std::int64_t{1}});
  const auto parsed = Json::parse(span_to_jsonl(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("cat")->as_string(), "bgp");
  EXPECT_EQ(parsed->find("name")->as_string(), "update_rx");
  EXPECT_EQ(parsed->find("comp")->as_string(), "router-2");
  EXPECT_EQ(parsed->find("t_ns")->as_int(), 5);
  EXPECT_EQ(parsed->find("dur_ns")->as_int(), 0);
  EXPECT_EQ(parsed->find("args")->find("from")->as_string(), "1.0.0.1");
  EXPECT_EQ(parsed->find("args")->find("nlri")->as_int(), 1);
}

TEST(Telemetry, TracingFlagFollowsSinks) {
  Telemetry hub;
  EXPECT_FALSE(hub.tracing());
  JsonlTraceSink sink;
  const auto id = hub.add_sink(&sink);
  EXPECT_TRUE(hub.tracing());
  hub.remove_sink(id);
  EXPECT_FALSE(hub.tracing());
}

TEST(Telemetry, EmitFansOutToAllSinks) {
  Telemetry hub;
  JsonlTraceSink a, b;
  hub.add_sink(&a);
  hub.add_sink(&b);
  hub.emit(instant(at_ns(1), "sdn", "flow_mod", "sw.3"));
  EXPECT_EQ(a.lines().size(), 1u);
  EXPECT_EQ(b.lines().size(), 1u);
  EXPECT_EQ(a.lines()[0], b.lines()[0]);
}

TEST(JsonlTraceSink, CapCountsDrops) {
  JsonlTraceSink sink{2};
  for (int i = 0; i < 5; ++i) {
    sink.on_span(instant(at_ns(i), "bgp", "fsm", "x"));
  }
  EXPECT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
  sink.clear();
  EXPECT_TRUE(sink.lines().empty());
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(JsonlTraceSink, JsonlBodyJoinsWithNewlines) {
  JsonlTraceSink sink;
  sink.on_span(instant(at_ns(1), "bgp", "fsm", "x"));
  sink.on_span(instant(at_ns(2), "bgp", "fsm", "y"));
  const std::string body = sink.jsonl();
  EXPECT_EQ(body, sink.lines()[0] + "\n" + sink.lines()[1] + "\n");
}

// --- the fact dispatcher ----------------------------------------------------

TEST(FactDispatch, RowDecidesCounterSpanAndText) {
  core::Logger log;
  log.set_retain(false);
  Telemetry tel;
  int renders = 0;
  int seen = 0;
  log.add_sink([&](const core::FactView&) { ++seen; });
  const auto detail = [&] {
    ++renders;
    return std::string{"to AS7"};
  };
  const auto send = [&](std::int64_t t) {
    emit(log, &tel, at_ns(t),
         {core::FactKind::kUpdateTx, "bgp.AS1", detail,
          {core::AsNumber{7}, std::size_t{2}, std::size_t{0}}});
  };
  send(1);  // not tracing: counted and seen, no span, no text
  EXPECT_EQ(tel.metrics().find_counter("bgp.router.updates_tx")->value(), 1);
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(renders, 0);

  JsonlTraceSink sink;
  tel.add_sink(&sink);
  send(5);
  EXPECT_EQ(tel.metrics().find_counter("bgp.router.updates_tx")->value(), 2);
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(renders, 0);
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_EQ(sink.lines()[0],
            R"({"args":{"nlri":2,"to":"AS7","withdrawn":0},"cat":"bgp",)"
            R"("comp":"bgp.AS1","dur_ns":0,"name":"update_tx","t_ns":5})");
}

TEST(FactDispatch, SpanOnlyFactsSkipTheLoggerAndCountOnFirstUse) {
  core::Logger log;
  Telemetry tel;
  JsonlTraceSink sink;
  tel.add_sink(&sink);
  int seen = 0;
  log.add_sink([&](const core::FactView&) { ++seen; });
  emit(log, &tel, at_ns(30),
       {core::FactKind::kMraiWait, "bgp.AS1", {},
        {core::AsNumber{2}, std::size_t{3}}, at_ns(10)});
  EXPECT_EQ(seen, 0);
  EXPECT_TRUE(log.records().empty());
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_NE(sink.lines()[0].find(R"("dur_ns":20)"), std::string::npos);
  EXPECT_NE(sink.lines()[0].find(R"("t_ns":10)"), std::string::npos);
  // A counter appears with the first fact that bumps it.
  EXPECT_EQ(tel.metrics().find_counter("bgp.session.transitions"), nullptr);
  emit(log, &tel, at_ns(40),
       {core::FactKind::kFsm, "bgp.AS1.s1", {}, {"Idle", "Connect"}});
  EXPECT_EQ(tel.metrics().find_counter("bgp.session.transitions")->value(), 1);
}

TEST(FactDispatch, EmitterNamesTheSpanAndEmptyArgsAreLeftOut) {
  core::Logger log;
  Telemetry tel;
  JsonlTraceSink sink;
  tel.add_sink(&sink);
  core::Fact fault{core::FactKind::kFault, "fault-injector", {},
                   {std::uint32_t{1}, std::uint32_t{2}, {}}};
  fault.span_name = "link_down";
  emit(log, &tel, at_ns(7), fault);
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_EQ(sink.lines()[0],
            R"({"args":{"a":1,"b":2},"cat":"faults","comp":"fault-injector",)"
            R"("dur_ns":0,"name":"link_down","t_ns":7})");
  EXPECT_EQ(tel.metrics().find_counter("faults.injected")->value(), 1);
  // Without telemetry the fact still reaches the Logger.
  emit(log, nullptr, at_ns(8), {core::FactKind::kLinkDown, "net", "a <-> b"});
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].to_string(), "0.000000s [INFO] net link_down: a <-> b");
}

}  // namespace
}  // namespace bgpsdn::telemetry
