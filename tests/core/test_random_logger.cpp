#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/logger.hpp"
#include "core/random.hpp"

namespace bgpsdn::core {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  // Degenerate range.
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRealBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{7};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{7};
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, JitteredStaysInBand) {
  Rng rng{7};
  const auto base = Duration::seconds(30);
  for (int i = 0; i < 1000; ++i) {
    const auto j = rng.jittered(base);  // default 0.75..1.0 (Quagga-like)
    EXPECT_GE(j, base * 0.75);
    EXPECT_LE(j, base);
  }
}

TEST(Rng, UniformDurationBounds) {
  Rng rng{7};
  const auto lo = Duration::millis(10);
  const auto hi = Duration::millis(20);
  for (int i = 0; i < 200; ++i) {
    const auto d = rng.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{7};
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(Duration::seconds(2)).to_seconds();
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ForkIsIndependent) {
  Rng a{42};
  Rng child = a.fork();
  // The child stream must not equal the parent's continued stream.
  Rng b{42};
  b.fork();
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  (void)child;
}

TEST(Logger, RetainsRecordsInOrder) {
  Logger log;
  log.log(TimePoint::from_nanos(10), LogLevel::kInfo, "a", "ev1", "x");
  log.log(TimePoint::from_nanos(20), LogLevel::kInfo, "b", "ev2");
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].event, "ev1");
  EXPECT_EQ(log.records()[1].component, "b");
}

TEST(Logger, MinLevelFilters) {
  Logger log;
  log.set_min_level(LogLevel::kWarn);
  log.log(TimePoint::origin(), LogLevel::kDebug, "a", "dropped");
  log.log(TimePoint::origin(), LogLevel::kError, "a", "kept");
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].event, "kept");
}

TEST(Logger, SinksFireEvenWithoutRetention) {
  Logger log;
  log.set_retain(false);
  int count = 0;
  log.add_sink([&](const LogRecord&) { ++count; }, SinkReads::kText);
  log.log(TimePoint::origin(), LogLevel::kInfo, "a", "ev");
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(log.records().empty());
}

TEST(Logger, RemoveSinkStopsDelivery) {
  Logger log;
  int count = 0;
  const auto id =
      log.add_sink([&](const LogRecord&) { ++count; }, SinkReads::kText);
  log.log(TimePoint::origin(), LogLevel::kInfo, "a", "ev");
  log.remove_sink(id);
  log.log(TimePoint::origin(), LogLevel::kInfo, "a", "ev");
  EXPECT_EQ(count, 1);
}

TEST(Logger, FilterByEventAndComponentPrefix) {
  Logger log;
  log.log(TimePoint::origin(), LogLevel::kInfo, "bgp.AS1", "update_tx");
  log.log(TimePoint::origin(), LogLevel::kInfo, "bgp.AS2", "update_tx");
  log.log(TimePoint::origin(), LogLevel::kInfo, "bgp.AS1", "update_rx");
  EXPECT_EQ(log.filter("update_tx").size(), 2u);
  EXPECT_EQ(log.filter("update_tx", "bgp.AS1").size(), 1u);
  EXPECT_EQ(log.count("update_rx"), 1u);
  EXPECT_EQ(log.count("nothing"), 0u);
}

TEST(Logger, EchoStream) {
  Logger log;
  std::ostringstream os;
  log.set_echo(&os);
  log.log(TimePoint::from_nanos(1'500'000'000), LogLevel::kWarn, "net",
          "link_down", "AS1 <-> AS2");
  EXPECT_NE(os.str().find("[WARN] net link_down: AS1 <-> AS2"),
            std::string::npos);
}

TEST(LogRecord, ToStringFormat) {
  LogRecord rec{TimePoint::origin(), LogLevel::kInfo, "comp", "ev", "detail"};
  EXPECT_EQ(rec.to_string(), "0.000000s [INFO] comp ev: detail");
  LogRecord bare{TimePoint::origin(), LogLevel::kError, "c", "e", ""};
  EXPECT_EQ(bare.to_string(), "0.000000s [ERROR] c e");
}

// --- text on demand ---------------------------------------------------------

/// Logs `n` records whose detail is a callable that counts its runs.
int log_counting_renders(Logger& log, int n,
                         LogLevel level = LogLevel::kInfo) {
  int renders = 0;
  for (int i = 0; i < n; ++i) {
    log.log(TimePoint::from_nanos(i), level, "bgp.AS1", "update_tx", [&] {
      ++renders;
      return std::string{"to AS2"};
    });
  }
  return renders;
}

TEST(Logger, TagsOnlySinksNeverRenderDetail) {
  Logger log;
  log.set_retain(false);
  std::vector<LogRecord> seen;
  log.add_sink([&](const LogRecord& rec) { seen.push_back(rec); },
               SinkReads::kTagsOnly);
  log.add_sink([](const LogRecord&) {}, SinkReads::kTagsOnly);
  EXPECT_EQ(log_counting_renders(log, 5), 0);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[3].event, "update_tx");
  EXPECT_EQ(seen[3].component, "bgp.AS1");
  EXPECT_EQ(seen[3].when, TimePoint::from_nanos(3));
  EXPECT_TRUE(seen[3].detail.empty());
}

TEST(Logger, DetailRendersOncePerRecordForAnyTextConsumer) {
  {
    Logger log;  // retention only
    log.add_sink([](const LogRecord&) {}, SinkReads::kTagsOnly);
    EXPECT_EQ(log_counting_renders(log, 4), 4);
    ASSERT_EQ(log.records().size(), 4u);
    EXPECT_EQ(log.records()[0].detail, "to AS2");
  }
  {
    Logger log;  // echo only
    log.set_retain(false);
    std::ostringstream os;
    log.set_echo(&os);
    EXPECT_EQ(log_counting_renders(log, 4), 4);
    EXPECT_NE(os.str().find("update_tx: to AS2"), std::string::npos);
  }
  {
    Logger log;  // one text sink
    log.set_retain(false);
    std::string last;
    log.add_sink([&](const LogRecord& rec) { last = rec.detail; },
                 SinkReads::kText);
    EXPECT_EQ(log_counting_renders(log, 4), 4);
    EXPECT_EQ(last, "to AS2");
  }
  {
    Logger log;  // all of them at once still render once per record
    std::ostringstream os;
    log.set_echo(&os);
    log.add_sink([](const LogRecord&) {}, SinkReads::kText);
    log.add_sink([](const LogRecord&) {}, SinkReads::kText);
    log.add_sink([](const LogRecord&) {}, SinkReads::kTagsOnly);
    EXPECT_EQ(log_counting_renders(log, 4), 4);
  }
}

TEST(Logger, TagsOnlySinkSeesEmptyDetailWhenTextIsBuilt) {
  Logger log;
  std::vector<std::string> tags_only_details;
  std::vector<std::string> text_details;
  log.add_sink([&](const LogRecord& r) { text_details.push_back(r.detail); },
               SinkReads::kText);
  log.add_sink(
      [&](const LogRecord& r) { tags_only_details.push_back(r.detail); },
      SinkReads::kTagsOnly);
  log.add_sink([&](const LogRecord& r) { text_details.push_back(r.detail); },
               SinkReads::kText);
  EXPECT_EQ(log_counting_renders(log, 2), 2);
  EXPECT_EQ(tags_only_details, (std::vector<std::string>{"", ""}));
  EXPECT_EQ(text_details,
            (std::vector<std::string>{"to AS2", "to AS2", "to AS2", "to AS2"}));
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[1].detail, "to AS2");
}

TEST(Logger, RemovingLastTextSinkStopsRendering) {
  Logger log;
  log.set_retain(false);
  int tag_records = 0;
  log.add_sink([&](const LogRecord&) { ++tag_records; }, SinkReads::kTagsOnly);
  const auto first = log.add_sink([](const LogRecord&) {}, SinkReads::kText);
  const auto second = log.add_sink([](const LogRecord&) {}, SinkReads::kText);
  EXPECT_EQ(log_counting_renders(log, 3), 3);
  log.remove_sink(first);
  EXPECT_EQ(log_counting_renders(log, 3), 3);
  log.remove_sink(second);
  EXPECT_EQ(log_counting_renders(log, 3), 0);
  log.remove_sink(second);  // removing twice changes nothing
  EXPECT_EQ(log_counting_renders(log, 3), 0);
  EXPECT_EQ(tag_records, 12);
}

TEST(Logger, MinLevelDropsBeforeAnySinkOrRender) {
  Logger log;
  log.set_min_level(LogLevel::kWarn);
  std::ostringstream os;
  log.set_echo(&os);
  int fired = 0;
  log.add_sink([&](const LogRecord&) { ++fired; }, SinkReads::kText);
  log.add_sink([&](const LogRecord&) { ++fired; }, SinkReads::kTagsOnly);
  EXPECT_EQ(log_counting_renders(log, 3, LogLevel::kDebug), 0);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(log.records().empty());
  EXPECT_TRUE(os.str().empty());
  EXPECT_EQ(log_counting_renders(log, 1, LogLevel::kError), 1);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace bgpsdn::core
