#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/fact.hpp"
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

/// A fact with a component and (optionally) detail text.
Fact fact(FactKind kind, std::string_view component, LogDetail detail = {}) {
  return {.kind = kind, .component = component, .detail = detail};
}

TEST(Logger, RetainsRecordsInOrder) {
  Logger log;
  log.emit(TimePoint::from_nanos(10), fact(FactKind::kOriginAnnounce, "a", "x"));
  log.emit(TimePoint::from_nanos(20), fact(FactKind::kLinkUp, "b"));
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].kind, FactKind::kOriginAnnounce);
  EXPECT_STREQ(log.records()[0].tag(), "origin_announce");
  EXPECT_EQ(log.records()[0].detail, "x");
  EXPECT_EQ(log.records()[1].component, "b");
}

TEST(Logger, MinLevelFilters) {
  Logger log;
  log.set_min_level(LogLevel::kWarn);
  log.emit(TimePoint::origin(), fact(FactKind::kUpdateTx, "a"));      // debug
  log.emit(TimePoint::origin(), fact(FactKind::kStaleFlowMod, "a"));  // warn
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].kind, FactKind::kStaleFlowMod);
}

TEST(Logger, SinksFireEvenWithoutRetention) {
  Logger log;
  log.set_retain(false);
  int count = 0;
  log.add_sink([&](const FactView&) { ++count; });
  log.emit(TimePoint::origin(), fact(FactKind::kLinkUp, "a"));
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(log.records().empty());
}

TEST(Logger, RemoveSinkStopsDelivery) {
  Logger log;
  int count = 0;
  const auto id = log.add_sink([&](const FactView&) { ++count; });
  log.emit(TimePoint::origin(), fact(FactKind::kLinkUp, "a"));
  log.remove_sink(id);
  log.emit(TimePoint::origin(), fact(FactKind::kLinkUp, "a"));
  EXPECT_EQ(count, 1);
}

TEST(Logger, EchoStream) {
  Logger log;
  std::ostringstream os;
  log.set_echo(&os);
  log.emit(TimePoint::from_nanos(1'500'000'000),
           fact(FactKind::kLinkDown, "net", "AS1 <-> AS2"));
  EXPECT_NE(os.str().find("[INFO] net link_down: AS1 <-> AS2"),
            std::string::npos);
}

TEST(LogRecord, ToStringFormat) {
  LogRecord rec{TimePoint::origin(), FactKind::kLinkUp, "comp", "detail"};
  EXPECT_EQ(rec.to_string(), "0.000000s [INFO] comp link_up: detail");
  LogRecord bare{TimePoint::origin(), FactKind::kOfDecodeError, "c", ""};
  EXPECT_EQ(bare.to_string(), "0.000000s [WARN] c of_decode_error");
}

// --- text on demand ---------------------------------------------------------

/// Emits `n` facts whose detail is a callable that counts its runs.
int log_counting_renders(Logger& log, int n,
                         FactKind kind = FactKind::kBestChanged) {
  int renders = 0;
  const auto detail = [&] {
    ++renders;
    return std::string{"to AS2"};
  };
  for (int i = 0; i < n; ++i) {
    log.emit(TimePoint::from_nanos(i), fact(kind, "bgp.AS1", detail));
  }
  return renders;
}

/// A sink that reads a fact's text.
void read_text(const FactView& fact) { (void)fact.detail(); }

TEST(Logger, TagsOnlySinksNeverRenderDetail) {
  Logger log;
  log.set_retain(false);
  struct Seen {
    FactKind kind;
    std::string component;
    TimePoint when;
  };
  std::vector<Seen> seen;
  log.add_sink([&](const FactView& f) {
    seen.push_back({f.fact.kind, std::string{f.fact.component}, f.when});
  });
  log.add_sink([](const FactView&) {});
  EXPECT_EQ(log_counting_renders(log, 5), 0);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[3].kind, FactKind::kBestChanged);
  EXPECT_EQ(seen[3].component, "bgp.AS1");
  EXPECT_EQ(seen[3].when, TimePoint::from_nanos(3));
}

TEST(Logger, DetailRendersOncePerRecordForAnyTextConsumer) {
  {
    Logger log;  // retention only
    log.add_sink([](const FactView&) {});
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
    EXPECT_NE(os.str().find("best_changed: to AS2"), std::string::npos);
  }
  {
    Logger log;  // one sink that reads text
    log.set_retain(false);
    std::string last;
    log.add_sink([&](const FactView& f) { last = f.detail(); });
    EXPECT_EQ(log_counting_renders(log, 4), 4);
    EXPECT_EQ(last, "to AS2");
  }
  {
    Logger log;  // all of them at once still render once per record
    std::ostringstream os;
    log.set_echo(&os);
    log.add_sink(read_text);
    log.add_sink(read_text);
    log.add_sink([](const FactView&) {});
    EXPECT_EQ(log_counting_renders(log, 4), 4);
  }
}

TEST(Logger, DetailIsSharedByEveryReader) {
  Logger log;
  std::vector<std::string> text_details;
  int tags_only = 0;
  log.add_sink([&](const FactView& f) { text_details.push_back(f.detail()); });
  log.add_sink([&](const FactView&) { ++tags_only; });
  log.add_sink([&](const FactView& f) { text_details.push_back(f.detail()); });
  EXPECT_EQ(log_counting_renders(log, 2), 2);
  EXPECT_EQ(tags_only, 2);
  EXPECT_EQ(text_details,
            (std::vector<std::string>{"to AS2", "to AS2", "to AS2", "to AS2"}));
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[1].detail, "to AS2");
}

TEST(Logger, RemovingLastTextSinkStopsRendering) {
  Logger log;
  log.set_retain(false);
  int tag_records = 0;
  log.add_sink([&](const FactView&) { ++tag_records; });
  const auto first = log.add_sink(read_text);
  const auto second = log.add_sink(read_text);
  EXPECT_EQ(log_counting_renders(log, 3), 3);
  log.remove_sink(first);
  EXPECT_EQ(log_counting_renders(log, 3), 3);
  log.remove_sink(second);
  EXPECT_EQ(log_counting_renders(log, 3), 0);
  log.remove_sink(second);  // removing twice changes nothing
  EXPECT_EQ(log_counting_renders(log, 3), 0);
  EXPECT_EQ(tag_records, 12);
}

TEST(Logger, MinLevelFiltersTextOnly) {
  Logger log;
  log.set_min_level(LogLevel::kWarn);
  std::ostringstream os;
  log.set_echo(&os);
  int fired = 0;
  log.add_sink([&](const FactView&) { ++fired; });
  log.add_sink([&](const FactView&) { ++fired; });
  // Below the level: both sinks see every fact, but no text is kept,
  // echoed or rendered.
  EXPECT_EQ(log_counting_renders(log, 3), 0);
  EXPECT_EQ(fired, 6);
  EXPECT_TRUE(log.records().empty());
  EXPECT_TRUE(os.str().empty());
  EXPECT_EQ(log_counting_renders(log, 1, FactKind::kStaleFlowMod), 1);
  EXPECT_EQ(fired, 8);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_NE(os.str().find("[WARN] bgp.AS1 stale_flow_mod: to AS2"),
            std::string::npos);
}

// --- the fact table -----------------------------------------------------------

TEST(FactTable, EveryRowFeedsAChannelItCanFeed) {
  for (std::size_t i = 0; i < kFactKindCount; ++i) {
    const FactRow& row = fact_row(static_cast<FactKind>(i));
    EXPECT_EQ(static_cast<std::size_t>(row.kind), i);
    // A fact writes text, makes a span or bumps a counter.
    EXPECT_TRUE(row.tag != nullptr || row.span_category != nullptr ||
                row.counter != nullptr)
        << i;
    // Only facts with a tag reach the Logger's sinks, so activity needs one.
    if (row.activity) {
      EXPECT_NE(row.tag, nullptr) << i;
    }
    // Span names and arguments belong to rows that make a span.
    if (row.span_category == nullptr) {
      EXPECT_EQ(row.span_name, nullptr) << i;
      EXPECT_EQ(row.span_args[0], nullptr) << i;
    }
  }
}

}  // namespace
}  // namespace bgpsdn::core
