#include "workloads.hpp"

#include <algorithm>

namespace perfbench {

namespace fw = bgpsdn::framework;
using bgpsdn::core::AsNumber;
using bgpsdn::net::Ipv4Addr;
using bgpsdn::net::Prefix;

namespace {

constexpr std::uint64_t kBaseSeed = 11000;  // bench_scale's base seed
constexpr std::size_t kOrigins = 16;
constexpr std::size_t kPrefixesPerOrigin = 11;

/// bench_scale's profile: 300 ms MRAI and no route collector.
fw::ExperimentConfig scale_config() {
  fw::ExperimentConfig cfg;
  cfg.timers.mrai = bgpsdn::core::Duration::millis(300);
  cfg.with_collector = false;
  return cfg;
}

/// bench_scale's table load: 16 stub origins spread over the top half of
/// the AS range, 11 /24s each (176 prefixes). The first declared
/// announcement is the one a withdrawal event retracts.
void announce_tables(fw::ExperimentSpecBuilder& builder, std::size_t size) {
  const std::size_t step = std::max<std::size_t>(1, size / (2 * kOrigins));
  for (std::size_t i = 0; i < kOrigins && i * step < size; ++i) {
    const auto as = AsNumber{static_cast<std::uint32_t>(size - i * step)};
    for (std::size_t j = 0; j < kPrefixesPerOrigin; ++j) {
      const auto octet = static_cast<std::uint8_t>(i * kPrefixesPerOrigin + j);
      builder.announce(as, Prefix{Ipv4Addr{198, 18, octet, 0}, 24});
    }
  }
}

Workload pathhunt_clique64() {
  fw::ExperimentSpecBuilder builder;
  builder.topology(fw::TopologyModel::kClique, 64)
      .event(fw::EventKind::kWithdrawal)
      .config(scale_config());
  return {"pathhunt_clique64", builder.build(),
          fw::ExperimentSpec::primary_prefix(), false, false};
}

Workload tables_il1000() {
  fw::ExperimentSpecBuilder builder;
  builder.topology(fw::TopologyModel::kInternetLike, 1000)
      .event(fw::EventKind::kAnnouncement)
      .config(scale_config());
  announce_tables(builder, 1000);
  return {"tables_il1000", builder.build(), fw::ExperimentSpec::fresh_prefix(),
          true, false};
}

Workload hybrid_il200() {
  fw::ExperimentSpecBuilder builder;
  builder.topology(fw::TopologyModel::kInternetLike, 200)
      .sdn_fraction(0.3)
      .event(fw::EventKind::kWithdrawal)
      .config(scale_config());
  announce_tables(builder, 200);
  fw::ExperimentSpec spec = builder.build();
  const Prefix withdrawn = spec.effective_announcements().front().second;
  return {"hybrid_il200", std::move(spec), withdrawn, false, true};
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"pathhunt_clique64", "tables_il1000", "hybrid_il200"};
}

std::optional<Workload> find_workload(std::string_view name) {
  if (name == "pathhunt_clique64") return pathhunt_clique64();
  if (name == "tables_il1000") return tables_il1000();
  if (name == "hybrid_il200") return hybrid_il200();
  return std::nullopt;
}

std::uint64_t trial_seed(std::size_t index) { return kBaseSeed + index; }

}  // namespace perfbench
