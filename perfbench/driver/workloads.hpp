// The benchmark's three workloads, built through the public ExperimentSpec
// API. See ../README.md for why each was chosen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "framework/experiment_spec.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bgpsdn::framework::ExperimentSpec spec;
  /// The prefix whose routing state decides whether a trial is correct:
  /// absent everywhere after a withdrawal, present everywhere after an
  /// announcement.
  bgpsdn::net::Prefix checked_prefix;
  bool expect_present{false};
  /// Only the hybrid workload has an SDN cluster, so only there may the
  /// controller, speaker and sdn layers do work.
  bool hybrid{false};
};

std::vector<std::string> workload_names();
std::optional<Workload> find_workload(std::string_view name);

/// Every run measures the same trial seeds, bench_scale's first ones:
/// 11000 and 11001. A pass runs each of them once. The run seed does not
/// change the inputs, so the deterministic metrics are identical between
/// runs whatever the run seed or the host's speed.
inline constexpr std::size_t kPassSeeds = 2;

/// Seed of the index-th trial of a pass, index < kPassSeeds.
std::uint64_t trial_seed(std::size_t index);

}  // namespace perfbench
