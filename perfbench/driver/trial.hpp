// One measured trial of a workload, untraced or traced.
//
// A trial is the paper's measured experiment: make_experiment -> start ->
// inject_event -> wait_converged. The untraced trial gives the end-to-end
// figures. The traced trial repeats the same seed with a benchmark-owned
// trace sink attached and splits the host time into per-layer self times
// (see ../README.md, "Traced run").
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "alloc_counter.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Named per-trial values; the run reports the median of each over its
/// trials.
using Metrics = std::map<std::string, double>;

/// Everything the program computes deterministically per seed. The traced
/// and untraced runs of one seed must agree on all of it.
struct Fingerprint {
  std::int64_t convergence_ns{0};
  std::uint64_t events_setup{0};
  std::uint64_t events_event{0};
  std::uint64_t updates_rx{0};
  std::uint64_t updates_tx{0};
  std::uint64_t decision_runs{0};
  std::uint64_t mem_bytes{0};

  bool operator==(const Fingerprint&) const = default;
  std::string to_string() const;
};

struct TrialResult {
  std::uint64_t seed{0};
  bool started{false};
  /// Empty when the trial passed its check; otherwise why it failed.
  std::string failure;
  // Host wall / CPU seconds.
  double trial_s{0};      // make_experiment .. wait_converged returns
  double trial_cpu_s{0};  // the same interval on the process CPU clock
  double setup_s{0};      // make_experiment + start
  double build_s{0};      // make_experiment
  double bringup_s{0};    // start
  double wait_s{0};       // wait_converged
  /// Virtual seconds from injection to the detected convergence instant.
  double convergence_s{0};
  /// Absolute virtual convergence instant, in nanoseconds.
  std::int64_t convergence_at_ns{0};
  Fingerprint fingerprint;
  AllocCount alloc_setup;
  AllocCount alloc_event;
  /// Per-layer counts read from the finished experiment.
  Metrics counts;

  bool failed() const { return !failure.empty(); }
};

/// Runs one untraced trial.
TrialResult run_trial(const Workload& workload, std::uint64_t seed);

struct TracedResult {
  Fingerprint fingerprint;
  /// Host seconds of the traced trial (same interval as trial_s).
  double trial_s{0};
  /// Per-layer self times, span-derived counts, allocation split and probe
  /// timings.
  Metrics layers;
  /// False when a probe's output was wrong (see probes.hpp).
  bool probes_ok{true};
};

/// Repeats `untraced`'s seed with the trace sink attached. The post-
/// injection phase is stepped event by event up to the untraced run's
/// convergence instant.
TracedResult run_traced_trial(const Workload& workload,
                              const TrialResult& untraced);

}  // namespace perfbench
