// perfbench driver: host cost of emulator trials, end to end or split by
// layer. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs the fixed trial seeds of one workload serially and prints a
// human-readable table, then one JSON line:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// --trace 0 runs whole passes over the seeds for about <s> seconds and
// reports the end-to-end metrics of untraced trials; --trace 1 runs one
// pass, repeats each seed traced and reports the per-layer metrics. See
// ../README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "trial.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"trial_s", "s"},     {"trial_cpu_s", "s"},    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"}, {"mem_model_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"convergence_s", "s"},
    {"topology.gen_s", "s"},
    {"framework.build_s", "s"},
    {"framework.bringup_s", "s"},
    {"framework.wait_s", "s"},
    {"framework.quiet_events", "count"},
    {"framework.self_s", "s"},
    {"core.events.setup", "count"},
    {"core.events.event", "count"},
    {"core.ns_per_event", "ns"},
    {"core.events_per_s", "1/s"},
    {"core.pending_peak", "count"},
    {"core.untagged.self_s", "s"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"bgp.updates_rx", "count"},
    {"bgp.updates_tx", "count"},
    {"bgp.updates_per_s", "1/s"},
    {"bgp.nlri_per_update", "prefix/update"},
    {"bgp.decision.runs", "count"},
    {"bgp.decision.best_changes", "count"},
    {"bgp.decision.useful_ratio", "ratio"},
    {"bgp.mrai.wait_s", "s"},
    {"bgp.rx.self_s", "s"},
    {"bgp.decision.self_s", "s"},
    {"bgp.tx.self_s", "s"},
    {"bgp.fsm.self_s", "s"},
    {"bgp.codec.encode_ns", "ns"},
    {"bgp.codec.decode_ns", "ns"},
    {"bgp.rib.find_ns", "ns"},
    {"speaker.updates_rx", "count"},
    {"speaker.updates_tx", "count"},
    {"speaker.self_s", "s"},
    {"controller.prefix_recomputes", "count"},
    {"controller.prefixes_dirty", "count"},
    {"controller.spt_vertices_replayed", "count"},
    {"controller.flow_changes", "count"},
    {"controller.useful_ratio", "ratio"},
    {"controller.self_s", "s"},
    {"controller.batch_wait_s", "s"},
    {"sdn.flow_mods", "count"},
    {"sdn.table_entries", "count"},
    {"sdn.self_s", "s"},
    {"sdn.flow.lookup_ns", "ns"},
    {"other.self_s", "s"},
    {"alloc.setup", "count"},
    {"alloc.event", "count"},
    {"alloc.per_update_rx", "count"},
    {"alloc.bytes", "B"},
    {"alloc.repeat_delta", "count"},
    {"alloc.core.untagged", "count"},
    {"alloc.bgp.rx", "count"},
    {"alloc.bgp.decision", "count"},
    {"alloc.bgp.tx", "count"},
    {"alloc.bgp.fsm", "count"},
    {"alloc.speaker", "count"},
    {"alloc.controller", "count"},
    {"alloc.sdn", "count"},
    {"alloc.framework", "count"},
    {"alloc.other", "count"},
    {"mem.rib_mib", "MiB"},
    {"mem.attr_mib", "MiB"},
    {"mem.flow_tables_mib", "MiB"},
    {"mem.speaker_ribs_mib", "MiB"},
    {"telemetry.trace_overhead_s", "s"},
};

constexpr const char* kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1>\n";

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

std::optional<unsigned long long> parse_number(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    const auto number = parse_number(value);
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!number) usage_error("--seed needs a non-negative integer");
      args.seed = *number;
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!number || *number == 0) usage_error("--seconds needs a positive integer");
      args.seconds = static_cast<double>(*number);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace needs 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage_error("all four arguments are required");
  }
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Mean over the pass seeds of each seed's median. `samples` holds one
/// value per trial in run order, so sample i belongs to pass seed
/// i % kPassSeeds. The seeds differ in cost: a plain median over the trials
/// of all seeds would fall in the gap between them.
double mean_of_seed_medians(const std::vector<double>& samples) {
  double sum = 0;
  for (std::size_t seed = 0; seed < kPassSeeds; ++seed) {
    std::vector<double> of_seed;
    for (std::size_t i = seed; i < samples.size(); i += kPassSeeds) {
      of_seed.push_back(samples[i]);
    }
    sum += median(std::move(of_seed));
  }
  return sum / static_cast<double>(kPassSeeds);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void log_trial(const TrialResult& r) {
  std::fprintf(stderr,
               "perfbench: seed %llu trial %.3f s (setup %.3f s), "
               "convergence %.4f s%s%s\n",
               static_cast<unsigned long long>(r.seed), r.trial_s, r.setup_s,
               r.convergence_s, r.failed() ? ", FAILED: " : "",
               r.failure.c_str());
}

/// Prints the table and the result line for `defs`, taking each metric's
/// value from `values`. `extra_rows` goes into the table only.
void report(const Args& args, std::size_t attempted, std::size_t failed,
            bool correct, const Metrics& values, const MetricDef* defs,
            std::size_t count, const std::string& extra_rows = {}) {
  std::printf("# perfbench %s seed %llu trace %d: %zu trials, %zu failed\n%s",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, attempted, failed, extra_rows.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%-34s %16.6f %s\n", defs[i].name, value, defs[i].unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run_end_to_end(const Args& args, const Workload& w) {
  // Whole passes only, so that every run's medians are over the same
  // inputs: the first pass always, each further one while it fits in the
  // time budget.
  const double start = now_s();
  std::vector<TrialResult> trials;
  for (std::size_t passes = 1;; ++passes) {
    for (std::size_t i = 0; i < kPassSeeds; ++i) {
      trials.push_back(run_trial(w, trial_seed(i)));
      log_trial(trials.back());
    }
    const double elapsed = now_s() - start;
    const double per_pass = elapsed / static_cast<double>(passes);
    if (elapsed + per_pass > args.seconds) break;
  }

  std::vector<double> trial_s, cpu_s, setup_s, mem_mib, convergence;
  std::size_t failed = 0;
  bool correct = true;
  for (const auto& t : trials) {
    trial_s.push_back(t.trial_s);
    cpu_s.push_back(t.trial_cpu_s);
    setup_s.push_back(t.setup_s);
    mem_mib.push_back(static_cast<double>(t.fingerprint.mem_bytes) /
                      (1024.0 * 1024.0));
    if (t.failed()) {
      ++failed;
    } else {
      convergence.push_back(t.convergence_s);
    }
    // A trial that started must have run events and built RIBs; anything
    // else means the measurement itself is broken.
    if (t.started &&
        (t.fingerprint.events_setup == 0 || t.fingerprint.mem_bytes == 0)) {
      correct = false;
    }
  }
  const Metrics values = {
      {"trial_s", mean_of_seed_medians(trial_s)},
      {"trial_cpu_s", mean_of_seed_medians(cpu_s)},
      {"setup_s", mean_of_seed_medians(setup_s)},
      {"peak_rss_mib", peak_rss_mib()},
      {"mem_model_mib", mean_of_seed_medians(mem_mib)},
  };
  char row[128];
  std::snprintf(row, sizeof row,
                "%-34s %16.6f s (virtual; median of %zu passing trials)\n",
                "convergence_s", median(convergence), convergence.size());
  report(args, trials.size(), failed, correct, values, kEndToEnd,
         std::size(kEndToEnd), row);
  return 0;
}

int run_traced(const Args& args, const Workload& w) {
  if (!alloc_counting()) {
    usage_error("--trace 1 needs the perfbench_trace build, which counts "
                "allocations");
  }
  std::optional<TrialResult> first;  // repeated at the end for alloc.*
  std::vector<Metrics> per_seed;
  std::size_t failed = 0;
  bool correct = true;
  for (std::size_t i = 0; i < kPassSeeds; ++i) {
    const TrialResult u = run_trial(w, trial_seed(i));
    log_trial(u);
    const TracedResult t = run_traced_trial(w, u);
    std::fprintf(stderr, "perfbench: seed %llu traced trial %.3f s\n",
                 static_cast<unsigned long long>(u.seed), t.trial_s);
    if (u.failed()) ++failed;
    if (!(t.fingerprint == u.fingerprint)) {
      std::fprintf(stderr,
                   "perfbench: seed %llu traced run diverged:\n  untraced %s\n"
                   "  traced   %s\n",
                   static_cast<unsigned long long>(u.seed),
                   u.fingerprint.to_string().c_str(),
                   t.fingerprint.to_string().c_str());
      correct = false;
    }
    if (!t.probes_ok) correct = false;

    Metrics m = u.counts;
    m.insert(t.layers.begin(), t.layers.end());
    const double events = m["core.events.setup"] + m["core.events.event"];
    // Like the end-to-end table: a falsely converged trial has no
    // convergence time, so only passing seeds enter the median.
    if (!u.failed()) m["convergence_s"] = u.convergence_s;
    m["framework.build_s"] = u.build_s;
    m["framework.bringup_s"] = u.bringup_s;
    m["framework.wait_s"] = u.wait_s;
    m["core.ns_per_event"] = u.trial_s * 1e9 / events;
    m["core.events_per_s"] = events / u.trial_s;
    m["bgp.updates_per_s"] = m["bgp.updates_rx"] / u.trial_s;
    m["alloc.setup"] = static_cast<double>(u.alloc_setup.allocs);
    m["alloc.event"] = static_cast<double>(u.alloc_event.allocs);
    m["alloc.bytes"] =
        static_cast<double>(u.alloc_setup.bytes + u.alloc_event.bytes);
    m["alloc.per_update_rx"] =
        m["bgp.updates_rx"] > 0
            ? (m["alloc.setup"] + m["alloc.event"]) / m["bgp.updates_rx"]
            : 0.0;
    m["telemetry.trace_overhead_s"] = t.trial_s - u.trial_s;
    per_seed.push_back(std::move(m));
    if (!first) first = u;
  }

  // The allocation counts must repeat exactly for a repeated seed.
  const TrialResult again = run_trial(w, first->seed);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a > b ? a - b : b - a);
  };
  const double repeat_delta =
      delta(again.alloc_setup.allocs, first->alloc_setup.allocs) +
      delta(again.alloc_event.allocs, first->alloc_event.allocs);
  if (repeat_delta != 0) {
    std::fprintf(stderr,
                 "perfbench: allocation counts did not repeat for seed %llu: "
                 "setup %llu vs %llu, event %llu vs %llu\n",
                 static_cast<unsigned long long>(again.seed),
                 static_cast<unsigned long long>(first->alloc_setup.allocs),
                 static_cast<unsigned long long>(again.alloc_setup.allocs),
                 static_cast<unsigned long long>(first->alloc_event.allocs),
                 static_cast<unsigned long long>(again.alloc_event.allocs));
  }

  Metrics values;
  for (const auto& def : kPerLayer) {
    std::vector<double> samples;
    for (const auto& m : per_seed) {
      if (const auto it = m.find(def.name); it != m.end()) {
        samples.push_back(it->second);
      }
    }
    values[def.name] = median(std::move(samples));
  }
  values["alloc.repeat_delta"] = repeat_delta;

  // Only the hybrid workload has a cluster: its layers must be idle
  // elsewhere.
  if (!w.hybrid) {
    for (const auto& m : per_seed) {
      for (const auto& [name, value] : m) {
        const bool cluster_layer = name.rfind("controller.", 0) == 0 ||
                                   name.rfind("speaker.", 0) == 0 ||
                                   name.rfind("sdn.", 0) == 0 ||
                                   name == "alloc.controller" ||
                                   name == "alloc.speaker" || name == "alloc.sdn";
        if (cluster_layer && value != 0) {
          std::fprintf(stderr, "perfbench: %s is %g on a workload with no "
                               "SDN cluster\n", name.c_str(), value);
          correct = false;
        }
      }
    }
  }
  report(args, per_seed.size(), failed, correct, values, kPerLayer,
         std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const auto workload = find_workload(args.workload);
  if (!workload) {
    std::string known;
    for (const auto& name : workload_names()) known += " " + name;
    usage_error("unknown workload '" + args.workload + "' (known:" + known + ")");
  }
  try {
    return args.trace ? run_traced(args, *workload)
                      : run_end_to_end(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
