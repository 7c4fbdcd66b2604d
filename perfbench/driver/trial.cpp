#include "trial.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <vector>

#include "framework/experiment.hpp"
#include "probes.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace fw = bgpsdn::framework;
namespace core = bgpsdn::core;
namespace telemetry = bgpsdn::telemetry;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::int64_t counter(const telemetry::MetricsRegistry& m, const char* name) {
  const auto* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double histogram_sum_s(const telemetry::MetricsRegistry& m, const char* name) {
  const auto* h = m.find_histogram(name);
  return h == nullptr ? 0.0 : seconds(h->sum());
}

std::uint64_t dropped(fw::Experiment& e) {
  const auto& s = e.network().stats();
  return s.dropped_loss + s.dropped_link_down + s.dropped_ttl +
         s.dropped_no_port;
}

/// The trial's correctness check; empty when it passed.
std::string check(fw::Experiment& e, const Workload& w,
                  const fw::ConvergenceResult& conv) {
  if (conv.timed_out) return "wait_converged timed out";
  if (!e.all_know_prefix(w.checked_prefix, w.expect_present)) {
    return w.checked_prefix.to_string() +
           (w.expect_present ? " missing from" : " still in") +
           " some Loc-RIB after wait_converged returned";
  }
  if (const auto n = dropped(e); n != 0) {
    return std::to_string(n) + " packets dropped";
  }
  return {};
}

/// Per-layer counts of a finished experiment.
Metrics read_counts(fw::Experiment& e) {
  const auto& m = e.telemetry().metrics();
  Metrics out;
  out["net.delivered"] = static_cast<double>(e.network().stats().delivered);
  out["net.dropped"] = static_cast<double>(dropped(e));

  const auto runs = static_cast<double>(counter(m, "bgp.decision.runs"));
  const auto changes =
      static_cast<double>(counter(m, "bgp.decision.best_changes"));
  out["bgp.updates_rx"] =
      static_cast<double>(counter(m, "bgp.session.updates_rx"));
  out["bgp.updates_tx"] =
      static_cast<double>(counter(m, "bgp.session.updates_tx"));
  out["bgp.decision.runs"] = runs;
  out["bgp.decision.best_changes"] = changes;
  out["bgp.decision.useful_ratio"] = ratio(changes, runs);
  out["bgp.mrai.wait_s"] = histogram_sum_s(m, "bgp.mrai.wait_ns");

  out["speaker.updates_rx"] =
      static_cast<double>(counter(m, "speaker.updates_rx"));
  out["speaker.updates_tx"] =
      static_cast<double>(counter(m, "speaker.announces_tx") +
                          counter(m, "speaker.withdraws_tx"));

  const auto recomputes =
      static_cast<double>(counter(m, "ctrl.idr.prefix_recomputes"));
  const auto flow_changes = static_cast<double>(
      counter(m, "ctrl.idr.flow_adds") + counter(m, "ctrl.idr.flow_deletes"));
  out["controller.prefix_recomputes"] = recomputes;
  out["controller.prefixes_dirty"] =
      static_cast<double>(counter(m, "ctrl.idr.prefixes_dirty"));
  out["controller.spt_vertices_replayed"] =
      static_cast<double>(counter(m, "ctrl.idr.spt_vertices_replayed"));
  out["controller.flow_changes"] = flow_changes;
  out["controller.useful_ratio"] = ratio(flow_changes, recomputes);
  out["controller.batch_wait_s"] =
      histogram_sum_s(m, "ctrl.idr.batch_wait_ns");

  std::size_t entries = 0;
  for (const auto as : e.members()) entries += e.member_switch(as).table().size();
  out["sdn.flow_mods"] = static_cast<double>(counter(m, "sdn.switch.flow_mods"));
  out["sdn.table_entries"] = static_cast<double>(entries);

  const core::MemStats mem = e.memory_stats();
  out["mem.rib_mib"] = static_cast<double>(mem.rib_total()) / kMiB;
  out["mem.attr_mib"] =
      static_cast<double>(mem.attr_pool + mem.attr_registry) / kMiB;
  out["mem.flow_tables_mib"] = static_cast<double>(mem.flow_tables) / kMiB;
  out["mem.speaker_ribs_mib"] = static_cast<double>(mem.speaker_ribs) / kMiB;
  return out;
}

Fingerprint fingerprint(fw::Experiment& e, std::int64_t convergence_ns,
                        std::uint64_t events_setup) {
  const auto& m = e.telemetry().metrics();
  Fingerprint fp;
  fp.convergence_ns = convergence_ns;
  fp.events_setup = events_setup;
  fp.events_event = e.loop().events_executed() - events_setup;
  fp.updates_rx =
      static_cast<std::uint64_t>(counter(m, "bgp.session.updates_rx"));
  fp.updates_tx =
      static_cast<std::uint64_t>(counter(m, "bgp.session.updates_tx"));
  fp.decision_runs =
      static_cast<std::uint64_t>(counter(m, "bgp.decision.runs"));
  fp.mem_bytes = e.memory_stats().total();
  return fp;
}

fw::WaitOpts wait_opts(const Workload& w) {
  return fw::WaitOpts{w.spec.effective_quiet(), core::Duration::seconds(3600)};
}

const core::Duration kStartTimeout = core::Duration::seconds(600);

// --- traced run --------------------------------------------------------------

/// Where a step's host time is charged: the layer of the first span the
/// step emits, or core.untagged for steps that emit none.
enum Layer : std::size_t {
  kUntagged,
  kBgpRx,
  kBgpDecision,
  kBgpTx,
  kBgpFsm,
  kSpeaker,
  kController,
  kSdn,
  kFramework,
  kOther,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "core.untagged", "bgp.rx",  "bgp.decision", "bgp.tx",    "bgp.fsm",
    "speaker",       "controller", "sdn",       "framework", "other"};

Layer layer_of(const telemetry::TraceSpan& span) {
  const auto is = [](const char* a, const char* b) {
    return std::strcmp(a, b) == 0;
  };
  if (is(span.category, "bgp")) {
    if (is(span.name, "update_rx")) return kBgpRx;
    if (is(span.name, "decision")) return kBgpDecision;
    if (is(span.name, "update_tx") || is(span.name, "mrai_wait")) return kBgpTx;
    if (is(span.name, "fsm")) return kBgpFsm;
    return kOther;
  }
  if (is(span.category, "speaker")) return kSpeaker;
  if (is(span.category, "ctrl")) return kController;
  if (is(span.category, "sdn")) return kSdn;
  return kOther;
}

/// A point on the host clock and the allocation counter.
struct Mark {
  std::int64_t wall_ns;
  std::uint64_t allocs;

  static Mark now() { return {host_ns(), alloc_count().allocs}; }
};

/// Keeps every span as a small stamp in memory: the host clock and
/// allocation count at emission, and the layer the span belongs to.
class StampSink final : public telemetry::TraceSink {
 public:
  struct Stamp {
    Mark at;
    Layer layer;
  };

  explicit StampSink(const core::EventLoop& loop) : loop_{loop} {
    stamps_.reserve(std::size_t{1} << 20);
  }

  void on_span(const telemetry::TraceSpan& span) override {
    const Layer layer = layer_of(span);
    stamps_.push_back({Mark::now(), layer});
    pending_peak_ = std::max(pending_peak_, loop_.pending_events());
    if (layer == kBgpTx && std::strcmp(span.name, "update_tx") == 0) {
      ++updates_tx_;
      for (const auto& [key, value] : span.args) {
        if (key == "nlri" || key == "withdrawn") {
          prefixes_tx_ += static_cast<std::uint64_t>(value.as_int());
        }
      }
    }
  }

  const std::vector<Stamp>& stamps() const { return stamps_; }
  void note_pending() {
    pending_peak_ = std::max(pending_peak_, loop_.pending_events());
  }
  std::size_t pending_peak() const { return pending_peak_; }
  double prefixes_per_update() const {
    return ratio(static_cast<double>(prefixes_tx_),
                 static_cast<double>(updates_tx_));
  }

 private:
  const core::EventLoop& loop_;
  std::vector<Stamp> stamps_;
  std::size_t pending_peak_{0};
  std::uint64_t updates_tx_{0};
  std::uint64_t prefixes_tx_{0};
};

/// Host nanoseconds and allocations charged to each layer in one phase.
/// Every charge is the difference between two consecutive marks of one
/// chain that runs from the phase's first mark to its last, so the layers'
/// charges sum to the phase's host time by construction.
struct Split {
  std::array<std::int64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> allocs{};

  void charge(Layer layer, std::int64_t ns_delta, std::uint64_t alloc_delta) {
    ns[layer] += ns_delta;
    allocs[layer] += alloc_delta;
  }
};

/// Splits an interval that was not stepped: the host time up to each span
/// is charged to that span's layer, and the tail after the last span to
/// core.untagged. Charges stamps [first, stamps.size()).
void charge_by_stamps(const StampSink& sink, std::size_t first, Mark from,
                      Mark to, Split& split) {
  Mark cursor = from;
  const auto& stamps = sink.stamps();
  for (std::size_t i = first; i < stamps.size(); ++i) {
    split.charge(stamps[i].layer, stamps[i].at.wall_ns - cursor.wall_ns,
                 stamps[i].at.allocs - cursor.allocs);
    cursor = stamps[i].at;
  }
  split.charge(kUntagged, to.wall_ns - cursor.wall_ns,
               to.allocs - cursor.allocs);
}

}  // namespace

std::string Fingerprint::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "conv %lld ns, events %llu+%llu, updates rx %llu tx %llu, "
                "decisions %llu, mem %llu B",
                static_cast<long long>(convergence_ns),
                static_cast<unsigned long long>(events_setup),
                static_cast<unsigned long long>(events_event),
                static_cast<unsigned long long>(updates_rx),
                static_cast<unsigned long long>(updates_tx),
                static_cast<unsigned long long>(decision_runs),
                static_cast<unsigned long long>(mem_bytes));
  return buf;
}

TrialResult run_trial(const Workload& w, std::uint64_t seed) {
  TrialResult r;
  r.seed = seed;
  const AllocCount a0 = alloc_count();
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = host_ns();
  std::unique_ptr<fw::Experiment> e = w.spec.make_experiment(seed);
  const std::int64_t t1 = host_ns();
  const bool started = e->start(kStartTimeout);
  const std::int64_t t2 = host_ns();
  const AllocCount a2 = alloc_count();
  const std::uint64_t events_setup = e->loop().events_executed();
  r.build_s = seconds(t1 - t0);
  r.bringup_s = seconds(t2 - t1);
  r.setup_s = seconds(t2 - t0);
  r.alloc_setup = a2 - a0;
  r.started = started;
  if (!started) {
    r.failure = "start() returned false";
    r.trial_s = r.setup_s;
    r.trial_cpu_s = seconds(cpu_ns() - c0);
  } else {
    const core::TimePoint injected = w.spec.inject_event(*e);
    const std::int64_t t3 = host_ns();
    const fw::ConvergenceResult conv = e->wait_converged(wait_opts(w));
    const std::int64_t t4 = host_ns();
    r.trial_cpu_s = seconds(cpu_ns() - c0);
    r.alloc_event = alloc_count() - a2;
    r.wait_s = seconds(t4 - t3);
    r.trial_s = seconds(t4 - t0);
    r.convergence_s = conv.since(injected).to_seconds();
    r.convergence_at_ns = conv.instant.nanos_since_origin();
    r.failure = check(*e, w, conv);
    r.fingerprint =
        fingerprint(*e, conv.since(injected).count_nanos(), events_setup);
  }
  r.counts = read_counts(*e);
  r.counts["core.events.setup"] = static_cast<double>(events_setup);
  r.counts["core.events.event"] =
      static_cast<double>(e->loop().events_executed() - events_setup);
  return r;
}

TracedResult run_traced_trial(const Workload& w, const TrialResult& untraced) {
  TracedResult out;
  Metrics& m = out.layers;
  {
    const std::int64_t t = host_ns();
    const auto topology = w.spec.make_topology(untraced.seed);
    m["topology.gen_s"] = seconds(host_ns() - t);
  }

  Split setup;
  Split event;
  const Mark begin = Mark::now();
  std::unique_ptr<fw::Experiment> e = w.spec.make_experiment(untraced.seed);
  StampSink sink{e->loop()};
  const std::size_t sink_id = e->telemetry().add_sink(&sink);
  const Mark built = Mark::now();
  setup.charge(kFramework, built.wall_ns - begin.wall_ns,
               built.allocs - begin.allocs);
  const bool started = e->start(kStartTimeout);
  const Mark up = Mark::now();
  charge_by_stamps(sink, 0, built, up, setup);
  const std::uint64_t events_setup = e->loop().events_executed();
  if (!started) {
    e->telemetry().remove_sink(sink_id);
    return out;
  }

  // Probes run between bring-up and injection, outside both phases: the
  // Loc-RIBs and flow tables are converged and still hold the measured
  // prefix.
  out.probes_ok = run_probes(*e, m);

  // Post-injection: inject, then step one event at a time up to the
  // untraced run's convergence instant, charging each step to the layer
  // of its first span. The quiet-window wait that proves convergence runs
  // unstepped.
  const Mark inject_begin = Mark::now();
  const core::TimePoint injected = w.spec.inject_event(*e);
  Mark prev = Mark::now();
  event.charge(kFramework, prev.wall_ns - inject_begin.wall_ns,
               prev.allocs - inject_begin.allocs);
  const auto target = core::TimePoint::from_nanos(untraced.convergence_at_ns);
  auto& loop = e->loop();
  while (true) {
    const std::size_t spans_before = sink.stamps().size();
    if (!loop.step(target)) break;
    const Mark now = Mark::now();
    const Layer layer = sink.stamps().size() > spans_before
                            ? sink.stamps()[spans_before].layer
                            : kUntagged;
    event.charge(layer, now.wall_ns - prev.wall_ns, now.allocs - prev.allocs);
    sink.note_pending();
    prev = now;
  }
  const std::uint64_t events_at_convergence = loop.events_executed();
  const std::size_t spans_before_wait = sink.stamps().size();
  const fw::ConvergenceResult conv = e->wait_converged(wait_opts(w));
  const Mark end = Mark::now();
  charge_by_stamps(sink, spans_before_wait, prev, end, event);

  out.fingerprint =
      fingerprint(*e, conv.since(injected).count_nanos(), events_setup);
  out.trial_s = seconds((up.wall_ns - begin.wall_ns) +
                        (end.wall_ns - inject_begin.wall_ns));

  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = kLayerNames[l];
    m[name + ".self_s"] = seconds(setup.ns[l] + event.ns[l]);
    m["alloc." + name] =
        static_cast<double>(setup.allocs[l] + event.allocs[l]);
  }
  m["framework.quiet_events"] =
      static_cast<double>(loop.events_executed() - events_at_convergence);
  m["core.pending_peak"] = static_cast<double>(sink.pending_peak());
  m["bgp.nlri_per_update"] = sink.prefixes_per_update();
  e->telemetry().remove_sink(sink_id);
  return out;
}

}  // namespace perfbench
