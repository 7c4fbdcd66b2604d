// Trace spans stamped with virtual simulation time.
//
// A TraceSpan covers an interval of virtual time (start == end for instant
// events) in one component: a BGP UPDATE being received and processed, an
// MRAI window, a controller recompute batch, a session FSM transition, a
// flow-table mutation. Spans are built from facts (core/fact.hpp) by the
// fact dispatcher emit() below, and only when at least one sink is attached
// — the `tracing()` check is a single vector-emptiness test, so a fact
// nobody traces costs one branch.
//
// Because spans carry virtual time only (never wall clock) and simulations
// are deterministic per seed, the span stream is byte-identical across
// BGPSDN_JOBS values and across machines.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/fact.hpp"
#include "core/logger.hpp"
#include "core/time.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace bgpsdn::telemetry {

struct TraceSpan {
  core::TimePoint start{};
  core::TimePoint end{};
  const char* category = "";  // span taxonomy: "bgp", "sdn", "ctrl", ...
  const char* name = "";      // e.g. "decision", "recompute_batch", "fsm"
  std::string component;      // emitting entity, e.g. "router-65001"
  std::vector<std::pair<std::string, Json>> args;

  TraceSpan() = default;
  TraceSpan(core::TimePoint s, core::TimePoint e, const char* cat,
            const char* n, std::string comp)
      : start{s}, end{e}, category{cat}, name{n}, component{std::move(comp)} {}

  TraceSpan& arg(std::string key, Json value) {
    args.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  core::Duration duration() const { return end - start; }
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_span(const TraceSpan& span) = 0;
};

/// Per-network telemetry hub: a metrics registry plus the trace fan-out.
/// Metrics are always on (plain integer adds); traces only flow while a
/// sink is attached.
class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The counter a fact kind's row names, resolved on the kind's first fact.
  Counter& fact_counter(core::FactKind kind) {
    Counter*& handle = fact_counters_[static_cast<std::size_t>(kind)];
    if (handle == nullptr) handle = &metrics_.counter(core::fact_row(kind).counter);
    return *handle;
  }

  /// True when at least one trace sink is attached; spans are built only
  /// then.
  bool tracing() const { return !sinks_.empty(); }

  /// Register a sink (not owned). Returns an id for remove_sink.
  std::size_t add_sink(TraceSink* sink) {
    sinks_.push_back(SinkEntry{next_id_, sink});
    return next_id_++;
  }

  void remove_sink(std::size_t id) {
    for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
      if (it->id == id) {
        sinks_.erase(it);
        return;
      }
    }
  }

  void emit(const TraceSpan& span) {
    for (const auto& entry : sinks_) entry.sink->on_span(span);
  }

 private:
  struct SinkEntry {
    std::size_t id;
    TraceSink* sink;
  };

  MetricsRegistry metrics_;
  std::array<Counter*, core::kFactKindCount> fact_counters_{};
  std::vector<SinkEntry> sinks_;
  std::size_t next_id_ = 1;
};

/// The span a fact makes; its row must name a span category.
TraceSpan span_of(core::TimePoint when, const core::Fact& fact);

/// The fact dispatcher: one call per fact feeds every channel its row names
/// (`tel` is null on bare unit-test hosts: the fact reaches the Logger only).
inline void emit(core::Logger& log, Telemetry* tel, core::TimePoint when,
                 const core::Fact& fact) {
  const core::FactRow& row = core::fact_row(fact.kind);
  if (tel != nullptr) {
    if (row.counter != nullptr) tel->fact_counter(fact.kind).inc();
    if (row.span_category != nullptr && tel->tracing()) {
      tel->emit(span_of(when, fact));
    }
  }
  if (row.tag != nullptr) log.emit(when, fact);
}

}  // namespace bgpsdn::telemetry
