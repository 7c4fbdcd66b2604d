#include "framework/convergence.hpp"

#include <algorithm>

#include "framework/experiment.hpp"

namespace bgpsdn::framework {

ConvergenceDetector::ConvergenceDetector(core::EventLoop& loop,
                                         core::Logger& logger)
    : loop_{loop}, logger_{logger} {
  sink_id_ = logger_.add_sink([this](const core::FactView& view) {
    if (!core::fact_row(view.fact.kind).activity) return;
    last_activity_ = view.when;
    ++activity_count_;
  });
  last_activity_ = loop_.now();
}

ConvergenceDetector::ConvergenceDetector(Experiment& experiment)
    : ConvergenceDetector{experiment.loop(), experiment.logger()} {}

ConvergenceDetector::~ConvergenceDetector() { logger_.remove_sink(sink_id_); }

telemetry::Json ConvergenceDetector::snapshot() const {
  telemetry::Json j = telemetry::Json::object();
  j["activity_count"] = static_cast<std::int64_t>(activity_count_);
  j["last_activity_ns"] = last_activity_.nanos_since_origin();
  j["timed_out"] = timed_out_;
  return j;
}

ConvergenceResult ConvergenceDetector::wait(const WaitOpts& opts) {
  timed_out_ = false;
  // Anchor the quiet window at the call time: the caller has typically just
  // injected an event (withdrawal, link failure) whose consequences are
  // still queued, and a stale activity timestamp must not end the wait
  // before they run.
  if (last_activity_ < loop_.now()) last_activity_ = loop_.now();
  const core::TimePoint deadline = loop_.now() + opts.timeout;
  while (true) {
    const core::TimePoint quiet_until = last_activity_ + opts.quiet;
    if (loop_.now() >= quiet_until) break;
    if (loop_.now() >= deadline) {
      timed_out_ = true;
      break;
    }
    // Execute everything due before the target; if the queue runs dry the
    // loop clock still advances to the target.
    loop_.advance_to(std::min(quiet_until, deadline));
  }
  return {.instant = last_activity_,
          .timed_out = timed_out_,
          .quiet_window = opts.quiet};
}

}  // namespace bgpsdn::framework
