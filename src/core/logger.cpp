#include "core/logger.hpp"

#include <ostream>

namespace bgpsdn::core {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::string LogRecord::to_string() const {
  std::string s = when.to_string();
  s += " [";
  s += bgpsdn::core::to_string(level);
  s += "] ";
  s += component;
  s += " ";
  s += event;
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

void Logger::log(TimePoint when, LogLevel level, std::string_view component,
                 std::string_view event, LogDetail detail) {
  if (level < min_level_) return;
  const bool wants_text = retain_ || echo_ != nullptr || text_sinks_ > 0;
  LogRecord rec{when, level, std::string{component}, std::string{event},
                wants_text ? detail.render() : std::string{}};
  if (echo_ != nullptr) *echo_ << rec.to_string() << '\n';
  for (const auto& sink : sinks_) {
    if (!sink.fn) continue;
    if (sink.reads == SinkReads::kText || rec.detail.empty()) {
      sink.fn(rec);
      continue;
    }
    // A tags-only sink sees no text, whether or not another consumer built it.
    std::string text;
    text.swap(rec.detail);
    sink.fn(rec);
    text.swap(rec.detail);
  }
  if (retain_) records_.push_back(std::move(rec));
}

std::size_t Logger::add_sink(Sink sink, SinkReads reads) {
  if (sink && reads == SinkReads::kText) ++text_sinks_;
  sinks_.push_back({std::move(sink), reads});
  return sinks_.size() - 1;
}

void Logger::remove_sink(std::size_t id) {
  if (id >= sinks_.size() || !sinks_[id].fn) return;
  if (sinks_[id].reads == SinkReads::kText) --text_sinks_;
  sinks_[id].fn = nullptr;
}

std::vector<LogRecord> Logger::filter(const std::string& event,
                                      const std::string& component_prefix) const {
  std::vector<LogRecord> out;
  for (const auto& r : records_) {
    if (r.event != event) continue;
    if (!component_prefix.empty() &&
        r.component.compare(0, component_prefix.size(), component_prefix) != 0) {
      continue;
    }
    out.push_back(r);
  }
  return out;
}

std::size_t Logger::count(const std::string& event) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.event == event) ++n;
  }
  return n;
}

}  // namespace bgpsdn::core
