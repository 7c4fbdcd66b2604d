#include "core/logger.hpp"

#include <ostream>

namespace bgpsdn::core {

std::string LogRecord::to_string() const {
  std::string s = when.to_string();
  s += " [";
  s += bgpsdn::core::to_string(fact_row(kind).level);
  s += "] ";
  s += component;
  s += " ";
  s += tag();
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

void Logger::emit(TimePoint when, const Fact& fact) {
  FactView view{when, fact};
  for (const auto& sink : sinks_) {
    if (sink) sink(view);
  }
  const FactRow& row = fact_row(fact.kind);
  if (row.tag == nullptr || row.level < min_level_) return;
  if (!retain_ && echo_ == nullptr) return;
  view.detail();
  LogRecord rec{when, fact.kind, std::string{fact.component},
                std::move(*view.text)};
  if (echo_ != nullptr) *echo_ << rec.to_string() << '\n';
  if (retain_) records_.push_back(std::move(rec));
}

std::size_t Logger::add_sink(Sink sink) {
  sinks_.push_back(std::move(sink));
  return sinks_.size() - 1;
}

void Logger::remove_sink(std::size_t id) {
  if (id < sinks_.size()) sinks_[id] = nullptr;
}

}  // namespace bgpsdn::core
