// Structured event logging: the text and analysis side of the fact stream.
//
// The paper's framework ships "tools for automatic log file analysis"; here
// components emit typed facts (core/fact.hpp) and analysis tools
// (convergence detection, route-change tracking) read them as Logger sinks.
// A fact's text is rendered on demand, at most once: convergence detection
// never reads it, so a run without retention never formats UPDATE lines.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/fact.hpp"
#include "core/time.hpp"

namespace bgpsdn::core {

/// One retained log record: a fact with a text tag, and its rendered text.
struct LogRecord {
  TimePoint when;
  FactKind kind{};
  std::string component;
  std::string detail;

  /// The row's text tag ("update_tx").
  const char* tag() const { return fact_row(kind).tag; }
  std::string to_string() const;
};

/// One fact as a sink sees it. detail() renders the fact's text on its
/// first call and shares it with every later reader of the same fact.
struct FactView {
  TimePoint when;
  const Fact& fact;
  mutable std::optional<std::string> text{};

  const std::string& detail() const {
    if (!text) text = fact.detail.render();
    return *text;
  }
};

/// Delivers facts to sinks and keeps or echoes the text of those at or
/// above min_level. Retention can be disabled for long benchmark runs.
class Logger {
 public:
  using Sink = std::function<void(const FactView&)>;

  /// Deliver one fact: every sink sees it; its text is kept and echoed when
  /// the row has a tag at or above min_level. The detail is rendered at
  /// most once, and only when a sink, retention or echo reads it.
  void emit(TimePoint when, const Fact& fact);

  /// Facts below this level keep no text and are not echoed; sinks still
  /// see them.
  void set_min_level(LogLevel level) { min_level_ = level; }

  /// Keep records in memory (default true). Sinks still fire when disabled.
  void set_retain(bool retain) { retain_ = retain; }

  /// Mirror records to a stream (nullptr to disable).
  void set_echo(std::ostream* os) { echo_ = os; }

  /// Register a sink; returns an id for remove_sink.
  std::size_t add_sink(Sink sink);
  void remove_sink(std::size_t id);

  const std::vector<LogRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

 private:
  LogLevel min_level_{LogLevel::kInfo};
  bool retain_{true};
  std::ostream* echo_{nullptr};
  std::vector<LogRecord> records_;
  std::vector<Sink> sinks_;  // empty once removed
};

}  // namespace bgpsdn::core
