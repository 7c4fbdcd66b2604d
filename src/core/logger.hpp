// Structured event logging.
//
// The paper's framework ships "tools for automatic log file analysis"; here
// every component emits typed records into a Logger, and analysis tools
// (convergence detection, route-change tracking) consume the same records
// instead of re-parsing text.
//
// A record's free-text detail is built on demand: emitters pass it as a
// callable, and the Logger runs that callable only when something reads
// text — retention, the echo stream, or a sink registered as a text reader.
// Convergence detection reads only each record's tag and time, so a run
// with retention off never formats the per-UPDATE debug lines.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/time.hpp"

namespace bgpsdn::core {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

const char* to_string(LogLevel level);

/// One log record. `component` identifies the emitter ("bgp.AS3", "ctrl"),
/// `event` is a stable machine-readable tag ("update_rx", "flow_mod"), and
/// `detail` is free text for humans.
struct LogRecord {
  TimePoint when;
  LogLevel level{LogLevel::kInfo};
  std::string component;
  std::string event;
  std::string detail;

  std::string to_string() const;
};

/// The detail argument of Logger::log: a callable returning the text, run
/// only when a text consumer exists, or text that already exists (a
/// literal, a caller's string). Text that would have to be built at the
/// call site must come as a callable, so a temporary std::string does not
/// convert. Non-owning: it refers to the caller's callable or string, so it
/// is only ever a parameter of the call that uses it.
class LogDetail {
 public:
  LogDetail() = default;
  LogDetail(const char* text) : text_{text} {}  // NOLINT(google-explicit-constructor)
  LogDetail(const std::string& text) : text_{text} {}  // NOLINT(google-explicit-constructor)
  LogDetail(std::string&&) = delete;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, LogDetail> &&
                std::is_invocable_r_v<std::string, const F&>>>
  LogDetail(const F& build)  // NOLINT(google-explicit-constructor)
      : fn_{&build}, call_{[](const void* fn) -> std::string {
          return (*static_cast<const F*>(fn))();
        }} {}

  std::string render() const {
    return call_ != nullptr ? call_(fn_) : std::string{text_};
  }

 private:
  std::string_view text_;
  const void* fn_{nullptr};
  std::string (*call_)(const void*){nullptr};
};

/// What a sink reads of each record. A kTagsOnly sink reads `when`,
/// `level`, `component` and `event`, and always sees an empty `detail`;
/// registering one does not make the Logger build text.
enum class SinkReads { kTagsOnly, kText };

/// Collects records; optionally mirrors them to a stream and/or forwards to
/// registered sinks. Retention can be disabled for long benchmark runs.
class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  /// Emit one record. `detail` is rendered at most once, and only when the
  /// record passes min_level and retention, echo or a kText sink wants it.
  void log(TimePoint when, LogLevel level, std::string_view component,
           std::string_view event, LogDetail detail = {});

  /// Records below this level are dropped entirely.
  void set_min_level(LogLevel level) { min_level_ = level; }
  LogLevel min_level() const { return min_level_; }

  /// Keep records in memory (default true). Sinks still fire when disabled.
  void set_retain(bool retain) { retain_ = retain; }

  /// Mirror records to a stream (nullptr to disable).
  void set_echo(std::ostream* os) { echo_ = os; }

  /// Register a sink that reads what `reads` says; returns an id for
  /// remove_sink.
  std::size_t add_sink(Sink sink, SinkReads reads);
  void remove_sink(std::size_t id);

  const std::vector<LogRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// All retained records matching an event tag (and optionally a component
  /// prefix), in time order.
  std::vector<LogRecord> filter(const std::string& event,
                                const std::string& component_prefix = {}) const;

  /// Count of retained records with the given event tag.
  std::size_t count(const std::string& event) const;

 private:
  struct SinkEntry {
    Sink fn;  // empty once removed
    SinkReads reads{SinkReads::kText};
  };

  LogLevel min_level_{LogLevel::kInfo};
  bool retain_{true};
  std::ostream* echo_{nullptr};
  std::vector<LogRecord> records_;
  std::vector<SinkEntry> sinks_;
  std::size_t text_sinks_{0};  // live kText sinks
};

}  // namespace bgpsdn::core
