// One fact table: every routing fact the emulator records (an UPDATE sent,
// a best path changed, a FlowMod applied), one row per kind. An emit site
// makes one typed call with the kind, component and fields; the row says the
// rest: log tag and level, routing activity, trace span, registry counter.
// The dispatcher (telemetry/trace.hpp) derives every channel from the row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/ids.hpp"
#include "core/time.hpp"

namespace bgpsdn::core {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

const char* to_string(LogLevel level);

/// Free text of a fact: a callable returning the text, run only when a
/// reader exists, or text that already exists (a literal, a caller's
/// string). Text that would have to be built at the call site must come as
/// a callable, so a temporary std::string does not convert. Non-owning: it
/// refers to the caller's callable or string, so it only ever lives inside
/// the call that emits the fact.
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

/// Every kind of fact, in the order of the table's rows.
enum class FactKind : std::uint8_t {
  kTtlExpired, kLinkUp, kLinkDown,                                  // net
  kOriginAnnounce, kOriginWithdraw, kPeerUp, kPeerDown, kUpdateRx,  // bgp
  kRouteDamped, kBestChanged, kBestLost, kUpdateTx, kMraiWait, kCollectorRx,
  kOpenSent, kOpenRx, kSessionUp, kSessionDown, kFsm,  // bgp session
  kSessionUpdateRx, kSessionUpdateTx,
  kSpeakerAnnounce, kSpeakerWithdraw, kSpeakerRx, kSpeakerCrash,  // speaker
  kControllerCrash, kRestart, kOfDecodeError, kSwitchConnected,   // sdn
  kPortStatus, kFlowModTx, kStaleFlowMod, kFlowMod, kStandaloneEnter,
  kStandaloneExit,
  kAdoptShadow, kClusterLinkState, kRecompute, kGraphTransform,  // controller
  kDijkstra, kFlowInstall, kRfSync, kFallbackActivate, kFallbackDeactivate,
  kReplicasActivate, kCandidacy, kTakeover, kReplicaCrash, kReplicaRestart,
  kReplPartition, kReplHeal, kDegrade, kRecover,
  kExpControllerCrash, kExpControllerRestart, kExpSpeakerCrash,  // framework
  kExpSpeakerRestart, kFault,
};

inline constexpr std::size_t kFactKindCount =
    static_cast<std::size_t>(FactKind::kFault) + 1;

/// The columns of one fact kind; a null column feeds nothing.
struct FactRow {
  FactKind kind;
  const char* tag{nullptr};  // log text tag ("update_tx")
  LogLevel level{LogLevel::kDebug};
  bool activity{false};          // convergence is the last such fact
  const char* counter{nullptr};  // registry counter, bumped once per fact
  const char* span_category{nullptr};      // trace span category ("bgp")
  const char* span_name{nullptr};          // null: Fact::span_name names it
  std::array<const char*, 3> span_args{};  // names of Fact::args, in order
};

const FactRow& fact_row(FactKind kind);

/// One span argument: an integer, flag, real, AS number or text (a
/// LogDetail, so a callable runs only while tracing). kNone is left out.
struct FactArg {
  enum class Type : std::uint8_t { kNone, kInt, kBool, kReal, kAs, kText };

  FactArg() = default;
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  FactArg(T v) : type{Type::kInt}, number{static_cast<std::int64_t>(v)} {}  // NOLINT
  FactArg(bool v) : type{Type::kBool}, number{v ? 1 : 0} {}  // NOLINT
  FactArg(double v) : type{Type::kReal}, real{v} {}  // NOLINT
  FactArg(AsNumber as) : type{Type::kAs}, number{as.value()} {}  // NOLINT
  FactArg(const char* t) : type{Type::kText}, text{t} {}  // NOLINT
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FactArg> &&
                            std::is_invocable_r_v<std::string, const F&>>>
  FactArg(const F& build) : type{Type::kText}, text{build} {}  // NOLINT

  Type type{Type::kNone};
  std::int64_t number{0};
  double real{0.0};
  LogDetail text{};
};

/// One emitted fact, passed straight to the dispatcher. Its text fields
/// refer to the caller's values, so a Fact never outlives that call.
struct Fact {
  FactKind kind;
  std::string_view component;  // emitting entity: "bgp.AS3", "ctrl.c1"
  LogDetail detail{};          // the log record's free text
  std::array<FactArg, 3> args{};  // span arguments, named by the row
  std::optional<TimePoint> since{};  // start of an interval span
  const char* span_name{nullptr};    // for rows that leave it to the emitter
};

}  // namespace bgpsdn::core
