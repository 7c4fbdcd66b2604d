#include "telemetry/trace.hpp"

namespace bgpsdn::telemetry {

TraceSpan span_of(core::TimePoint when, const core::Fact& fact) {
  using Type = core::FactArg::Type;
  const core::FactRow& row = core::fact_row(fact.kind);
  TraceSpan span{fact.since.value_or(when), when, row.span_category,
                 row.span_name != nullptr ? row.span_name : fact.span_name,
                 std::string{fact.component}};
  for (std::size_t i = 0; i < row.span_args.size() && row.span_args[i]; ++i) {
    const core::FactArg& arg = fact.args[i];
    switch (arg.type) {
      case Type::kNone: break;
      case Type::kInt: span.arg(row.span_args[i], arg.number); break;
      case Type::kBool: span.arg(row.span_args[i], arg.number != 0); break;
      case Type::kReal: span.arg(row.span_args[i], arg.real); break;
      case Type::kAs:
        span.arg(row.span_args[i],
                 core::AsNumber{static_cast<std::uint32_t>(arg.number)}
                     .to_string());
        break;
      case Type::kText: span.arg(row.span_args[i], arg.text.render()); break;
    }
  }
  return span;
}

}  // namespace bgpsdn::telemetry
