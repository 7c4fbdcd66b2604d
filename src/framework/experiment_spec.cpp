#include "framework/experiment_spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "framework/convergence.hpp"
#include "topology/datasets.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument{message};
}

std::string shown(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", value);
  return buf;
}

/// The topology row's bound, plus the size internet-like scaling needs.
void check_topology(TopologyModel model, std::size_t size) {
  knob("topology").check(static_cast<double>(size));
  if (model == TopologyModel::kInternetLike && size < 8) {
    bad("internet-like topologies need >= 8 ASes, got " +
        std::to_string(size));
  }
}

}  // namespace

const char* to_string(TopologyModel model) {
  switch (model) {
    case TopologyModel::kClique: return "clique";
    case TopologyModel::kLine: return "line";
    case TopologyModel::kRing: return "ring";
    case TopologyModel::kStar: return "star";
    case TopologyModel::kSynthCaida: return "synth-caida";
    case TopologyModel::kInternetLike: return "internet-like";
  }
  return "?";
}

std::optional<TopologyModel> parse_topology_model(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(TopologyModel::kInternetLike); ++i) {
    const auto model = static_cast<TopologyModel>(i);
    if (name == to_string(model)) return model;
  }
  return std::nullopt;
}

const char* to_string(EventKind event) {
  switch (event) {
    case EventKind::kAnnouncement: return "announcement";
    case EventKind::kWithdrawal: return "withdrawal";
    case EventKind::kFailover: return "failover";
    case EventKind::kFlapTrain: return "flap-train";
  }
  return "?";
}

std::optional<EventKind> parse_event_kind(std::string_view name) {
  if (name == "announcement" || name == "announce") {
    return EventKind::kAnnouncement;
  }
  if (name == "withdrawal" || name == "withdraw") return EventKind::kWithdrawal;
  if (name == "failover") return EventKind::kFailover;
  if (name == "flap-train" || name == "flap") return EventKind::kFlapTrain;
  return std::nullopt;
}

net::Prefix ExperimentSpec::primary_prefix() {
  return *net::Prefix::parse("10.0.0.0/16");
}

net::Prefix ExperimentSpec::fresh_prefix() {
  return *net::Prefix::parse("10.200.0.0/16");
}

core::AsNumber ExperimentSpec::failover_stub() { return core::AsNumber{100}; }
core::AsNumber ExperimentSpec::failover_mid() { return core::AsNumber{101}; }

void ExperimentSpec::resolve() {
  if (sdn_fraction) {
    knob("sdn-frac").check(*sdn_fraction);
    sdn_count = static_cast<std::size_t>(
        *sdn_fraction * static_cast<double>(topology_size) + 0.5);
    sdn_fraction.reset();
  }
}

void ExperimentSpec::validate() const {
  check_topology(topology, topology_size);
  if (sdn_fraction) {
    bad("sdn_fraction is unresolved; call resolve() before validate()");
  }
  if (sdn_count > topology_size) {
    bad("sdn count " + std::to_string(sdn_count) + " exceeds topology size " +
        std::to_string(topology_size));
  }
  if (event == EventKind::kFailover &&
      topology_size >= failover_stub().value()) {
    bad("failover topologies are capped at " +
        std::to_string(failover_stub().value() - 1) +
        " ASes (the stub occupies AS " + failover_stub().to_string() + ")");
  }
  if (event == EventKind::kFlapTrain) {
    knob("flaps").check(static_cast<double>(flap_cycles));
    // Random graphs are drawn per trial seed; the base seed's graph stands
    // in for them here.
    if (!flap_link(make_topology(base_seed))) {
      bad("flap-train needs a link at an SDN member, and none of the " +
          std::to_string(sdn_count) + " member(s) of " + to_string(topology) +
          ":" + std::to_string(topology_size) + " has one");
    }
  }
  if (trials < 1) bad("trials must be >= 1");
  knob("replicas").check(static_cast<double>(config.controller_replicas));
  if (config.controller_replicas >= 2 &&
      config.controller_style != ControllerStyle::kIdrCentralized) {
    bad("controller replication requires the IDR controller style");
  }
  if (config.controller_replicas >= 2 && sdn_count < 1) {
    bad("controller replication needs at least 1 SDN member");
  }
  for (const auto& [as, prefix] : announcements) {
    (void)prefix;
    const bool in_topology = as.value() >= 1 && as.value() <= topology_size;
    const bool failover_extra =
        event == EventKind::kFailover &&
        (as == failover_stub() || as == failover_mid());
    if (!in_topology && !failover_extra) {
      bad("announcement origin AS " + as.to_string() + " not in topology");
    }
  }
}

core::AsNumber ExperimentSpec::origin() const {
  if (event == EventKind::kFailover) return failover_stub();
  if (!announcements.empty()) return announcements.front().first;
  return core::AsNumber{1};
}

topology::TopologySpec make_topology_graph(TopologyModel model,
                                           std::size_t size,
                                           std::uint64_t seed) {
  switch (model) {
    case TopologyModel::kClique: return topology::clique(size);
    case TopologyModel::kLine: return topology::line(size);
    case TopologyModel::kRing: return topology::ring(size);
    case TopologyModel::kStar: return topology::star(size);
    case TopologyModel::kSynthCaida: {
      core::Rng rng{seed};
      return topology::parse_caida_text(
          topology::synthesize_caida_text(size, rng));
    }
    case TopologyModel::kInternetLike: {
      // Scale the three-tier shape from the total AS target: a small tier-1
      // core, ~an eighth of the ASes as transit, the rest stubs. Three
      // uplinks per non-core AS keep per-prefix candidate sets well above
      // one, which is what the RIB memory budget has to absorb.
      topology::InternetLikeParams params;
      params.tier1 =
          std::min<std::size_t>(std::max<std::size_t>(3, size / 25), 8);
      params.transit = std::min(std::max<std::size_t>(4, size / 8),
                                size - params.tier1 - 1);
      params.stubs = size - params.tier1 - params.transit;
      params.transit_uplinks = 4;
      params.stub_uplinks = 4;
      params.transit_peer_prob =
          std::min(0.2, 8.0 / static_cast<double>(params.transit));
      core::Rng rng{seed};
      return topology::internet_like(params, rng);
    }
  }
  return {};
}

topology::TopologySpec ExperimentSpec::make_topology(std::uint64_t seed) const {
  topology::TopologySpec spec =
      make_topology_graph(topology, topology_size, seed);
  if (event == EventKind::kFailover) {
    // Dual-homed stub: primary link into AS 1, backup path via the
    // intermediate AS into the highest regular AS.
    const core::AsNumber stub = failover_stub();
    const core::AsNumber mid = failover_mid();
    const core::AsNumber primary{1};
    const core::AsNumber backup_attach{
        static_cast<std::uint32_t>(topology_size)};
    spec.add_as(stub);
    spec.add_as(mid);
    spec.add_link(stub, primary);
    spec.add_link(stub, mid);
    spec.add_link(mid, backup_attach);
  }
  return spec;
}

std::set<core::AsNumber> ExperimentSpec::make_members() const {
  std::set<core::AsNumber> members;
  for (std::size_t i = 0; i < sdn_count; ++i) {
    members.insert(
        core::AsNumber{static_cast<std::uint32_t>(topology_size - i)});
  }
  return members;
}

std::optional<std::pair<core::AsNumber, core::AsNumber>>
ExperimentSpec::flap_link(const topology::TopologySpec& graph) const {
  const auto members = make_members();
  std::optional<std::pair<core::AsNumber, core::AsNumber>> both;
  std::optional<std::pair<core::AsNumber, core::AsNumber>> one;
  for (const auto& link : graph.links) {
    const std::pair key{std::min(link.a, link.b), std::max(link.a, link.b)};
    const std::size_t in = members.count(link.a) + members.count(link.b);
    auto& best = in == 2 ? both : one;
    if (in > 0 && (!best || key < *best)) best = key;
  }
  return both ? both : one;
}

std::vector<std::pair<core::AsNumber, net::Prefix>>
ExperimentSpec::effective_announcements() const {
  if (!announcements.empty()) return announcements;
  return {{origin(), primary_prefix()}};
}

std::unique_ptr<Experiment> ExperimentSpec::make_experiment(
    std::uint64_t seed) const {
  ExperimentConfig cfg = config;
  cfg.seed = seed;
  auto experiment = std::make_unique<Experiment>(make_topology(seed),
                                                 make_members(), cfg);
  for (const auto& [as, prefix] : effective_announcements()) {
    experiment->announce_prefix(as, prefix);
  }
  return experiment;
}

core::TimePoint ExperimentSpec::inject_event(Experiment& experiment) const {
  const auto t0 = experiment.loop().now();
  switch (event) {
    case EventKind::kAnnouncement:
      experiment.announce_prefix(origin(), fresh_prefix());
      break;
    case EventKind::kWithdrawal: {
      const auto first = effective_announcements().front();
      experiment.withdraw_prefix(first.first, first.second);
      break;
    }
    case EventKind::kFailover:
      experiment.fail_link(failover_stub(), core::AsNumber{1});
      break;
    case EventKind::kFlapTrain: {
      // Flap one member link, waiting out convergence after every
      // transition (the churn-ablation shape).
      const auto link = flap_link(experiment.spec());
      if (!link) throw std::logic_error{"flap-train: no SDN member has a link"};
      const auto [a, b] = *link;
      for (std::size_t i = 0; i < flap_cycles; ++i) {
        experiment.fail_link(a, b);
        experiment.wait_converged();
        experiment.restore_link(a, b);
        experiment.wait_converged();
      }
      break;
    }
  }
  return t0;
}

core::Duration ExperimentSpec::effective_quiet() const {
  if (wait_quiet > core::Duration::zero()) return wait_quiet;
  return default_quiet_window(config.timers.mrai);
}

double ExperimentSpec::run_trial(
    std::uint64_t seed, std::map<std::string, std::int64_t>* counters_out)
    const {
  auto experiment = make_experiment(seed);
  if (!experiment->start()) {
    std::fprintf(stderr, "trial failed to start (seed %llu)\n",
                 static_cast<unsigned long long>(seed));
    return -1.0;
  }
  if (!faults.events.empty()) {
    experiment->attach_monitor<FaultInjector>(faults);
  }
  double seconds = 0.0;
  if (event == EventKind::kFlapTrain) {
    // Measure the train itself: settle first, then every fail/restore cycle
    // (each waited to quiescence) is the measured interval.
    experiment->wait_converged();
    const auto t0 = experiment->loop().now();
    inject_event(*experiment);
    seconds = (experiment->loop().now() - t0).to_seconds();
  } else {
    const auto t0 = inject_event(*experiment);
    const auto conv = experiment->wait_converged(
        WaitOpts{effective_quiet(), core::Duration::seconds(3600)});
    seconds = conv.since(t0).to_seconds();
  }
  if (counters_out != nullptr) accumulate_counters(*experiment, *counters_out);
  return seconds;
}

std::string ExperimentSpec::signature() const {
  char buf[384];
  std::snprintf(
      buf, sizeof buf,
      "topo=%s:%zu sdn=%zu event=%s flaps=%zu mrai=%lld recompute=%lld "
      "damping=%d controller=%s quiet=%lld link_delay=%lld "
      "replicas=%zu election=%lld",
      to_string(topology), topology_size, sdn_count, to_string(event),
      event == EventKind::kFlapTrain ? flap_cycles : std::size_t{0},
      static_cast<long long>(config.timers.mrai.count_nanos()),
      static_cast<long long>(config.recompute_delay.count_nanos()),
      config.damping.enabled ? 1 : 0,
      config.controller_style == ControllerStyle::kIdrCentralized
          ? "idr"
          : "routeflow",
      static_cast<long long>(wait_quiet.count_nanos()),
      static_cast<long long>(config.default_link.delay.count_nanos()),
      config.controller_replicas,
      static_cast<long long>(config.ha.election_min.count_nanos()));
  std::string out{buf};
  for (const auto& [as, prefix] : announcements) {
    out += " announce=" + as.to_string() + ":" + prefix.to_string();
  }
  for (const auto& fault : faults.events) {
    out += " fault=" + std::string{to_string(fault.kind)} + "@" +
           std::to_string(fault.at.count_nanos());
  }
  return out;
}

void accumulate_counters(Experiment& experiment,
                         std::map<std::string, std::int64_t>& out) {
  telemetry::Json snap = experiment.telemetry().metrics().snapshot();
  for (const auto& [name, value] : snap["counters"].entries()) {
    out[name] += value.as_int();
  }
}

// --- builder ----------------------------------------------------------------

ExperimentSpecBuilder& ExperimentSpecBuilder::topology(TopologyModel model,
                                                       std::size_t size) {
  check_topology(model, size);
  spec_.topology = model;
  spec_.topology_size = size;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::sdn_count(std::size_t count) {
  spec_.sdn_count = count;
  spec_.sdn_fraction.reset();
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::sdn_fraction(double fraction) {
  knob("sdn-frac").check(fraction);
  spec_.sdn_fraction = fraction;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::event(EventKind kind) {
  spec_.event = kind;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::flap_cycles(std::size_t cycles) {
  knob("flaps").check(static_cast<double>(cycles));
  spec_.flap_cycles = cycles;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::faults(FaultPlan plan) {
  spec_.faults = std::move(plan);
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::config(
    const ExperimentConfig& cfg) {
  spec_.config = cfg;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::timers(const bgp::Timers& timers) {
  spec_.config.timers = timers;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::mrai(core::Duration mrai) {
  knob("mrai").check(mrai.to_seconds());
  spec_.config.timers.mrai = mrai;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::recompute_delay(
    core::Duration delay) {
  knob("recompute-delay").check(delay.to_seconds());
  spec_.config.recompute_delay = delay;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::damping(bool enabled) {
  spec_.config.damping.enabled = enabled;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::controller_style(
    ControllerStyle style) {
  spec_.config.controller_style = style;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::controller_replicas(
    std::size_t replicas) {
  knob("replicas").check(static_cast<double>(replicas));
  spec_.config.controller_replicas = replicas;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::election_timeout(
    core::Duration timeout) {
  knob("election-timeout-ms").check(timeout.to_millis());
  spec_.config.ha.election_min = timeout;
  spec_.config.ha.election_max = timeout * 2;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::wait_quiet(core::Duration quiet) {
  knob("wait-quiet").check(quiet.to_seconds());
  spec_.wait_quiet = quiet;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::announce(
    core::AsNumber as, const net::Prefix& prefix) {
  spec_.announcements.emplace_back(as, prefix);
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::trials(std::size_t count) {
  if (count < 1) bad("trials must be >= 1");
  spec_.trials = count;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::base_seed(std::uint64_t seed) {
  spec_.base_seed = seed;
  return *this;
}

ExperimentSpec ExperimentSpecBuilder::build() const {
  ExperimentSpec spec = spec_;
  spec.resolve();
  spec.validate();
  return spec;
}

// --- the knob table ---------------------------------------------------------

struct KnobValue {
  double number{0.0};       // kSeconds, kMillis, kFraction
  std::uint64_t count{0};   // kCount; the size of kModelSize
  std::size_t word{0};      // kWords: index into the row's words
  TopologyModel model{};    // kModelSize
  EventKind event{};        // kEvent
};

const std::vector<Knob>& knob_table() {
  using G = KnobGrammar;
  using D = core::Duration;
  using S = ExperimentSpec&;
  using V = const KnobValue&;
  constexpr unsigned kAll = kScenarioCommand | kMatrixFixed | kMatrixAxis;
  constexpr unsigned kMatrix = kMatrixFixed | kMatrixAxis;
  static const std::vector<Knob> table{
      {.name = "topology", .grammar = G::kModelSize, .scope = kAll,
       .doc = "clique|line|ring|star|synth-caida|internet-like graph",
       .subject = "topology size", .min = 2, .set = [](S s, V v) {
         s.topology = v.model;
         s.topology_size = v.count;
       }},
      {.name = "sdn-frac", .grammar = G::kFraction, .scope = kMatrix,
       .doc = "share of ASes in the SDN cluster, rounded to a count",
       .subject = "sdn fraction", .min = 0, .max = 1,
       .set = [](S s, V v) { s.sdn_fraction = v.number; }},
      {.name = "sdn-count", .grammar = G::kCount, .scope = kMatrix,
       .doc = "ASes in the SDN cluster (the top AS numbers)",
       .set = [](S s, V v) {
         s.sdn_count = v.count;
         s.sdn_fraction.reset();
       }},
      {.name = "event", .grammar = G::kEvent, .scope = kMatrix,
       .doc = "measured event: announcement|withdrawal|failover|flap-train",
       .set = [](S s, V v) { s.event = v.event; }},
      {.name = "damping", .grammar = G::kWords, .scope = kAll,
       .doc = "route-flap damping on every legacy router", .words = "on|off",
       .set = [](S s, V v) { s.config.damping.enabled = v.word == 0; }},
      {.name = "controller", .grammar = G::kWords, .scope = kAll,
       .doc = "cluster controller: IDR or RouteFlow mirror",
       .words = "idr|routeflow", .set = [](S s, V v) {
         s.config.controller_style = v.word == 0
                                         ? ControllerStyle::kIdrCentralized
                                         : ControllerStyle::kRouteFlowMirror;
       }},
      {.name = "mrai", .grammar = G::kSeconds, .scope = kAll,
       .doc = "MRAI timer of every legacy router", .subject = "mrai", .min = 0,
       .set = [](S s, V v) { s.config.timers.mrai = D::seconds_f(v.number); }},
      {.name = "recompute-delay", .grammar = G::kSeconds, .scope = kAll,
       .doc = "controller batching window before recomputing",
       .subject = "recompute delay", .min = 0, .set = [](S s, V v) {
         s.config.recompute_delay = D::seconds_f(v.number);
       }},
      {.name = "replicas", .grammar = G::kCount, .scope = kAll,
       .doc = "controller replicas; 2+ is hot-standby HA (IDR only)",
       .subject = "replicas", .min = 1, .max = 16,
       .set = [](S s, V v) { s.config.controller_replicas = v.count; }},
      {.name = "election-timeout-ms", .grammar = G::kMillis, .scope = kAll,
       .doc = "base HA election timeout; replicas draw from [t, 2t]",
       .subject = "election timeout", .min = 0, .min_exclusive = true,
       .set = [](S s, V v) {
         s.config.ha.election_min = D::seconds_f(v.number / 1000.0);
         s.config.ha.election_max = D::seconds_f(v.number / 500.0);
       }},
      {.name = "seed", .grammar = G::kCount, .scope = kScenarioCommand,
       .doc = "experiment seed; random graphs use the one at `topology`",
       .set = [](S s, V v) { s.config.seed = v.count; }},
      {.name = "link-delay-ms", .grammar = G::kMillis,
       .scope = kScenarioCommand | kMatrixFixed,
       .doc = "one-way delay of every link", .subject = "link delay", .min = 0,
       .set = [](S s, V v) {
         s.config.default_link.delay = D::seconds_f(v.number / 1000.0);
       }},
      {.name = "flaps", .grammar = G::kCount, .scope = kMatrixFixed,
       .doc = "fail/restore cycles of a flap-train event", .subject = "flaps",
       .min = 1, .set = [](S s, V v) { s.flap_cycles = v.count; }},
      {.name = "wait-quiet", .grammar = G::kSeconds, .scope = kMatrixFixed,
       .doc = "post-event quiet window; 0 = 2x MRAI + 1 s",
       .subject = "wait-quiet", .min = 0,
       .set = [](S s, V v) { s.wait_quiet = D::seconds_f(v.number); }},
  };
  return table;
}

const Knob* find_knob(std::string_view name, unsigned scope) {
  for (const Knob& row : knob_table()) {
    if (row.name == name && (row.scope & scope) != 0) return &row;
  }
  return nullptr;
}

const Knob& knob(std::string_view name) {
  const Knob* row =
      find_knob(name, kScenarioCommand | kMatrixFixed | kMatrixAxis);
  if (row == nullptr) {
    throw std::logic_error{"no knob '" + std::string{name} + "'"};
  }
  return *row;
}

std::size_t Knob::arity() const {
  return grammar == KnobGrammar::kModelSize ? 2 : 1;
}

std::string Knob::syntax() const {
  static constexpr const char* kSyntax[] = {
      "", "<n>", "<seconds>", "<ms>", "<fraction>", "<model> <size>",
      "<kind>|flap:<n>"};
  if (grammar == KnobGrammar::kWords) return std::string{words};
  return kSyntax[static_cast<int>(grammar)];
}

std::string Knob::bound() const {
  if (max < std::numeric_limits<double>::infinity()) {
    return "in [" + shown(min) + ", " + shown(max) + "]";
  }
  if (min > -std::numeric_limits<double>::infinity()) {
    return (min_exclusive ? "> " : ">= ") + shown(min);
  }
  return "";
}

void Knob::check(double value) const {
  if ((min_exclusive ? value <= min : value < min) || value > max) {
    bad(std::string{subject} + " must be " + bound() + ", got " +
        shown(value));
  }
}

void Knob::apply(ExperimentSpec& spec, const std::string& value) const {
  KnobValue v;
  switch (grammar) {
    case KnobGrammar::kWords:
      for (std::size_t begin = 0;; ++v.word) {
        const std::size_t end = std::min(words.find('|', begin), words.size());
        if (words.substr(begin, end - begin) == value) break;
        if (end == words.size()) {
          bad("want " + std::string{words} + ", got '" + value + "'");
        }
        begin = end + 1;
      }
      break;
    case KnobGrammar::kCount:
      v.count = parse_count(value, name);
      check(static_cast<double>(v.count));
      break;
    case KnobGrammar::kSeconds:
    case KnobGrammar::kMillis:
    case KnobGrammar::kFraction:
      v.number = parse_number(value, name);
      check(v.number);
      break;
    case KnobGrammar::kModelSize: {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        bad("want <model>:<size>, e.g. clique:16");
      }
      const std::string name_part = value.substr(0, colon);
      const auto model = parse_topology_model(name_part);
      if (!model) bad("unknown topology model '" + name_part + "'");
      v.model = *model;
      v.count = parse_count(value.substr(colon + 1), subject);
      check_topology(v.model, v.count);
      break;
    }
    case KnobGrammar::kEvent: {
      const auto colon = value.find(':');
      const std::string name_part = value.substr(0, colon);
      const auto kind = parse_event_kind(name_part);
      if (!kind) bad("unknown event kind '" + name_part + "'");
      if (colon != std::string::npos) {
        if (*kind != EventKind::kFlapTrain) {
          bad("only flap events take a cycle count");
        }
        knob("flaps").apply(spec, value.substr(colon + 1));
      }
      v.event = *kind;
      break;
    }
  }
  set(spec, v);
}

std::string knob_help(unsigned scope) {
  std::string out;
  for (const Knob& row : knob_table()) {
    if ((row.scope & scope) == 0) continue;
    std::string line = "  " + std::string{row.name} + " " + row.syntax();
    line.resize(std::max<std::size_t>(line.size() + 2, 30), ' ');
    if ((scope & kMatrixAxis) != 0) {
      line += (row.scope & kMatrixAxis) != 0 ? "axis  " : "      ";
    }
    line += row.doc;
    if (const std::string b = row.bound(); !b.empty()) line += " (" + b + ")";
    out += line + "\n";
  }
  return out;
}

std::uint64_t parse_count(const std::string& token, std::string_view what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(token, &pos);
    if (pos == token.size() && v >= 0) return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
  }
  bad(std::string{what} + " needs a non-negative integer, got '" + token +
      "'");
}

core::AsNumber parse_as_number(const std::string& token,
                               std::string_view what) {
  const std::uint64_t v = parse_count(token, what);
  if (v > 0xFFFFFFFFu) {
    bad(std::string{what} + " must be in [0, 4294967295], got " + token);
  }
  return core::AsNumber{static_cast<std::uint32_t>(v)};
}

double parse_number(const std::string& token, std::string_view what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos == token.size() && std::isfinite(v)) return v;
  } catch (const std::exception&) {
  }
  bad(std::string{what} + " needs a number, got '" + token + "'");
}

std::uint64_t parse_count_flag(int& i, int argc, char** argv,
                               std::string_view flag, std::uint64_t min) {
  if (i + 1 >= argc) bad(std::string{flag} + " needs a value");
  const std::uint64_t v = parse_count(argv[++i], flag);
  if (v < min) bad(std::string{flag} + " must be >= " + std::to_string(min));
  return v;
}

}  // namespace bgpsdn::framework
