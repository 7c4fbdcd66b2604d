// Scenario DSL tests: full happy-path scripts, configuration plumbing,
// expectation failures, and syntax errors with line numbers; plus the knob
// table's contract with its front ends (DSL/matrix parity, --help, README).
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "bgp/mrt.hpp"
#include "framework/matrix.hpp"
#include "framework/scenario.hpp"

namespace bgpsdn::framework {
namespace {

TEST(Scenario, WithdrawalScriptRunsEndToEnd) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
# a miniature Fig.2-style data point
seed 7
mrai 0.3
recompute-delay 0.1
topology clique 5
sdn 4 5
announce 1 10.0.0.0/16
start
expect-route 2 10.0.0.0/16
expect-route 4 10.0.0.0/16
withdraw 1 10.0.0.0/16
wait-converged
expect-no-route 2 10.0.0.0/16
expect-no-route 4 10.0.0.0/16
)");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GE(result.output.size(), 6u);
  EXPECT_NE(result.output[0].find("started: 5 ASes"), std::string::npos);
  bool has_converged_line = false;
  for (const auto& line : result.output) {
    has_converged_line |= line.find("converged") != std::string::npos;
  }
  EXPECT_TRUE(has_converged_line);
}

TEST(Scenario, HostsTraceAndLinkCommands) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
seed 3
mrai 0.3
recompute-delay 0.1
topology ring 6
sdn 4
host 1
host 4
start
expect-reachable 4 1
print-trace 4 1
fail-link 3 4
wait-converged
expect-reachable 4 1
restore-link 3 4
wait-converged
print-rib 2
print-time
)");
  ASSERT_TRUE(result.ok) << result.error;
  bool has_trace = false, has_rib = false, has_time = false;
  for (const auto& line : result.output) {
    has_trace |= line.find("trace AS4 ->") != std::string::npos;
    has_rib |= line.find("AS2 10.") != std::string::npos;
    has_time |= line.find("t=") != std::string::npos;
  }
  EXPECT_TRUE(has_trace);
  EXPECT_TRUE(has_rib);
  EXPECT_TRUE(has_time);
}

TEST(Scenario, FailedExpectationNamesLine) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "topology clique 3\n"
      "start\n"
      "expect-route 2 10.0.0.0/16\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 3"), std::string::npos);
  EXPECT_NE(result.error.find("lacks 10.0.0.0/16"), std::string::npos);
}

TEST(Scenario, SyntaxErrorsAreReported) {
  const auto expect_error = [](const std::string& script,
                               const std::string& needle) {
    ScenarioRunner runner;
    const auto result = runner.run(script);
    EXPECT_FALSE(result.ok) << script;
    EXPECT_NE(result.error.find(needle), std::string::npos)
        << script << " -> " << result.error;
  };
  expect_error("frobnicate 1\n", "unknown command");
  expect_error("rib compact\n", "unknown command");  // retired layout knob
  // Retired engine knob.
  expect_error("spt incremental\n", "line 1: unknown command 'spt'");
  expect_error("topology moebius 4\n", "unknown topology model");
  expect_error("topology clique 4\nsdn 9\n", "AS9 not in topology");
  expect_error("announce 1 not-a-prefix\n", "bad prefix");
  expect_error("withdraw 1 10.0.0.0/16\n", "requires 'start'");
  expect_error("topology clique 3\nstart\nseed 4\n", "before 'start'");
  expect_error("topology clique 3\nstart\nstart\n", "already started");
  expect_error("mrai x\n", "line 1: mrai needs a number, got 'x'");
  expect_error("start\n", "no topology");
  // Every AS argument is checked against the topology at its own line;
  // ASes named before the `topology` line are checked at `start`.
  expect_error("topology clique 3\nannounce 9 10.0.0.0/16\n",
               "line 2: AS9 not in topology");
  expect_error("topology clique 3\nhost 9\n", "line 2: AS9 not in topology");
  expect_error("announce 1 10.0.0.0/16\nhost 7\ntopology clique 3\nstart\n",
               "line 2: AS7 not in topology");
  expect_error("announce 9 10.0.0.0/16\ntopology clique 3\nstart\n",
               "line 1: AS9 not in topology");
  const std::string started = "topology clique 3\nstart\n";
  expect_error(started + "withdraw 9 10.0.0.0/16\n",
               "line 3: AS9 not in topology");
  expect_error(started + "announce 9 10.0.0.0/16\n",
               "line 3: AS9 not in topology");
  expect_error(started + "expect-route 9 10.0.0.0/16\n",
               "line 3: AS9 not in topology");
  expect_error(started + "print-trace 1 9\n", "line 3: AS9 not in topology");
}

TEST(Scenario, CommentsAndBlankLinesIgnored) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "# full-line comment\n"
      "\n"
      "topology clique 3   # trailing comment\n"
      "start\n");
  ASSERT_TRUE(result.ok) << result.error;
}

TEST(Scenario, RuntimeAnnouncementCommand) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
mrai 0.3
recompute-delay 0.1
topology clique 4
sdn 4
start
announce 4 10.200.0.0/16
wait-converged
expect-route 1 10.200.0.0/16
)");
  ASSERT_TRUE(result.ok) << result.error;
  // The SDN switch originated it; the legacy AS sees the member's AS.
  ASSERT_NE(runner.experiment(), nullptr);
  const auto* route = runner.experiment()->router(core::AsNumber{1}).loc_rib().find(
      *net::Prefix::parse("10.200.0.0/16"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->attributes->as_path.to_string(), "4");
}

TEST(Scenario, RouteFlowControllerSelectable) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
mrai 0.4
controller routeflow
topology clique 4
sdn 3 4
announce 1 10.0.0.0/16
start
wait-converged
expect-route 3 10.0.0.0/16
)");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(runner.experiment(), nullptr);
  EXPECT_NE(runner.experiment()->routeflow_controller(), nullptr);
  EXPECT_EQ(runner.experiment()->idr_controller(), nullptr);
}

TEST(Scenario, ReplicaCommandsDriveFailover) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
seed 5
mrai 0.3
recompute-delay 0.1
replicas 2
election-timeout-ms 150
topology clique 5
sdn 4 5
host 1
announce 1 10.0.0.0/16
start
expect-reachable 5 1
crash controller 0
run 1
expect-reachable 5 1
crash controller 1
run 10
restart controller 1
wait-converged
expect-reachable 5 1
)");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(runner.experiment(), nullptr);
  auto* rs = runner.experiment()->replica_set();
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->size(), 2u);
  EXPECT_GE(rs->counters().takeovers, 1u);
  EXPECT_FALSE(rs->degraded());
  ASSERT_TRUE(rs->leader().has_value());
  EXPECT_EQ(*rs->leader(), 1u);
}

TEST(Scenario, ReplicaSyntaxErrorsAreExact) {
  const auto expect_error = [](const std::string& script,
                               const std::string& needle) {
    ScenarioRunner runner;
    const auto result = runner.run(script);
    EXPECT_FALSE(result.ok) << script;
    EXPECT_NE(result.error.find(needle), std::string::npos)
        << script << " -> " << result.error;
  };
  expect_error("replicas 0\n", "line 1: replicas must be in [1, 16], got 0");
  expect_error("replicas 17\n",
               "line 1: replicas must be in [1, 16], got 17");
  expect_error("replicas 2.5\n",
               "line 1: replicas needs a non-negative integer, got '2.5'");
  expect_error("election-timeout-ms 0\n",
               "line 1: election timeout must be > 0, got 0");
  expect_error("topology clique 3\nstart\nreplicas 2\n", "before 'start'");
  expect_error(
      "topology clique 4\nsdn 4\nstart\ncrash controller x\n",
      "controller replica id 'x' must be a non-negative integer");
  expect_error("topology clique 4\nsdn 4\nstart\ncrash controller 1\n",
               "replica id 1 out of range (controller_replicas=1)");
  expect_error("topology clique 4\nsdn 4\nstart\ncrash controller 0 0\n",
               "usage: crash controller [replica]|speaker");
  expect_error("topology clique 4\nsdn 4\nstart\ncrash speaker 1\n",
               "usage: crash speaker");
  // The error carries the offending line number.
  ScenarioRunner runner;
  const auto result =
      runner.run("topology clique 4\nsdn 4\nstart\ncrash controller 3\n");
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 4"), std::string::npos);
}

TEST(Scenario, KnobValuesAreBoundedAtTheirLine) {
  // Each bad value fails at its own line (2) with the knob table's message,
  // before `start`; the DSL once accepted all but the last of these.
  const std::vector<std::pair<std::string, std::string>> cases{
      {"mrai -5", "mrai must be >= 0, got -5"},
      {"recompute-delay -1", "recompute delay must be >= 0, got -1"},
      {"link-delay-ms -3", "link delay must be >= 0, got -3"},
      {"topology clique 1", "topology size must be >= 2, got 1"},
      {"topology clique 2.9",
       "topology size needs a non-negative integer, got '2.9'"},
      {"seed -1", "seed needs a non-negative integer, got '-1'"},
      {"topology internet-like 5",
       "internet-like topologies need >= 8 ASes, got 5"},
  };
  for (const auto& [input, message] : cases) {
    ScenarioRunner runner;
    const auto result =
        runner.run("damping off\n" + input + "\ntopology clique 3\nstart\n");
    EXPECT_FALSE(result.ok) << input;
    EXPECT_EQ(result.error, "line 2: " + message) << input;
  }
}

TEST(Scenario, FaultSeedAndAsNumbersUseTheCountGrammar) {
  // `fault-seed -1` once exited 0 and `fault-seed 2.7` truncated to 2;
  // `announce -1` wrapped to AS 4294967295 and died at `start` with a bare
  // "map::at".
  const std::vector<std::pair<std::string, std::string>> cases{
      {"fault-seed -1", "fault-seed needs a non-negative integer, got '-1'"},
      {"fault-seed 2.7", "fault-seed needs a non-negative integer, got '2.7'"},
      {"announce -1 10.0.0.0/16",
       "AS number needs a non-negative integer, got '-1'"},
      {"announce 4294967296 10.0.0.0/16",
       "AS number must be in [0, 4294967295], got 4294967296"},
  };
  for (const auto& [input, message] : cases) {
    ScenarioRunner runner;
    const auto result = runner.run("topology clique 3\n" + input + "\nstart\n");
    EXPECT_FALSE(result.ok) << input;
    EXPECT_EQ(result.error, "line 2: " + message) << input;
  }
}

TEST(Scenario, InternetLikeTopology) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "seed 4\n"
      "mrai 0.3\n"
      "topology internet-like 12\n"
      "start\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_NE(result.output[0].find("started: 12 ASes"), std::string::npos);
}

/// One valid and one out-of-range value for every row the DSL and the
/// matrix both accept, as command-line arguments.
const std::map<std::string, std::pair<std::string, std::string>>&
common_row_values() {
  static const std::map<std::string, std::pair<std::string, std::string>>
      values{
          {"topology", {"ring 7", "ring 1"}},
          {"damping", {"on", "yes"}},
          {"controller", {"routeflow", "onos"}},
          {"mrai", {"0.7", "-1"}},
          {"recompute-delay", {"0.3", "-2"}},
          {"replicas", {"3", "17"}},
          {"election-timeout-ms", {"120", "0"}},
          {"link-delay-ms", {"7", "-3"}},
      };
  return values;
}

/// Every ExperimentConfig field a knob writes, plus the seed.
std::string knob_fields(const ExperimentConfig& cfg) {
  return "seed=" + std::to_string(cfg.seed) +
         " mrai=" + std::to_string(cfg.timers.mrai.count_nanos()) +
         " recompute=" + std::to_string(cfg.recompute_delay.count_nanos()) +
         " link_delay=" + std::to_string(cfg.default_link.delay.count_nanos()) +
         " controller=" +
         std::to_string(static_cast<int>(cfg.controller_style)) +
         " damping=" + std::to_string(cfg.damping.enabled) +
         " replicas=" + std::to_string(cfg.controller_replicas) +
         " election=" + std::to_string(cfg.ha.election_min.count_nanos()) +
         ".." + std::to_string(cfg.ha.election_max.count_nanos());
}

TEST(KnobTable, DslAndMatrixAgreeOnEveryCommonRow) {
  const unsigned both = kScenarioCommand | kMatrixFixed;
  std::size_t common = 0;
  for (const Knob& row : knob_table()) {
    if ((row.scope & both) != both) continue;
    ++common;
    const std::string name{row.name};
    SCOPED_TRACE(name);
    const auto it = common_row_values().find(name);
    ASSERT_NE(it, common_row_values().end()) << "no parity values";
    const auto& [valid, invalid] = it->second;

    // The same valid value through both front ends gives the same config.
    const std::string setting =
        name + " " + valid + "\n" +
        (name == "topology" ? "" : "topology clique 4\n");
    const auto matrix = MatrixSpec::parse(setting);
    ScenarioRunner runner;
    const auto result = runner.run(setting + "sdn 4\nstart\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(knob_fields(runner.experiment()->config()),
              knob_fields(matrix.base.config));
    EXPECT_EQ(result.output[0], "started: " +
                                    matrix.base.make_topology(1).summary() +
                                    ", 1 SDN member(s)");

    // The same bad value gives the same cause in both.
    const auto dsl = ScenarioRunner{}.run(name + " " + invalid + "\n");
    ASSERT_FALSE(dsl.ok);
    ASSERT_EQ(dsl.error.rfind("line 1: ", 0), 0u) << dsl.error;
    const std::string cause = dsl.error.substr(8);
    std::string from_matrix;
    try {
      MatrixSpec::parse(name + " " + invalid + "\n");
    } catch (const std::invalid_argument& e) {
      from_matrix = e.what();
    }
    ASSERT_GE(from_matrix.size(), cause.size()) << from_matrix;
    EXPECT_EQ(from_matrix.substr(from_matrix.size() - cause.size()), cause)
        << from_matrix;
  }
  EXPECT_EQ(common, common_row_values().size());
}

TEST(KnobTable, ReadmeNamesEveryRow) {
  std::ifstream in{std::string{BGPSDN_SOURCE_DIR} + "/README.md"};
  ASSERT_TRUE(in.good());
  const std::string readme{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  for (const Knob& row : knob_table()) {
    const std::string name{row.name};
    EXPECT_TRUE(readme.find("`" + name + "`") != std::string::npos ||
                readme.find("`" + name + " ") != std::string::npos)
        << "README.md does not list knob `" << name << "`";
  }
}

TEST(KnobTable, HelpListsTheRowsOfItsScope) {
  const std::string dsl = knob_help(kScenarioCommand);
  const std::string matrix = knob_help(kMatrixFixed | kMatrixAxis);
  for (const Knob& row : knob_table()) {
    const std::string entry = "  " + std::string{row.name} + " " + row.syntax();
    EXPECT_EQ(dsl.find(entry) != std::string::npos,
              (row.scope & kScenarioCommand) != 0)
        << entry;
    EXPECT_EQ(matrix.find(entry) != std::string::npos,
              (row.scope & (kMatrixFixed | kMatrixAxis)) != 0)
        << entry;
    const auto at = matrix.find(entry);
    if (at != std::string::npos) {
      const std::string line = matrix.substr(at, matrix.find('\n', at) - at);
      EXPECT_EQ(line.find(" axis ") != std::string::npos,
                (row.scope & kMatrixAxis) != 0)
          << line;
      EXPECT_NE(line.find(std::string{row.doc}), std::string::npos) << line;
    }
  }
}

TEST(Scenario, SynthCaidaTopology) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "seed 9\n"
      "mrai 0.3\n"
      "topology synth-caida 20\n"
      "start\n"
      "print-time\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_NE(result.output[0].find("gao-rexford"), std::string::npos);
}

TEST(Scenario, DampingToggle) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "damping on\n"
      "topology clique 3\n"
      "start\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(runner.experiment()
                  ->router(core::AsNumber{1})
                  .config()
                  .damping.enabled);
}

TEST(Scenario, DumpMrtWritesReadableFile) {
  const std::string path = ::testing::TempDir() + "/scenario_tape.mrt";
  ScenarioRunner runner;
  const auto result = runner.run(
      "mrai 0.3\n"
      "topology clique 3\n"
      "announce 1 10.0.0.0/16\n"
      "start\n"
      "withdraw 1 10.0.0.0/16\n"
      "wait-converged\n"
      "dump-mrt " + path + "\n");
  ASSERT_TRUE(result.ok) << result.error;

  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good());
  std::vector<char> raw{std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{}};
  std::vector<std::byte> data(raw.size());
  std::memcpy(data.data(), raw.data(), raw.size());
  const auto records = bgp::read_mrt(data);
  ASSERT_TRUE(records.has_value());
  // At least one announcement and one withdrawal were observed.
  EXPECT_GE(records->size(), 2u);
}

}  // namespace
}  // namespace bgpsdn::framework
