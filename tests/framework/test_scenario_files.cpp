// Golden guard for the shipped scenario files. Every scenarios/*.bgpsdn runs
// once through ScenarioRunner and every scenarios/*.matrix expands into its
// cells; each transcript must match golden/scenarios/<file>.txt line by
// line. The goldens pin what the shipped files configure and print, so a
// change to the DSL or matrix parsers, the knob table or the experiment
// builder that alters any run or any cell fails here with the first
// differing line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "framework/matrix.hpp"
#include "framework/scenario.hpp"

namespace bgpsdn::framework {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The shipped files with `extension`, sorted by name.
std::vector<fs::path> shipped(const std::string& extension) {
  std::vector<fs::path> out;
  for (const auto& entry :
       fs::directory_iterator{std::string{BGPSDN_SOURCE_DIR} + "/scenarios"}) {
    if (entry.path().extension() == extension) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Outcome line, then every output line the script printed.
std::string scenario_transcript(const fs::path& path) {
  ScenarioRunner runner;
  const auto result = runner.run(read_file(path));
  std::string out = result.ok ? "ok\n" : "error: " + result.error + "\n";
  for (const auto& line : result.output) out += line + "\n";
  return out;
}

/// Every resolved field a matrix line can set, plus the cell's seeds,
/// originations and fault plan, on one line.
std::string describe(const ExperimentSpec& spec) {
  const auto& cfg = spec.config;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "topology=%s:%zu sdn_count=%zu fraction_unresolved=%d event=%s "
      "flaps=%zu mrai_ns=%lld recompute_ns=%lld link_delay_ns=%lld "
      "damping=%d controller=%d replicas=%zu "
      "election_ns=%lld..%lld wait_quiet_ns=%lld seed=%llu trials=%zu "
      "base_seed=%llu",
      to_string(spec.topology), spec.topology_size, spec.sdn_count,
      spec.sdn_fraction.has_value() ? 1 : 0, to_string(spec.event),
      spec.flap_cycles, static_cast<long long>(cfg.timers.mrai.count_nanos()),
      static_cast<long long>(cfg.recompute_delay.count_nanos()),
      static_cast<long long>(cfg.default_link.delay.count_nanos()),
      cfg.damping.enabled ? 1 : 0, static_cast<int>(cfg.controller_style),
      cfg.controller_replicas,
      static_cast<long long>(cfg.ha.election_min.count_nanos()),
      static_cast<long long>(cfg.ha.election_max.count_nanos()),
      static_cast<long long>(spec.wait_quiet.count_nanos()),
      static_cast<unsigned long long>(cfg.seed), spec.trials,
      static_cast<unsigned long long>(spec.base_seed));
  std::string out{buf};
  for (const auto& [as, prefix] : spec.announcements) {
    out += " announce=" + as.to_string() + ":" + prefix.to_string();
  }
  out += " fault_seed=" + std::to_string(spec.faults.seed);
  for (const auto& fault : spec.faults.events) {
    out += " fault=" + std::string{to_string(fault.kind)} + "@" +
           std::to_string(fault.at.count_nanos());
  }
  return out;
}

/// Header line, then one line per cell: its label and resolved fields.
std::string matrix_transcript(const fs::path& path) {
  const auto matrix = MatrixSpec::parse(read_file(path));
  std::string out = "matrix " + matrix.name + "\n";
  for (const auto& cell : matrix.expand()) {
    out += cell.label + " | " + describe(cell.spec) + "\n";
  }
  return out;
}

void expect_golden(const std::string& actual, const fs::path& source) {
  const std::string name = source.filename().string() + ".txt";
  const std::string expected =
      read_file(std::string{BGPSDN_GOLDEN_DIR} + "/scenarios/" + name);
  std::istringstream want{expected};
  std::istringstream got{actual};
  std::string want_line;
  std::string got_line;
  for (std::size_t n = 1;; ++n) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) return;
    ASSERT_EQ(more_want, more_got) << name << ": length differs at line " << n;
    ASSERT_EQ(want_line, got_line) << name << ": line " << n;
  }
}

TEST(ScenarioFiles, EveryScriptMatchesItsGolden) {
  const auto scripts = shipped(".bgpsdn");
  ASSERT_FALSE(scripts.empty());
  for (const auto& path : scripts) {
    SCOPED_TRACE(path.string());
    expect_golden(scenario_transcript(path), path);
  }
}

TEST(ScenarioFiles, EveryMatrixExpandsToItsGolden) {
  const auto matrices = shipped(".matrix");
  ASSERT_FALSE(matrices.empty());
  for (const auto& path : matrices) {
    SCOPED_TRACE(path.string());
    expect_golden(matrix_transcript(path), path);
  }
}

}  // namespace
}  // namespace bgpsdn::framework
