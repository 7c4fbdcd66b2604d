#include "framework/matrix.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

namespace bgpsdn::framework {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument{message};
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out;
}

/// The axis keys, in table order — the `known:` vocabulary.
std::vector<std::string> axis_names() {
  std::vector<std::string> names;
  for (const Knob& row : knob_table()) {
    if ((row.scope & kMatrixAxis) != 0) names.emplace_back(row.name);
  }
  return names;
}

/// Applies one value; an axis key's rejection names the key and the value.
void apply_value(ExperimentSpec& spec, const Knob& knob,
                 const std::string& value) {
  try {
    knob.apply(spec, value);
  } catch (const std::invalid_argument& e) {
    if ((knob.scope & kMatrixAxis) == 0) throw;
    bad("bad value '" + value + "' for axis '" + std::string{knob.name} +
        "': " + e.what());
  }
}

}  // namespace

const std::string* MatrixCell::coord(const std::string& axis) const {
  for (const auto& [name, value] : coords) {
    if (name == axis) return &value;
  }
  return nullptr;
}

MatrixSpec MatrixSpec::parse(const std::string& text) {
  std::istringstream in{text};
  return parse(in);
}

MatrixSpec MatrixSpec::parse(std::istream& in) {
  MatrixSpec matrix;
  std::string text_line;
  std::size_t number = 0;
  const auto fail = [&](const std::string& message) {
    bad("line " + std::to_string(number) + ": " + message);
  };
  while (std::getline(in, text_line)) {
    ++number;
    std::istringstream ls{text_line};
    std::vector<std::string> t;
    std::string tok;
    while (ls >> tok) {
      if (tok[0] == '#') break;
      t.push_back(tok);
    }
    if (t.empty()) continue;
    const std::string& cmd = t[0];
    const auto need = [&](std::size_t n) {
      if (t.size() != n + 1) {
        fail(cmd + " expects " + std::to_string(n) + " argument(s)");
      }
    };
    try {
      if (cmd == "matrix") {
        need(1);
        matrix.name = t[1];
      } else if (cmd == "trials") {
        need(1);
        matrix.trials = parse_count(t[1], "trials");
        if (matrix.trials < 1) fail("trials must be >= 1");
      } else if (cmd == "base-seed") {
        need(1);
        matrix.base_seed = parse_count(t[1], "base-seed");
      } else if (cmd == "axis") {
        if (t.size() < 2) fail("usage: axis <key> <value...>");
        const std::string& key = t[1];
        const Knob* knob = find_knob(key, kMatrixAxis);
        if (knob == nullptr) {
          fail("unknown axis '" + key + "' (known: " + join(axis_names()) +
               ")");
        }
        for (const auto& existing : matrix.axes) {
          if (existing.name == key) fail("axis '" + key + "' declared twice");
        }
        if (t.size() < 3) fail("axis '" + key + "' has no values");
        MatrixAxis axis;
        axis.name = key;
        for (std::size_t i = 2; i < t.size(); ++i) {
          for (const auto& seen : axis.values) {
            if (seen == t[i]) {
              fail("duplicate value '" + t[i] + "' in axis '" + key + "'");
            }
          }
          // Validate the value's shape right here, against a scratch copy,
          // so a typo fails at its own line instead of inside expand().
          ExperimentSpec scratch = matrix.base;
          apply_value(scratch, *knob, t[i]);
          axis.values.push_back(t[i]);
        }
        matrix.axes.push_back(std::move(axis));
      } else if (cmd == "announce") {
        need(2);
        const core::AsNumber as = parse_as_number(t[1], "announce AS");
        const auto prefix = net::Prefix::parse(t[2]);
        if (!prefix) fail("bad prefix '" + t[2] + "'");
        matrix.base.announcements.emplace_back(as, *prefix);
      } else if (cmd == "fault-seed") {
        need(1);
        matrix.base.faults.seed = parse_count(t[1], "fault-seed");
      } else if (cmd == "fault") {
        if (t.size() < 3) fail("usage: fault <seconds> <event...>");
        const double at_s = parse_number(t[1], "fault time");
        if (at_s < 0.0) fail("fault time must be >= 0");
        matrix.base.faults.events.push_back(FaultPlan::parse_event(
            {t.begin() + 2, t.end()}, core::Duration::seconds_f(at_s)));
      } else if (const Knob* knob = find_knob(cmd, kMatrixFixed)) {
        // Fixed setting: `mrai 30`, `damping on`, `topology clique 16`, ...
        need(knob->arity());
        std::string value = t[1];
        for (std::size_t i = 2; i < t.size(); ++i) value += ":" + t[i];
        apply_value(matrix.base, *knob, value);
      } else {
        fail("unknown key '" + cmd + "'");
      }
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.rfind("line ", 0) == 0) throw;
      fail(what);
    }
  }
  return matrix;
}

std::vector<MatrixCell> MatrixSpec::expand() const {
  if (axes.empty()) {
    bad("matrix declares no axes; add at least one 'axis' line");
  }
  std::size_t total = 1;
  for (const auto& axis : axes) total *= axis.values.size();

  std::vector<MatrixCell> cells;
  cells.reserve(total);
  std::map<std::string, std::string> signatures;  // signature -> label
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    MatrixCell cell;
    cell.spec = base;
    cell.spec.trials = trials;
    cell.spec.base_seed = base_seed;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& value = axes[a].values[odometer[a]];
      cell.coords.emplace_back(axes[a].name, value);
      if (!cell.label.empty()) cell.label += ',';
      cell.label += axes[a].name + "=" + value;
      apply_value(cell.spec, *find_knob(axes[a].name, kMatrixAxis), value);
    }
    try {
      cell.spec.resolve();
      cell.spec.validate();
    } catch (const std::invalid_argument& e) {
      bad("cell '" + cell.label + "': " + e.what());
    }
    const std::string sig = cell.spec.signature();
    if (const auto it = signatures.find(sig); it != signatures.end()) {
      bad("duplicate cells: '" + it->second + "' and '" + cell.label +
          "' configure identical experiments");
    }
    signatures.emplace(sig, cell.label);
    cells.push_back(std::move(cell));
    // Row-major order: the last axis varies fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odometer[a] < axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  return cells;
}

std::vector<MatrixCell> MatrixSpec::filter(std::vector<MatrixCell> cells,
                                           const std::string& axis,
                                           const std::string& value) const {
  const MatrixAxis* declared = nullptr;
  for (const auto& a : axes) {
    if (a.name == axis) declared = &a;
  }
  if (declared == nullptr) {
    std::vector<std::string> names;
    names.reserve(axes.size());
    for (const auto& a : axes) names.push_back(a.name);
    bad("unknown filter axis '" + axis + "' (declared axes: " + join(names) +
        ")");
  }
  bool known_value = false;
  for (const auto& v : declared->values) known_value |= v == value;
  if (!known_value) {
    bad("filter value '" + value + "' not in axis '" + axis +
        "' (values: " + join(declared->values) + ")");
  }
  std::vector<MatrixCell> kept;
  for (auto& cell : cells) {
    const std::string* coord = cell.coord(axis);
    if (coord != nullptr && *coord == value) kept.push_back(std::move(cell));
  }
  if (kept.empty()) bad("filter " + axis + "=" + value + " matches no cells");
  return kept;
}

}  // namespace bgpsdn::framework
