// Micro-probes: call one layer's public function on a converged experiment
// with inputs taken from that experiment, and time it per call.
#pragma once

#include "framework/experiment.hpp"
#include "trial.hpp"

namespace perfbench {

/// Adds bgp.codec.encode_ns, bgp.codec.decode_ns, bgp.rib.find_ns and
/// sdn.flow.lookup_ns to `out`. Returns false when a probe's output is
/// wrong (an UPDATE that does not decode to itself, a Loc-RIB prefix that
/// find() misses). The probes leave the experiment's routing state as it
/// was.
bool run_probes(bgpsdn::framework::Experiment& experiment, Metrics& out);

}  // namespace perfbench
