// Benchmark-only heap allocation counter.
//
// Built with PERFBENCH_COUNT_ALLOCS=1, alloc_counter.cpp replaces the
// global operator new/delete of the traced driver binary, perfbench_trace
// (never of the library, its tests or the untraced perfbench binary), so
// that every heap allocation the emulator makes while the driver runs it is
// counted. The untraced binary keeps the standard allocator, so the
// end-to-end timings carry no counting cost. Frees are not counted: the
// figures are allocations made and bytes requested, which is what a
// hot-path allocation change moves.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocs{0};
  std::uint64_t bytes{0};

  AllocCount operator-(const AllocCount& o) const {
    return {allocs - o.allocs, bytes - o.bytes};
  }
};

/// True in the binary that counts allocations.
bool alloc_counting();

/// Allocations and bytes requested since the process started; always zero
/// in the binary that does not count.
AllocCount alloc_count();

}  // namespace perfbench
