// Heap-allocation counting for the whole benchmark process: the operator
// new family is replaced (alloc_count.cpp) by one that bumps a per-thread
// counter.
// Each thread owns one slot, so counting adds no shared cache line to the
// datapath; readers sum the slots. The figures are reported, never asserted.
#pragma once

#include <cstdint>

namespace perfbench::allocs {

/// Allocations made so far by the calling thread.
std::uint64_t this_thread();

/// Allocations made so far by every thread (exited threads included).
std::uint64_t total();

}  // namespace perfbench::allocs
