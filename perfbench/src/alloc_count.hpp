// Heap allocation counter of the traced run.  alloc_count.cpp replaces the
// global operator new; it is linked into perfbench_trace only, so the
// untraced end-to-end run allocates through the normal allocator.
#pragma once

#include <cstdint>

namespace perfbench {

// operator new calls (every form) since the process started.
std::uint64_t allocation_count();

}  // namespace perfbench
