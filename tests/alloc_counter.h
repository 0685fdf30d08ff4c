// A heap-allocation counter at the allocator. alloc_counter.cpp replaces the
// global operator new and delete, so link it only into a test binary of its
// own: every test in that binary then counts, and no other suite does.
#pragma once

#include <cstdint>

namespace mct::test {

// Calls of any operator new since the process started.
uint64_t heap_allocations();

}  // namespace mct::test
