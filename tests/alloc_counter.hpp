// alloc_counter.hpp — the test binary's global allocation counter.
//
// Exactly one TU of a binary may replace the global allocation functions;
// in dpbyz_tests that is test_allocation_free.cpp, which defines these
// hooks.  Counting covers every thread, pool workers included.
#pragma once

#include <cstddef>

namespace dpbyz::test {

/// Zero the counter and start counting heap allocations.
void start_counting_allocs();

/// Stop counting; returns the allocations since start_counting_allocs.
size_t stop_counting_allocs();

}  // namespace dpbyz::test
