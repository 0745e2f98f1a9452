/**
 * @file
 * Heap-allocation counter for the benchmark binary: alloc_count.cpp
 * replaces the global operator new, so every C++ heap allocation the
 * simulator makes is counted. Nothing else links it.
 */

#ifndef TEMPO_PERFBENCH_ALLOC_COUNT_HH
#define TEMPO_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

/** Allocations made through any operator new since program start. */
std::uint64_t allocCount();

/** True when one new-expression moves allocCount() by exactly one,
 * i.e. the replacement operator new is the one linked in. */
bool allocCounterSelfTest();

} // namespace perfbench

#endif // TEMPO_PERFBENCH_ALLOC_COUNT_HH
