// The AllocProbe counters without the counting operator new: linked into
// perfbench_ledger, where they stay at zero and allocation is untouched.
#include "core/alloc_probe.hpp"

std::atomic<std::uint64_t> ap::prof::AllocProbe::allocations{0};
std::atomic<std::uint64_t> ap::prof::AllocProbe::frees{0};
std::atomic<std::uint64_t> ap::prof::AllocProbe::bytes{0};
std::atomic<bool> ap::prof::AllocProbe::trap{false};
