// Installs the counting operator new of core/alloc_probe.hpp. Linked only
// into perfbench_ledger_traced, so the untraced binary measures the
// allocator users get.
#include "core/alloc_probe.hpp"

ACTORPROF_ALLOC_PROBE_DEFINE()
