#!/usr/bin/env bash
# Repo lint gate (docs/CHECKING.md): cheap static rules that keep the
# profiling and aggregation layers honest, plus clang-tidy when available.
# Run from anywhere; exits nonzero on any violation.
#
# Rules:
#   1. No raw malloc/calloc/realloc/free in the conveyor/shmem hot paths —
#      buffers come from the symmetric heap or owned containers, so every
#      byte is visible to the profiler and the conformance checker.
#   2. Raw `new`/`delete` in those files only as smart-pointer factory
#      construction (`shared_ptr<T>(new T(...))` for private ctors).
#   3. Symmetric-heap address translation (`translate(`) only inside
#      src/shmem/shmem.cpp: every RMA goes through the profiling interface,
#      never around it.
#   4. Apps and examples never install observers themselves
#      (set_rma_observer & co. belong to the Profiler and tests).
#   5. The selector must report handler batches via on_handler_batch —
#      the observer batch-accounting API the metrics layer depends on.
#   6. clang-tidy over the check/runtime/shmem sources when installed
#      (.clang-tidy at the repo root); skipped with a note otherwise.
#   7. Tests take scratch directories from tests/tmpdir.hpp (TestDir):
#      a bare ::testing::TempDir() path — `TempDir()) / "literal"` and the
#      like — is shared by the sibling processes of `ctest -j` and races.
set -uo pipefail

cd "$(dirname "$0")/.."

fail=0
violation() {
  echo "lint: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  fail=1
}

hot_paths=(src/conveyor/*.cpp src/shmem/shmem.cpp)

# Rule 1: no raw C allocation in hot paths (word-boundary spares
# symm_malloc/calloc_n style names).
hits=$(grep -nE '\b(malloc|calloc|realloc|free)[[:space:]]*\(' \
  "${hot_paths[@]}" | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' || true)
if [ -n "${hits}" ]; then
  violation "raw C allocation in a conveyor/shmem hot path (rule 1)" "${hits}"
fi

# Rule 2: `new`/`delete` only as `(new Type...)` factory construction.
hits=$(grep -nE '\bnew\b|\bdelete\b' "${hot_paths[@]}" \
  | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' \
  | grep -vE '\(new [A-Z]|^\S+:[0-9]+:[[:space:]]*new [A-Z]' \
  | grep -vE '#include' || true)
if [ -n "${hits}" ]; then
  violation "raw new/delete in a conveyor/shmem hot path (rule 2)" "${hits}"
fi

# Rule 3: translate( confined to src/shmem/shmem.cpp. (Tests excluded:
# they may *mention* it in comments but cannot call it — it is file-local.)
hits=$(grep -rnE '\btranslate\(' src examples --include='*.cpp' \
  --include='*.hpp' | grep -v '^src/shmem/shmem.cpp:' || true)
if [ -n "${hits}" ]; then
  violation "symmetric-heap translate() used outside shmem.cpp (rule 3)" \
    "${hits}"
fi

# Rule 4: observer installation stays out of apps/examples.
hits=$(grep -rnE 'set_(rma|transfer|actor)_observer[[:space:]]*\(' \
  src/apps examples --include='*.cpp' --include='*.hpp' 2>/dev/null || true)
if [ -n "${hits}" ]; then
  violation "apps/examples must not install observers (rule 4)" "${hits}"
fi

# Rule 5: the selector still uses the batch-accounting observer API.
if ! grep -q 'on_handler_batch' src/actor/selector.hpp; then
  violation "selector no longer reports on_handler_batch (rule 5)" \
    "src/actor/selector.hpp"
fi

# Rule 7: no shared TempDir() paths in tests (tmpdir.hpp owns the one use).
hits=$(grep -nE 'TempDir\(\)' tests/*.cpp tests/*.hpp \
  | grep -v '^tests/tmpdir.hpp:' || true)
if [ -n "${hits}" ]; then
  violation "tests must use ap::test::TestDir, not TempDir() (rule 7)" \
    "${hits}"
fi

if [ "${fail}" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: grep rules OK"

# Rule 6: clang-tidy (optional — absent from minimal containers).
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_files=(src/check/*.cpp src/runtime/*.cpp src/shmem/*.cpp
              src/conveyor/*.cpp src/core/config.cpp)
  if clang-tidy --quiet "${tidy_files[@]}" -- -std=c++20 -Isrc; then
    echo "lint: clang-tidy OK"
  else
    echo "lint: clang-tidy FAILED" >&2
    exit 1
  fi
else
  echo "lint: clang-tidy not installed — skipping (CI runs it)"
fi

echo "lint: OK"
