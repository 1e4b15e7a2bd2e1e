// Whole-pipeline determinism: two identical case-study runs must produce
// byte-identical trace files — the property that makes every figure in
// EXPERIMENTS.md reproducible.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/triangle.hpp"
#include "core/profiler.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"
#include "tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void run_once(const fs::path& dir) {
  fs::remove_all(dir);
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto L =
      graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, true);
  prof::Config pc = prof::Config::all_enabled();
  pc.trace_dir = dir;
  prof::Profiler profiler(pc);
  rt::LaunchConfig lc;
  lc.num_pes = 8;
  lc.pes_per_node = 4;
  // Byte-identical traces are a fiber-backend guarantee; pin it so the
  // suite also passes under ACTORPROF_BACKEND=threads.
  lc.backend = rt::Backend::fiber;
  shmem::run(lc, [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    apps::count_triangles_actor(L, dist, &profiler);
  });
  profiler.write_traces();
}

TEST(Determinism, TraceFilesAreByteIdenticalAcrossRuns) {
  const ap::test::TestDir tdir;
  const fs::path a = tdir.path() / "det_a";
  const fs::path b = tdir.path() / "det_b";
  run_once(a);
  run_once(b);
  int compared = 0;
  for (const auto& entry : fs::directory_iterator(a)) {
    const auto name = entry.path().filename();
    ASSERT_TRUE(fs::exists(b / name)) << name;
    EXPECT_EQ(slurp(entry.path()), slurp(b / name)) << name;
    ++compared;
  }
  // 8 PEi_send.csv + 8 PEi_PAPI.csv + 8 PEi_steps.csv + overall.txt +
  // physical.txt + MANIFEST.txt (itself deterministic: checksums of
  // deterministic files)
  EXPECT_EQ(compared, 27);
}

}  // namespace
