// Golden bytes of whole profiled runs: the FNV-1a of every trace file two
// fixed app runs write, and of the counter lines of their metrics.prom, is
// pinned. trace_golden_test pins the codecs over fixed rows; this pins
// what the profiler's hooks put into those rows, so a change to how the
// runtime reports handlers (per message or per drained batch) must leave
// every region total, PAPI row, superstep and count exactly as it was.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "apps/pagerank.hpp"
#include "apps/triangle.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"
#include "tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

using Pins = std::map<std::string, std::uint64_t>;

std::uint64_t hash_of(const std::string& s) {
  return prof::io::fnv1a64(s.data(), s.size());
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool pinned_file(const std::string& name) {
  if (name == "overall.txt" || name == "physical.txt") return true;
  if (name.rfind("PE", 0) != 0) return false;
  for (const char* kind : {"_PAPI.", "_steps.", "_send."})
    if (name.find(kind) != std::string::npos) return true;
  return false;
}

/// overall.txt minus its SelfOverhead lines: metrics mode appends the
/// profiler's own wall-clock cost there, which differs between runs.
std::string without_self_overhead(const std::string& overall) {
  std::string out;
  std::istringstream is(overall);
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("SelfOverhead", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// The counter series of a Prometheus exposition, minus the wall-clock
/// self-overhead series (the only counters that differ between runs).
std::string counter_lines(const std::string& prom) {
  std::set<std::string> counters;
  std::string out;
  std::istringstream is(prom);
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ts(line.substr(7));
      std::string name, type;
      ts >> name >> type;
      if (type == "counter") counters.insert(name);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    if (counters.count(name) == 0) continue;
    if (name.find("self_overhead") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Hash every pinned file the profiler wrote, plus metrics.prom's counters
/// when metrics are on.
Pins pins_of(const prof::Profiler& profiler, const fs::path& dir) {
  profiler.write_traces();
  Pins got;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!pinned_file(name)) continue;
    const std::string body = slurp(entry.path());
    got[name] = hash_of(name == "overall.txt" ? without_self_overhead(body)
                                              : body);
  }
  if (profiler.config().metrics) {
    std::ostringstream prom;
    profiler.write_metrics_prometheus(prom);
    got["metrics.prom:counters"] = hash_of(counter_lines(prom.str()));
  }
  return got;
}

void expect_pins(const Pins& got, const Pins& want) {
  for (const auto& [name, h] : got) {
    const auto it = want.find(name);
    if (it == want.end()) {
      ADD_FAILURE() << "unpinned file " << name << " = " << hex(h);
      continue;
    }
    EXPECT_EQ(hex(h), hex(it->second)) << name;
  }
  for (const auto& [name, h] : want)
    EXPECT_EQ(got.count(name), 1u) << "missing " << name;
}

rt::LaunchConfig fiber_launch(int pes, int ppn) {
  rt::LaunchConfig lc;
  lc.num_pes = pes;
  lc.pes_per_node = ppn;
  // Byte-identical traces are a fiber-backend guarantee.
  lc.backend = rt::Backend::fiber;
  return lc;
}

// Scale-8 R-MAT triangle counting, 8 PEs on 2 nodes, Config::all_enabled().
const Pins kTrianglePins{
    {"PE0_PAPI.csv", 0xef9b9ab83c716369ull},
    {"PE0_send.csv", 0xa538bbda430507f7ull},
    {"PE0_steps.csv", 0xabc8226b0b0049eeull},
    {"PE1_PAPI.csv", 0x65065625cd454490ull},
    {"PE1_send.csv", 0x8c2d14606559f9a9ull},
    {"PE1_steps.csv", 0x04d81f3c6ddf2d76ull},
    {"PE2_PAPI.csv", 0xb2e20b10c36f0baeull},
    {"PE2_send.csv", 0x5fe967af92a2a7aeull},
    {"PE2_steps.csv", 0x11b384df9972c867ull},
    {"PE3_PAPI.csv", 0xbb12b34d5e04e129ull},
    {"PE3_send.csv", 0x311b1d088e25c637ull},
    {"PE3_steps.csv", 0x16f361cacdb9e12aull},
    {"PE4_PAPI.csv", 0xa74be781a8485f14ull},
    {"PE4_send.csv", 0x81ce12a1ee427363ull},
    {"PE4_steps.csv", 0x0166e8ff4f2e00e2ull},
    {"PE5_PAPI.csv", 0x6179a68642e2315aull},
    {"PE5_send.csv", 0x3b5277056a3b9354ull},
    {"PE5_steps.csv", 0xcda67cc6e020a417ull},
    {"PE6_PAPI.csv", 0xe5456d66596e5d21ull},
    {"PE6_send.csv", 0xf7d742b402828d7bull},
    {"PE6_steps.csv", 0xae8bbb85148abcc1ull},
    {"PE7_PAPI.csv", 0x50f14b5fa715f07dull},
    {"PE7_send.csv", 0xbd9f477a74f1305aull},
    {"PE7_steps.csv", 0x4936abb9a8ddd48bull},
    {"overall.txt", 0xdf54e905d1cdf90eull},
    {"physical.txt", 0xa771dc8b6a4139b2ull},
};

// Scale-8 PageRank, 3 iterations, 8 PEs on 2 nodes: aggregates only (no
// per-event records) plus supersteps and live metrics.
const Pins kPagerankPins{
    {"PE0_PAPI.csv", 0x63480d0555c21a70ull},
    {"PE0_steps.csv", 0xd626e1b8d9cb150full},
    {"PE1_PAPI.csv", 0x93766b379e886de4ull},
    {"PE1_steps.csv", 0xbad235d2a486f31cull},
    {"PE2_PAPI.csv", 0x1c14d4b9870ce67full},
    {"PE2_steps.csv", 0xa9777765827d09bcull},
    {"PE3_PAPI.csv", 0x42ace0a58e683b16ull},
    {"PE3_steps.csv", 0xe25214de306e48f1ull},
    {"PE4_PAPI.csv", 0x6f7005a9a62bef68ull},
    {"PE4_steps.csv", 0xf7ec067327d6d36full},
    {"PE5_PAPI.csv", 0x4dcca972d3be72deull},
    {"PE5_steps.csv", 0x8f5f600e2b395b4full},
    {"PE6_PAPI.csv", 0xcbd31384047d8227ull},
    {"PE6_steps.csv", 0xaec10f2b2b7850d8ull},
    {"PE7_PAPI.csv", 0x453c96c31464746eull},
    {"PE7_steps.csv", 0xdd1ee6e6ef266934ull},
    {"metrics.prom:counters", 0x67fd3291495c0067ull},
    {"overall.txt", 0xa3bfac61c5eb527dull},
};

TEST(ProfileGolden, TriangleAllEnabled) {
  const ap::test::TestDir tdir;
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto L =
      graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, true);
  prof::Config pc = prof::Config::all_enabled();
  pc.trace_dir = tdir.path();
  prof::Profiler profiler(pc);
  shmem::run(fiber_launch(8, 4), [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    apps::count_triangles_actor(L, dist, &profiler);
  });
  expect_pins(pins_of(profiler, tdir.path()), kTrianglePins);
}

TEST(ProfileGolden, PagerankAggregatesStepsMetrics) {
  const ap::test::TestDir tdir;
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto adj =
      graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, false);
  prof::Config pc = prof::Config::all_enabled();
  pc.keep_logical_events = false;
  pc.keep_physical_events = false;
  pc.metrics = true;
  pc.trace_dir = tdir.path();
  prof::Profiler profiler(pc);
  apps::PageRankOptions opts;
  opts.iterations = 3;
  shmem::run(fiber_launch(8, 4),
             [&] { (void)apps::pagerank_actor(adj, opts, &profiler); });
  expect_pins(pins_of(profiler, tdir.path()), kPagerankPins);
}

}  // namespace
