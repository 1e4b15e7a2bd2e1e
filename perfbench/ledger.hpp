// Shared pieces of the ledger benchmark: arguments, the check counter, the
// span recorder, the counting seams and replays, and the serial references.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "conveyor/observer.hpp"
#include "graph/rmat.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/profiling_interface.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs, one round, every check on.
  bool short_mode = false;
  /// Where trace directories and the span file go (inside the checkout).
  std::filesystem::path out_dir = ".bench_run";
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every correctness check is one attempted operation; a mismatch is one
/// failed operation and is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans kept in memory and written out once the run ends. Disabled (no
/// recording at all) in untraced runs.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
  };
  class Scope {
   public:
    Scope(Spans& s, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened (valid also when recording is off).
    [[nodiscard]] double elapsed() const { return now_s() - start_; }

   private:
    Spans& s_;
    int index_ = -1;
    double start_;
  };

  bool enabled = false;
  /// Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  void write_json(const std::filesystem::path& file) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

[[nodiscard]] double median(std::vector<double> v);

// ---- counting seams and layer replays (replay.cpp) ------------------------

/// One RMA operation a PE issued: a blocking put, a non-blocking put or a
/// bare quiet (the quiet inside barrier_all is not part of the stream).
struct RmaOp {
  enum Kind : std::uint8_t { put, nbi, quiet } kind;
  int dst = -1;
  std::uint32_t bytes = 0;
};

/// What the benchmark's own seams counted over one kernel. Counts follow
/// the metrics.prom series of the same name; the per-PE RMA stream feeds
/// the shmem replay.
struct LayerCounts {
  std::uint64_t puts = 0, nbi_puts = 0, nbi_bytes = 0, quiets = 0,
                barriers = 0, transfers = 0, transfer_bytes = 0, sweeps = 0;
  std::vector<std::vector<RmaOp>> rma;  ///< per PE, in issue order
};

/// The benchmark's own RmaObserver, TransferObserver and scheduler tick
/// hook, installed for its lifetime. Only ever used around kernels that
/// run without a profiler.
class LayerCounter final : public ap::shmem::RmaObserver,
                           public ap::convey::TransferObserver {
 public:
  explicit LayerCounter(int pes);
  ~LayerCounter() override;
  LayerCounter(const LayerCounter&) = delete;
  LayerCounter& operator=(const LayerCounter&) = delete;

  void on_put(int target_pe, std::size_t bytes) override;
  void on_put_nbi(int target_pe, std::size_t bytes) override;
  void on_get(int, std::size_t) override {}
  void on_quiet(std::size_t outstanding_puts) override;
  void on_barrier() override;
  void on_atomic(int) override {}
  void on_transfer(ap::convey::SendType type, std::size_t buffer_bytes,
                   int src_pe, int dst_pe, std::uint64_t) override;

  LayerCounts counts;
};

/// A recorded send stream: per PE, the destination of every message.
struct SendStream {
  int pes = 0, ppn = 0;
  std::size_t msg_bytes = 8;
  std::vector<std::vector<int>> dst;
};

/// A launch of `pes` PEs, `ppn` per node, on the deterministic fiber
/// backend whatever ACTORPROF_BACKEND says.
ap::rt::LaunchConfig launch_config(int pes, int ppn);

struct ReplayResult {
  double seconds = 0;  ///< PE 0's barrier-to-barrier wall time
  bool exact = false;  ///< delivered exactly the recorded counts
};

/// Push/advance/drain through bare Conveyors.
ReplayResult replay_conveyor(const SendStream& s);
/// Send through a Selector whose handler does nothing but count.
ReplayResult replay_selector(const SendStream& s);
/// Re-issue each PE's recorded puts, non-blocking puts and quiets.
ReplayResult replay_shmem(const std::vector<std::vector<RmaOp>>& ops, int pes,
                          int ppn);

// ---- workloads (workloads.cpp) -------------------------------------------

/// Runs one workload for args.seconds and returns its end-to-end metrics,
/// or with args.trace its per-layer metrics.
std::vector<Metric> run_workload(const Args& args, Spans& spans,
                                 Checks& checks);

// ---- reference answers (reference.cpp), computed apart from the program --

/// Undirected edge list -> sorted, duplicate-free adjacency of the lower
/// triangle (row u holds v < u), built without src/graph.
struct RefGraph {
  std::vector<std::size_t> row_ptr;
  std::vector<std::int64_t> col;
};
RefGraph ref_lower(std::int64_t n, const std::vector<ap::graph::Edge>& edges);
/// Symmetric adjacency (both directions), sorted and duplicate-free.
RefGraph ref_symmetric(std::int64_t n,
                       const std::vector<ap::graph::Edge>& edges);
std::int64_t ref_triangles(const RefGraph& lower);
/// Global bucket counts of bale's histo: PE p draws `updates` indices from
/// SplitMix64(seed + p * 0x9E37) below `pes * buckets_per_pe`.
std::vector<std::int64_t> ref_histogram(int pes, std::size_t buckets_per_pe,
                                        std::size_t updates,
                                        std::uint64_t seed);
/// Push PageRank power iteration with dangling mass redistributed.
std::vector<double> ref_pagerank(const RefGraph& adj, int iterations,
                                 double damping);

// ---- host fingerprint (host.cpp) -----------------------------------------

/// One JSON line: nproc, CPU model and an ALU / memcpy / pointer-chase
/// calibration. Run output only, never a metric.
std::string host_fingerprint();
double peak_rss_mb();

}  // namespace perfbench
