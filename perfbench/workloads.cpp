// The three workloads and their rounds: set-up, unprofiled kernels and a
// profiled kernel (alternating which kind goes first), the insight
// pipeline from a profiled kernel to the answers a user reads, and the
// checks made apart from the program.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/analysis.hpp"
#include "apps/histogram.hpp"
#include "apps/pagerank.hpp"
#include "apps/triangle.hpp"
#include "conveyor/conveyor.hpp"
#include "core/advisor.hpp"
#include "core/alloc_probe.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "papi/cycles.hpp"
#include "serve/http.hpp"
#include "serve/publisher.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "shmem/shmem.hpp"
#include "ledger.hpp"
#include "viz/heatmap_json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace prof = ap::prof;
namespace graph = ap::graph;
namespace convey = ap::convey;

namespace {

enum class Kind { triangle, histogram, pagerank };

/// What one workload runs. Sizes and profiling configurations are the
/// point of each workload; README.md says why each was chosen.
struct Workload {
  Kind kind = Kind::triangle;
  int pes = 32, ppn = 16;
  int scale = 0, edge_factor = 0;
  std::size_t buckets_per_pe = 0, updates_per_pe = 0;
  int iterations = 0;
  std::size_t msg_bytes = 8;
  prof::Config profile;
  bool publish = false;
  /// Unprofiled kernels per round: about as many as fit in one profiled
  /// kernel's time, so both throughputs rest on a similar span of samples.
  int plain_per_round = 1;
  /// Insight pipelines per profiled kernel. Where a round is long and the
  /// pipeline short, it is repeated so insight_s rests on enough samples.
  int insight_per_round = 1;
};

Workload make_workload(const std::string& name, bool small) {
  Workload w;
  if (name == "triangle-case") {
    // The paper's section IV case study with every trace kind on and
    // per-event records kept, written as CSV.
    w.kind = Kind::triangle;
    w.scale = small ? 9 : 13;
    w.edge_factor = 16;
    w.profile = prof::Config::all_enabled();
    w.profile.trace_format = prof::TraceFormat::csv;
    w.plain_per_round = 2;
  } else if (name == "histogram-fine") {
    // bale's histo (the paper's Listing 1) built as with -DENABLE_TRACE.
    w.kind = Kind::histogram;
    w.buckets_per_pe = 1024;
    w.updates_per_pe = small ? 2000 : 80000;
    w.profile.logical = true;
    w.profile.papi = true;
    w.profile.trace_format = prof::TraceFormat::binary;
    w.plain_per_round = 5;
  } else if (name == "pagerank-fleet") {
    // 256 PEs on 8 nodes: above the 64-PE threshold of compact conveyor
    // endpoints. Aggregates only, plus supersteps and live metrics,
    // compressed .apt published live to an in-process collector.
    w.kind = Kind::pagerank;
    w.pes = 256;
    w.ppn = 32;
    w.scale = small ? 9 : 14;
    w.edge_factor = 8;
    w.iterations = small ? 3 : 20;
    w.msg_bytes = 16;
    w.plain_per_round = 2;
    w.profile = prof::Config::all_enabled();
    w.profile.keep_logical_events = false;
    w.profile.keep_physical_events = false;
    w.profile.metrics = true;
    w.profile.trace_format = prof::TraceFormat::binary;
    w.profile.trace_compress = true;
    w.publish = true;
    w.insight_per_round = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return graph::SplitMix64(seed * 0x100000001B3ull + salt).next();
}

struct Inputs {
  std::vector<graph::Edge> edges;
  graph::Csr csr;
  std::unique_ptr<graph::Distribution> dist;
};

Inputs set_up(const Workload& w, std::uint64_t seed, Spans& spans) {
  Inputs in;
  if (w.scale > 0) {
    graph::RmatParams p;
    p.scale = w.scale;
    p.edge_factor = w.edge_factor;
    p.seed = mix(seed, 1);
    p.permute_vertices = false;
    {
      Spans::Scope s(spans, "graph.rmat");
      in.edges = graph::rmat_edges(p);
    }
    Spans::Scope s(spans, "graph.csr");
    in.csr = graph::Csr::from_edges(graph::Vertex{1} << w.scale, in.edges,
                                    w.kind == Kind::triangle);
    in.dist = graph::make_distribution(graph::DistKind::Cyclic1D, w.pes,
                                       in.csr);
  }
  Spans::Scope s(spans, "runtime.launch");
  ap::shmem::run(launch_config(w.pes, w.ppn), [] {});
  return in;
}

/// What a kernel computed, gathered from every PE.
struct Answer {
  std::int64_t triangles = 0;
  std::vector<std::int64_t> buckets;  ///< global bucket g at [g]
  std::vector<double> ranks;          ///< vertex v at [v]
  double rank_sum = 0;
};

struct Kernel {
  double seconds = 0;  ///< PE 0's barrier-to-barrier wall time
  Answer answer;
  convey::ConveyorStats totals;
  std::uint64_t allocs = 0;
};

Kernel run_kernel(const Workload& w, const Inputs& in, std::uint64_t seed,
                  prof::Profiler* profiler) {
  Kernel k;
  double t0 = 0, t1 = 0;
  if (w.kind == Kind::histogram)
    k.answer.buckets.assign(static_cast<std::size_t>(w.pes) * w.buckets_per_pe,
                            0);
  if (w.kind == Kind::pagerank)
    k.answer.ranks.assign(in.csr.row_ptr().size() - 1, 0.0);
  convey::reset_lifetime_totals();
  const std::uint64_t allocs0 = prof::AllocProbe::count();
  ap::shmem::run(launch_config(w.pes, w.ppn), [&] {
    const int me = ap::shmem::my_pe();
    const int n = ap::shmem::n_pes();
    ap::shmem::barrier_all();
    if (me == 0) t0 = now_s();
    switch (w.kind) {
      case Kind::triangle: {
        const auto r = ap::apps::count_triangles_actor(in.csr, *in.dist,
                                                       profiler);
        if (me == 0) k.answer.triangles = r.triangles;
        break;
      }
      case Kind::histogram: {
        const auto r = ap::apps::histogram_actor(
            w.buckets_per_pe, w.updates_per_pe, mix(seed, 2), profiler);
        for (std::size_t s = 0; s < r.local_buckets.size(); ++s)
          k.answer.buckets[s * static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(me)] = r.local_buckets[s];
        break;
      }
      case Kind::pagerank: {
        ap::apps::PageRankOptions o;
        o.iterations = w.iterations;
        const auto r = ap::apps::pagerank_actor(in.csr, o, profiler);
        for (std::size_t s = 0; s < r.local_rank.size(); ++s)
          k.answer.ranks[s * static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(me)] = r.local_rank[s];
        if (me == 0) k.answer.rank_sum = r.global_sum;
        break;
      }
    }
    ap::shmem::barrier_all();
    if (me == 0) t1 = now_s();
  });
  k.allocs = prof::AllocProbe::count() - allocs0;
  k.seconds = t1 - t0;
  k.totals = convey::lifetime_totals();
  return k;
}

/// The serial answers every kernel is checked against, and the time they
/// took (the COST baseline).
struct Reference {
  std::int64_t triangles = 0;
  std::vector<std::int64_t> buckets;
  std::vector<double> ranks;
  double seconds = 0;
};

Reference make_reference(const Workload& w, const Inputs& in,
                         std::uint64_t seed) {
  Reference r;
  const double t0 = now_s();
  const std::int64_t n = std::int64_t{1} << w.scale;
  switch (w.kind) {
    case Kind::triangle:
      r.triangles = ref_triangles(ref_lower(n, in.edges));
      break;
    case Kind::histogram:
      r.buckets = ref_histogram(w.pes, w.buckets_per_pe, w.updates_per_pe,
                                mix(seed, 2));
      break;
    case Kind::pagerank:
      r.ranks = ref_pagerank(ref_symmetric(n, in.edges), w.iterations, 0.85);
      break;
  }
  r.seconds = now_s() - t0;
  return r;
}

void check_answer(const Workload& w, const Reference& ref, const Answer& a,
                  Checks& checks) {
  switch (w.kind) {
    case Kind::triangle:
      checks.expect(a.triangles == ref.triangles,
                    "triangle count " + std::to_string(a.triangles) +
                        " != reference " + std::to_string(ref.triangles));
      break;
    case Kind::histogram:
      checks.expect(a.buckets == ref.buckets,
                    "histogram buckets differ from the SplitMix64 replay");
      break;
    case Kind::pagerank: {
      bool close = a.ranks.size() == ref.ranks.size();
      for (std::size_t v = 0; close && v < a.ranks.size(); ++v)
        close = std::fabs(a.ranks[v] - ref.ranks[v]) <= 1e-9;
      checks.expect(close, "pagerank ranks differ from the power iteration");
      checks.expect(std::fabs(a.rank_sum - 1.0) <= 1e-9,
                    "pagerank ranks sum to " + std::to_string(a.rank_sum));
      break;
    }
  }
}

// ---- the in-process collector for pagerank-fleet ---------------------------

/// A serve daemon on an ephemeral loopback port, fed by the profiler's
/// publisher. Adds the server thread; the publisher adds its worker.
class Collector {
 public:
  Collector() : reg_(options()) {
    ap::serve::ServerOptions so;
    so.port = 0;
    so.poll_interval_ms = 10;
    so.bound_port = &port_;
    so.stop = &stop_;
    thread_ = std::thread(
        [this, so] { ap::serve::run_server(reg_, so, log_, log_); });
    const double deadline = now_s() + 10;
    while (port_.load() == 0 && now_s() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (port_.load() == 0) {
      stop();
      throw std::runtime_error("collector did not start");
    }
  }
  ~Collector() { stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  [[nodiscard]] int port() const { return port_.load(); }

  /// GET `target` over loopback; returns the body ("" on failure).
  [[nodiscard]] std::string get(const std::string& target) const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    std::string reply;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const std::string req = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
      if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(req.size())) {
        char buf[65536];
        ssize_t got = 0;
        while ((got = ::recv(fd, buf, sizeof buf, 0)) > 0)
          reply.append(buf, static_cast<std::size_t>(got));
      }
    }
    ::close(fd);
    const auto head_end = reply.find("\r\n\r\n");
    if (reply.rfind("HTTP/1.1 200", 0) != 0 || head_end == std::string::npos)
      return {};
    return reply.substr(head_end + 4);
  }

 private:
  static ap::serve::RegistryOptions options() {
    ap::serve::RegistryOptions o;
    o.retain_runs = 2;  // one repetition's run plus the one being pushed
    return o;
  }
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  ap::serve::ServiceRegistry reg_;
  std::atomic<int> port_{0};
  std::atomic<bool> stop_{false};
  std::ostringstream log_;
  std::thread thread_;  // declared last: uses every member above
};

// ---- one profiled repetition and its insight pipeline ----------------------

struct Profiled {
  Kernel kernel;
  std::vector<double> insight_s;  ///< one per insight pipeline
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_rows = 0;
  double self_overhead_cycles = 0;
  std::string prom;  ///< metrics.prom text, in metrics mode
  ap::serve::Publisher::Stats publish;
  SendStream sends;  ///< kept only when asked for
};

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

std::uint64_t rows_of(const prof::io::TraceDir& t) {
  std::uint64_t rows = t.overall.size() + t.physical.size() + t.check.size();
  for (const auto& v : t.logical) rows += v.size();
  for (const auto& v : t.papi) rows += v.size();
  for (const auto& v : t.steps) rows += v.size();
  return rows;
}

/// Sum of every sample of one metrics.prom series.
std::uint64_t prom_total(const std::string& prom, const std::string& series) {
  std::uint64_t total = 0;
  std::istringstream in(prom);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series, 0) != 0) continue;
    const char next = line.size() > series.size() ? line[series.size()] : ' ';
    if (next != '{' && next != ' ') continue;
    total += std::stoull(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

SendStream send_stream(const Workload& w, const prof::Profiler& p) {
  SendStream s;
  s.pes = w.pes;
  s.ppn = w.ppn;
  s.msg_bytes = w.msg_bytes;
  s.dst.resize(static_cast<std::size_t>(w.pes));
  if (w.profile.keep_logical_events) {
    for (int pe = 0; pe < w.pes; ++pe)
      for (const auto& r : p.logical_events(pe))
        s.dst[static_cast<std::size_t>(pe)].push_back(r.dst_pe);
    return s;
  }
  // Aggregates only: replay each PE's per-destination counts, interleaved
  // across destinations.
  const prof::SparseCommMatrix m = p.logical_sparse();
  std::vector<std::vector<std::pair<int, std::uint64_t>>> rows(
      static_cast<std::size_t>(w.pes));
  m.for_each([&](int src, int dst, std::uint64_t n) {
    rows[static_cast<std::size_t>(src)].emplace_back(dst, n);
  });
  for (int pe = 0; pe < w.pes; ++pe) {
    auto& row = rows[static_cast<std::size_t>(pe)];
    std::sort(row.begin(), row.end());
    auto& out = s.dst[static_cast<std::size_t>(pe)];
    for (bool any = true; any;) {
      any = false;
      for (auto& [dst, n] : row)
        if (n > 0) {
          out.push_back(dst);
          --n;
          any = true;
        }
    }
  }
  return s;
}

/// What one insight pipeline produced, and how long its timed part took.
struct Insight {
  double seconds = 0;
  prof::io::TraceDir trace;
  std::string analysis_json, pushed_analysis;
};

/// Writes the profiler's traces to `dir`, then turns them into the answers
/// a user reads: reload, analysis, advice, heatmap and, with a collector,
/// the pushed run's /analyze. Only the second part is timed as insight:
/// writing hundreds of shard files is file-system work whose cost on a
/// shared host swings several-fold between phases of tens of seconds, so
/// it is reported per layer (trace.write_s) and by trace_bytes_per_msg.
Insight run_insight(const Workload& w, const prof::Profiler& profiler,
                    const fs::path& dir, Collector* collector,
                    const std::string& run_id, Spans& spans, Checks& checks) {
  Insight out;
  prof::io::TraceDir& t = out.trace;
  {
    Spans::Scope s(spans, "trace.write");
    profiler.write_traces();
  }
  if (profiler.publisher() != nullptr) {
    Spans::Scope s(spans, "publisher.flush");
    checks.expect(profiler.publisher()->flush(30000),
                  "publisher flush timed out");
  }
  Spans::Scope insight(spans, "insight");
  {
    Spans::Scope s(spans, "trace.load");
    t = prof::io::load_trace_dir(dir, w.pes);
  }
  if (w.profile.supersteps) {
    Spans::Scope s(spans, "analysis.analyze");
    const auto a = prof::analysis::analyze(t);
    std::ostringstream os;
    prof::analysis::write_json(os, a);
    out.analysis_json = os.str();
    std::uint64_t steps_sum = 0;
    for (const auto& st : a.steps) steps_sum += st.duration;
    checks.expect(steps_sum == a.total_cycles,
                  "analysis step durations do not sum to total_cycles");
  }
  {
    Spans::Scope s(spans, "advisor.advise");
    std::vector<std::uint64_t> ins(static_cast<std::size_t>(w.pes), 0);
    for (int pe = 0; pe < w.pes; ++pe)
      for (const auto& row : t.papi[static_cast<std::size_t>(pe)])
        ins[static_cast<std::size_t>(pe)] += row.counters[0];
    const auto report =
        prof::advise(t.logical_matrix(), t.physical_matrix(), t.overall,
                     ins, profiler.topo());
    checks.expect(!prof::format_report(report).empty(),
                  "advisor produced no report");
  }
  {
    Spans::Scope s(spans, "viz.heatmap");
    std::ostringstream os;
    ap::viz::write_heatmap_json(os, t);
    checks.expect(os.tellp() > 0, "heatmap JSON is empty");
  }
  if (collector != nullptr) {
    Spans::Scope s(spans, "serve.analyze");
    out.pushed_analysis = collector->get("/analyze?run=" + run_id);
  }
  out.seconds = insight.elapsed();
  return out;
}

Profiled run_profiled(const Workload& w, const Inputs& in, std::uint64_t seed,
                      const fs::path& dir, Collector* collector, int round,
                      bool keep_sends, Spans& spans, Checks& checks) {
  Profiled out;
  fs::remove_all(dir);
  prof::Config cfg = w.profile;
  cfg.trace_dir = dir;
  const std::string run_id = "round" + std::to_string(round);
  if (collector != nullptr) {
    cfg.publish = "127.0.0.1:" + std::to_string(collector->port());
    cfg.publish_run = run_id;
  }
  prof::Profiler profiler(cfg);
  {
    Spans::Scope s(spans, "kernel.profiled");
    out.kernel = run_kernel(w, in, seed, &profiler);
  }

  // From the end of the kernel to the answers a user reads.
  const Insight first =
      run_insight(w, profiler, dir, collector, run_id, spans, checks);
  out.insight_s.push_back(first.seconds);
  const prof::io::TraceDir& t = first.trace;
  const std::string& analysis_json = first.analysis_json;
  const std::string& pushed_analysis = first.pushed_analysis;

  // Checks of the method, apart from the timed pipeline.
  const convey::ConveyorStats& lt = out.kernel.totals;
  out.trace_bytes = dir_bytes(dir);
  out.trace_rows = rows_of(t);
  checks.expect(t.issues.empty(), "trace directory reloads with issues");
  std::uint64_t logical = 0;
  if (cfg.keep_logical_events) {
    for (const auto& v : t.logical) logical += v.size();
  } else {
    for (const auto& v : t.steps)
      for (const auto& r : v) logical += r.msgs_sent;
  }
  checks.expect(logical == lt.pushed,
                "logical trace holds " + std::to_string(logical) +
                    " sends, lifetime_totals().pushed " +
                    std::to_string(lt.pushed));
  if (cfg.physical && cfg.keep_physical_events) {
    std::uint64_t bytes = 0;
    for (const auto& r : t.physical)
      if (r.type != convey::SendType::nonblock_progress) bytes += r.buffer_bytes;
    checks.expect(bytes == lt.local_send_bytes + lt.nonblock_send_bytes,
                  "physical trace bytes != local + nbi transfer bytes");
    checks.expect(t.physical_matrix() == profiler.physical_matrix(),
                  "reloaded physical matrix != in-memory matrix");
  }
  if (cfg.keep_logical_events)
    checks.expect(t.logical_matrix() == profiler.logical_matrix(),
                  "reloaded logical matrix != in-memory matrix");
  if (cfg.overall) {
    bool sums = t.overall.size() == static_cast<std::size_t>(w.pes);
    for (const auto& r : t.overall)
      sums = sums && r.t_main + r.t_proc + r.t_comm() == r.t_total;
    checks.expect(sums, "T_MAIN + T_PROC + T_COMM != T_TOTAL on some PE");
    checks.expect(t.overall == profiler.overall(),
                  "reloaded overall records != in-memory records");
  }
  if (cfg.supersteps) {
    bool same = true;
    for (int pe = 0; pe < w.pes; ++pe)
      same = same && t.steps[static_cast<std::size_t>(pe)] ==
                         profiler.supersteps(pe);
    checks.expect(same, "reloaded superstep records != in-memory records");
  }
  if (cfg.papi) {
    bool same = true;
    for (int pe = 0; pe < w.pes; ++pe)
      same = same &&
             t.papi[static_cast<std::size_t>(pe)] == profiler.papi_segments(pe);
    checks.expect(same, "reloaded PAPI segments != in-memory segments");
  }
  if (collector != nullptr) {
    ap::serve::TraceService file_run(dir, ap::serve::ServiceOptions{w.pes});
    {
      Spans::Scope s(spans, "serve.refresh");
      file_run.refresh();
    }
    const std::string file_analysis = file_run.handle("GET", "/analyze").body;
    checks.expect(!pushed_analysis.empty() && pushed_analysis == file_analysis,
                  "pushed /analyze body != file run's /analyze body");
    checks.expect(file_analysis == analysis_json,
                  "serve /analyze body != analysis::write_json output");
    out.publish = profiler.publisher()->stats();
    checks.expect(out.publish.segments_dropped == 0 &&
                      out.publish.posts_failed == 0,
                  "publisher dropped segments or failed posts");
  }
  if (cfg.metrics) {
    out.self_overhead_cycles =
        static_cast<double>(profiler.self_overhead().grand_total());
    std::ostringstream os;
    profiler.write_metrics_prometheus(os);
    out.prom = os.str();
  }
  if (keep_sends) out.sends = send_stream(w, profiler);

  // Further pipelines over the same profiler, each from an empty trace
  // directory as the first. The pushed run is re-ingested, so the
  // collector's /analyze is computed afresh each time.
  for (int r = 1; r < w.insight_per_round; ++r) {
    fs::remove_all(dir);
    const Insight again = run_insight(w, profiler, dir, collector, run_id,
                                      spans, checks);
    out.insight_s.push_back(again.seconds);
    checks.expect(again.analysis_json == analysis_json &&
                      again.pushed_analysis == pushed_analysis,
                  "a repeated insight pipeline answered differently");
  }
  return out;
}

/// Counts that must repeat exactly between kernels under the fiber
/// backend.
std::vector<std::uint64_t> deterministic_counts(const Workload& w,
                                                const Kernel& plain,
                                                const Profiled& p) {
  std::vector<std::uint64_t> v;
  for (const convey::ConveyorStats* s : {&plain.totals, &p.kernel.totals})
    v.insert(v.end(), {s->pushed, s->local_sends, s->nonblock_sends,
                       s->progress_calls, s->local_send_bytes,
                       s->nonblock_send_bytes, s->memcpys});
  v.push_back(p.trace_rows);
  // Metrics mode stores wall-clock self-overhead in the trace.
  if (!w.profile.metrics) v.push_back(p.trace_bytes);
  return v;
}

constexpr int kSetupsPerRep = 3;

double tsc_hz() {
  const double t0 = now_s();
  const std::uint64_t c0 = ap::papi::rdtsc_now();
  while (now_s() - t0 < 0.05) {
  }
  const std::uint64_t c1 = ap::papi::rdtsc_now();
  return static_cast<double>(c1 - c0) / (now_s() - t0);
}

}  // namespace

std::vector<Metric> run_workload(const Args& args, Spans& spans,
                                 Checks& checks) {
  const Workload w = make_workload(args.workload, args.short_mode);
  fs::create_directories(args.out_dir);
  const fs::path dir = args.out_dir / (args.workload + "-trace");
  std::unique_ptr<Collector> collector;
  if (w.publish) collector = std::make_unique<Collector>();

  // Reference answers, timed apart from set-up (the COST baseline).
  Spans off;  // the reference's own input build is not a set-up span
  const Inputs ref_inputs = set_up(w, args.seed, off);
  const Reference ref = make_reference(w, ref_inputs, args.seed);
  // The first kernel of a process runs on cold pages and caches: it is run
  // once, untimed.
  check_answer(w, ref, run_kernel(w, ref_inputs, args.seed, nullptr).answer,
               checks);

  std::vector<double> setup_s, run_s, prof_s, insight_s, bytes_per_msg;
  std::vector<std::uint64_t> first_counts;
  std::uint64_t msgs = 0;
  const int min_rounds = args.short_mode ? 1 : 3;
  const double t_start = now_s();
  LayerCounts layer;
  Kernel counted_kernel;
  std::vector<double> plain_allocs, prof_allocs, self_s;
  Profiled last;
  const double hz = args.trace ? tsc_hz() : 1;
  // Whole rounds only: after the minimum, a round starts only if one as
  // long as the last still ends within --seconds.
  double round_s = 0;
  for (int round = 0;
       round < min_rounds || now_s() - t_start + round_s <= args.seconds;
       ++round) {
    const double round_t0 = now_s();
    // Set-up is short next to a kernel, so it is sampled several times.
    Inputs in;
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const double t0 = now_s();
      in = set_up(w, args.seed, spans);
      setup_s.push_back(now_s() - t0);
    }

    // Alternate which kind of kernel goes first, so drift hits both
    // equally.
    std::vector<Kernel> plains;
    Profiled p;
    const auto run_plain = [&] {
      for (int i = 0; i < w.plain_per_round; ++i) {
        Spans::Scope s(spans, "kernel.unprofiled");
        plains.push_back(run_kernel(w, in, args.seed, nullptr));
      }
    };
    const auto run_prof = [&] {
      p = run_profiled(w, in, args.seed, dir, collector.get(), round,
                       args.trace, spans, checks);
    };
    if (round % 2 == 0) {
      run_plain();
      run_prof();
    } else {
      run_prof();
      run_plain();
    }
    const Kernel& plain = plains.front();
    for (const Kernel& k : plains) {
      check_answer(w, ref, k.answer, checks);
      run_s.push_back(k.seconds);
    }
    check_answer(w, ref, p.kernel.answer, checks);
    msgs = plain.totals.pushed;
    checks.expect(msgs > 0, "kernel sent no messages");
    prof_s.push_back(p.kernel.seconds);
    insight_s.insert(insight_s.end(), p.insight_s.begin(), p.insight_s.end());
    bytes_per_msg.push_back(static_cast<double>(p.trace_bytes) /
                            static_cast<double>(msgs));

    std::cerr << "perfbench: round " << round << ": setup " << setup_s.back()
              << " s, kernel " << plain.seconds << " s unprofiled, "
              << p.kernel.seconds << " s profiled, insight "
              << median(p.insight_s) << " s\n";

    for (const Kernel& k : plains) {
      const auto counts = deterministic_counts(w, k, p);
      if (first_counts.empty())
        first_counts = counts;
      else
        checks.expect(counts == first_counts,
                      "deterministic counts changed between kernels");
    }

    if (args.trace) {
      plain_allocs.push_back(static_cast<double>(plain.allocs));
      prof_allocs.push_back(static_cast<double>(p.kernel.allocs));
      self_s.push_back(p.self_overhead_cycles / hz);
      if (round == 0) {
        // Counts from the program's public seams, with no profiler
        // installed.
        LayerCounter counter(w.pes);
        Spans::Scope s(spans, "kernel.counted");
        counted_kernel = run_kernel(w, in, args.seed, nullptr);
        layer = std::move(counter.counts);
        if (w.profile.metrics) {
          const std::string& prom = p.prom;
          checks.expect(
              counted_kernel.totals.pushed ==
                      prom_total(prom, "actorprof_actor_sends_total") &&
                  layer.transfers ==
                      prom_total(prom, "actorprof_conveyor_transfers_total") &&
                  layer.transfer_bytes ==
                      prom_total(prom,
                                 "actorprof_conveyor_transfer_bytes_total") &&
                  layer.nbi_puts ==
                      prom_total(prom, "actorprof_shmem_nbi_puts_total") &&
                  layer.nbi_bytes ==
                      prom_total(prom, "actorprof_shmem_nbi_put_bytes_total"),
              "externally counted layer totals != metrics.prom totals");
        }
      }
      last = std::move(p);
    }
    round_s = now_s() - round_t0;
    if (args.short_mode) break;
  }
  fs::remove_all(dir);
  std::cerr << "perfbench: " << args.workload << ": " << prof_s.size()
            << " rounds, " << msgs << " messages, reference "
            << ref.seconds << " s, kernel " << median(run_s)
            << " s unprofiled, " << median(prof_s) << " s profiled\n";

  const double m = static_cast<double>(msgs);
  if (!args.trace) {
    return {{"setup_s", "s", median(setup_s)},
            {"run_msgs_per_s", "msg/s", m / median(run_s)},
            {"prof_msgs_per_s", "msg/s", m / median(prof_s)},
            {"insight_s", "s", median(insight_s)},
            {"trace_bytes_per_msg", "B/msg", median(bytes_per_msg)},
            {"peak_rss_mb", "MB", peak_rss_mb()}};
  }

  // Layer replays of the recorded streams.
  std::vector<double> conv_s, sel_s, shmem_s;
  for (int r = 0; r < (args.short_mode ? 1 : 3); ++r) {
    {
      Spans::Scope s(spans, "replay.conveyor");
      const ReplayResult c = replay_conveyor(last.sends);
      checks.expect(c.exact, "conveyor replay delivered other counts");
      conv_s.push_back(c.seconds);
    }
    {
      Spans::Scope s(spans, "replay.selector");
      const ReplayResult c = replay_selector(last.sends);
      checks.expect(c.exact, "selector replay handled other counts");
      sel_s.push_back(c.seconds);
    }
    Spans::Scope s(spans, "replay.shmem");
    const ReplayResult c = replay_shmem(layer.rma, w.pes, w.ppn);
    checks.expect(c.exact, "shmem replay issued other counts");
    shmem_s.push_back(c.seconds);
  }
  const auto med = [&](const char* span) {
    return median(spans.durations(span));
  };
  const double ns = 1e9 / m;
  const double plain_k = median(run_s), prof_k = median(prof_s);
  const double conveyor_ns = median(conv_s) * ns;
  const double selector_ns = median(sel_s) * ns;
  const double rows = static_cast<double>(last.trace_rows);
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"graph.rmat_s", "s", med("graph.rmat")},
      {"graph.csr_s", "s", med("graph.csr")},
      {"runtime.launch_s", "s", med("runtime.launch")},
      {"runtime.sweeps_per_msg", "1/msg", u(layer.sweeps) / m},
      {"runtime.allocs_per_msg", "1/msg", median(plain_allocs) / m},
      {"actorprof_shmem_nbi_puts_total", "count", u(layer.nbi_puts)},
      {"actorprof_shmem_quiets_total", "count", u(layer.quiets)},
      {"actorprof_shmem_barriers_total", "count", u(layer.barriers)},
      {"shmem.replay_ns_per_put", "ns",
       median(shmem_s) * 1e9 / std::max(1.0, u(layer.puts + layer.nbi_puts))},
      {"actorprof_conveyor_transfers_total", "count", u(layer.transfers)},
      {"actorprof_conveyor_transfer_bytes_total", "B",
       u(layer.transfer_bytes)},
      {"conveyor.memcpys_per_msg", "1/msg",
       u(counted_kernel.totals.memcpys) / m},
      {"conveyor.replay_ns_per_msg", "ns", conveyor_ns},
      {"actor.replay_ns_per_msg", "ns", selector_ns - conveyor_ns},
      {"apps.handler_ns_per_msg", "ns", plain_k * ns - selector_ns},
      {"profiler.hook_ns_per_msg", "ns", (prof_k - plain_k) * ns},
      {"profiler.allocs_per_msg", "1/msg",
       (median(prof_allocs) - median(plain_allocs)) / m},
      {"profiler.self_accounted_frac", "ratio",
       median(self_s) / (prof_k - plain_k)},
      {"trace.write_s", "s", med("trace.write")},
      {"trace.load_s", "s", med("trace.load")},
      {"trace.encode_ns_per_row", "ns", med("trace.write") * 1e9 / rows},
      {"trace.decode_ns_per_row", "ns", med("trace.load") * 1e9 / rows},
      {"analysis.analyze_s", "s", med("analysis.analyze")},
      {"advisor.advise_s", "s", med("advisor.advise")},
      {"viz.heatmap_s", "s", med("viz.heatmap")},
      {"serve.refresh_s", "s", med("serve.refresh")},
      {"serve.analyze_s", "s", med("serve.analyze")},
      {"publisher.flush_s", "s", med("publisher.flush")},
      {"actorprof_publish_segments_total", "count",
       u(last.publish.segments_published)},
      {"actorprof_publish_bytes_total", "B", u(last.publish.bytes_published)},
      {"metrics.self_overhead_s", "s", median(self_s)},
  };
}

}  // namespace perfbench
