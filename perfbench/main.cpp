// perfbench_ledger: runs one workload of the ledger benchmark and prints,
// as its last line, {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 (the
// perfbench_ledger_traced binary, which counts allocations) they are the
// per-layer ones, and the run's spans are written to
// <out>/<workload>-spans.json.
//
//   perfbench_ledger --workload NAME --seed N --seconds S --trace 0|1
//                    [--short] [--out DIR]
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "ledger.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

Spans::Scope::Scope(Spans& s, std::string name) : s_(s), start_(now_s()) {
  if (!s_.enabled) return;
  index_ = static_cast<int>(s_.spans_.size());
  s_.spans_.push_back(Span{std::move(name), start_, 0, s_.open_});
  s_.open_ = index_;
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  Span& sp = s_.spans_[static_cast<std::size_t>(index_)];
  sp.end = now_s();
  s_.open_ = sp.parent;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

void Spans::write_json(const std::filesystem::path& file) const {
  std::ofstream os(file);
  os.precision(9);
  os << "[\n";
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"parent\": " << s.parent << ", \"start_s\": " << s.start - t0
       << ", \"end_s\": " << s.end - t0 << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace {

Args parse(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--short") {
      a.short_mode = true;
    } else if (k == "--out") {
      a.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!have_trace) throw std::invalid_argument("--trace 0|1 is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_ledger: " << e.what() << "\n";
    return 2;
  }
  Spans spans;
  spans.enabled = args.trace;
  Checks checks;
  std::vector<Metric> metrics;
  try {
    metrics = run_workload(args, spans, checks);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_ledger: " << args.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  if (args.trace)
    spans.write_json(args.out_dir / (args.workload + "-spans.json"));
  // Last, so its buffers do not count towards peak_rss_mb.
  std::cout << host_fingerprint() << "\n";

  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A ratio over an empty denominator (a layer the workload does not
    // use) reads 0, which keeps the line valid JSON.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
