// Host fingerprint: printed next to every run's metrics so figures from
// another machine can be read in context. Never a metric itself.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "graph/rmat.hpp"
#include "ledger.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string m = line.substr(colon + 1);
    m.erase(0, m.find_first_not_of(' '));
    std::string safe;
    for (char c : m) safe += (c == '"' || c == '\\') ? ' ' : c;
    return safe;
  }
  return "unknown";
}

/// ns per iteration of a dependent multiply-xorshift chain.
double alu_ns() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  constexpr std::uint64_t kIters = 40'000'000;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x >> 13;
    x *= 0xFF51AFD7ED558CCDull;
  }
  const double t = now_s() - t0;
  volatile std::uint64_t sink = x;
  (void)sink;
  return t * 1e9 / static_cast<double>(kIters);
}

/// GB/s of repeated 32 MiB memcpy.
double memcpy_gbps() {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  std::vector<char> a(kBytes, 1), b(kBytes, 2);
  constexpr int kReps = 8;
  const double t0 = now_s();
  for (int r = 0; r < kReps; ++r) {
    std::memcpy(b.data(), a.data(), kBytes);
    a[static_cast<std::size_t>(r)] = b[kBytes - 1 - static_cast<std::size_t>(r)];
  }
  const double t = now_s() - t0;
  return static_cast<double>(kBytes) * kReps / t / 1e9;
}

/// ns per hop of a random cyclic pointer chase over 32 MiB.
double chase_ns() {
  constexpr std::size_t kSlots = std::size_t{4} << 20;
  std::vector<std::uint64_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0);
  ap::graph::SplitMix64 rng(0xC4A5E);
  for (std::size_t i = kSlots - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_below(i + 1)]);
  std::vector<std::uint64_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i)
    next[order[i]] = order[(i + 1) % kSlots];
  constexpr std::size_t kHops = 4'000'000;
  std::uint64_t p = order[0];
  const double t0 = now_s();
  for (std::size_t i = 0; i < kHops; ++i) p = next[p];
  const double t = now_s() - t0;
  volatile std::uint64_t sink = p;
  (void)sink;
  return t * 1e9 / static_cast<double>(kHops);
}

}  // namespace

std::string host_fingerprint() {
  std::ostringstream os;
  os.precision(4);
  os << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu\": \"" << cpu_model() << "\", \"alu_ns_per_iter\": "
     << alu_ns() << ", \"memcpy_gb_per_s\": " << memcpy_gbps()
     << ", \"chase_ns_per_hop\": " << chase_ns() << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
