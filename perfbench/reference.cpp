// Serial reference answers, written apart from src/ so that a fault shared
// by the program's own serial helpers and its actor kernels still shows.
#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "ledger.hpp"

namespace perfbench {

namespace {

RefGraph build(std::int64_t n, const std::vector<ap::graph::Edge>& edges,
               bool symmetric) {
  std::vector<std::pair<std::int64_t, std::int64_t>> entries;
  entries.reserve(edges.size() * (symmetric ? 2 : 1));
  for (const ap::graph::Edge& e : edges) {
    if (e.u == e.v) continue;
    const std::int64_t hi = std::max(e.u, e.v), lo = std::min(e.u, e.v);
    entries.emplace_back(hi, lo);
    if (symmetric) entries.emplace_back(lo, hi);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  RefGraph g;
  g.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  g.col.reserve(entries.size());
  for (const auto& [row, c] : entries) {
    if (row < 0 || row >= n) throw std::out_of_range("reference: vertex id");
    ++g.row_ptr[static_cast<std::size_t>(row) + 1];
    g.col.push_back(c);
  }
  for (std::size_t i = 1; i < g.row_ptr.size(); ++i)
    g.row_ptr[i] += g.row_ptr[i - 1];
  return g;
}

}  // namespace

RefGraph ref_lower(std::int64_t n, const std::vector<ap::graph::Edge>& edges) {
  return build(n, edges, false);
}

RefGraph ref_symmetric(std::int64_t n,
                       const std::vector<ap::graph::Edge>& edges) {
  return build(n, edges, true);
}

std::int64_t ref_triangles(const RefGraph& g) {
  // Mark the neighbours of i, then for every j < i in N(i) count the
  // marked entries of N(j): each triangle k < j < i is seen exactly once.
  const std::size_t n = g.row_ptr.size() - 1;
  std::vector<std::size_t> mark(n, SIZE_MAX);
  std::int64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = g.row_ptr[i]; a < g.row_ptr[i + 1]; ++a)
      mark[static_cast<std::size_t>(g.col[a])] = i;
    for (std::size_t a = g.row_ptr[i]; a < g.row_ptr[i + 1]; ++a) {
      const auto j = static_cast<std::size_t>(g.col[a]);
      for (std::size_t b = g.row_ptr[j]; b < g.row_ptr[j + 1]; ++b)
        if (mark[static_cast<std::size_t>(g.col[b])] == i) ++count;
    }
  }
  return count;
}

std::vector<std::int64_t> ref_histogram(int pes, std::size_t buckets_per_pe,
                                        std::size_t updates,
                                        std::uint64_t seed) {
  const std::uint64_t global = static_cast<std::uint64_t>(pes) * buckets_per_pe;
  std::vector<std::int64_t> buckets(global, 0);
  for (int p = 0; p < pes; ++p) {
    // SplitMix64, re-implemented here rather than taken from src/graph.
    std::uint64_t state = seed + static_cast<std::uint64_t>(p) * 0x9E37ull;
    for (std::size_t i = 0; i < updates; ++i) {
      std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      ++buckets[z % global];
    }
  }
  return buckets;
}

std::vector<double> ref_pagerank(const RefGraph& adj, int iterations,
                                 double damping) {
  const std::size_t n = adj.row_ptr.size() - 1;
  const double nv = static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / nv), next(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0;
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t deg = adj.row_ptr[u + 1] - adj.row_ptr[u];
      if (deg == 0) {
        dangling += rank[u];
        continue;
      }
      const double share = rank[u] / static_cast<double>(deg);
      for (std::size_t a = adj.row_ptr[u]; a < adj.row_ptr[u + 1]; ++a)
        next[static_cast<std::size_t>(adj.col[a])] += share;
    }
    const double base = (1.0 - damping) / nv + damping * dangling / nv;
    for (std::size_t v = 0; v < n; ++v) rank[v] = base + damping * next[v];
  }
  return rank;
}

}  // namespace perfbench
