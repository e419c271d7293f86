// Shared helpers of the perfbench binary: clocks, percentiles, per-op
// counters and the seeded vertex samplers the workloads draw from.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/random.h"

namespace perfbench {

using hopdb::Distance;
using hopdb::VertexId;

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 100]) of `values`; sorts in
/// place. 0 for an empty sample.
inline double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double pos = p / 100.0 * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] * (1 - frac) + (*values)[hi] * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(&values, 50);
}

/// Attempted / failed / BUSY counts and latency samples of one
/// operation type. Latencies hold only the timed (post-warm-up)
/// operations that succeeded; every operation sent counts as attempted.
struct OpStats {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t busy = 0;
  std::vector<double> latency_us;
};

/// Draws vertices either uniformly or Zipfian over a degree ranking:
/// rank r (0 = highest degree) has probability proportional to
/// 1/(r+1)^alpha. Exact inverse-CDF sampling.
class VertexSampler {
 public:
  static VertexSampler Uniform(VertexId n) {
    VertexSampler s;
    s.n_ = n;
    return s;
  }

  static VertexSampler Zipf(const hopdb::EdgeList& edges, double alpha) {
    VertexSampler s;
    s.n_ = edges.num_vertices();
    std::vector<uint64_t> degree(s.n_, 0);
    for (const hopdb::Edge& e : edges.edges()) {
      degree[e.src]++;
      degree[e.dst]++;
    }
    s.order_.resize(s.n_);
    for (VertexId v = 0; v < s.n_; ++v) s.order_[v] = v;
    std::sort(s.order_.begin(), s.order_.end(),
              [&degree](VertexId a, VertexId b) {
                return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
              });
    s.cdf_.reserve(s.n_);
    double total = 0;
    for (size_t rank = 0; rank < s.order_.size(); ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -alpha);
      s.cdf_.push_back(total);
    }
    return s;
  }

  VertexId Draw(hopdb::Rng* rng) const {
    if (order_.empty()) return static_cast<VertexId>(rng->Below(n_));
    const double u = rng->NextDouble() * cdf_.back();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  VertexId n_ = 0;
  std::vector<VertexId> order_;  // empty = uniform
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
