// Load generators that drive an in-process DistanceServer over loopback
// TCP: a closed-loop reader thread over a few v2 connections (the read
// window, and the reads beside the write stream), and one closed-loop
// writer connection that replays the seeded edit stream with COMMITs.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common.h"
#include "oracle.h"

namespace perfbench {

enum OpType : int {
  kOpQuery = 0,   // in-process HopDbIndex::Query
  kOpDist,        // served DIST, read-only window
  kOpBatch,       // served BATCH, read-only window
  kOpRwDist,      // served DIST beside the write stream
  kOpAddEdge,
  kOpDelEdge,
  kOpCommit,
  kOpProbe,       // untimed property probes (self, symmetry, BATCH==DIST)
  kNumOpTypes,
};

const char* OpName(int type);

struct LoopOptions {
  uint16_t port = 0;
  uint32_t connections = 4;   // each with one request outstanding
  double warmup_s = 1;        // requests sent before this are not timed
  /// Seconds of host-clean slices the timed window collects. It runs
  /// on past measure_s until it has them, up to max_measure_s (0 =
  /// measure_s, no extension).
  double measure_s = 8;
  double max_measure_s = 0;
  uint32_t batch_every = 0;   // every n-th request is a BATCH (0 = none)
  uint32_t batch_size = 8;
  uint32_t sample_every = 1;  // every n-th DIST answer becomes a claim
  uint32_t max_samples = 128;
  uint64_t seed = 1;
  uint64_t id_base = 0;       // claim ids are id_base + request index
  int dist_type = kOpDist;
  /// While set, keep the window open past measure_s (write pass).
  const std::atomic<bool>* hold_open = nullptr;
  /// Raised by the generator when the timed window starts.
  std::atomic<bool>* measuring = nullptr;
  /// Committed-version counter read at send and at receive (claims
  /// accept any version in [send, receive + 1]).
  const std::atomic<uint32_t>* version = nullptr;
};

/// One kSliceS slice of the timed window, by send time.
struct Slice {
  std::vector<double> dist_us;
  std::vector<double> batch_us;
  uint64_t completed = 0;      // replies to requests sent in it
  double process_cpu_s = 0;    // whole-process CPU while it ran
  double generator_cpu_s = 0;  // the generator thread's share of that
  double wall_s = 0;           // how long it ran
  double steal_share = 0;      // host steal over all vCPUs while it ran
};

/// A slice is host-clean when the hypervisor withheld at most this
/// share of the VM's CPU time during it (steal time, /proc/stat). On a
/// shared host, steal comes in episodes of seconds to minutes, and a
/// slice with more of it measured the host. Steal is time the host did
/// not run the VM's vCPUs, so the program under test cannot cause it; a
/// program change that slows the server leaves slices clean. In a closed
/// loop, 1 s slices on the reference box read a DIST p50 of 39-50 us up
/// to 8% steal and 50-70 us at 8-15% (perfbench/README.md, Host noise).
inline constexpr double kSliceS = 1.0;
inline constexpr double kMaxStealShare = 0.08;

struct LoopResult {
  OpStats dist;
  OpStats batch;
  std::vector<Claim> claims;    // sampled DIST answers + sampled BATCH rows
  /// Sampled BATCH requests: source, targets and the answer rows.
  struct BatchSample {
    VertexId s = 0;
    std::vector<VertexId> targets;
    std::vector<Distance> answers;
  };
  std::vector<BatchSample> batches;
  std::vector<Slice> slices;
};

/// The read window's figures, pooled over the ceil(measure_s / kSliceS)
/// slices with the least steal: its host-clean slices when the window
/// collected them, else the least-stolen ones it saw.
struct WindowFigures {
  double dist_p50_us = 0;
  double batch_p50_us = 0;
  double serve_cpu_us = 0;  // process minus generator CPU per reply
  size_t slices = 0;        // slices in the timed window
  size_t clean = 0;         // host-clean slices among them
  double max_pooled_steal = 0;  // steal share of the worst pooled slice
};
WindowFigures PoolSlices(const std::vector<Slice>& slices, double measure_s);

/// Runs a closed loop on the calling thread over `connections` v2
/// connections: each connection sends its next request when the reply
/// to its previous one has arrived, so `connections` requests are
/// outstanding; each is timed from its send. Every `batch_every`-th
/// request is a BATCH. The timed window closes once it has `measure_s`
/// of host-clean slices, or after `max_measure_s` in all, and not while
/// `hold_open` is set; then the outstanding replies are awaited (5 s at
/// most; a reply still missing counts as failed).
LoopResult RunClosedLoop(const LoopOptions& options,
                         const VertexSampler& sampler);

struct WriterResult {
  OpStats addedge;  // counts; latencies are filled by the caller
  OpStats deledge;
  OpStats commit;
  std::vector<double> edit_us;    // per edit, stream order; < 0 = failed
  std::vector<double> commit_us;  // per COMMIT, stream order; < 0 = failed
  double stream_s = 0;
  uint64_t cache_carried = 0;
  uint64_t cache_dropped = 0;
};

/// Replays `stream` over one blocking v2 connection, back to back,
/// bumping *version after every COMMIT reply.
WriterResult RunWriter(uint16_t port, const EditStream& stream,
                       std::atomic<uint32_t>* version);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
