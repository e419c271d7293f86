// perfbench: one seeded run of one hopdb workload.
//
//   perfbench --workload uniform|skew --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Every run does the same steps on one GLP graph of kVertices vertices;
// the two workloads differ in which pairs they ask for (uniform or
// degree-ranked Zipf) and in the backing the read window is served from
// (HLI2 mmap or heap):
//
//   1. set-up, kSetupReps times when untraced (median reported):
//      generate the graph, build the index, write the graph file the
//      update sessions load, [uniform: write + open the HLI2 file],
//      start the server;
//   2. library: HopDbIndex::Query over the workload's pairs on one
//      thread, in kLibBursts bursts spread over the run;
//   3. read window: a closed loop over kConnections v2 connections, one
//      request outstanding on each, sends DIST and every kBatchEvery-th
//      request a kBatchSize-target BATCH, until it has --seconds of
//      host-clean slices (loadgen.h) or kMaxReadFactor times that in all;
//      its figures pool the --seconds of slices with the least steal;
//   4. write pass, on a fresh heap snapshot with the graph registered:
//      a closed loop over kRwConnections connection (DIST only) beside
//      one closed-loop writer replaying the fixed ADDEDGE/DELEDGE stream
//      back to back, with a COMMIT after every kCommitEvery edits.
//
// Answers are checked outside the timed windows against a BFS over the
// benchmark's own copy of the edge list (with each COMMIT's edits
// applied), plus d(s,s) = 0, symmetry and BATCH == DIST probes. With
// --trace 1 the run also times calls into each layer's public functions
// and reads the server's counters, and its JSON carries the per-layer
// metrics instead of the end-to-end ones. The last stdout line is the
// JSON result.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/graph_io.h"
#include "graph/ranking.h"
#include "hopdb.h"
#include "labeling/incremental.h"
#include "labeling/mapped_index.h"
#include "labeling/query_kernel.h"
#include "loadgen.h"
#include "oracle.h"
#include "query/batch.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {
namespace {

using hopdb::HopDbIndex;
using hopdb::ServingSnapshot;

// Input make-up (README "Inputs" records the same values and where each
// comes from).
constexpr VertexId kVertices = 50000;
constexpr double kAvgDegree = 8;
// The graph and the edit stream are fixed reference inputs: a delete's
// repair cost depends on which edge it hits and spans two orders of
// magnitude, so a stream drawn per seed would make the write metrics
// measure the draw. --seed drives every read stream and sample.
constexpr uint64_t kGraphSeed = 1;
constexpr uint64_t kStreamSeed = 1;
constexpr uint32_t kBuildThreads = 4;
constexpr int kSetupReps = 3;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kIoThreads = 1;
constexpr uint32_t kConnections = 4;
// Beside the writes, one read connection: with four, the reads and the
// repair together kept every vCPU busy, so the write figures measured
// the scheduler as well (README, Host noise).
constexpr uint32_t kRwConnections = 1;
constexpr uint32_t kBatchEvery = 16;
constexpr uint32_t kBatchSize = 8;
constexpr double kZipfAlpha = 0.99;
constexpr uint32_t kEdits = 96;
constexpr uint32_t kDeleteEvery = 2;
constexpr uint32_t kCommitEvery = 8;
constexpr int kLibBursts = 4;
constexpr double kWarmupS = 1.0;
constexpr double kMaxReadFactor = 4;
constexpr double kWriteWarmupS = 0.5;
constexpr size_t kLibPairs = size_t{1} << 20;
constexpr size_t kLibBlock = 4096;
constexpr uint32_t kSamples = 128;
// Every n-th DIST becomes a claim, up to kSamples: the read window
// answers about 60k requests/s and the reads beside the writes about
// 20k, so the claims spread over ~8 s.
constexpr uint32_t kSampleEvery = 4096;
constexpr uint32_t kRwSampleEvery = 1024;
constexpr uint32_t kProbes = 48;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string work_dir;
  bool mmap = false;  // read window served from HLI2 (uniform)
  bool zipf = false;  // degree-ranked Zipf pairs (skew)
};

uint64_t Derive(uint64_t seed, uint64_t stream) {
  hopdb::SplitMix64 mix(seed * 0x100000001b3ULL + stream);
  return mix.Next();
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

template <typename T>
T OrDie(hopdb::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void OrDie(const hopdb::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

hopdb::ServerOptions ServeOptions() {
  hopdb::ServerOptions options;  // defaults apart from thread counts
  options.num_workers = kWorkers;
  options.num_io_threads = kIoThreads;
  return options;
}

/// One set-up: everything a run needs before its first query.
struct Stack {
  hopdb::EdgeList edges;  // generated, normalized
  HopDbIndex index;       // the built index (library, write pass)
  std::shared_ptr<const ServingSnapshot> snapshot;  // read-window backing
  std::unique_ptr<hopdb::DistanceServer> server;
  std::string graph_path;
  std::string hli2_path;
  double seconds = 0;
  // Layer timings of this set-up.
  double gen_s = 0;
  double build_wall_s = 0;
};

Stack SetUp(const Config& config) {
  Stack stack;
  stack.graph_path = config.work_dir + "/graph.bin";
  stack.hli2_path = config.work_dir + "/index.hli2";
  const double t0 = NowUs();

  hopdb::GlpOptions glp;
  glp.num_vertices = kVertices;
  glp.target_avg_degree = kAvgDegree;
  glp.seed = kGraphSeed;
  stack.edges = OrDie(hopdb::GenerateGlp(glp), "generate");
  const double t_gen = NowUs();

  hopdb::HopDbOptions build;
  build.build.num_threads = kBuildThreads;
  stack.index = OrDie(HopDbIndex::Build(stack.edges, build), "build");
  const double t_build = NowUs();

  // Bookkeeping outside the set-up time: the benchmark's own copy.
  stack.edges.Normalize();
  const double t_io = NowUs();
  OrDie(hopdb::WriteBinaryGraph(stack.edges, stack.graph_path), "graph file");
  const hopdb::ServerOptions options = ServeOptions();
  if (config.mmap) {
    OrDie(hopdb::MappedIndex::Write(stack.index.label_index(),
                                    stack.index.ranking(), stack.hli2_path),
          "hli2 write");
    hopdb::MappedIndex mapped =
        OrDie(hopdb::MappedIndex::Open(stack.hli2_path), "hli2 open");
    stack.snapshot = std::make_shared<const ServingSnapshot>(
        std::move(mapped), stack.hli2_path, options.cache_capacity,
        options.hot_hub_k);
  } else {
    stack.snapshot = std::make_shared<const ServingSnapshot>(
        HopDbIndex(stack.index), "", options.cache_capacity, options.hot_hub_k);
  }
  stack.server = OrDie(hopdb::DistanceServer::Start(stack.snapshot, options),
                       "server start");
  const double t_end = NowUs();
  stack.gen_s = (t_gen - t0) / 1e6;
  stack.build_wall_s = (t_build - t_gen) / 1e6;
  stack.seconds = ((t_end - t0) - (t_io - t_build)) / 1e6;
  return stack;
}

/// Collects named metrics in print order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream out;
    out.precision(12);
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << entries_[i].name << "\": {\"value\": " << entries_[i].value
          << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }
  void Print(std::ostream& out) const {
    for (const Entry& e : entries_) {
      out << "metric " << e.name << " = " << e.value << " " << e.unit << "\n";
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void PrintOp(OpStats* op) {
  const size_t n = op->latency_us.size();
  std::printf("op %-8s attempted=%llu failed=%llu busy=%llu p50_us=%.2f "
              "p99_us=%.2f samples=%zu\n",
              op->name.c_str(), static_cast<unsigned long long>(op->attempted),
              static_cast<unsigned long long>(op->failed),
              static_cast<unsigned long long>(op->busy),
              Percentile(&op->latency_us, 50), Percentile(&op->latency_us, 99),
              n);
}

using Pairs = std::vector<std::pair<VertexId, VertexId>>;

/// Times `fn` over `pairs` for `seconds` in blocks of kLibBlock calls,
/// appending each block's mean ns per call to `block_ns`. Resumes at
/// *cursor, so successive bursts walk on through the pairs. One untimed
/// block first warms caches and branch predictors.
template <typename Fn>
void TimeBlocks(const Pairs& pairs, double seconds, size_t* cursor,
                std::vector<double>* block_ns, Fn fn) {
  uint64_t sink = 0;
  const auto next_block = [&]() {
    if (*cursor + kLibBlock > pairs.size()) *cursor = 0;
    const size_t at = *cursor;
    *cursor += kLibBlock;
    return at;
  };
  for (size_t i = next_block(), end = i + kLibBlock; i < end; ++i) {
    sink += fn(pairs[i]);
  }
  const double stop = NowUs() + seconds * 1e6;
  do {
    const size_t at = next_block();
    const double t0 = NowUs();
    for (size_t i = at; i < at + kLibBlock; ++i) sink += fn(pairs[i]);
    const double t1 = NowUs();
    block_ns->push_back((t1 - t0) * 1e3 / static_cast<double>(kLibBlock));
  } while (NowUs() < stop);
  if (sink == 42) std::fprintf(stderr, "\n");  // keeps the calls alive
}

template <typename Fn>
double BlockMedianNs(const Pairs& pairs, double seconds, Fn fn) {
  size_t cursor = 0;
  std::vector<double> block_ns;
  TimeBlocks(pairs, seconds, &cursor, &block_ns, fn);
  return Median(block_ns);
}

/// Untimed probe requests against a quiescent server: d(s,s) = 0,
/// d(t,s) = d(s,t) and BATCH rows == DIST. With `version` set, each
/// probe answer also becomes a claim on that graph version.
void Probe(uint16_t port, const std::vector<Claim>& claims,
           const std::vector<LoopResult::BatchSample>& batches,
           const uint32_t* version, OpStats* probe,
           std::vector<Claim>* out_claims) {
  auto client = hopdb::DistanceClient::Connect(
      "127.0.0.1", port, hopdb::DistanceClient::Protocol::kV2);
  uint64_t id = probe->attempted;
  const auto dist = [&](VertexId s, VertexId t, Distance* d) {
    probe->attempted++;
    if (!client.ok()) return false;
    hopdb::Request request;
    request.kind = hopdb::RequestKind::kDist;
    request.src = s;
    request.targets = {t};
    auto reply = client.value().Call(request);
    if (!reply.ok() || reply.value().status != hopdb::WireStatus::kOk) {
      return false;
    }
    *d = reply.value().distance;
    return true;
  };
  size_t used = 0;
  for (const Claim& c : claims) {
    if (c.op_type == kOpBatch) continue;
    if (used++ >= kProbes) break;
    Distance self = 1;
    Distance forward = 0;
    Distance backward = 0;
    if (!dist(c.s, c.s, &self) || self != 0) probe->failed++;
    const bool ok_f = dist(c.s, c.t, &forward);
    const bool ok_b = dist(c.t, c.s, &backward);
    if (!ok_f) probe->failed++;
    if (!ok_b || (ok_f && forward != backward)) probe->failed++;
    if (version != nullptr && ok_f) {
      out_claims->push_back(
          Claim{c.s, c.t, forward, *version, *version, kOpProbe, id++});
    }
  }
  for (const LoopResult::BatchSample& b : batches) {
    for (size_t i = 0; i < b.targets.size(); ++i) {
      Distance d = 0;
      if (!dist(b.s, b.targets[i], &d) || d != b.answers[i]) probe->failed++;
    }
  }
}

/// The read server's own counters, read right after the read window.
struct ServerLayer {
  double queue_wait_p50_us = 0;
  double execute_p50_us = 0;
  double write_p50_us = 0;
  double queue_wait_mean_us = 0;
  double execute_mean_us = 0;
  double write_mean_us = 0;
  double micro_batched = 0;
  hopdb::ResultCache::Stats cache;
};

ServerLayer ReadServerLayer(const hopdb::DistanceServer& server) {
  const hopdb::ServerMetrics& m = server.metrics();
  const auto mean = [](const hopdb::LatencyHistogram& h) {
    return h.count() == 0 ? 0.0
                          : static_cast<double>(h.sum_us()) /
                                static_cast<double>(h.count());
  };
  ServerLayer layer;
  layer.queue_wait_p50_us =
      static_cast<double>(m.queue_wait_histogram().PercentileUs(50));
  layer.execute_p50_us =
      static_cast<double>(m.execute_histogram().PercentileUs(50));
  layer.write_p50_us = static_cast<double>(m.write_histogram().PercentileUs(50));
  layer.queue_wait_mean_us = mean(m.queue_wait_histogram());
  layer.execute_mean_us = mean(m.execute_histogram());
  layer.write_mean_us = mean(m.write_histogram());
  layer.micro_batched = static_cast<double>(m.micro_batched_queries());
  layer.cache = server.cache_stats();
  return layer;
}

/// Per-layer metrics, measured from outside each layer: timing calls
/// into its public functions on the run's own inputs, and reading the
/// server's counters. Runs after the timed windows.
void TraceLayers(const Config& config, const Stack& stack,
                 const Pairs& pairs,
                 const VertexSampler& sampler, const EditStream& stream,
                 const ServerLayer& server, const WriterResult& writes,
                 double session_load_ms, double generator_share,
                 Metrics* out) {
  const HopDbIndex& index = stack.index;
  const hopdb::RankMapping& rank = index.ranking();
  const hopdb::ServerOptions options = ServeOptions();

  // gen, graph (ranking + relabel), labeling/builder.
  const hopdb::BuildStats& build = index.build_stats();
  double raw = 0;
  double survivors = 0;
  for (const hopdb::IterationStats& it : build.iterations) {
    raw += static_cast<double>(it.raw_candidates);
    survivors += static_cast<double>(it.survivors);
  }
  out->Add("gen.graph_s", stack.gen_s, "s");
  out->Add("graph.rank_s", stack.build_wall_s - build.total_seconds, "s");
  out->Add("builder.generate_s",
           build.PhaseSeconds(&hopdb::IterationStats::generate_seconds), "s");
  out->Add("builder.dedup_s",
           build.PhaseSeconds(&hopdb::IterationStats::dedup_seconds), "s");
  out->Add("builder.prune_s",
           build.PhaseSeconds(&hopdb::IterationStats::prune_seconds), "s");
  out->Add("builder.apply_s",
           build.PhaseSeconds(&hopdb::IterationStats::apply_seconds), "s");
  out->Add("builder.iterations", static_cast<double>(build.iterations.size()),
           "count");
  out->Add("builder.raw_candidates", raw, "count");
  out->Add("builder.peak_candidates",
           static_cast<double>(build.peak_candidates), "count");
  out->Add("builder.survivor_ratio", raw == 0 ? 0 : survivors / raw, "ratio");

  // labeling/two_hop_index + flat_label_store.
  const double entries = static_cast<double>(index.label_index().TotalEntries());
  out->Add("labels.entries", entries, "count");
  out->Add("labels.bytes_per_entry",
           static_cast<double>(index.label_index().SizeBytes()) / entries, "B");

  // labeling/query_kernel: the active kernel on the flat views, for the
  // run's library pairs in internal ids.
  Pairs internal(pairs.size() / 4);
  for (size_t i = 0; i < internal.size(); ++i) {
    internal[i] = {rank.ToInternal(pairs[i].first),
                   rank.ToInternal(pairs[i].second)};
  }
  const hopdb::FlatLabelStore& flat = index.label_index().flat_store();
  const hopdb::QueryKernel& kernel = hopdb::ActiveQueryKernel();
  double label_entries = 0;
  for (const auto& [s, t] : internal) {
    label_entries += flat.Out(s).size + flat.In(t).size;
  }
  out->Add("kernel.intersect_ns",
           BlockMedianNs(internal, 1.0,
                         [&](const std::pair<VertexId, VertexId>& p) {
                           const auto a = flat.Out(p.first);
                           const auto b = flat.In(p.second);
                           return kernel.intersect_flat(a.pivots, a.dists,
                                                        a.size, b.pivots,
                                                        b.dists, b.size);
                         }),
           "ns");
  out->Add("kernel.entries_per_query",
           label_entries / static_cast<double>(internal.size()), "count");

  // labeling/mapped_index: write, open, then resident bytes after the
  // library pairs have run through the mapping.
  const std::string path = config.work_dir + "/trace.hli2";
  const double w0 = NowUs();
  OrDie(hopdb::MappedIndex::Write(index.label_index(), rank, path),
        "trace hli2 write");
  const double w1 = NowUs();
  hopdb::MappedIndex mapped = OrDie(hopdb::MappedIndex::Open(path), "trace open");
  const double w2 = NowUs();
  uint64_t sink = 0;
  for (const auto& [s, t] : pairs) sink += mapped.Query(s, t);
  out->Add("mapped.write_s", (w1 - w0) / 1e6, "s");
  out->Add("mapped.open_ms", (w2 - w1) / 1e3, "ms");
  out->Add("mapped.resident_mb",
           static_cast<double>(mapped.ResidentBytes()) / 1048576.0,
           "MB");

  // server/index_snapshot + labeling/hot_hub: what a served DIST runs.
  out->Add("snapshot.query_ns",
           BlockMedianNs(pairs, 1.0,
                         [&](const std::pair<VertexId, VertexId>& p) {
                           return stack.snapshot->Query(p.first, p.second);
                         }),
           "ns");

  // query/batch: OneToManyEngine at the BATCH size, on the read
  // window's backing (the mapping for uniform, the heap labels for skew).
  hopdb::Rng rng(Derive(config.seed, 6));
  std::vector<double> build_us;
  std::vector<double> query_us;
  for (int rep = 0; rep < 200; ++rep) {
    const VertexId s = rank.ToInternal(sampler.Draw(&rng));
    std::vector<VertexId> targets;
    for (uint32_t j = 0; j < kBatchSize; ++j) {
      targets.push_back(rank.ToInternal(sampler.Draw(&rng)));
    }
    const double t0 = NowUs();
    hopdb::OneToManyEngine engine =
        config.mmap ? hopdb::OneToManyEngine(mapped.labels(), std::move(targets))
                    : hopdb::OneToManyEngine(index.label_index(),
                                             std::move(targets));
    const double t1 = NowUs();
    sink += engine.Query(s)[0];
    const double t2 = NowUs();
    build_us.push_back(t1 - t0);
    query_us.push_back(t2 - t1);
  }
  out->Add("batch.engine_build_us", Median(build_us), "us");
  out->Add("batch.engine_query_us", Median(query_us), "us");

  // server: stages, micro-batching and the result cache, read window.
  out->Add("server.queue_wait_p50_us", server.queue_wait_p50_us, "us");
  out->Add("server.execute_p50_us", server.execute_p50_us, "us");
  out->Add("server.write_p50_us", server.write_p50_us, "us");
  out->Add("server.queue_wait_mean_us", server.queue_wait_mean_us, "us");
  out->Add("server.execute_mean_us", server.execute_mean_us, "us");
  out->Add("server.write_mean_us", server.write_mean_us, "us");
  out->Add("server.micro_batched_queries", server.micro_batched, "count");
  out->Add("cache.hit_rate", server.cache.HitRate(), "ratio");
  out->Add("cache.evictions", static_cast<double>(server.cache.evictions),
           "count");

  // labeling/incremental: the run's edit stream replayed through
  // IncrementalUpdater::Apply on a copy, finalized at each COMMIT point.
  HopDbIndex copy = index;
  const hopdb::CsrGraph csr =
      OrDie(hopdb::CsrGraph::FromEdgeList(stack.edges), "csr");
  const hopdb::CsrGraph ranked = OrDie(hopdb::RelabelByRank(csr, rank), "relabel");
  hopdb::DynamicGraph graph = hopdb::DynamicGraph::FromGraph(ranked);
  hopdb::IncrementalUpdater updater(&graph, &copy.mutable_label_index());
  std::vector<double> insert_us;
  std::vector<double> delete_us;
  double repair_max_us = 0;
  for (size_t i = 0; i < stream.edits.size(); ++i) {
    const Edit& edit = stream.edits[i];
    hopdb::UpdateOp op;
    op.kind = edit.del ? hopdb::UpdateOp::Kind::kDelEdge
                       : hopdb::UpdateOp::Kind::kAddEdge;
    op.u = rank.ToInternal(edit.u);
    op.v = rank.ToInternal(edit.v);
    const double t0 = NowUs();
    OrDie(updater.Apply(op), "replay");
    const double us = NowUs() - t0;
    (edit.del ? delete_us : insert_us).push_back(us);
    repair_max_us = std::max(repair_max_us, us);
    if ((i + 1) % stream.commit_every == 0) updater.Finalize();
  }
  out->Add("update.insert_p50_us", Median(insert_us), "us");
  out->Add("update.delete_p50_ms", Median(delete_us) / 1e3, "ms");
  out->Add("update.repair_max_ms", repair_max_us / 1e3, "ms");
  out->Add("update.full_rebuilds",
           static_cast<double>(updater.stats().full_rebuilds), "count");
  out->Add("update.session_load_ms", session_load_ms, "ms");

  // COMMIT publish: deep copy + snapshot construction at server
  // defaults, as COMMIT does; carried/dropped cache entries from the
  // COMMIT replies.
  std::vector<double> publish_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowUs();
    auto snapshot = std::make_shared<const ServingSnapshot>(
        HopDbIndex(index), "", options.cache_capacity, options.hot_hub_k);
    publish_ms.push_back((NowUs() - t0) / 1e3);
  }
  out->Add("snapshot.publish_ms", Median(publish_ms), "ms");
  out->Add("commit.cache_carried", static_cast<double>(writes.cache_carried),
           "count");
  out->Add("commit.cache_dropped", static_cast<double>(writes.cache_dropped),
           "count");

  // Load generator: near 1, the read window measured its own thread.
  out->Add("loadgen.cpu_share", generator_share, "ratio");

  if (sink == 42) std::fprintf(stderr, "\n");
}

/// The write pass: a fresh heap snapshot with the graph registered, the
/// DIST closed loop, and beside it the writer replaying the stream; then
/// probes at the final version.
struct WritePass {
  LoopResult reads;
  WriterResult writes;
};

WritePass RunWritePass(const Stack& stack, const VertexSampler& sampler,
                       const EditStream& stream, uint64_t seed,
                       OpStats* probe, std::vector<Claim>* claims) {
  const hopdb::ServerOptions options = ServeOptions();
  std::unique_ptr<hopdb::DistanceServer> server = OrDie(
      hopdb::DistanceServer::Start(
          std::make_shared<const ServingSnapshot>(
              HopDbIndex(stack.index), "", options.cache_capacity,
              options.hot_hub_k),
          options),
      "write server start");
  OrDie(server->RegisterUpdateGraph("", stack.graph_path), "register");
  std::atomic<uint32_t> version{0};
  std::atomic<bool> hold_open{true};
  std::atomic<bool> measuring{false};
  LoopOptions rw;
  rw.port = server->port();
  rw.connections = kRwConnections;
  rw.warmup_s = kWriteWarmupS;
  rw.measure_s = 1.0;
  rw.max_samples = kSamples;
  rw.sample_every = kRwSampleEvery;
  rw.seed = Derive(seed, 200);
  rw.id_base = uint64_t{1} << 40;
  rw.dist_type = kOpRwDist;
  rw.hold_open = &hold_open;
  rw.measuring = &measuring;
  rw.version = &version;
  WritePass out;
  std::thread generator([&] { out.reads = RunClosedLoop(rw, sampler); });
  while (!measuring.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.writes = RunWriter(rw.port, stream, &version);
  hold_open.store(false, std::memory_order_release);
  generator.join();
  claims->insert(claims->end(), out.reads.claims.begin(),
                 out.reads.claims.end());
  const uint32_t final_version = version.load();
  Probe(rw.port, out.reads.claims, {}, &final_version, probe, claims);
  return out;
}

void AddCounts(const OpStats& from, OpStats* to) {
  to->attempted += from.attempted;
  to->failed += from.failed;
  to->busy += from.busy;
}

int Run(const Config& config) {
  const double run_start = NowUs();

  // 1. Set-up.
  std::vector<double> setup_s;
  Stack stack;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    stack = Stack();  // stop the previous server, free its index
    stack = SetUp(config);
    setup_s.push_back(stack.seconds);
  }
  const hopdb::EdgeList& edges = stack.edges;
  const VertexSampler sampler =
      config.zipf ? VertexSampler::Zipf(edges, kZipfAlpha)
                  : VertexSampler::Uniform(edges.num_vertices());
  const EditStream stream = MakeEditStream(edges, kStreamSeed, kEdits,
                                           kDeleteEvery, kCommitEvery);
  std::vector<OpStats> ops(kNumOpTypes);
  for (int t = 0; t < kNumOpTypes; ++t) ops[t].name = OpName(t);
  std::vector<Claim> claims;

  // 2. Library: one thread, no wire, no cache. Timed in kLibBursts
  // bursts spread over the run (host noise moves on a scale of
  // seconds); query_ns is the median over all their blocks.
  Pairs pairs(kLibPairs);
  {
    hopdb::Rng rng(Derive(config.seed, 3));
    for (auto& p : pairs) p = {sampler.Draw(&rng), sampler.Draw(&rng)};
  }
  const HopDbIndex& index = stack.index;
  size_t lib_cursor = 0;
  std::vector<double> lib_block_ns;
  const auto lib_burst = [&]() {
    TimeBlocks(pairs, config.seconds / 4 / kLibBursts, &lib_cursor,
               &lib_block_ns, [&index](const std::pair<VertexId, VertexId>& p) {
                 return index.Query(p.first, p.second);
               });
  };
  lib_burst();
  for (uint32_t i = 0; i < kSamples; ++i) {
    const auto& [s, t] = pairs[i * (kLibPairs / kSamples)];
    const Distance d = index.Query(s, t);
    claims.push_back(Claim{s, t, d, 0, 0, kOpQuery, i});
    ops[kOpProbe].attempted += 2;
    if (index.Query(s, s) != 0) ops[kOpProbe].failed++;
    if (index.Query(t, s) != d) ops[kOpProbe].failed++;
  }

  // 3. Read window: a closed loop, so that a host stall delays the few
  // requests outstanding, not every request due in it (README, Host
  // noise).
  LoopOptions read;
  read.port = stack.server->port();
  read.connections = kConnections;
  read.warmup_s = kWarmupS;
  read.measure_s = config.seconds;
  read.max_measure_s = kMaxReadFactor * config.seconds;
  read.batch_every = kBatchEvery;
  read.batch_size = kBatchSize;
  read.max_samples = kSamples;
  read.sample_every = kSampleEvery;
  read.seed = Derive(config.seed, 100);
  read.dist_type = kOpDist;
  LoopResult reads = RunClosedLoop(read, sampler);
  AddCounts(reads.dist, &ops[kOpDist]);
  AddCounts(reads.batch, &ops[kOpBatch]);
  claims.insert(claims.end(), reads.claims.begin(), reads.claims.end());
  const WindowFigures figures = PoolSlices(reads.slices, read.measure_s);
  ops[kOpDist].latency_us = reads.dist.latency_us;
  ops[kOpBatch].latency_us = reads.batch.latency_us;
  const ServerLayer server_layer = ReadServerLayer(*stack.server);
  Probe(read.port, reads.claims, reads.batches, nullptr, &ops[kOpProbe], nullptr);
  const double index_mb =
      static_cast<double>(stack.snapshot->ResidentBytes()) / 1048576.0;
  stack.server->Stop();
  lib_burst();

  // 4. Write pass.
  const WritePass pass =
      RunWritePass(stack, sampler, stream, config.seed, &ops[kOpProbe], &claims);
  AddCounts(pass.reads.dist, &ops[kOpRwDist]);
  ops[kOpRwDist].latency_us = pass.reads.dist.latency_us;
  AddCounts(pass.writes.addedge, &ops[kOpAddEdge]);
  AddCounts(pass.writes.deledge, &ops[kOpDelEdge]);
  AddCounts(pass.writes.commit, &ops[kOpCommit]);
  const std::vector<double>& edit_us = pass.writes.edit_us;
  // The first edit pays the update-session load; it is reported apart.
  for (size_t i = 1; i < edit_us.size(); ++i) {
    if (edit_us[i] < 0) continue;
    ops[stream.edits[i].del ? kOpDelEdge : kOpAddEdge].latency_us.push_back(
        edit_us[i]);
  }
  for (double us : pass.writes.commit_us) {
    if (us >= 0) ops[kOpCommit].latency_us.push_back(us);
  }
  lib_burst();

  // Correctness: BFS oracle over the benchmark's own edge list.
  Oracle oracle(edges, stream);
  if (!oracle.SelfTest(claims)) {
    Die("checker self-test did not catch an altered answer");
  }
  for (const auto& failed_op : oracle.Check(claims)) ops[failed_op.first].failed++;
  lib_burst();
  ops[kOpQuery].attempted = lib_block_ns.size() * kLibBlock;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> all_edits_us;
  for (int t : {kOpAddEdge, kOpDelEdge}) {
    all_edits_us.insert(all_edits_us.end(), ops[t].latency_us.begin(),
                        ops[t].latency_us.end());
  }
  for (OpStats& op : ops) {
    PrintOp(&op);
    attempted += op.attempted;
    failed += op.failed;
  }
  // ADDEDGE's round trip (~0.6 ms) is mostly cross-thread wake-ups,
  // which host steal on a shared VM doubles for minutes at a time; it is
  // printed with the other ops, not bounded.
  // Per slice, the host's steal share (%) and the DIST p50 (us): the
  // data the host-clean threshold is set from.
  std::printf("read_window slices=%zu host_clean_slices=%zu "
              "max_pooled_steal_pct=%.1f steal_pct:p50_us=",
              figures.slices, figures.clean, figures.max_pooled_steal * 100);
  for (Slice& slice : reads.slices) {
    std::printf(" %.1f:%.0f", slice.steal_share * 100,
                Percentile(&slice.dist_us, 50));
  }
  std::printf("\n");
  std::printf("unbounded addedge_p50_us=%.1f all_edits_p50_us=%.1f "
              "first_edit_ms=%.2f "
              "setup_reps=%zu run_wall_s=%.2f\n",
              Percentile(&ops[kOpAddEdge].latency_us, 50),
              Percentile(&all_edits_us, 50), edit_us[0] / 1e3,
              setup_s.size(), (NowUs() - run_start) / 1e6);

  Metrics e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Add("index_mb", index_mb, "MB");
  e2e.Add("query_ns", Median(lib_block_ns), "ns");
  e2e.Add("dist_p50_us", figures.dist_p50_us, "us");
  e2e.Add("batch_p50_us", figures.batch_p50_us, "us");
  e2e.Add("serve_cpu_us", figures.serve_cpu_us, "us");
  e2e.Add("deledge_p50_ms", Percentile(&ops[kOpDelEdge].latency_us, 50) / 1e3,
          "ms");
  e2e.Add("commit_p50_ms", Percentile(&ops[kOpCommit].latency_us, 50) / 1e3,
          "ms");
  e2e.Add("write_stream_s", pass.writes.stream_s, "s");
  e2e.Print(std::cout);

  Metrics layer;
  if (config.trace) {
    double generator_cpu_s = 0;
    double wall_s = 0;
    for (const Slice& slice : reads.slices) {
      generator_cpu_s += slice.generator_cpu_s;
      wall_s += slice.wall_s;
    }
    TraceLayers(config, stack, pairs, sampler, stream, server_layer,
                pass.writes, edit_us[0] / 1e3,
                wall_s == 0 ? 0 : generator_cpu_s / wall_s, &layer);
    layer.Print(std::cout);
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << (config.trace ? layer.Json() : e2e.Json())
            << "}" << std::endl;
  return 0;
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key == "workload") {
      config.workload = value;
    } else if (key == "seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      config.trace = value == "1";
    } else if (key == "work-dir") {
      config.work_dir = value;
    } else {
      Die("unknown flag --" + key);
    }
  }
  if (config.workload == "uniform") {
    config.mmap = true;
  } else if (config.workload == "skew") {
    config.zipf = true;
  } else {
    Die("--workload must be uniform or skew");
  }
  if (!(config.seconds >= 1 && config.seconds <= 60)) Die("--seconds must be in [1, 60]");
  if (config.work_dir.empty()) Die("--work-dir is required");
  return config;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
