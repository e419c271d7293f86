// Query-kernel comparison: the old per-vertex-vector scalar path against
// the flat SoA layout — unblocked and cacheline-blocked — under every
// kernel this CPU supports, on one GLP scale-free graph (default
// |V| = 100k — the acceptance setting).
//
// Variants measured, all answering the same random point-query stream:
//   aos/<kernel>     span-based QueryLabelHalves over vector<LabelVector>
//                    ("aos/scalar" is the pre-flat-store hot path)
//   flat/<kernel>    QueryFlatHalves with the block sidecars stripped —
//                    the pre-blocking flat layout
//   blocked/<kernel> QueryFlatHalves over the blocked arenas (sidecar
//                    skip-scan)
//   stream/scalar    CompressedIndex::Query — the varint stream merge
//                    every kernel shares, no decompression pass
//   index/default    TwoHopIndex::Query as served (blocked + default
//                    kernel)
// plus one OneToManyEngine row timing over the flat bucket arena.
//
// Every variant is timed in kRounds interleaved rounds, each round
// starting at a different variant, and reports its median ns/query with
// the min/max over rounds. Every pass's distance checksum must agree —
// the bench doubles as an end-to-end bit-identical check — and the JSON
// written to --out (default BENCH_query_kernel.json) records the
// per-variant medians with speedups relative to aos/scalar, plus
// hardware cache-miss and branch-miss rates per query (perf_event_open;
// -1 when the kernel forbids counting) so blocking wins are attributable
// to memory behavior.
//
//   bench_query_kernel            # 100k-vertex GLP, ~200k queries
//   bench_query_kernel --ci       # small graph + regression gate:
//                                 # exits nonzero unless checksums agree
//                                 # and blocked is no slower than flat

#include <algorithm>
#include <cstdint>
#include <functional>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "eval/workload.h"
#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "labeling/builder.h"
#include "labeling/compressed_index.h"
#include "labeling/flat_label_store.h"
#include "labeling/query_kernel.h"
#include "labeling/two_hop_index.h"
#include "query/batch.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

/// Timed rounds per variant; the reported ns/query is their median.
constexpr int kRounds = 7;

/// One full pass over a query stream, returning the distance checksum.
using Pass = std::function<uint64_t(const std::vector<QueryPair>&)>;

/// Wraps a per-pair query in a pass whose loop is compiled per variant,
/// so the type erasure costs one indirect call per pass, not per query.
template <typename QueryFn>
Pass TimedPass(QueryFn query_fn) {
  return [query_fn](const std::vector<QueryPair>& pairs) {
    uint64_t sink = 0;
    for (const QueryPair& p : pairs) sink += query_fn(p.s, p.t);
    return sink;
  };
}

struct Variant {
  std::string name;
  /// Made active before every pass (the aos, stream and index legs
  /// dispatch through ActiveQueryKernel()).
  const QueryKernel* kernel;
  Pass pass;
  std::vector<double> ns;  // ns/query per round
  double median_ns = 0;
  uint64_t cache_misses = 0;   // summed over the timed rounds
  uint64_t branch_misses = 0;
};

int Run(int argc, char** argv) {
  CliFlags flags;
  flags.Define("n", "100000", "graph vertices (GLP)");
  flags.Define("avg-degree", "8", "graph average degree");
  flags.Define("seed", "7", "graph + workload seed");
  flags.Define("queries", "200000", "random point queries per variant");
  flags.Define("threads", "0", "builder threads (0 = all cores)");
  flags.Define("out", "BENCH_query_kernel.json",
               "machine-readable output path");
  flags.Define("ci", "false",
               "CI mode: small graph, short run, blocked>=flat gate");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::cout << flags.Usage(
        "bench_query_kernel — blocked/flat/compressed SIMD query kernels "
        "vs the old per-vertex-vector scalar path");
    return flags.help_requested() ? 0 : 1;
  }

  const bool ci = flags.GetBool("ci");
  const VertexId n = ci ? 20000 : static_cast<VertexId>(flags.GetUint("n"));
  const size_t num_queries =
      ci ? 50000 : static_cast<size_t>(flags.GetUint("queries"));
  const uint64_t seed = flags.GetUint("seed");

  GlpOptions glp;
  glp.num_vertices = n;
  glp.target_avg_degree = flags.GetDouble("avg-degree");
  glp.seed = seed;
  auto edges = GenerateGlp(glp);
  if (!edges.ok()) {
    std::cerr << "graph generation failed: " << edges.status() << "\n";
    return 1;
  }
  auto graph = CsrGraph::FromEdgeList(*edges);
  if (!graph.ok()) {
    std::cerr << "graph freeze failed: " << graph.status() << "\n";
    return 1;
  }
  auto ranked = RelabelByRank(*graph,
                              ComputeRanking(*graph, RankingPolicy::kDegree));
  if (!ranked.ok()) {
    std::cerr << "relabel failed: " << ranked.status() << "\n";
    return 1;
  }

  BuildOptions build;
  build.num_threads = static_cast<uint32_t>(flags.GetUint("threads"));
  std::cout << "building labels over |V|=" << n
            << " |E|=" << graph->num_edges() << " ..." << std::flush;
  Stopwatch build_watch;
  auto built = BuildHopLabeling(*ranked, build);
  if (!built.ok()) {
    std::cerr << "\nbuild failed: " << built.status() << "\n";
    return 1;
  }
  const double build_seconds = build_watch.Seconds();
  const TwoHopIndex index = std::move(built->index);
  const FlatLabelStore& flat = index.flat_store();
  std::cout << " done in " << FormatDouble(build_seconds, 1) << "s, avg |label| "
            << FormatDouble(index.AvgLabelSize(), 1) << "\n";

  // The same arenas through the pre-blocking lens: stripping the
  // sidecars makes QueryFlatHalves take the unblocked merge leg.
  const FlatLabelStore::LabelSetView blocked_view = flat.view();
  FlatLabelStore::LabelSetView flat_view = blocked_view;
  flat_view.block_min = nullptr;
  flat_view.block_max = nullptr;

  auto compressed = CompressedIndex::FromIndex(index);
  if (!compressed.ok()) {
    std::cerr << "compression failed: " << compressed.status() << "\n";
    return 1;
  }

  const std::vector<QueryPair> pairs = RandomPairs(n, num_queries, seed + 1);
  bench::PerfCounters counters;
  if (!counters.available()) {
    std::cout << "  (hardware counters unavailable — ns/query only)\n";
  }

  std::vector<Variant> variants;
  const auto add = [&variants](std::string name, const QueryKernel* kernel,
                               Pass pass) {
    Variant v;
    v.name = std::move(name);
    v.kernel = kernel;
    v.pass = std::move(pass);
    variants.push_back(std::move(v));
  };
  const QueryKernel* default_kernel = &ActiveQueryKernel();
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    // The pre-flat-store hot path: per-vertex heap vectors, AoS merge.
    add(std::string("aos/") + kernel->name, kernel,
        TimedPass([&](VertexId s, VertexId t) {
          return QueryLabelHalves(index.OutLabel(s), index.InLabel(t), s, t);
        }));
  }
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    add(std::string("flat/") + kernel->name, kernel,
        TimedPass([&, kernel](VertexId s, VertexId t) {
          return QueryFlatHalves(flat_view.Out(s), flat_view.In(t), s, t,
                                 *kernel);
        }));
  }
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    add(std::string("blocked/") + kernel->name, kernel,
        TimedPass([&, kernel](VertexId s, VertexId t) {
          return QueryFlatHalves(blocked_view.Out(s), blocked_view.In(t), s,
                                 t, *kernel);
        }));
  }
  // Every kernel shares the scalar stream merge, so one row covers it.
  add("stream/scalar", SupportedQueryKernels().front(),
      TimedPass([&](VertexId s, VertexId t) {
        return compressed->Query(s, t);
      }));
  add("index/default", default_kernel,
      TimedPass([&](VertexId s, VertexId t) { return index.Query(s, t); }));

  // One warmup pass per variant, then kRounds timed rounds. Each round
  // starts at a different variant so no variant always runs first, last
  // or right after the same neighbour; the per-variant median is the
  // reported figure and min/max show the round-to-round spread.
  const size_t warmup = std::min<size_t>(pairs.size(), 4096);
  const std::vector<QueryPair> warmup_pairs(pairs.begin(),
                                            pairs.begin() + warmup);
  for (Variant& v : variants) {
    SetActiveQueryKernel(v.kernel->name);
    v.pass(warmup_pairs);
  }
  const double per = static_cast<double>(pairs.size());
  bool checksums_agree = true;
  uint64_t reference_checksum = 0;
  for (int round = 0; round < kRounds; ++round) {
    const size_t offset = static_cast<size_t>(round) * variants.size() /
                          static_cast<size_t>(kRounds);
    for (size_t i = 0; i < variants.size(); ++i) {
      Variant& v = variants[(offset + i) % variants.size()];
      SetActiveQueryKernel(v.kernel->name);
      counters.Start();
      Stopwatch watch;
      const uint64_t checksum = v.pass(pairs);
      const double seconds = watch.Seconds();
      const bench::PerfCounters::Reading hw = counters.Stop();
      v.ns.push_back(seconds * 1e9 / per);
      v.cache_misses += hw.cache_misses;
      v.branch_misses += hw.branch_misses;
      // The checksum (sum of all distances, inf counted as-is) must be
      // identical across variants and rounds.
      if (round == 0 && i == 0) reference_checksum = checksum;
      if (checksum != reference_checksum) checksums_agree = false;
    }
  }
  SetActiveQueryKernel(default_kernel->name);
  if (!checksums_agree) {
    std::cerr << "FATAL: variants disagree on the distance checksum\n";
  }

  const double timed_queries = per * kRounds;
  const auto per_query = [&](uint64_t events) {
    return counters.available()
               ? static_cast<double>(events) / timed_queries
               : -1.0;
  };
  for (Variant& v : variants) {
    std::sort(v.ns.begin(), v.ns.end());
    v.median_ns = v.ns[v.ns.size() / 2];
    std::cout << "  " << v.name
              << std::string(18 - std::min<size_t>(17, v.name.size()), ' ')
              << FormatDouble(v.median_ns, 1) << " ns/query  ["
              << FormatDouble(v.ns.front(), 1) << " .. "
              << FormatDouble(v.ns.back(), 1) << "]";
    if (counters.available()) {
      std::cout << "  cm/q " << FormatDouble(per_query(v.cache_misses), 2)
                << "  bm/q " << FormatDouble(per_query(v.branch_misses), 2);
    }
    std::cout << "\n";
  }

  // The CI regression gate: blocking must never cost throughput
  // (median ns summed across kernels to damp single-variant noise).
  double flat_total_ns = 0;
  double blocked_total_ns = 0;
  for (const Variant& v : variants) {
    if (v.name.rfind("flat/", 0) == 0) flat_total_ns += v.median_ns;
    if (v.name.rfind("blocked/", 0) == 0) blocked_total_ns += v.median_ns;
  }
  const double blocked_vs_flat =
      blocked_total_ns > 0 ? flat_total_ns / blocked_total_ns : 0;
  bool gate_ok = true;
  if (ci) {
    if (blocked_vs_flat < 1.0) {
      std::cerr << "CI gate FAILED: blocked/flat speedup "
                << FormatDouble(blocked_vs_flat, 3) << " < 1.0\n";
      gate_ok = false;
    } else {
      std::cout << "  CI gate: blocked/flat speedup "
                << FormatDouble(blocked_vs_flat, 3) << " >= 1.0\n";
    }
  }

  // One-to-many row over the flat bucket arena (kernel-independent).
  double one_to_many_us = 0;
  {
    Rng rng(seed + 2);
    std::vector<VertexId> targets;
    for (int i = 0; i < 256; ++i) {
      targets.push_back(static_cast<VertexId>(rng.Below(n)));
    }
    OneToManyEngine engine(index, std::move(targets));
    const size_t rows = std::min<size_t>(pairs.size(), 2000);
    uint64_t sink = 0;
    Stopwatch watch;
    for (size_t i = 0; i < rows; ++i) {
      for (Distance d : engine.Query(pairs[i].s)) sink += d;
    }
    one_to_many_us = watch.Seconds() * 1e6 / static_cast<double>(rows);
    std::cout << "  one-to-many row (256 targets): "
              << FormatDouble(one_to_many_us, 1) << " us  [sink "
              << (sink & 0xff) << "]\n";
  }

  const double base = variants.front().median_ns;
  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"query_kernel\",\n"
      << "  \"ci_mode\": " << (ci ? "true" : "false") << ",\n"
      << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
      << "  \"graph\": {\"type\": \"glp\", \"n\": " << n
      << ", \"avg_degree\": " << FormatDouble(glp.target_avg_degree, 2)
      << ", \"seed\": " << seed << "},\n"
      << "  \"avg_label\": " << FormatDouble(index.AvgLabelSize(), 2) << ",\n"
      << "  \"build_seconds\": " << FormatDouble(build_seconds, 2) << ",\n"
      << "  \"queries\": " << pairs.size() << ",\n"
      << "  \"rounds\": " << kRounds << ",\n"
      << "  \"default_kernel\": \"" << default_kernel->name << "\",\n"
      << "  \"compressed_bytes\": " << compressed->SizeBytes() << ",\n"
      << "  \"perf_counters_available\": "
      << (counters.available() ? "true" : "false") << ",\n"
      << "  \"checksums_agree\": " << (checksums_agree ? "true" : "false")
      << ",\n"
      << "  \"blocked_vs_flat_speedup\": " << FormatDouble(blocked_vs_flat, 3)
      << ",\n"
      << "  \"one_to_many_row_us\": " << FormatDouble(one_to_many_us, 2)
      << ",\n"
      << "  \"variants\": [\n";
  for (size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    out << "    {\"name\": \"" << v.name << "\", \"ns_per_query\": "
        << FormatDouble(v.median_ns, 1) << ", \"ns_min\": "
        << FormatDouble(v.ns.front(), 1) << ", \"ns_max\": "
        << FormatDouble(v.ns.back(), 1) << ", \"speedup_vs_aos_scalar\": "
        << FormatDouble(base / v.median_ns, 3)
        << ", \"cache_misses_per_query\": "
        << FormatDouble(per_query(v.cache_misses), 2)
        << ", \"branch_misses_per_query\": "
        << FormatDouble(per_query(v.branch_misses), 2) << "}"
        << (i + 1 < variants.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return checksums_agree && gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
