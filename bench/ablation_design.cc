// Ablations for the design choices the paper's method rests on:
//   1. pruning off vs on              (Section 3.3 is what keeps labels small)
//   2. candidate witnesses off vs on  (Section 4.2's outer-block detail)
//   3. ranking policy                 (degree vs in×out product vs identity)
//   4. hybrid switch iteration sweep  (Section 5.4's "first 10 iterations")
//   5. bit-parallel post-processing   (Section 6: size and query effects)

#include <cstdio>

#include "bench_common.h"
#include "eval/workload.h"
#include "gen/glp.h"
#include "labeling/bit_parallel.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace hopdb {
namespace bench {
namespace {

Result<CsrGraph> StandIn(const BenchEnv& env, bool directed) {
  GlpOptions glp;
  glp.num_vertices =
      static_cast<VertexId>(30000 * env.scale);
  glp.target_avg_degree = 8;
  glp.seed = 424242;
  EdgeList edges;
  if (directed) {
    HOPDB_ASSIGN_OR_RETURN(edges, GenerateDirectedGlp(glp));
  } else {
    HOPDB_ASSIGN_OR_RETURN(edges, GenerateGlp(glp));
  }
  return CsrGraph::FromEdgeList(edges);
}

Result<CsrGraph> Ranked(const CsrGraph& g, RankingPolicy policy) {
  return RelabelByRank(g, ComputeRanking(g, policy));
}

/// A uniformly random order — the honest "no ranking" control (identity
/// order is NOT neutral on generated graphs: GLP's oldest vertices are
/// its hubs, so identity accidentally approximates degree order).
Result<CsrGraph> RandomOrder(const CsrGraph& g, uint64_t seed) {
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  Rng rng(seed);
  for (VertexId i = g.num_vertices(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return RelabelByRank(g, RankingFromOrder(std::move(order)));
}

void AblatePruning(const CsrGraph& ranked, double budget) {
  std::printf("1) Label pruning (Section 3.3):\n");
  AsciiTable table({"config", "entries", "avg |label|", "build s", "iters"});
  for (bool prune : {true, false}) {
    BuildOptions opts;
    opts.prune = prune;
    opts.time_budget_seconds = budget;
    // Unpruned label sets grow without bound on scale-free graphs; stop
    // after a few iterations to show the divergence.
    if (!prune) opts.max_iterations = 4;
    auto out = BuildHopLabeling(ranked, opts);
    if (!out.ok()) {
      table.AddRow({prune ? "prune on" : "prune off (4 iters)",
                    AsciiTable::Dash(), AsciiTable::Dash(),
                    AsciiTable::Dash(), AsciiTable::Dash()});
      continue;
    }
    table.AddRow({prune ? "prune on (complete)" : "prune off (4 iters!)",
                  HumanCount(out->index.TotalEntries()),
                  FormatDouble(out->index.AvgLabelSize(), 1),
                  FormatDouble(out->stats.total_seconds, 2),
                  std::to_string(out->stats.num_rule_iterations)});
  }
  table.Print();
  std::printf("\n");
}

void AblateWitnesses(const CsrGraph& ranked, double budget) {
  std::printf("2) Pruning witnesses include this iteration's candidates:\n");
  AsciiTable table({"config", "entries", "build s"});
  for (bool with : {true, false}) {
    BuildOptions opts;
    opts.prune_with_candidates = with;
    opts.time_budget_seconds = budget;
    auto out = BuildHopLabeling(ranked, opts);
    if (!out.ok()) continue;
    table.AddRow({with ? "old + candidates (default)" : "old entries only",
                  HumanCount(out->index.TotalEntries()),
                  FormatDouble(out->stats.total_seconds, 2)});
  }
  table.Print();
  std::printf("\n");
}

void AblateRanking(const CsrGraph& base, double budget) {
  std::printf("3) Vertex ranking policy (directed graph):\n");
  AsciiTable table({"ranking", "entries", "avg |label|", "build s"});
  struct Row {
    const char* name;
    RankingPolicy policy;
  };
  for (const Row& row : {Row{"in x out product (paper)",
                             RankingPolicy::kInOutProduct},
                         Row{"total degree", RankingPolicy::kDegree},
                         Row{"random order (control)",
                             RankingPolicy::kIdentity}}) {
    auto ranked = row.policy == RankingPolicy::kIdentity
                      ? RandomOrder(base, 31337)
                      : Ranked(base, row.policy);
    ranked.status().CheckOK();
    BuildOptions opts;
    opts.time_budget_seconds = budget;
    auto out = BuildHopLabeling(*ranked, opts);
    if (!out.ok()) {
      table.AddRow({row.name, AsciiTable::Dash(), AsciiTable::Dash(),
                    AsciiTable::Dash()});
      continue;
    }
    table.AddRow({row.name, HumanCount(out->index.TotalEntries()),
                  FormatDouble(out->index.AvgLabelSize(), 1),
                  FormatDouble(out->stats.total_seconds, 2)});
  }
  table.Print();
  std::printf("\n");
}

void AblateSwitchPoint(const CsrGraph& ranked, double budget) {
  std::printf("4) Hybrid switch iteration (Section 5.4, default 10):\n");
  AsciiTable table({"switch after", "build s", "iterations",
                    "peak candidates"});
  for (uint32_t sw : {1u, 2u, 5u, 10u, 20u}) {
    BuildOptions opts;
    opts.mode = BuildMode::kHybrid;
    opts.hybrid_switch_iteration = sw;
    opts.time_budget_seconds = budget;
    auto out = BuildHopLabeling(ranked, opts);
    if (!out.ok()) {
      table.AddRow({std::to_string(sw), AsciiTable::Dash(),
                    AsciiTable::Dash(), AsciiTable::Dash()});
      continue;
    }
    table.AddRow({std::to_string(sw),
                  FormatDouble(out->stats.total_seconds, 2),
                  std::to_string(out->stats.num_rule_iterations),
                  HumanCount(out->stats.peak_candidates)});
  }
  table.Print();
  std::printf("\n");
}

void AblateBitParallel(const CsrGraph& ranked, size_t queries) {
  std::printf("5) Bit-parallel post-processing (Section 6):\n");
  auto out = BuildHopLabeling(ranked, {});
  out.status().CheckOK();
  TwoHopIndex plain = out->index;
  auto pairs = RandomPairs(ranked.num_vertices(), queries, 99);
  QueryTiming plain_t = TimeQueries(pairs, [&](VertexId s, VertexId t) {
    return plain.Query(s, t);
  });
  auto bp = BitParallelIndex::Transform(std::move(out->index), ranked, {});
  bp.status().CheckOK();
  QueryTiming bp_t = TimeQueries(pairs, [&](VertexId s, VertexId t) {
    return bp->Query(s, t);
  });
  HOPDB_CHECK_EQ(plain_t.checksum, bp_t.checksum)
      << "BP transform changed answers";
  AsciiTable table({"index", "normal entries", "bp tuples", "size MB",
                    "query us"});
  table.AddRow({"2-hop labels", HumanCount(plain.TotalEntries()), "0",
                Mb(plain.PaperSizeBytes()), FormatDouble(plain_t.avg_micros,
                                                         2)});
  table.AddRow({"bit-parallel", HumanCount(bp->NormalEntries()),
                HumanCount(bp->BpTuples()), Mb(bp->PaperSizeBytes()),
                FormatDouble(bp_t.avg_micros, 2)});
  table.Print();
  std::printf("\n");
}

int Run(int argc, char** argv) {
  BenchEnv env;
  if (!InitBenchEnv(argc, argv,
                    "ablation_design: ablations for the design choices "
                    "the paper's method rests on",
                    &env)) {
    return 0;
  }
  std::printf("Design ablations (GLP stand-in, |V|=%d)\n\n",
              static_cast<int>(30000 * env.scale));
  auto undirected = StandIn(env, /*directed=*/false);
  undirected.status().CheckOK();
  auto directed = StandIn(env, /*directed=*/true);
  directed.status().CheckOK();
  auto ranked_und = Ranked(*undirected, RankingPolicy::kDegree);
  ranked_und.status().CheckOK();

  AblatePruning(*ranked_und, env.budget_seconds);
  AblateWitnesses(*ranked_und, env.budget_seconds);
  AblateRanking(*directed, env.budget_seconds);
  AblateSwitchPoint(*ranked_und, env.budget_seconds);
  AblateBitParallel(*ranked_und, env.queries);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::bench::Run(argc, argv); }
