#include "eval/datasets.h"

#include <algorithm>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/graph_io.h"
#include "util/logging.h"
#include "util/random.h"

namespace hopdb {

namespace {

std::vector<DatasetSpec> MakeTable6Datasets() {
  // name, group, directed, weighted, paper |V|, paper |E|,
  // stand-in |V| (scale 1.0), stand-in |E|/|V|, tier, seed.
  // Stand-in sizes keep the paper's |V| whenever that is laptop-feasible
  // and otherwise shrink |V| (and for the two rating/social graphs with
  // |E|/|V| > 100, the density) while preserving the density ordering of
  // the paper's table. Tier 0 runs by default; tiers 1-3 opt in via
  // flags (--tier). The eval runbook in docs/OPERATIONS.md records the
  // substitution.
  return {
      // --- undirected unweighted -------------------------------------
      {"Delicious", "undirected unweighted", false, false, 5300000,
       602000000, 100000, 50.0, 3, 101},
      {"BTC", "undirected unweighted", false, false, 168000000, 361000000,
       400000, 2.1, 2, 102},
      {"FlickrLink", "undirected unweighted", false, false, 1700000,
       31000000, 300000, 18.0, 2, 103},
      {"Skitter", "undirected unweighted", false, false, 1700000, 22000000,
       300000, 13.0, 2, 104},
      {"CatDog", "undirected unweighted", false, false, 624000, 16000000,
       200000, 26.0, 2, 105},
      {"Cat", "undirected unweighted", false, false, 150000, 5000000,
       150000, 20.0, 2, 106},
      {"Flickr", "undirected unweighted", false, false, 106000, 2000000,
       106000, 19.0, 1, 107},
      {"Enron", "undirected unweighted", false, false, 37000, 368000,
       37000, 10.0, 0, 108},
      // --- directed unweighted ---------------------------------------
      {"wikiEng", "directed unweighted", true, false, 17000000, 240000000,
       300000, 14.0, 2, 201},
      {"wikiFr", "directed unweighted", true, false, 5100000, 113000000,
       150000, 22.0, 2, 202},
      {"wikiItaly", "directed unweighted", true, false, 2900000, 105000000,
       100000, 36.0, 3, 203},
      {"Baidu", "directed unweighted", true, false, 2100000, 18000000,
       150000, 8.6, 1, 204},
      {"gplus", "directed unweighted", true, false, 102000, 14000000,
       50000, 30.0, 2, 205},
      {"wikiTalk", "directed unweighted", true, false, 2400000, 5000000,
       150000, 2.1, 1, 206},
      {"slashdot", "directed unweighted", true, false, 77000, 517000,
       77000, 6.7, 0, 207},
      {"epinions", "directed unweighted", true, false, 76000, 509000,
       76000, 6.7, 0, 208},
      {"EuAll", "directed unweighted", true, false, 265000, 420000, 265000,
       1.6, 0, 209},
      // --- synthetic (GLP; the paper's own generator) ----------------
      {"syn1", "synthetic", false, false, 10000000, 700000000, 100000,
       70.0, 3, 301},
      {"syn2", "synthetic", false, false, 20000000, 600000000, 150000,
       30.0, 3, 302},
      {"syn3", "synthetic", false, false, 15000000, 450000000, 120000,
       30.0, 3, 303},
      {"syn4", "synthetic", false, false, 10000000, 200000000, 150000,
       20.0, 3, 304},
      {"syn5", "synthetic", false, false, 1000000, 5000000, 300000, 5.0, 1,
       305},
      {"syn6", "synthetic", false, false, 100000, 1000000, 100000, 10.0, 0,
       306},
      // --- undirected weighted ---------------------------------------
      {"amaRating", "undirected weighted", false, true, 3300000, 11000000,
       150000, 3.3, 1, 401},
      {"epinRating", "undirected weighted", false, true, 876000, 27000000,
       80000, 31.0, 2, 402},
      {"movRating", "undirected weighted", false, true, 9746, 2000000,
       9746, 40.0, 1, 403},
      {"bookRating", "undirected weighted", false, true, 264000, 867000,
       100000, 3.3, 0, 404},
  };
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

const std::vector<DatasetSpec>& Table6Datasets() {
  static const std::vector<DatasetSpec>* datasets =
      new std::vector<DatasetSpec>(MakeTable6Datasets());
  return *datasets;
}

const DatasetSpec* FindDataset(const std::string& name) {
  for (const DatasetSpec& spec : Table6Datasets()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Result<CsrGraph> LoadDataset(const DatasetSpec& spec,
                             const LoadOptions& options) {
  // Real data, if provided.
  if (!options.data_dir.empty()) {
    std::string path = options.data_dir + "/" + spec.name + ".txt";
    if (FileExists(path)) {
      TextGraphOptions topt;
      topt.directed = spec.directed;
      topt.read_weights = spec.weighted;
      HOPDB_ASSIGN_OR_RETURN(EdgeList edges, ReadTextEdgeList(path, topt));
      return CsrGraph::FromEdgeList(edges);
    }
  }

  // GLP stand-in.
  double scale = options.scale > 0 ? options.scale : 1.0;
  GlpOptions glp;
  glp.num_vertices = static_cast<VertexId>(
      std::max<double>(100.0, spec.sim_vertices * scale));
  glp.target_avg_degree = spec.sim_avg_degree;
  glp.seed = spec.seed;

  EdgeList edges;
  if (spec.directed) {
    HOPDB_ASSIGN_OR_RETURN(edges, GenerateDirectedGlp(glp));
  } else {
    HOPDB_ASSIGN_OR_RETURN(edges, GenerateGlp(glp));
  }
  if (spec.weighted) {
    AssignRatingWeights(&edges, /*max_w=*/10, DeriveSeed(spec.seed, 5));
  }
  return CsrGraph::FromEdgeList(edges);
}

}  // namespace hopdb
