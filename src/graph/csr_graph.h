// CsrGraph: the immutable compressed-sparse-row graph all algorithms run on.
//
// Both out-adjacency and in-adjacency are materialized: the labeling rules
// extend paths at either end (Rules 1/2 need in-neighbors, Rules 4/5 need
// out-neighbors), and bidirectional search needs both directions too.
// For undirected graphs the two adjacencies are identical and share storage.

#ifndef HOPDB_GRAPH_CSR_GRAPH_H_
#define HOPDB_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace hopdb {

/// One adjacency arc: target vertex and edge weight.
struct Arc {
  VertexId to;
  Distance weight;
};

/// Immutable CSR graph. Construct via FromEdgeList.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Freezes an edge list into CSR form. The edge list should already be
  /// Normalize()d (simple graph); this is verified in debug builds.
  static Result<CsrGraph> FromEdgeList(const EdgeList& edges);

  /// Adopts CSR arrays built elsewhere, for callers that already hold
  /// the adjacency per vertex (DynamicGraph). Each offsets array has
  /// |V| + 1 entries; each vertex's arcs are sorted by target with no
  /// duplicates or self-loops (verified in debug builds); the in-side
  /// arrays are empty when undirected, where arcs_out holds both
  /// orientations of every edge.
  static CsrGraph FromArrays(bool directed, bool weighted,
                             std::vector<uint64_t> offsets_out,
                             std::vector<Arc> arcs_out,
                             std::vector<uint64_t> offsets_in,
                             std::vector<Arc> arcs_in);

  VertexId num_vertices() const { return num_vertices_; }
  /// Number of directed arcs for directed graphs; number of undirected
  /// edges for undirected graphs (each stored as two arcs internally).
  uint64_t num_edges() const { return num_edges_; }
  bool directed() const { return directed_; }
  bool weighted() const { return weighted_; }

  /// Out-neighbors of u (for undirected graphs: all neighbors).
  std::span<const Arc> OutArcs(VertexId u) const {
    return {arcs_out_.data() + offsets_out_[u],
            offsets_out_[u + 1] - offsets_out_[u]};
  }

  /// In-neighbors of u (for undirected graphs: all neighbors).
  std::span<const Arc> InArcs(VertexId u) const {
    if (!directed_) return OutArcs(u);
    return {arcs_in_.data() + offsets_in_[u],
            offsets_in_[u + 1] - offsets_in_[u]};
  }

  uint32_t OutDegree(VertexId u) const {
    return static_cast<uint32_t>(offsets_out_[u + 1] - offsets_out_[u]);
  }

  uint32_t InDegree(VertexId u) const {
    if (!directed_) return OutDegree(u);
    return static_cast<uint32_t>(offsets_in_[u + 1] - offsets_in_[u]);
  }

  /// Total degree: in + out for directed graphs, neighbor count for
  /// undirected ones.
  uint32_t Degree(VertexId u) const {
    return directed_ ? OutDegree(u) + InDegree(u) : OutDegree(u);
  }

  uint32_t MaxDegree() const;

  /// Returns the weight of arc u->v, or kInfDistance if absent.
  Distance ArcWeight(VertexId u, VertexId v) const;

  /// Converts back to an edge list (undirected edges emitted once).
  EdgeList ToEdgeList() const;

  /// In-memory footprint of the CSR arrays.
  uint64_t SizeBytes() const;

  /// Graph size under the paper's accounting (32-bit vertex ids, 8-bit
  /// weights): what the "|G| (MB)" column of Table 6 reports.
  uint64_t PaperSizeBytes() const;

 private:
  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  bool directed_ = true;
  bool weighted_ = false;
  std::vector<uint64_t> offsets_out_;
  std::vector<Arc> arcs_out_;
  std::vector<uint64_t> offsets_in_;  // empty when undirected
  std::vector<Arc> arcs_in_;          // empty when undirected
};

}  // namespace hopdb

#endif  // HOPDB_GRAPH_CSR_GRAPH_H_
