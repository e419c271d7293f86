#include "graph/csr_graph.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hopdb {

Result<CsrGraph> CsrGraph::FromEdgeList(const EdgeList& edges) {
  HOPDB_RETURN_NOT_OK(edges.Validate());
  CsrGraph g;
  g.num_vertices_ = edges.num_vertices();
  g.directed_ = edges.directed();
  g.weighted_ = edges.weighted();

  const VertexId n = g.num_vertices_;
  const auto& es = edges.edges();

  // Counting pass.
  std::vector<uint64_t> out_count(n + 1, 0);
  std::vector<uint64_t> in_count(g.directed_ ? n + 1 : 0, 0);
  for (const Edge& e : es) {
    out_count[e.src]++;
    if (g.directed_) {
      in_count[e.dst]++;
    } else {
      out_count[e.dst]++;  // undirected: both endpoints see the arc
    }
  }

  g.offsets_out_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    g.offsets_out_[v + 1] = g.offsets_out_[v] + out_count[v];
  }
  g.arcs_out_.resize(g.offsets_out_[n]);

  if (g.directed_) {
    g.offsets_in_.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      g.offsets_in_[v + 1] = g.offsets_in_[v] + in_count[v];
    }
    g.arcs_in_.resize(g.offsets_in_[n]);
  }

  // Filling pass.
  std::vector<uint64_t> out_pos(g.offsets_out_.begin(), g.offsets_out_.end() - 1);
  std::vector<uint64_t> in_pos;
  if (g.directed_) {
    in_pos.assign(g.offsets_in_.begin(), g.offsets_in_.end() - 1);
  }
  for (const Edge& e : es) {
    g.arcs_out_[out_pos[e.src]++] = Arc{e.dst, e.weight};
    if (g.directed_) {
      g.arcs_in_[in_pos[e.dst]++] = Arc{e.src, e.weight};
    } else {
      g.arcs_out_[out_pos[e.dst]++] = Arc{e.src, e.weight};
    }
  }

  // Sort adjacency by target id so neighborhood scans and ArcWeight lookups
  // are deterministic and binary-searchable.
  auto sort_range = [](std::vector<Arc>& arcs, const std::vector<uint64_t>& off,
                       VertexId nv) {
    for (VertexId v = 0; v < nv; ++v) {
      std::sort(arcs.begin() + static_cast<ptrdiff_t>(off[v]),
                arcs.begin() + static_cast<ptrdiff_t>(off[v + 1]),
                [](const Arc& a, const Arc& b) { return a.to < b.to; });
    }
  };
  sort_range(g.arcs_out_, g.offsets_out_, n);
  if (g.directed_) sort_range(g.arcs_in_, g.offsets_in_, n);

#ifndef NDEBUG
  // A Normalize()d edge list yields no duplicate targets per vertex.
  for (VertexId v = 0; v < n; ++v) {
    auto span = g.OutArcs(v);
    for (size_t i = 1; i < span.size(); ++i) {
      HOPDB_DCHECK_LT(span[i - 1].to, span[i].to)
          << "duplicate/parallel arc at vertex " << v;
    }
  }
#endif

  g.num_edges_ = es.size();
  return g;
}

CsrGraph CsrGraph::FromArrays(bool directed, bool weighted,
                              std::vector<uint64_t> offsets_out,
                              std::vector<Arc> arcs_out,
                              std::vector<uint64_t> offsets_in,
                              std::vector<Arc> arcs_in) {
  CsrGraph g;
  g.num_vertices_ = static_cast<VertexId>(offsets_out.size() - 1);
  g.num_edges_ = directed ? arcs_out.size() : arcs_out.size() / 2;
  g.directed_ = directed;
  g.weighted_ = weighted;
  g.offsets_out_ = std::move(offsets_out);
  g.arcs_out_ = std::move(arcs_out);
  g.offsets_in_ = std::move(offsets_in);
  g.arcs_in_ = std::move(arcs_in);
#ifndef NDEBUG
  for (VertexId v = 0; v < g.num_vertices_; ++v) {
    for (const std::span<const Arc> span : {g.OutArcs(v), g.InArcs(v)}) {
      for (size_t i = 0; i < span.size(); ++i) {
        HOPDB_DCHECK_NE(span[i].to, v) << "self-loop at vertex " << v;
        if (i > 0) {
          HOPDB_DCHECK_LT(span[i - 1].to, span[i].to)
              << "unsorted or parallel arc at vertex " << v;
        }
      }
    }
  }
#endif
  return g;
}

uint32_t CsrGraph::MaxDegree() const {
  uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

Distance CsrGraph::ArcWeight(VertexId u, VertexId v) const {
  auto arcs = OutArcs(u);
  auto it = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, VertexId target) { return a.to < target; });
  if (it != arcs.end() && it->to == v) return it->weight;
  return kInfDistance;
}

EdgeList CsrGraph::ToEdgeList() const {
  EdgeList out(num_vertices_, directed_);
  out.set_weighted(weighted_);
  for (VertexId u = 0; u < num_vertices_; ++u) {
    for (const Arc& a : OutArcs(u)) {
      if (!directed_ && a.to < u) continue;  // emit undirected edges once
      out.Add(u, a.to, a.weight);
    }
  }
  return out;
}

uint64_t CsrGraph::SizeBytes() const {
  return offsets_out_.size() * sizeof(uint64_t) +
         arcs_out_.size() * sizeof(Arc) +
         offsets_in_.size() * sizeof(uint64_t) + arcs_in_.size() * sizeof(Arc);
}

uint64_t CsrGraph::PaperSizeBytes() const {
  // 32-bit per endpoint + 8-bit distance per stored edge.
  return num_edges_ * 9ULL;
}

}  // namespace hopdb
