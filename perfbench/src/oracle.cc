#include "oracle.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

uint64_t EdgeKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

EditStream MakeEditStream(const hopdb::EdgeList& base, uint64_t seed,
                          uint32_t num_edits, uint32_t delete_every,
                          uint32_t commit_every) {
  EditStream stream;
  stream.commit_every = commit_every;
  std::vector<uint64_t> present;
  present.reserve(base.num_edges() + num_edits);
  std::unordered_map<uint64_t, size_t> where;
  where.reserve(2 * (base.num_edges() + num_edits));
  for (const hopdb::Edge& e : base.edges()) {
    where.emplace(EdgeKey(e.src, e.dst), present.size());
    present.push_back(EdgeKey(e.src, e.dst));
  }
  hopdb::Rng rng(seed);
  const VertexId n = base.num_vertices();
  for (uint32_t i = 0; i < num_edits; ++i) {
    Edit edit;
    if (delete_every > 0 && i % delete_every == delete_every - 1) {
      // Delete an edge present at this point; swap-remove keeps the
      // draw uniform over the current edge set.
      const size_t pick = rng.Below(present.size());
      const uint64_t key = present[pick];
      edit.del = true;
      edit.u = static_cast<VertexId>(key >> 32);
      edit.v = static_cast<VertexId>(key & 0xffffffffu);
      where[present.back()] = pick;
      present[pick] = present.back();
      present.pop_back();
      where.erase(key);
    } else {
      VertexId u = 0;
      VertexId v = 0;
      do {
        u = static_cast<VertexId>(rng.Below(n));
        v = static_cast<VertexId>(rng.Below(n));
      } while (u == v || where.count(EdgeKey(u, v)) != 0);
      edit.u = u;
      edit.v = v;
      where.emplace(EdgeKey(u, v), present.size());
      present.push_back(EdgeKey(u, v));
    }
    stream.edits.push_back(edit);
  }
  return stream;
}

Oracle::Oracle(const hopdb::EdgeList& base, const EditStream& stream)
    : n_(base.num_vertices()) {
  std::unordered_set<uint64_t> edges;
  edges.reserve(2 * (base.num_edges() + stream.edits.size()));
  for (const hopdb::Edge& e : base.edges()) edges.insert(EdgeKey(e.src, e.dst));
  const auto snapshot = [&]() {
    std::vector<std::pair<VertexId, VertexId>> list;
    list.reserve(edges.size());
    for (uint64_t key : edges) {
      list.emplace_back(static_cast<VertexId>(key >> 32),
                        static_cast<VertexId>(key & 0xffffffffu));
    }
    versions_.push_back(MakeCsr(n_, list));
  };
  snapshot();
  for (size_t i = 0; i < stream.edits.size(); ++i) {
    const Edit& edit = stream.edits[i];
    if (edit.del) {
      edges.erase(EdgeKey(edit.u, edit.v));
    } else {
      edges.insert(EdgeKey(edit.u, edit.v));
    }
    if ((i + 1) % stream.commit_every == 0) snapshot();
  }
}

Oracle::Csr Oracle::MakeCsr(
    VertexId n, const std::vector<std::pair<VertexId, VertexId>>& edges) {
  Csr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& [a, b] : edges) {
    csr.offsets[a + 1]++;
    csr.offsets[b + 1]++;
  }
  for (size_t v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
  csr.targets.resize(csr.offsets[n]);
  std::vector<uint64_t> fill(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [a, b] : edges) {
    csr.targets[fill[a]++] = b;
    csr.targets[fill[b]++] = a;
  }
  return csr;
}

void Oracle::Bfs(uint32_t version, VertexId s,
                 std::vector<Distance>* dist) const {
  const Csr& g = versions_[version];
  dist->assign(n_, hopdb::kInfDistance);
  std::vector<VertexId> frontier{s};
  std::vector<VertexId> next;
  (*dist)[s] = 0;
  Distance level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (VertexId u : frontier) {
      for (uint64_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
        const VertexId w = g.targets[i];
        if ((*dist)[w] == hopdb::kInfDistance) {
          (*dist)[w] = level;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
}

std::set<std::pair<int, uint64_t>> Oracle::Check(
    const std::vector<Claim>& claims) {
  std::set<std::pair<int, uint64_t>> failed;
  // One BFS per (source, version) the claims need: group by source.
  std::vector<size_t> order(claims.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&claims](size_t a, size_t b) {
    return claims[a].s < claims[b].s;
  });
  std::vector<std::vector<Distance>> dist(num_versions());
  std::vector<bool> ready(num_versions(), false);
  VertexId current = 0;
  bool have_source = false;
  for (size_t idx : order) {
    const Claim& c = claims[idx];
    if (!have_source || c.s != current) {
      current = c.s;
      have_source = true;
      std::fill(ready.begin(), ready.end(), false);
    }
    bool ok = false;
    const uint32_t hi = std::min(c.v_hi, final_version());
    for (uint32_t v = std::min(c.v_lo, hi); v <= hi && !ok; ++v) {
      if (!ready[v]) {
        Bfs(v, c.s, &dist[v]);
        ready[v] = true;
      }
      ok = c.t < n_ && dist[v][c.t] == c.answer;
    }
    if (!ok) failed.emplace(c.op_type, c.op_id);
  }
  return failed;
}

bool Oracle::SelfTest(const std::vector<Claim>& claims) {
  std::vector<Claim> sample(claims.begin(),
                            claims.begin() + std::min<size_t>(8, claims.size()));
  if (sample.empty()) return false;
  const size_t baseline = Check(sample).size();
  Claim& altered = sample[sample.size() / 2];
  altered.answer = altered.answer == hopdb::kInfDistance ? 1 : altered.answer + 1;
  // Keep the altered claim's operation distinct from the others so it
  // can only add one failure.
  altered.op_id = ~uint64_t{0};
  altered.op_type = -1;
  return Check(sample).size() == baseline + 1;
}

}  // namespace perfbench
