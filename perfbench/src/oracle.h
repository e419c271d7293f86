// The benchmark's own answer checker: a BFS over the benchmark's copy of
// the edge list, with the seeded edit stream applied one COMMIT at a
// time. Version 0 is the generated graph; version k is the graph after
// the k-th COMMIT of the write stream.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/edge_list.h"

namespace perfbench {

/// One edge edit of the write stream (original vertex ids).
struct Edit {
  bool del = false;
  VertexId u = 0;
  VertexId v = 0;
};

/// The seeded write stream: ADDEDGE of an absent pair or DELEDGE of an
/// edge present at that point; `delete_every`-th edits are deletes and
/// a COMMIT follows every `commit_every` edits. `num_edits` is a
/// multiple of `commit_every`, so the stream ends committed.
struct EditStream {
  std::vector<Edit> edits;
  uint32_t commit_every = 1;
  size_t num_commits() const { return edits.size() / commit_every; }
};

EditStream MakeEditStream(const hopdb::EdgeList& base, uint64_t seed,
                          uint32_t num_edits, uint32_t delete_every,
                          uint32_t commit_every);

/// A distance answer to check: the reply for (s, t) must equal the BFS
/// distance in at least one graph version in [v_lo, v_hi]. `op` names
/// the operation it belongs to; several claims of one operation (the
/// rows of a BATCH) fail it once.
struct Claim {
  VertexId s = 0;
  VertexId t = 0;
  Distance answer = 0;
  uint32_t v_lo = 0;
  uint32_t v_hi = 0;
  int op_type = 0;
  uint64_t op_id = 0;
};

class Oracle {
 public:
  /// `base` must be normalized and undirected.
  Oracle(const hopdb::EdgeList& base, const EditStream& stream);

  uint32_t num_versions() const {
    return static_cast<uint32_t>(versions_.size());
  }
  uint32_t final_version() const { return num_versions() - 1; }

  /// Checks every claim; returns the failed (op_type, op_id) pairs.
  std::set<std::pair<int, uint64_t>> Check(const std::vector<Claim>& claims);

  /// Feeds Check() the first claims with one answer altered and returns
  /// true iff exactly one more operation fails than without the change.
  bool SelfTest(const std::vector<Claim>& claims);

 private:
  struct Csr {
    std::vector<uint64_t> offsets;
    std::vector<VertexId> targets;
  };
  static Csr MakeCsr(VertexId n,
                     const std::vector<std::pair<VertexId, VertexId>>& edges);
  void Bfs(uint32_t version, VertexId s, std::vector<Distance>* dist) const;

  VertexId n_ = 0;
  std::vector<Csr> versions_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
