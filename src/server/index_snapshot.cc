#include "server/index_snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "query/batch.h"
#include "util/logging.h"

namespace hopdb {

Distance ServingSnapshot::Query(VertexId s, VertexId t) const {
  const VertexId n = num_vertices();
  if (s >= n || t >= n) return kInfDistance;
  return mapped() ? mapped_->Query(s, t) : index_.Query(s, t);
}

uint64_t ServingSnapshot::ResidentBytes() const {
  return mapped() ? mapped_->ResidentBytes()
                  : index_.label_index().SizeBytes();
}

const HopDbIndex& ServingSnapshot::index() const {
  HOPDB_CHECK(!mapped())
      << "ServingSnapshot::index() on an mmap-backed snapshot";
  return index_;
}

std::vector<Distance> ServingSnapshot::QueryOneToMany(
    VertexId s, const std::vector<VertexId>& targets) const {
  const auto to_internal = [this](VertexId v) {
    return mapped() ? mapped_->ToInternal(v) : index_.ranking().ToInternal(v);
  };
  std::vector<VertexId> internal;
  internal.reserve(targets.size());
  for (VertexId t : targets) internal.push_back(to_internal(t));
  OneToManyEngine engine =
      mapped() ? OneToManyEngine(mapped_->labels(), std::move(internal))
               : OneToManyEngine(index_.label_index(), std::move(internal));
  return engine.Query(to_internal(s));
}

std::vector<std::pair<VertexId, Distance>> ServingSnapshot::QueryKnn(
    VertexId s, uint32_t k) const {
  const KnnEngine& engine = knn_engine();
  const VertexId internal_s =
      mapped() ? mapped_->ToInternal(s) : index_.ranking().ToInternal(s);
  const std::vector<KnnEngine::Neighbor> neighbors =
      engine.Query(internal_s, k);
  std::vector<std::pair<VertexId, Distance>> result;
  result.reserve(neighbors.size());
  for (const KnnEngine::Neighbor& nb : neighbors) {
    const VertexId orig = mapped() ? mapped_->ToOriginal(nb.vertex)
                                   : index_.ranking().ToOriginal(nb.vertex);
    result.emplace_back(orig, nb.dist);
  }
  return result;
}

std::vector<std::pair<VertexId, Distance>> ServingSnapshot::QueryWithin(
    VertexId s, Distance radius) const {
  const KnnEngine& engine = knn_engine();
  const VertexId internal_s =
      mapped() ? mapped_->ToInternal(s) : index_.ranking().ToInternal(s);
  const std::vector<KnnEngine::Neighbor> neighbors =
      engine.QueryWithin(internal_s, radius);
  std::vector<std::pair<VertexId, Distance>> result;
  result.reserve(neighbors.size());
  for (const KnnEngine::Neighbor& nb : neighbors) {
    const VertexId orig = mapped() ? mapped_->ToOriginal(nb.vertex)
                                   : index_.ranking().ToOriginal(nb.vertex);
    result.emplace_back(orig, nb.dist);
  }
  // The engine orders by (distance, internal id); re-sort the vertex
  // tiebreak into original-id space so the wire answer is deterministic
  // in the ids clients actually see.
  std::sort(result.begin(), result.end(),
            [](const std::pair<VertexId, Distance>& a,
               const std::pair<VertexId, Distance>& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return result;
}

Result<std::vector<VertexId>> ServingSnapshot::QueryPath(VertexId s,
                                                         VertexId t) const {
  if (!HasPathGraph()) {
    return Status::FailedPrecondition(
        "PATH needs the build graph; serve this index with --graph "
        "(heap-backed indexes only)");
  }
  std::call_once(path_once_, [this] {
    auto querier = HopDbPathQuerier::Create(index_, *path_graph_);
    if (querier.ok()) {
      path_ = std::make_unique<HopDbPathQuerier>(std::move(*querier));
    } else {
      path_status_ = querier.status();
    }
  });
  if (path_ == nullptr) return path_status_;
  return path_->ShortestPath(s, t);
}

const KnnEngine& ServingSnapshot::knn_engine() const {
  std::call_once(knn_once_, [this] {
    if (mapped()) {
      knn_ = std::make_unique<KnnEngine>(mapped_->labels(),
                                         KnnEngine::Direction::kForward);
    } else {
      knn_ = std::make_unique<KnnEngine>(index_.label_index(),
                                         KnnEngine::Direction::kForward);
    }
  });
  return *knn_;
}

}  // namespace hopdb
