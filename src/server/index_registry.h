// Named multi-index registry: one RCU-style IndexHandle per index name,
// so a single server can hold many graphs hot at once.
//
// The registry is a thin concurrent map from name to the existing
// hot-swap machinery (index_snapshot.h): every name owns its own
// IndexHandle, so per-index RELOAD/ATTACH/DETACH never disturbs queries
// on other indexes, and DETACH is safe against in-flight queries — a
// worker that already holds the snapshot's shared_ptr finishes on it,
// and the index is freed when the last reference drops. One index is the
// DEFAULT ("default"): unprefixed DIST/BATCH/KNN/RELOAD route to it, and
// it cannot be detached (a serving process always has an index).
//
// Index names are restricted to [A-Za-z0-9_.-], at most 64 chars, so
// they embed cleanly in STATS key=value payloads and ATTACH lines.

#ifndef HOPDB_SERVER_INDEX_REGISTRY_H_
#define HOPDB_SERVER_INDEX_REGISTRY_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/index_snapshot.h"
#include "util/status.h"

namespace hopdb {

/// The reserved name unprefixed requests route to. A std::string so the
/// per-request registry lookup compares/finds without materializing a
/// temporary.
inline const std::string kDefaultIndexName = "default";

/// Validates an ATTACH/USE index name: 1-64 chars of [A-Za-z0-9_.-].
/// InvalidArgument (with a client-safe message) otherwise.
Status ValidateIndexName(const std::string& name);

/// Loads a serving snapshot from any index file format, dispatching on
/// the file magic: "HLI2" opens a zero-copy MappedIndex (O(|V|)
/// metadata validation, no deserialization), anything else goes through
/// HopDbIndex::Load (HLI1/HLC1 + .perm sidecar, O(total entries)).
/// The returned snapshot records `path` as its reload source.
/// A non-empty `graph_path` loads the index's build graph (original
/// ids) alongside a heap-backed snapshot so it can answer PATH; it is
/// ignored for mmap-backed (HLI2) indexes, which cannot host the path
/// engine (their PATH answers stay FailedPrecondition).
Result<std::shared_ptr<const ServingSnapshot>> LoadServingSnapshot(
    const std::string& path, size_t cache_capacity,
    const std::string& graph_path = std::string());

class IndexRegistry {
 public:
  IndexRegistry() = default;
  IndexRegistry(const IndexRegistry&) = delete;
  IndexRegistry& operator=(const IndexRegistry&) = delete;

  /// Registers `snapshot` under `name`. AlreadyExists-shaped
  /// InvalidArgument when the name is taken (swap an existing index with
  /// Publish/RELOAD instead) and InvalidArgument on a malformed name.
  Status Attach(const std::string& name,
                std::shared_ptr<const ServingSnapshot> snapshot);

  /// Unregisters `name`. The default index cannot be detached; unknown
  /// names are NotFound. Queries already holding the snapshot finish
  /// normally; the index memory is released when the last reference
  /// drops.
  Status Detach(const std::string& name);

  /// Atomically publishes a new snapshot for an existing name (the
  /// RELOAD path). NotFound when the name is not attached.
  Status Publish(const std::string& name,
                 std::shared_ptr<const ServingSnapshot> snapshot);

  /// Current snapshot of `name` (empty string = default), or nullptr
  /// when the name is not attached. Lock-free querying: the caller keeps
  /// the shared_ptr for the duration of its request.
  std::shared_ptr<const ServingSnapshot> Find(const std::string& name) const;

  /// Attached names in sorted order (STATS iteration).
  std::vector<std::string> Names() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  /// Each name keeps its own swappable handle so per-index publishes
  /// never contend with lookups of other names beyond this map mutex.
  std::map<std::string, std::shared_ptr<IndexHandle>> handles_;
};

}  // namespace hopdb

#endif  // HOPDB_SERVER_INDEX_REGISTRY_H_
