#include "server/index_registry.h"

#include <fstream>
#include <string_view>
#include <utility>

#include "graph/graph_io.h"
#include "labeling/mapped_index.h"

namespace hopdb {

Status ValidateIndexName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return Status::InvalidArgument(
        "index name must be 1-64 characters, got '" + name + "'");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "index name may only contain [A-Za-z0-9_.-], got '" + name + "'");
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const ServingSnapshot>> LoadServingSnapshot(
    const std::string& path, size_t cache_capacity,
    const std::string& graph_path) {
  // Sniff the magic; the mapped path must not pay a whole-file read.
  char magic[4] = {0, 0, 0, 0};
  {
    std::ifstream in(path, std::ios::binary);
    if (!in || !in.read(magic, 4)) {
      return Status::IOError("cannot read index file: " + path);
    }
  }
  if (std::string_view(magic, 4) == "HLI2") {
    HOPDB_ASSIGN_OR_RETURN(MappedIndex mapped, MappedIndex::Open(path));
    return std::make_shared<const ServingSnapshot>(std::move(mapped), path,
                                                   cache_capacity);
  }
  HOPDB_ASSIGN_OR_RETURN(HopDbIndex index, HopDbIndex::Load(path));
  std::shared_ptr<const CsrGraph> path_graph;
  if (!graph_path.empty()) {
    // A bad graph file must fail the load loudly, not surface later as
    // a confusing per-request PATH error.
    HOPDB_ASSIGN_OR_RETURN(
        EdgeList edges,
        LoadGraphFile(graph_path, index.directed(), /*read_weights=*/true));
    edges.Normalize();
    HOPDB_ASSIGN_OR_RETURN(CsrGraph graph, CsrGraph::FromEdgeList(edges));
    path_graph = std::make_shared<const CsrGraph>(std::move(graph));
  }
  return std::make_shared<const ServingSnapshot>(std::move(index), path,
                                                 cache_capacity,
                                                 std::move(path_graph));
}

Status IndexRegistry::Attach(const std::string& name,
                             std::shared_ptr<const ServingSnapshot> snapshot) {
  HOPDB_RETURN_NOT_OK(ValidateIndexName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = handles_.try_emplace(name);
  if (!inserted) {
    return Status::InvalidArgument("index '" + name +
                                   "' is already attached (DETACH it or "
                                   "RELOAD it instead)");
  }
  it->second = std::make_shared<IndexHandle>(std::move(snapshot));
  return Status::OK();
}

Status IndexRegistry::Detach(const std::string& name) {
  if (name == kDefaultIndexName) {
    return Status::InvalidArgument(
        "the default index cannot be detached (RELOAD it to replace it)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = handles_.find(name);
  if (it == handles_.end()) {
    return Status::NotFound("no index named '" + name + "'");
  }
  // Erasing the handle only drops this registry's reference; workers
  // holding the snapshot (or the handle) keep serving until they finish.
  handles_.erase(it);
  return Status::OK();
}

Status IndexRegistry::Publish(const std::string& name,
                              std::shared_ptr<const ServingSnapshot> snapshot) {
  std::shared_ptr<IndexHandle> handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handles_.find(name);
    if (it == handles_.end()) {
      return Status::NotFound("no index named '" + name + "'");
    }
    handle = it->second;
  }
  handle->Set(std::move(snapshot));
  return Status::OK();
}

std::shared_ptr<const ServingSnapshot> IndexRegistry::Find(
    const std::string& name) const {
  const std::string& key = name.empty() ? kDefaultIndexName : name;
  std::shared_ptr<IndexHandle> handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handles_.find(key);
    if (it == handles_.end()) return nullptr;
    handle = it->second;
  }
  return handle->Get();
}

std::vector<std::string> IndexRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(handles_.size());
  for (const auto& [name, handle] : handles_) names.push_back(name);
  return names;  // std::map iterates in sorted order already
}

size_t IndexRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handles_.size();
}

}  // namespace hopdb
