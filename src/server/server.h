// DistanceServer: a concurrent TCP query server over a registry of
// immutable index snapshots.
//
// Architecture (README "Serving" has the full sketch):
//
//   accept loop ── hands each socket to the epoll I/O group
//        │
//        ▼
//   IoGroup (few epoll threads, event_loop.h) ── reads, parses v1
//        │    lines / v2 frames, opens an ordered response slot per
//        │    request; pauses reading at the per-connection in-flight
//        │    cap (admission control)
//        │
//        ├─ cheap verbs (DIST, REACH, PING, BATCH below kBatchEngineMin
//        │  targets) run to completion right here: snapshot = registry
//        │  lookup, per-snapshot sharded LRU cache, one label merge per
//        │  pair; at most one 64 KiB read chunk of them per connection
//        │  per wakeup
//        ▼
//   BoundedQueue<WorkItem>  ◀── TryPush: full queue sheds with BUSY
//        │                      instead of stalling an I/O thread
//        ▼  PopBatch
//   worker pool (N threads) ── everything else: large BATCH via
//        │                     OneToManyEngine (one bucket join), KNN /
//        │                     WITHIN via the snapshot's lazy KnnEngine,
//        │                     PATH, STATS/METRICS/TRACE, the admin verbs
//        │                     and ADDEDGE/DELEDGE/COMMIT
//        ▼
//   Connection::Complete(seq, WireResponse) ── the owning I/O thread
//        encodes (v1 or v2, whichever the socket negotiated) and writes
//        completed slots in request order (an inline answer is written
//        right after the event that produced it, a worker's through the
//        loop's eventfd mailbox); pipelined requests on one connection
//        execute concurrently, only their bytes re-serialize
//
// The registry (index_registry.h) holds one RCU-swappable snapshot per
// index name. Unprefixed requests hit the default index; `USE <name>`
// routes to any attached one; ATTACH/DETACH manage the set at runtime.
// Snapshots are heap (HLI1/HLC1) or mmap (HLI2, zero-copy page-cache
// serving with O(1) RELOAD) — the server never cares which.
//
// The result cache is owned by the snapshot, not the server: a RELOAD
// publishes a fresh snapshot with an empty cache, so a worker still
// finishing on the old snapshot can only fill the old (dying) cache —
// stale answers can never leak across a hot-swap.

#ifndef HOPDB_SERVER_SERVER_H_
#define HOPDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hopdb.h"
#include "labeling/incremental.h"
#include "server/event_loop.h"
#include "server/index_registry.h"
#include "server/index_snapshot.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/request_queue.h"
#include "server/result_cache.h"
#include "server/thread_pool.h"
#include "util/status.h"
#include "util/timer.h"

namespace hopdb {

struct ServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Query worker threads; 0 = one per hardware thread.
  uint32_t num_workers = 0;
  /// Epoll I/O threads owning the client sockets;
  /// 0 = min(4, hardware threads).
  uint32_t num_io_threads = 0;
  /// Bounded request queue length; requests arriving while it is full
  /// are shed with `ERR BUSY` (counted in the `shed` STATS key).
  size_t queue_capacity = 1024;
  /// listen(2) backlog: pending-connection queue length before the
  /// kernel refuses new SYNs (accept-side admission control).
  int listen_backlog = 1024;
  /// Max unanswered requests per connection before its socket stops
  /// being read (pipelining backpressure; resumes as responses drain).
  uint32_t max_inflight_per_conn = 128;
  /// Result-cache capacity in (s, t) pairs per snapshot; 0 disables.
  size_t cache_capacity = 1 << 16;
  /// Hot-hub cache: every published snapshot materializes a dense
  /// distance table for the top-k ranked pivots (labeling/hot_hub.h),
  /// answering the hub-covered portion of each DIST with one dense fold
  /// and handing only the non-hub label suffixes to the merge-join.
  /// Costs 8k bytes per vertex side of RAM per snapshot; 0 disables.
  uint32_t hot_hub_k = 64;
  /// Max requests one worker drains from the queue per wakeup.
  uint32_t max_micro_batch = 32;
  /// Path RELOAD-without-argument re-reads for the default index;
  /// typically the file the index was loaded from. Empty = bare RELOAD
  /// is refused.
  std::string source_path;
  /// Fraction of requests assigned a trace id and recorded into the
  /// in-memory trace ring (TRACE LAST n). Stage timestamps and the
  /// per-stage histograms cover every request regardless; sampling only
  /// bounds the ring-push cost. 0 disables the ring entirely.
  double trace_sample_rate = 0.01;
  /// Capacity of the sampled-trace ring.
  size_t trace_ring_capacity = 1024;
  /// Requests whose accepted->written latency reaches this many
  /// microseconds are emitted to the structured JSON slow-query log
  /// (util/log.h) and counted in `slow_queries`. 0 disables.
  uint64_t slow_query_us = 0;
  /// Test hook, called by a worker for each pool-bound request just
  /// before it executes (after dequeue); verbs answered on the I/O
  /// thread never reach it, since holding one would stall the loop.
  /// Lets tests hold one request in place while its pipelined neighbors
  /// proceed — the completion-driven ordering proof. Must be
  /// thread-safe; null in production.
  std::function<void(const Request&)> pre_execute_hook;
};

class DistanceServer : public RequestSink {
 public:
  /// Binds, listens, and starts the accept loop, I/O group, and worker
  /// pool, with `snapshot` serving as the default index. This is the
  /// general entry point (heap or mmap snapshots both work; see
  /// LoadServingSnapshot).
  static Result<std::unique_ptr<DistanceServer>> Start(
      std::shared_ptr<const ServingSnapshot> snapshot,
      const ServerOptions& options = {});

  /// Convenience: wraps an in-memory index into the default snapshot.
  static Result<std::unique_ptr<DistanceServer>> Start(
      HopDbIndex index, const ServerOptions& options = {});

  ~DistanceServer() override;

  DistanceServer(const DistanceServer&) = delete;
  DistanceServer& operator=(const DistanceServer&) = delete;

  /// The bound TCP port (resolves port 0 requests).
  uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, shut down connection reads,
  /// drain the queue through the workers, flush and close every
  /// connection, join everything. Idempotent.
  void Stop();

  /// Loads the file at `path` and attaches it as index `name`
  /// (the ATTACH verb funnels here; also used by `serve --index
  /// name=path` startup attachment). Heap vs mmap is decided by the file
  /// magic. Fails without disturbing serving.
  Status AttachIndex(const std::string& name, const std::string& path) {
    return AttachInternal(name, path, nullptr);
  }

  /// Detaches index `name` (the DETACH verb). In-flight queries on it
  /// finish on their snapshot; the memory is released when the last
  /// reference drops. The default index cannot be detached.
  Status DetachIndex(const std::string& name);

  /// Hot-swaps index `name` ("" = default) from `path` (empty = that
  /// index's source path) and atomically publishes it. In-flight queries
  /// finish on the snapshot they started with. Serialized against
  /// concurrent reloads; O(1) remap when the source is an HLI2 file.
  Status Reload(const std::string& name, const std::string& path) {
    return ReloadInternal(name, path, nullptr);
  }
  /// Back-compat shorthand: reload the default index.
  Status Reload(const std::string& path) { return Reload("", path); }

  /// Registers the graph file index `name` ("" = default) was built
  /// from, enabling ADDEDGE/DELEDGE/COMMIT on that index (`serve
  /// --graph [name=]path` funnels here). Updates without a registered
  /// graph are refused — label repair needs the adjacency. Only
  /// heap-served (HLI1/HLC1) indexes are updatable; the mmap check
  /// happens lazily at the first edge op, after the index is attached.
  Status RegisterUpdateGraph(const std::string& name,
                             const std::string& path);

  /// Uncommitted-transaction state for STATS (zeroes when the index has
  /// no update session).
  struct UpdateSessionInfo {
    uint64_t pending_updates = 0;
    double last_commit_seconds = 0;
    uint64_t commits = 0;
  };
  UpdateSessionInfo GetUpdateSessionInfo(const std::string& name) const;

  const ServerMetrics& metrics() const { return metrics_; }
  /// Cache stats of the currently published default snapshot.
  ResultCache::Stats cache_stats() const;
  /// The current default snapshot.
  std::shared_ptr<const ServingSnapshot> snapshot() const {
    return registry_.Find("");
  }
  /// The index registry (named snapshots; read-mostly).
  const IndexRegistry& registry() const { return registry_; }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Currently open client connections across the I/O group.
  size_t open_connections() const { return io_group_.open_connections(); }
  uint32_t num_workers() const { return workers_.size(); }
  uint32_t num_io_threads() const { return num_io_threads_; }
  double uptime_seconds() const { return uptime_.Seconds(); }
  /// Up to n most recent sampled traces, newest first (the TRACE LAST
  /// verb renders these; tests assert on them directly).
  std::vector<RequestTrace> RecentTraces(size_t n) const {
    return trace_ring_.Last(n);
  }

  /// Executes one already-parsed request against the current snapshots
  /// and renders the v1 response line, bypassing the socket layer and
  /// the queue (tests and bench_serve_load funnel here).
  std::string Execute(const Request& request);

  // RequestSink (called from I/O threads):
  void HandleRequest(const std::shared_ptr<Connection>& conn, uint64_t seq,
                     Request request, RequestTrace trace) override;
  void HandleParseError(const std::shared_ptr<Connection>& conn, uint64_t seq,
                        std::string message, RequestTrace trace) override;
  void HandleTraceDone(const RequestTrace& trace) override;

 private:
  struct WorkItem {
    Request request;
    std::shared_ptr<Connection> conn;
    uint64_t seq = 0;
    RequestTrace trace;
  };

  explicit DistanceServer(const ServerOptions& options);

  Status Listen();
  void AcceptLoop();
  void WorkerLoop();
  /// Counts the answer, stamps executed_ns and completes slot `seq`.
  void Finish(const std::shared_ptr<Connection>& conn, uint64_t seq,
              WireResponse response, RequestTrace trace);
  /// Framing-independent execution; Execute() is its v1 rendering.
  WireResponse ExecuteWire(const Request& request);
  WireResponse ExecuteOnWire(const Request& request,
                             const ServingSnapshot& snapshot);
  WireResponse StatsResponse(const ServingSnapshot& snapshot);
  /// Prometheus text exposition of every counter/gauge/histogram the
  /// server owns (the METRICS verb; whole-server scoped).
  WireResponse MetricsResponse();
  /// Span table of the n most recent sampled traces (TRACE LAST n).
  WireResponse TraceResponse(uint32_t n);
  WireResponse HandleReload(const std::string& name, const std::string& path);
  WireResponse HandleAttach(const std::string& name, const std::string& path);
  WireResponse HandleDetach(const std::string& name);
  /// ADDEDGE/DELEDGE: repair the session's working copy eagerly (under
  /// the session mutex, so repair cost lands on the updating client,
  /// not on readers); COMMIT publishes one new snapshot atomically.
  WireResponse HandleEdgeOp(const Request& request, bool is_delete);
  WireResponse HandleCommit(const std::string& name);
  /// The AttachIndex/Reload workhorses; on success `*published` (when
  /// non-null) receives the snapshot this operation installed, so
  /// response formatting reflects the operation's own outcome even if a
  /// concurrent DETACH/RELOAD changes the registry right after.
  Status AttachInternal(const std::string& name, const std::string& path,
                        std::shared_ptr<const ServingSnapshot>* published);
  Status ReloadInternal(const std::string& name, const std::string& path,
                        std::shared_ptr<const ServingSnapshot>* published);
  /// The --graph path registered for `resolved` (already
  /// default-resolved), or "" when none. Freshly loaded heap snapshots
  /// of graph-registered indexes get that graph attached so they can
  /// answer PATH.
  std::string RegisteredGraphPath(const std::string& resolved) const;

  // -------------------------------------------------------------------
  // Online updates (ADDEDGE/DELEDGE/COMMIT).
  //
  // One UpdateSession per index name holds a mutable working copy of
  // the index plus the ranked dynamic graph; edge ops repair the copy
  // in place while readers keep hitting the published (immutable)
  // snapshot. COMMIT deep-copies the repaired index into a fresh
  // ServingSnapshot and publishes it under the same per-name reload
  // lock RELOAD uses, so the two can never interleave. RELOAD / ATTACH
  // / DETACH invalidate the session: uncommitted updates are discarded
  // (the base they patched is gone).
  // -------------------------------------------------------------------
  struct UpdateSession {
    std::mutex mu;
    /// Set (without mu; see Invalidate) when the underlying index was
    /// republished; the session's working copy no longer descends from
    /// the served snapshot and must not be committed.
    std::atomic<bool> invalidated{false};
    std::string graph_path;
    bool loaded = false;
    HopDbIndex index;        // working copy (deep copy of the snapshot)
    DynamicGraph graph;      // rank-relabeled adjacency, kept in sync
    std::unique_ptr<IncrementalUpdater> updater;
    uint64_t pending_updates = 0;  // applied-but-uncommitted ops
    double last_commit_seconds = 0;
    uint64_t commits = 0;
  };

  /// Fetches (creating if absent) the session for `resolved`; fails
  /// when no graph was registered for that name.
  Result<std::shared_ptr<UpdateSession>> GetUpdateSession(
      const std::string& resolved);
  /// Loads the working copy on first use (must hold session->mu).
  Status EnsureSessionLoaded(const std::string& resolved,
                             UpdateSession* session);
  /// Drops the session after a reload/attach/detach of `resolved`.
  void InvalidateUpdateSession(const std::string& resolved);
  std::shared_ptr<std::mutex> ReloadLockFor(const std::string& resolved);

  ServerOptions options_;
  IndexRegistry registry_;
  BoundedQueue<WorkItem> queue_;
  ServerMetrics metrics_;
  TraceRing trace_ring_;
  ThreadPool workers_;
  IoGroup io_group_;
  Stopwatch uptime_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint32_t num_io_threads_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};

  // Reloads are serialized PER INDEX NAME (two concurrent RELOADs of
  // one name must not interleave their load-then-publish sequences),
  // but never across names — a multi-second heap reload of one index
  // must not stall the O(1) remap of another. reload_mu_ only guards
  // the lock map itself.
  std::mutex reload_mu_;
  std::map<std::string, std::shared_ptr<std::mutex>> reload_locks_;
  std::once_flag stop_once_;

  /// Guards the two update maps (never held while repairing; sessions
  /// serialize on their own mutex).
  mutable std::mutex update_mu_;
  std::map<std::string, std::string> update_graphs_;
  std::map<std::string, std::shared_ptr<UpdateSession>> update_sessions_;
};

}  // namespace hopdb

#endif  // HOPDB_SERVER_SERVER_H_
