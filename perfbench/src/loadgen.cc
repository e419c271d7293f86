#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

using hopdb::Request;
using hopdb::RequestKind;
using hopdb::WireResponse;
using hopdb::WireStatus;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Steal time summed over all CPUs, in seconds; 0 where /proc/stat
/// cannot be read (every slice then counts as clean).
double StealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(t[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// CPU and steal clocks of one slice: Start() when it opens, Finish()
/// when it closes.
class SliceMeter {
 public:
  void Start(double now_us) {
    open_us_ = now_us;
    proc_ = ProcessCpuSeconds();
    gen_ = ThreadCpuSeconds();
    steal_ = StealSeconds();
  }
  double open_us() const { return open_us_; }
  /// Fills `slice`'s clocks since Start(); true when it is host-clean.
  bool Finish(double now_us, Slice* slice) const {
    const double wall_s = (now_us - open_us_) / 1e6;
    slice->wall_s = wall_s;
    slice->process_cpu_s = ProcessCpuSeconds() - proc_;
    slice->generator_cpu_s = ThreadCpuSeconds() - gen_;
    slice->steal_share = (StealSeconds() - steal_) / (vcpus_ * wall_s);
    return slice->steal_share <= kMaxStealShare;
  }

 private:
  double vcpus_ = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  double open_us_ = 0;
  double proc_ = 0;
  double gen_ = 0;
  double steal_ = 0;
};

/// One closed-loop connection with its single outstanding request.
/// Owns its socket.
struct Conn {
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  void Close() {
    if (fd >= 0) close(fd);
    fd = -1;
  }

  int fd = -1;
  std::string out;
  std::string in;
  bool busy = false;  // a request is outstanding
  Request request;
  bool batch = false;
  bool sampled = false;
  uint64_t id = 0;
  int slice = -1;  // slice it was sent in; -1 = warm-up
  uint32_t version_at_send = 0;
  double sent_us = 0;
};

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool OpenConn(uint16_t port, Conn* conn) {
  conn->fd = socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return false;
  }
  int one = 1;
  setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return SendAll(conn->fd, std::string(hopdb::kV2Magic, sizeof(hopdb::kV2Magic)));
}

}  // namespace

const char* OpName(int type) {
  switch (type) {
    case kOpQuery: return "query";
    case kOpDist: return "dist";
    case kOpBatch: return "batch";
    case kOpRwDist: return "rw_dist";
    case kOpAddEdge: return "addedge";
    case kOpDelEdge: return "deledge";
    case kOpCommit: return "commit";
    case kOpProbe: return "probe";
    default: return "selftest";
  }
}

LoopResult RunClosedLoop(const LoopOptions& options,
                         const VertexSampler& sampler) {
  LoopResult result;
  result.dist.name = OpName(options.dist_type);
  result.batch.name = OpName(kOpBatch);
  std::vector<Conn> conns(options.connections);
  for (Conn& conn : conns) {
    if (!OpenConn(options.port, &conn)) {
      // The server runs in this process: a refused loopback connection
      // means the run itself is broken, not the program under test.
      std::fprintf(stderr, "perfbench: cannot connect to port %u\n",
                   static_cast<unsigned>(options.port));
      std::exit(2);
    }
  }
  const auto version_now = [&options]() -> uint32_t {
    return options.version == nullptr
               ? 0
               : options.version->load(std::memory_order_acquire);
  };

  hopdb::Rng rng(options.seed);
  const double warm_end_us = NowUs() + options.warmup_s * 1e6;
  const size_t wanted_clean =
      static_cast<size_t>(std::ceil(options.measure_s / kSliceS));
  const double cap_end_us =
      warm_end_us +
      std::max(options.measure_s, options.max_measure_s) * 1e6;
  SliceMeter meter;
  size_t clean = 0;
  double close_us = 0;  // when the window closed; nothing is sent after
  uint64_t next_id = 0;
  uint32_t dist_sampled = 0;
  uint32_t batch_sampled = 0;

  const auto fail_conn = [&result](Conn* conn) {
    if (conn->busy) (conn->batch ? result.batch : result.dist).failed++;
    conn->busy = false;
    conn->Close();
  };

  // Sends the connection's next request, drawn from the one seeded
  // stream in the order the connections ask for them.
  const auto send_next = [&](Conn* conn) {
    const uint64_t i = next_id++;
    conn->batch = options.batch_every > 0 &&
                  i % options.batch_every == options.batch_every - 1;
    Request& request = conn->request;
    request = Request();
    request.kind = conn->batch ? RequestKind::kBatch : RequestKind::kDist;
    request.src = sampler.Draw(&rng);
    for (uint32_t j = 0; j < (conn->batch ? options.batch_size : 1); ++j) {
      request.targets.push_back(sampler.Draw(&rng));
    }
    OpStats& stats = conn->batch ? result.batch : result.dist;
    conn->sampled =
        conn->batch
            ? stats.attempted % 4 == 0 && batch_sampled < options.max_samples / 4
            : stats.attempted % options.sample_every == 0 &&
                  dist_sampled < options.max_samples;
    stats.attempted++;
    conn->id = options.id_base + i;
    conn->slice = result.slices.empty() ? -1
                                        : static_cast<int>(result.slices.size()) - 1;
    conn->version_at_send = version_now();
    conn->out.clear();
    hopdb::EncodeRequestV2(request, &conn->out);
    conn->busy = true;
    conn->sent_us = NowUs();
    if (!SendAll(conn->fd, conn->out)) fail_conn(conn);
  };

  const auto on_reply = [&](Conn* conn, const WireResponse& response) {
    const double us = NowUs() - conn->sent_us;
    conn->busy = false;
    OpStats& stats = conn->batch ? result.batch : result.dist;
    Slice* slice = conn->slice < 0 ? nullptr : &result.slices[conn->slice];
    if (slice != nullptr) slice->completed++;
    if (response.status == WireStatus::kBusy) {
      stats.busy++;
      stats.failed++;
      return;
    }
    const Request& request = conn->request;
    const bool shape_ok =
        response.status == WireStatus::kOk &&
        (conn->batch ? response.payload == hopdb::WirePayload::kDistances &&
                           response.distances.size() == request.targets.size()
                     : response.payload == hopdb::WirePayload::kDistance);
    if (!shape_ok) {
      stats.failed++;
      return;
    }
    if (slice != nullptr) {
      stats.latency_us.push_back(us);
      (conn->batch ? slice->batch_us : slice->dist_us).push_back(us);
    }
    if (!conn->sampled) return;
    // A read may see any version from the one committed at its send to
    // one past the last COMMIT acknowledged at its reply.
    const uint32_t v_hi = options.version == nullptr ? 0 : version_now() + 1;
    if (conn->batch) {
      ++batch_sampled;
      for (size_t j = 0; j < request.targets.size(); ++j) {
        result.claims.push_back(Claim{request.src, request.targets[j],
                                      response.distances[j],
                                      conn->version_at_send, v_hi, kOpBatch,
                                      conn->id});
      }
      result.batches.push_back(LoopResult::BatchSample{
          request.src, request.targets, response.distances});
    } else {
      ++dist_sampled;
      result.claims.push_back(Claim{request.src, request.targets[0],
                                    response.distance, conn->version_at_send,
                                    v_hi, options.dist_type, conn->id});
    }
  };

  // Reads what arrived; once the reply is whole, answers it and sends
  // the connection's next request unless the window has closed.
  const auto read_conn = [&](Conn* conn) {
    char chunk[65536];
    const ssize_t n = recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) {
      fail_conn(conn);
      return;
    }
    conn->in.append(chunk, static_cast<size_t>(n));
    size_t consumed = 0;
    WireResponse response;
    std::string error;
    const hopdb::FrameParse verdict = hopdb::ParseResponseFrameV2(
        conn->in.data(), conn->in.size(), &consumed, &response, &error);
    if (verdict == hopdb::FrameParse::kNeedMore) return;
    // One request is outstanding, so a reply is all the connection holds.
    if (verdict == hopdb::FrameParse::kError || !conn->busy ||
        consumed != conn->in.size()) {
      fail_conn(conn);
      return;
    }
    conn->in.clear();
    on_reply(conn, response);
    if (close_us == 0) send_next(conn);
  };

  for (Conn& conn : conns) send_next(&conn);
  std::vector<pollfd> fds(conns.size());
  while (true) {
    const double now = NowUs();
    // Slice boundaries: close the running slice's CPU and steal account
    // and open the next one, or close the window.
    if (close_us == 0 && now >= warm_end_us &&
        (result.slices.empty() || now >= meter.open_us() + kSliceS * 1e6)) {
      if (result.slices.empty()) {
        if (options.measuring != nullptr) {
          options.measuring->store(true, std::memory_order_release);
        }
      } else if (meter.Finish(now, &result.slices.back())) {
        ++clean;
      }
      const bool held = options.hold_open != nullptr &&
                        options.hold_open->load(std::memory_order_acquire);
      if (!held && (clean >= wanted_clean || now >= cap_end_us)) {
        close_us = now;
      } else {
        result.slices.emplace_back();
        meter.Start(now);
      }
    }
    size_t busy = 0;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].busy ? conns[i].fd : -1;
      fds[i].events = POLLIN;
      fds[i].revents = 0;
      busy += conns[i].busy ? 1 : 0;
    }
    if (busy == 0) break;
    if (close_us != 0 && now > close_us + 5e6) {
      for (Conn& conn : conns) fail_conn(&conn);
      break;
    }
    // Wake at least every 10 ms to close slices on time.
    if (poll(fds.data(), fds.size(), 10) <= 0) continue;
    for (size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents != 0 && conns[i].busy) read_conn(&conns[i]);
    }
  }
  return result;
}

WindowFigures PoolSlices(const std::vector<Slice>& slices, double measure_s) {
  WindowFigures figures;
  figures.slices = slices.size();
  std::vector<const Slice*> pooled;
  for (const Slice& s : slices) {
    figures.clean += s.steal_share <= kMaxStealShare ? 1 : 0;
    pooled.push_back(&s);
  }
  std::stable_sort(pooled.begin(), pooled.end(),
                   [](const Slice* a, const Slice* b) {
                     return a->steal_share < b->steal_share;
                   });
  pooled.resize(std::min(
      pooled.size(), static_cast<size_t>(std::ceil(measure_s / kSliceS))));
  std::vector<double> dist;
  std::vector<double> batch;
  double cpu_s = 0;
  uint64_t completed = 0;
  for (const Slice* s : pooled) {
    dist.insert(dist.end(), s->dist_us.begin(), s->dist_us.end());
    batch.insert(batch.end(), s->batch_us.begin(), s->batch_us.end());
    cpu_s += s->process_cpu_s - s->generator_cpu_s;
    completed += s->completed;
    figures.max_pooled_steal = std::max(figures.max_pooled_steal, s->steal_share);
  }
  figures.dist_p50_us = Percentile(&dist, 50);
  figures.batch_p50_us = Percentile(&batch, 50);
  figures.serve_cpu_us =
      completed == 0 ? 0 : cpu_s * 1e6 / static_cast<double>(completed);
  return figures;
}

WriterResult RunWriter(uint16_t port, const EditStream& stream,
                       std::atomic<uint32_t>* version) {
  WriterResult result;
  result.addedge.name = OpName(kOpAddEdge);
  result.deledge.name = OpName(kOpDelEdge);
  result.commit.name = OpName(kOpCommit);
  auto client = hopdb::DistanceClient::Connect(
      "127.0.0.1", port, hopdb::DistanceClient::Protocol::kV2);
  const double start_us = NowUs();
  // Returns the round trip in us, or -1 when the request failed or its
  // reply does not start with `expect`.
  const auto call = [&](const Request& request, const char* expect,
                        OpStats* stats, std::string* text) -> double {
    stats->attempted++;
    if (!client.ok()) {
      stats->failed++;
      return -1;
    }
    const double t0 = NowUs();
    auto reply = client.value().Call(request);
    const double us = NowUs() - t0;
    if (reply.ok() && reply.value().status == WireStatus::kBusy) stats->busy++;
    if (!reply.ok() || reply.value().status != WireStatus::kOk ||
        reply.value().text.rfind(expect, 0) != 0) {
      stats->failed++;
      return -1;
    }
    *text = reply.value().text;
    return us;
  };
  const auto field = [](const std::string& text, const std::string& key) {
    const size_t at = text.find(key + "=");
    return at == std::string::npos
               ? uint64_t{0}
               : std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
  };

  for (size_t i = 0; i < stream.edits.size(); ++i) {
    const Edit& edit = stream.edits[i];
    Request request;
    request.kind = edit.del ? RequestKind::kDelEdge : RequestKind::kAddEdge;
    request.src = edit.u;
    request.targets = {edit.v};
    request.k = 1;
    std::string text;
    // Every edit of the stream changes the graph, so the reply must say
    // "applied".
    result.edit_us.push_back(call(request, "applied",
                                  edit.del ? &result.deledge : &result.addedge,
                                  &text));
    if ((i + 1) % stream.commit_every != 0) continue;
    Request commit;
    commit.kind = RequestKind::kCommit;
    result.commit_us.push_back(call(commit, "committed", &result.commit, &text));
    if (result.commit_us.back() >= 0) {
      result.cache_carried += field(text, "cache_carried");
      result.cache_dropped += field(text, "cache_dropped");
    }
    // Reads sent from here on must see this commit.
    version->fetch_add(1, std::memory_order_acq_rel);
  }
  result.stream_s = (NowUs() - start_us) / 1e6;
  return result;
}

}  // namespace perfbench
