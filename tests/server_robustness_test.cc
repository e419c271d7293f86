// Hostile-client and overload coverage for the epoll serving core:
// pipelined requests executing concurrently (the completion-driven
// ordering proof), BUSY shedding when the work queue saturates,
// slow-loris partial writers, oversize request lines, bad protocol
// magic, clients vanishing mid-response, half-closed pipelines, and
// point queries answered while the worker pool is held.
// These tests run under the sanitizer presets too — several exist
// mainly so TSan/ASan can watch the failure paths.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "hopdb.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/trace.h"
#include "util/string_util.h"

namespace hopdb {
namespace {

// A raw TCP connection with byte-level control — DistanceClient is too
// polite for slow-loris and half-close scenarios.
class RawConn {
 public:
  RawConn() = default;
  ~RawConn() { Close(); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (stripped). Empty optional-style
  /// return via `ok`: false means EOF or error before a full line.
  bool RecvLine(std::string* line) {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads until the peer sends EOF; returns everything received
  /// (including bytes already buffered).
  std::string RecvUntilEof() {
    char chunk[4096];
    while (true) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string all = std::move(buffer_);
    buffer_.clear();
    return all;
  }

  /// True once the peer has sent EOF (and no buffered line remains).
  bool AtEof() {
    char chunk[4096];
    while (true) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;
    }
  }

  void HalfCloseWrites() { shutdown(fd_, SHUT_WR); }
  /// Makes RecvLine give up (return false) after `seconds` of silence.
  void SetRecvTimeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
    buffer_.clear();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

EdgeList TestGraph(VertexId n, uint64_t seed) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = 5.0;
  options.seed = seed;
  return GenerateGlp(options).ValueOrDie();
}

class ServerRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = CsrGraph::FromEdgeList(TestGraph(300, /*seed=*/17)).ValueOrDie();
  }

  void StartServer(ServerOptions options) {
    server_ = DistanceServer::Start(HopDbIndex::Build(graph_).ValueOrDie(),
                                    std::move(options))
                  .ValueOrDie();
  }

  CsrGraph graph_;
  std::unique_ptr<DistanceServer> server_;
};

// The headline regression test for the old reader loop, which blocked
// on each request's future before reading the next: requests pipelined
// on ONE connection must execute concurrently, with only their response
// bytes re-serialized in request order. The first request's hook holds
// its worker hostage until the three requests behind it have been
// dispatched — under the old design that is a deadlock (the later
// requests were never read off the socket), so this test passing at all
// is the proof. The hook only sees pool verbs, hence KNN: a DIST would
// run on the I/O thread and never reach it.
TEST_F(ServerRobustnessTest, PipelinedRequestsExecuteConcurrently) {
  constexpr VertexId kBlockedSrc = 999999;
  std::mutex mu;
  std::condition_variable cv;
  int others_dispatched = 0;
  bool overlap_seen = false;

  ServerOptions options;
  options.num_workers = 4;
  options.max_micro_batch = 1;  // one request per worker drain
  options.pre_execute_hook = [&](const Request& request) {
    std::unique_lock<std::mutex> lock(mu);
    if (request.kind == RequestKind::kKnn && request.src == kBlockedSrc) {
      overlap_seen = cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return others_dispatched >= 3; });
      return;
    }
    ++others_dispatched;
    cv.notify_all();
  };
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  // The blocked request names an out-of-range source so its response
  // is distinguishable from the three behind it.
  ASSERT_TRUE(
      conn.SendAll("KNN 999999 3\nKNN 5 3\nKNN 7 3\nKNN 9 3\n"));

  std::string line;
  ASSERT_TRUE(conn.RecvLine(&line));
  EXPECT_TRUE(StartsWith(line, "ERR ")) << line;  // blocker answered first
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(conn.RecvLine(&line));
    EXPECT_TRUE(StartsWith(line, "OK ")) << line;
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(overlap_seen)
      << "later pipelined requests never executed while the first was "
         "in flight";
}

// Stage timestamps must stay monotonic even when pipelined requests
// overlap on the workers and their responses are buffered in completion
// slots out of execution order: request N+1 can finish executing before
// request N, but every delivered trace still reads
// accepted ≤ parsed ≤ enqueued ≤ dequeued ≤ executed ≤ encoded ≤ written
// because each stamp is taken by the thread that owns that stage.
TEST_F(ServerRobustnessTest, TraceTimestampsMonotonicUnderPipelining) {
  constexpr VertexId kBlockedSrc = 999999;
  std::mutex mu;
  std::condition_variable cv;
  int others_dispatched = 0;

  ServerOptions options;
  options.num_workers = 4;
  options.max_micro_batch = 1;
  options.trace_sample_rate = 1.0;
  options.trace_ring_capacity = 16;
  options.pre_execute_hook = [&](const Request& request) {
    std::unique_lock<std::mutex> lock(mu);
    if (request.kind == RequestKind::kKnn && request.src == kBlockedSrc) {
      cv.wait_for(lock, std::chrono::seconds(10),
                  [&] { return others_dispatched >= 3; });
      return;
    }
    ++others_dispatched;
    cv.notify_all();
  };
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  ASSERT_TRUE(
      conn.SendAll("KNN 999999 3\nKNN 5 3\nKNN 7 3\nKNN 9 3\n"));
  std::string line;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(conn.RecvLine(&line));
  }

  // Traces are delivered after the response bytes hit the kernel, so
  // the client being done does not mean the ring is full yet.
  std::vector<RequestTrace> traces;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    traces = server_->RecentTraces(16);
    if (traces.size() >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(traces.size(), 4u);
  for (const RequestTrace& trace : traces) {
    SCOPED_TRACE("trace_id=" + std::to_string(trace.trace_id));
    EXPECT_GT(trace.accepted_ns, 0u);
    EXPECT_LE(trace.accepted_ns, trace.parsed_ns);
    EXPECT_LE(trace.parsed_ns, trace.enqueued_ns);
    EXPECT_LE(trace.enqueued_ns, trace.dequeued_ns);
    EXPECT_LE(trace.dequeued_ns, trace.executed_ns);
    EXPECT_LE(trace.executed_ns, trace.encoded_ns);
    EXPECT_LE(trace.encoded_ns, trace.written_ns);
    EXPECT_FALSE(trace.shed);
    EXPECT_FALSE(trace.parse_error);
  }
}

// Saturating the work queue must shed with a distinct, retryable BUSY
// error — never a hang, never a silent close — and the connection must
// remain usable afterwards.
TEST_F(ServerRobustnessTest, OverloadShedsWithBusy) {
  constexpr VertexId kBlockedSrc = 111;
  std::mutex mu;
  std::condition_variable cv;
  bool worker_blocked = false;
  bool release = false;

  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.max_micro_batch = 1;
  options.pre_execute_hook = [&](const Request& request) {
    if (request.kind != RequestKind::kKnn || request.src != kBlockedSrc) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    worker_blocked = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
  };
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  ASSERT_TRUE(conn.SendAll("KNN 111 3\n"));
  {
    // Wait until the only worker is provably stuck inside request 1 —
    // from here on the queue's single slot and the shed path are
    // deterministic.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return worker_blocked; }));
  }
  // Request 2 takes the queue's only slot; 3..8 must shed.
  std::string burst;
  for (int i = 0; i < 7; ++i) burst += "KNN 5 3\n";
  ASSERT_TRUE(conn.SendAll(burst));

  // Shedding happens at enqueue time on the I/O thread, so it completes
  // while the worker is still blocked — but SendAll only hands bytes to
  // the kernel, so wait for the sheds to land before releasing.
  // Releasing early would let the worker drain pushes as they arrive and
  // nothing would shed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->metrics().shed() < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server_->metrics().shed(), 6u);

  // The inline verbs never queue, so a full queue cannot shed them: a
  // DIST on another connection is answered while the worker is stuck.
  {
    RawConn other;
    ASSERT_TRUE(other.Connect(server_->port()));
    other.SetRecvTimeout(10);
    ASSERT_TRUE(other.SendAll("DIST 5 6\nREACH 5 6 100\nBATCH 5 6 7\n"));
    std::string answer;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(other.RecvLine(&answer)) << "inline answer " << i;
      EXPECT_TRUE(StartsWith(answer, "OK ")) << answer;
    }
    EXPECT_EQ(server_->metrics().shed(), 6u);
  }

  // Responses are ordered, so the BUSY answers for 3..8 are buffered
  // behind the blocked request 1. Release it and read all eight.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  std::string line;
  int ok = 0, busy = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(conn.RecvLine(&line)) << "response " << i;
    if (StartsWith(line, "OK ")) {
      ++ok;
    } else {
      EXPECT_TRUE(StartsWith(line, "ERR BUSY ")) << line;
      ++busy;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(busy, 6);
  EXPECT_EQ(server_->metrics().shed(), 6u);

  // Shedding is per-request, not per-connection: the same socket works.
  // Sent one at a time — with queue_capacity=1 a pipelined pair could
  // legitimately shed the second request before the worker drains the first.
  ASSERT_TRUE(conn.SendAll("PING\n"));
  ASSERT_TRUE(conn.RecvLine(&line));
  EXPECT_EQ(line, "OK pong");
  ASSERT_TRUE(conn.SendAll("STATS\n"));
  ASSERT_TRUE(conn.RecvLine(&line));
  EXPECT_NE(line.find("shed=6"), std::string::npos) << line;
}


// A DIST must never wait behind a long pool verb. With the only worker
// held inside a COMMIT, a DIST on a second connection is still answered
// (it runs on the I/O thread), and the COMMIT completes once released.
TEST_F(ServerRobustnessTest, DistAnsweredWhileOnlyWorkerHoldsCommit) {
  std::mutex mu;
  std::condition_variable cv;
  bool worker_blocked = false;
  bool release = false;

  ServerOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [&](const Request& request) {
    if (request.kind != RequestKind::kCommit) return;
    std::unique_lock<std::mutex> lock(mu);
    worker_blocked = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
  };
  StartServer(std::move(options));

  RawConn writer;
  ASSERT_TRUE(writer.Connect(server_->port()));
  ASSERT_TRUE(writer.SendAll("COMMIT\n"));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return worker_blocked; }));
  }

  RawConn reader;
  ASSERT_TRUE(reader.Connect(server_->port()));
  reader.SetRecvTimeout(5);
  ASSERT_TRUE(reader.SendAll("DIST 5 6\n"));
  std::string line;
  const bool answered = reader.RecvLine(&line);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(answered) << "DIST waited behind the COMMIT holding the "
                           "only worker";
  EXPECT_TRUE(StartsWith(line, "OK ")) << line;

  writer.SetRecvTimeout(10);
  ASSERT_TRUE(writer.RecvLine(&line));
  EXPECT_EQ(line, "OK nothing to commit");
}
// A slow-loris writer dribbling one byte at a time must not stall the
// event loop: a second client on the SAME single I/O thread gets served
// while the loris is mid-line, and the loris still gets its answer.
TEST_F(ServerRobustnessTest, SlowLorisDoesNotStallTheEventLoop) {
  ServerOptions options;
  options.num_workers = 2;
  options.num_io_threads = 1;  // everything below shares one epoll thread
  StartServer(std::move(options));

  RawConn loris;
  ASSERT_TRUE(loris.Connect(server_->port()));
  const std::string request = "DIST 5 20\n";
  // First half, one byte at a time, no terminating newline yet.
  for (size_t i = 0; i + 1 < request.size() / 2; ++i) {
    ASSERT_TRUE(loris.SendAll(request.substr(i, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The loris holds no lock on the I/O thread: a well-behaved client
  // sails through.
  auto client = DistanceClient::Connect("127.0.0.1", server_->port())
                    .ValueOrDie();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*client.RoundTrip("PING"), "OK pong");
  }

  // Finish the line; the loris gets a normal answer.
  ASSERT_TRUE(loris.SendAll(request.substr(request.size() / 2 - 1)));
  std::string line;
  ASSERT_TRUE(loris.RecvLine(&line));
  EXPECT_TRUE(StartsWith(line, "OK ")) << line;
}

// A v1 line longer than kMaxLineBytes can never frame a request: the
// server answers with an ordered error and closes the connection.
TEST_F(ServerRobustnessTest, OversizeLineAnsweredThenClosed) {
  ServerOptions options;
  options.num_workers = 1;
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  ASSERT_TRUE(conn.SendAll(std::string(kMaxLineBytes + 2, 'A')));
  std::string line;
  ASSERT_TRUE(conn.RecvLine(&line));
  EXPECT_EQ(line, "ERR request line too long");
  EXPECT_TRUE(conn.AtEof());
}

// A first byte of 0x02 promises the v2 magic; anything else after it is
// unsalvageable and gets the same answer-then-close treatment.
TEST_F(ServerRobustnessTest, BadProtocolMagicAnsweredThenClosed) {
  ServerOptions options;
  options.num_workers = 1;
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  ASSERT_TRUE(conn.SendAll(std::string("\x02XYZ", 4)));
  std::string line;
  ASSERT_TRUE(conn.RecvLine(&line));
  EXPECT_EQ(line, "ERR bad protocol magic");
  EXPECT_TRUE(conn.AtEof());
}

// A malformed v2 frame is fatal (the byte stream has desynchronized),
// but the error is still answered in order before the close.
TEST_F(ServerRobustnessTest, MalformedV2FrameAnsweredThenClosed) {
  ServerOptions options;
  options.num_workers = 1;
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  std::string bytes(kV2Magic, sizeof(kV2Magic));
  Request ping;
  ping.kind = RequestKind::kPing;
  EncodeRequestV2(ping, &bytes);
  bytes[sizeof(kV2Magic)] = 0x7f;  // unknown opcode
  ASSERT_TRUE(conn.SendAll(bytes));

  // The error comes back as one v2 response frame, then EOF.
  const std::string raw = conn.RecvUntilEof();
  size_t consumed = 0;
  WireResponse response;
  std::string error;
  ASSERT_EQ(ParseResponseFrameV2(raw.data(), raw.size(), &consumed, &response,
                                 &error),
            FrameParse::kDone)
      << error;
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(response.status, WireStatus::kErr);
  EXPECT_NE(response.text.find("opcode"), std::string::npos) << response.text;
}

// Clients that vanish mid-response (EPIPE/ECONNRESET on the server's
// send path) must not take the server down or leak the connection.
TEST_F(ServerRobustnessTest, ClientVanishingMidResponseIsHarmless) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(std::move(options));

  std::string big_batch = "BATCH 9";
  for (VertexId t = 0; t < 200; ++t) {
    big_batch += ' ';
    big_batch += std::to_string(t % 300);
  }
  big_batch += '\n';

  for (int round = 0; round < 8; ++round) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()));
    std::string burst;
    for (int i = 0; i < 16; ++i) burst += big_batch;
    ASSERT_TRUE(conn.SendAll(burst));
    conn.Close();  // vanish before reading anything
  }

  // The server keeps serving, and the dead connections are reaped.
  auto client = DistanceClient::Connect("127.0.0.1", server_->port())
                    .ValueOrDie();
  EXPECT_EQ(*client.RoundTrip("PING"), "OK pong");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->open_connections() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(server_->open_connections(), 1u);
}

// Half-close pipelining: a client that writes N requests and shuts down
// its write side must still receive all N responses, then EOF.
TEST_F(ServerRobustnessTest, HalfClosedPipelineDrainsAllResponses) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  constexpr int kRequests = 32;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "DIST " + std::to_string(i % 300) + " " +
             std::to_string((i * 7) % 300) + "\n";
  }
  ASSERT_TRUE(conn.SendAll(burst));
  conn.HalfCloseWrites();

  std::string line;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(conn.RecvLine(&line)) << "response " << i;
    EXPECT_TRUE(StartsWith(line, "OK ")) << line;
  }
  EXPECT_TRUE(conn.AtEof());
}

// Backpressure: a client that pipelines far past max_inflight_per_conn
// but never reads must not grow server-side state without bound — the
// server pauses reading instead. Once the client starts draining, every
// request is eventually answered.
TEST_F(ServerRobustnessTest, InflightCapThrottlesButLosesNothing) {
  ServerOptions options;
  options.num_workers = 2;
  options.max_inflight_per_conn = 4;
  options.queue_capacity = 1024;  // shedding is not what's under test
  StartServer(std::move(options));

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  constexpr int kRequests = 256;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += "PING\n";
  ASSERT_TRUE(conn.SendAll(burst));

  std::string line;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(conn.RecvLine(&line)) << "response " << i;
    EXPECT_EQ(line, "OK pong");
  }
}

}  // namespace
}  // namespace hopdb
