#include "server/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace hopdb {

namespace {

/// Unread-response backlog (bytes) above which a connection stops being
/// read: a client that pipelines but never reads must not grow our
/// output buffer without bound.
constexpr size_t kMaxBufferedOutBytes = 8u << 20;

/// Compact the output buffer once this many bytes are dead at the front
/// (amortizes the memmove instead of paying it per partial write).
constexpr size_t kOutCompactBytes = 1u << 16;

void EncodeForWire(WireVersion version, const WireResponse& response,
                   std::string* out) {
  if (version == WireVersion::kV2) {
    EncodeResponseV2(response, out);
  } else {
    // kUnknown only happens for a pre-negotiation fatal error; ASCII is
    // the only rendering a client that never sent the magic can read.
    out->append(EncodeResponseV1(response));
    out->push_back('\n');
  }
}

/// Trace ids are process-global so ids stay unique across I/O threads
/// and connections (ring entries and slow-query log lines correlate).
std::atomic<uint64_t> g_next_trace_id{1};

/// The IoThread whose loop runs on the calling thread (null elsewhere).
thread_local const IoThread* t_current_io_thread = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

uint64_t Connection::OpenSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.emplace_back();
  return next_seq_++;
}

void Connection::Complete(uint64_t seq, WireResponse response,
                          RequestTrace trace) {
  trace.status = response.status;
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || seq < base_seq_) return;  // connection died first
    const size_t idx = static_cast<size_t>(seq - base_seq_);
    if (idx >= slots_.size()) return;  // defensive; cannot happen
    slots_[idx].response = std::move(response);
    slots_[idx].trace = trace;
    slots_[idx].done = true;
    // Only a completed HEAD makes bytes writable; completions behind an
    // unfinished slot will be picked up when the head completes.
    if (idx == 0 && !flush_queued_) {
      flush_queued_ = true;
      notify = true;
    }
  }
  if (notify) owner_->RequestFlush(shared_from_this());
}

// ---------------------------------------------------------------------------
// IoThread
// ---------------------------------------------------------------------------

IoThread::~IoThread() { Stop(); }

Status IoThread::Start(const IoGroupOptions& options, RequestSink* sink) {
  sink_ = sink;
  max_inflight_ = options.max_inflight_per_conn == 0
                      ? 1
                      : options.max_inflight_per_conn;
  trace_sample_every_ = options.trace_sample_every;
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IOError("eventfd: " + err);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    const std::string err = std::strerror(errno);
    close(wake_fd_);
    close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return Status::IOError("epoll_ctl(wake): " + err);
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void IoThread::Adopt(int fd) {
  // Counted from the hand-off, not from AddConnection: a client whose
  // connection was accepted before its own must find it counted even
  // if this loop has not drained its mailbox yet.
  open_count_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    pending_adds_.push_back(fd);
  }
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
}

void IoThread::RequestFlush(std::shared_ptr<Connection> conn) {
  if (t_current_io_thread == this) {
    local_flushes_.push_back(std::move(conn));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    pending_flushes_.push_back(std::move(conn));
  }
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
}

void IoThread::ShutdownReads() {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    pending_shutdown_reads_ = true;
  }
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
}

void IoThread::Stop() {
  if (epoll_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  close(wake_fd_);
  close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

void IoThread::Run() {
  t_current_io_thread = this;
  std::vector<epoll_event> events(1024);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd broke; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == wake_fd_) {
        uint64_t drained;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainMailbox();
        FlushLocal();
        continue;
      }
      // Look the fd up instead of trusting a stored pointer: an earlier
      // event in this same batch may have closed the connection.
      auto it = conns_.find(ev.data.fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (ev.events & EPOLLOUT) FlushConnection(conn);
      if (ev.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ProcessInput(conn, /*read_socket=*/true);
      }
      FlushLocal();
    }
  }
  // Shutdown path: deliver any completions posted before the stop
  // signal, give every connection one best-effort flush, then close.
  DrainMailbox();
  FlushLocal();
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const auto& conn : remaining) FlushConnection(conn);
  for (const auto& conn : remaining) CloseConnection(conn);
  conns_.clear();
}

void IoThread::DrainMailbox() {
  std::vector<int> adds;
  std::vector<std::shared_ptr<Connection>> flushes;
  bool shutdown_reads = false;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adds.swap(pending_adds_);
    flushes.swap(pending_flushes_);
    shutdown_reads = pending_shutdown_reads_;
  }
  for (int fd : adds) AddConnection(fd);
  for (const auto& conn : flushes) FlushConnection(conn);
  if (shutdown_reads) {
    // SHUT_RD turns every reader into the EOF path: already-parsed
    // requests still get answered and flushed, new bytes are refused.
    for (const auto& [fd, conn] : conns_) shutdown(fd, SHUT_RD);
  }
}

void IoThread::FlushLocal() {
  // A flush can resume a paused reader, whose inline answers queue more
  // local flushes; that only parses bytes already read, so this ends.
  while (!local_flushes_.empty()) {
    std::vector<std::shared_ptr<Connection>> flushes;
    flushes.swap(local_flushes_);
    for (const auto& conn : flushes) FlushConnection(conn);
  }
}

void IoThread::AddConnection(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 ||
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    close(fd);
    open_count_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  auto conn = std::make_shared<Connection>(fd, this);
  conn->epoll_events_ = EPOLLIN;
  conns_.emplace(fd, std::move(conn));
}

void IoThread::ProcessInput(const std::shared_ptr<Connection>& conn,
                            bool read_socket) {
  const auto readable = [&] {
    std::lock_guard<std::mutex> lock(conn->mu_);
    return !conn->closed_ && !conn->read_shutdown_ && !conn->read_paused_;
  };
  if (!readable()) return;
  if (!ParseBuffered(conn)) return;  // fatal framing error
  if (!read_socket || !readable()) return;
  char chunk[65536];
  ssize_t n;
  do {
    n = recv(conn->fd_, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    // One chunk per event: requests the sink answers inline run on this
    // loop, and the level-triggered epoll reports whatever is unread.
    conn->in_.append(chunk, static_cast<size_t>(n));
    (void)ParseBuffered(conn);
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn);  // hard socket error
    return;
  }
  // EOF (peer close or our SHUT_RD): everything buffered was parsed
  // above; close once the last response flushed.
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    if (conn->closed_) return;
    conn->read_shutdown_ = true;
    conn->close_after_flush_ = true;
    close_now = conn->slots_.empty() && conn->out_off_ >= conn->out_.size();
    if (!close_now) UpdateInterestLocked(conn.get());
  }
  if (close_now) CloseConnection(conn);
}

RequestTrace IoThread::BeginTrace(uint64_t accepted_ns) {
  RequestTrace trace;
  trace.accepted_ns = accepted_ns;
  if (trace_sample_every_ > 0 &&
      trace_counter_++ % trace_sample_every_ == 0) {
    trace.trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  }
  return trace;
}

bool IoThread::ParseBuffered(const std::shared_ptr<Connection>& conn) {
  std::string& in = conn->in_;
  size_t off = 0;
  bool fatal = false;
  // One accepted stamp per parse pass: the moment this thread turned to
  // the buffered bytes. Requests split out of the same read share it.
  const uint64_t accepted_ns = MonotonicNowNs();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn->mu_);
      if (conn->closed_ || conn->read_shutdown_) break;
      // Admission: at the in-flight cap (or with an unread response
      // backlog), stop parsing — FlushConnection resumes us.
      if (conn->slots_.size() >= max_inflight_ ||
          conn->out_.size() - conn->out_off_ > kMaxBufferedOutBytes) {
        conn->read_paused_ = true;
        UpdateInterestLocked(conn.get());
        break;
      }
    }
    if (conn->version_ == WireVersion::kUnknown) {
      if (in.size() <= off) break;
      if (in[off] == kV2Magic[0]) {
        if (in.size() - off < sizeof(kV2Magic)) break;  // need full magic
        if (std::memcmp(in.data() + off, kV2Magic, sizeof(kV2Magic)) != 0) {
          FatalProtocolError(conn, "bad protocol magic",
                             BeginTrace(accepted_ns));
          fatal = true;
          break;
        }
        off += sizeof(kV2Magic);
        conn->version_ = WireVersion::kV2;
      } else {
        conn->version_ = WireVersion::kV1;
      }
      continue;
    }
    if (conn->version_ == WireVersion::kV1) {
      const size_t newline = in.find('\n', off);
      if (newline == std::string::npos) {
        if (in.size() - off > kMaxLineBytes) {
          FatalProtocolError(conn, "request line too long",
                             BeginTrace(accepted_ns));
          fatal = true;
        }
        break;
      }
      std::string line = in.substr(off, newline - off);
      off = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (TrimString(line).empty()) continue;  // telnet-friendly
      RequestTrace trace = BeginTrace(accepted_ns);
      Result<Request> parsed = ParseRequest(line);
      trace.parsed_ns = MonotonicNowNs();
      const uint64_t seq = conn->OpenSlot();
      if (parsed.ok()) {
        sink_->HandleRequest(conn, seq, std::move(*parsed), trace);
      } else {
        // Malformed v1 input is answered in order and the connection
        // stays up — the line framing resynchronizes at the newline.
        sink_->HandleParseError(conn, seq, parsed.status().message(), trace);
      }
      continue;
    }
    // v2 binary frames.
    size_t consumed = 0;
    Request request;
    std::string error;
    RequestTrace trace = BeginTrace(accepted_ns);
    const FrameParse verdict = ParseRequestFrameV2(
        in.data() + off, in.size() - off, &consumed, &request, &error);
    if (verdict == FrameParse::kNeedMore) break;
    if (verdict == FrameParse::kError) {
      // A bad frame desynchronizes the byte stream; the connection
      // cannot be salvaged after the (ordered) error answer.
      FatalProtocolError(conn, std::move(error), trace);
      fatal = true;
      break;
    }
    trace.parsed_ns = MonotonicNowNs();
    off += consumed;
    const uint64_t seq = conn->OpenSlot();
    sink_->HandleRequest(conn, seq, std::move(request), trace);
  }
  if (off > 0) in.erase(0, off);
  return !fatal;
}

void IoThread::FatalProtocolError(const std::shared_ptr<Connection>& conn,
                                  std::string message, RequestTrace trace) {
  trace.parsed_ns = MonotonicNowNs();
  const uint64_t seq = conn->OpenSlot();
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->read_shutdown_ = true;
    conn->close_after_flush_ = true;
  }
  // Through the sink so the error is counted like any other parse
  // error; the sink completes the slot inline, which queues the flush.
  sink_->HandleParseError(conn, seq, std::move(message), trace);
}

void IoThread::FlushConnection(const std::shared_ptr<Connection>& conn) {
  bool resume_read = false;
  bool close_now = false;
  // Traces whose last response byte the kernel just accepted; delivered
  // to the sink outside the connection lock.
  std::vector<RequestTrace> finished;
  {
    std::unique_lock<std::mutex> lock(conn->mu_);
    if (conn->closed_) return;
    conn->flush_queued_ = false;
    if (!conn->slots_.empty() && conn->slots_.front().done) {
      const uint64_t encoded_ns = MonotonicNowNs();
      do {
        Connection::Slot& slot = conn->slots_.front();
        const size_t before = conn->out_.size();
        EncodeForWire(conn->version_, slot.response, &conn->out_);
        conn->total_encoded_ += conn->out_.size() - before;
        slot.trace.encoded_ns = encoded_ns;
        conn->pending_writes_.push_back({conn->total_encoded_, slot.trace});
        conn->slots_.pop_front();
        ++conn->base_seq_;
      } while (!conn->slots_.empty() && conn->slots_.front().done);
    }
    while (conn->out_off_ < conn->out_.size()) {
      const ssize_t n =
          send(conn->fd_, conn->out_.data() + conn->out_off_,
               conn->out_.size() - conn->out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off_ += static_cast<size_t>(n);
        conn->total_written_ += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EPIPE/ECONNRESET: the client vanished mid-response. Drop the
      // connection; in-flight work for it completes into the void.
      lock.unlock();
      CloseConnection(conn);
      return;
    }
    if (conn->out_off_ >= conn->out_.size()) {
      conn->out_.clear();
      conn->out_off_ = 0;
    } else if (conn->out_off_ >= kOutCompactBytes) {
      conn->out_.erase(0, conn->out_off_);
      conn->out_off_ = 0;
    }
    if (!conn->pending_writes_.empty() &&
        conn->pending_writes_.front().end <= conn->total_written_) {
      const uint64_t written_ns = MonotonicNowNs();
      do {
        Connection::PendingWrite& pending = conn->pending_writes_.front();
        pending.trace.written_ns = written_ns;
        finished.push_back(pending.trace);
        conn->pending_writes_.pop_front();
      } while (!conn->pending_writes_.empty() &&
               conn->pending_writes_.front().end <= conn->total_written_);
    }
    const bool drained = conn->out_.empty();
    if (drained && conn->close_after_flush_ && conn->slots_.empty()) {
      close_now = true;
    } else {
      if (conn->read_paused_ && !conn->read_shutdown_ &&
          conn->slots_.size() < max_inflight_ &&
          conn->out_.size() - conn->out_off_ <= kMaxBufferedOutBytes) {
        conn->read_paused_ = false;
        resume_read = true;
      }
      UpdateInterestLocked(conn.get());
    }
  }
  for (const RequestTrace& trace : finished) sink_->HandleTraceDone(trace);
  if (close_now) {
    CloseConnection(conn);
    return;
  }
  // A resumed connection may hold fully buffered requests that will
  // never raise EPOLLIN again; parse them now. Reading more waits for
  // the next EPOLLIN, which UpdateInterestLocked re-armed.
  if (resume_read) ProcessInput(conn, /*read_socket=*/false);
}

void IoThread::UpdateInterestLocked(Connection* conn) {
  uint32_t want = 0;
  if (!conn->read_shutdown_ && !conn->read_paused_) want |= EPOLLIN;
  if (conn->out_off_ < conn->out_.size()) want |= EPOLLOUT;
  if (want == conn->epoll_events_) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd_, &ev) == 0) {
    conn->epoll_events_ = want;
  }
}

void IoThread::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    if (conn->closed_) return;
    conn->closed_ = true;
    conn->slots_.clear();  // late Complete()s see closed_ and drop
    conn->pending_writes_.clear();  // never fully written; never delivered
    conn->out_.clear();
    conn->out_off_ = 0;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd_, nullptr);
  close(conn->fd_);
  conns_.erase(conn->fd_);
  open_count_.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// IoGroup
// ---------------------------------------------------------------------------

Status IoGroup::Start(const IoGroupOptions& options, RequestSink* sink) {
  const uint32_t n = options.num_threads == 0 ? 1 : options.num_threads;
  threads_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto thread = std::make_unique<IoThread>();
    const Status status = thread->Start(options, sink);
    if (!status.ok()) {
      for (auto& started : threads_) started->Stop();
      threads_.clear();
      return status;
    }
    threads_.push_back(std::move(thread));
  }
  return Status::OK();
}

void IoGroup::Adopt(int fd) {
  const uint64_t i = next_thread_.fetch_add(1, std::memory_order_relaxed);
  threads_[i % threads_.size()]->Adopt(fd);
}

void IoGroup::ShutdownReads() {
  for (auto& thread : threads_) thread->ShutdownReads();
}

void IoGroup::Stop() {
  for (auto& thread : threads_) thread->Stop();
}

size_t IoGroup::open_connections() const {
  size_t total = 0;
  for (const auto& thread : threads_) total += thread->open_connections();
  return total;
}

}  // namespace hopdb
