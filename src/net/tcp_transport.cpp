#include "causalmem/net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "causalmem/common/arena.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/common/logging.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Reads exactly `len` bytes; returns false on orderly EOF / reset.
bool read_exact(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::byte*>(buf);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::byte*>(buf);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpTransport::TcpTransport(std::size_t n) : n_(n), handlers_(n) {
  CM_EXPECTS(n > 0);
  conn_.resize(n);
  for (auto& row : conn_) row.resize(n);

  // Bind one listener per node on an ephemeral loopback port.
  std::vector<int> listeners(n, -1);
  std::vector<std::uint16_t> ports(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw_errno("bind");
    }
    if (::listen(fd, static_cast<int>(n)) < 0) throw_errno("listen");
    socklen_t alen = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) < 0) {
      throw_errno("getsockname");
    }
    listeners[i] = fd;
    ports[i] = ntohs(addr.sin_port);
  }

  // Connect the mesh: for every pair (i, j) with i < j, i dials j. The
  // dialer announces its id in a 4-byte hello so the acceptor can place the
  // connection. Accepts are interleaved with dials to avoid backlog stalls
  // (loopback backlog is ample for our n, so a simple two-phase loop works).
  for (std::size_t j = 0; j < n; ++j) {
    // Dial all higher-numbered peers first...
    for (std::size_t k = j + 1; k < n; ++k) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket(dial)");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(ports[k]);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
        throw_errno("connect");
      }
      set_nodelay(fd);
      const std::uint32_t hello = static_cast<std::uint32_t>(j);
      if (!write_all(fd, &hello, sizeof(hello))) throw_errno("hello");
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->owner = static_cast<NodeId>(j);
      conn_[j][k] = conn;
    }
    // ...then accept all lower-numbered dialers. Each side of a pair holds
    // its own Conn around its own end of the one TCP connection.
    for (std::size_t accepted = 0; accepted < j; ++accepted) {
      const int fd = ::accept(listeners[j], nullptr, nullptr);
      if (fd < 0) throw_errno("accept");
      set_nodelay(fd);
      std::uint32_t hello = 0;
      if (!read_exact(fd, &hello, sizeof(hello))) throw_errno("hello read");
      CM_ASSERT_MSG(hello < n, "bogus hello id");
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->owner = static_cast<NodeId>(j);
      conn_[j][hello] = conn;
    }
  }

  for (int fd : listeners) ::close(fd);
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::register_node(NodeId id, Handler handler) {
  CM_EXPECTS(id < n_);
  CM_EXPECTS_MSG(!started_.load(), "register_node after start()");
  handlers_[id] = std::move(handler);
}

void TcpTransport::start() {
  CM_EXPECTS_MSG(!started_.exchange(true), "transport started twice");
  for (std::size_t i = 0; i < n_; ++i) {
    CM_EXPECTS_MSG(handlers_[i] != nullptr, "node missing handler");
  }
  // One reader per endpoint per peer connection.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j || conn_[i][j] == nullptr) continue;
      Conn& c = *conn_[i][j];
      c.reader = std::jthread([this, &c] { run_reader(c); });
    }
  }
}

void TcpTransport::mark_broken(Conn& conn, const char* why) {
  if (conn.broken.exchange(true)) return;
  CM_LOG_WARN("tcp connection (node " << conn.owner << ") torn down: " << why);
  // SHUT_RDWR wakes this side's reader and pushes an EOF/RST to the peer,
  // whose reader then exits too — the pair is dead in both directions. The
  // fd itself is closed once, in shutdown().
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
}

void TcpTransport::run_reader(Conn& conn) {
  // Both buffers live for the whole connection: after the first few frames
  // their capacity covers the steady state and reads decode allocation-free.
  std::vector<std::byte> payload;
  Message m;
  for (;;) {
    std::uint32_t len = 0;
    if (!read_exact(conn.fd, &len, sizeof(len))) return;
    // Never trust the length prefix: a corrupt frame must not drive a
    // multi-gigabyte allocation. Tear the connection down instead.
    if (len == 0 || len > kMaxFrameBytes) {
      if (stats_ != nullptr && conn.owner < n_) {
        stats_->node(conn.owner).bump(Counter::kNetFrameError);
      }
      mark_broken(conn, "corrupt frame length");
      return;
    }
    payload.resize(len);
    if (!read_exact(conn.fd, payload.data(), len)) return;
    if (stopping_.load(std::memory_order_acquire)) return;
    Message::decode_into(payload, m);
    CM_ASSERT(m.to < n_);
    trace_msg(m.to, obs::TraceEventKind::kRecv, m);
    handlers_[m.to](m);
  }
}

void TcpTransport::send(Message m) {
  CM_EXPECTS(m.from < n_ && m.to < n_ && m.from != m.to);
  if (stopping_.load(std::memory_order_acquire)) return;
  auto conn = conn_[m.from][m.to];
  CM_ASSERT(conn != nullptr);
  if (conn->broken.load(std::memory_order_acquire)) {
    // Fail fast: the connection already died; count the lost send so the
    // blocked-requester symptom is visible in stats instead of silent.
    if (stats_ != nullptr) stats_->node(m.from).bump(Counter::kNetSendFailed);
    return;
  }
  trace_msg(m.from, obs::TraceEventKind::kSend, m);
  write_frame(*conn, m);
}

void TcpTransport::send_raw(NodeId from, NodeId to,
                            std::span<const std::byte> bytes) {
  CM_EXPECTS(from < n_ && to < n_ && from != to);
  auto conn = conn_[from][to];
  CM_ASSERT(conn != nullptr);
  std::scoped_lock lock(conn->write_mu);
  (void)write_all(conn->fd, bytes.data(), bytes.size());
}

void TcpTransport::write_frame(Conn& conn, const Message& m) {
  // A frame needs no connection state, so it is encoded before write_mu is
  // taken. The frame is assembled — length prefix and payload — in the
  // connection's reusable buffer and written with a single send() call.
  std::vector<std::byte> payload = m.encode();
  std::scoped_lock lock(conn.write_mu);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  conn.wbuf.clear();
  conn.wbuf.resize(sizeof(len));
  std::memcpy(conn.wbuf.data(), &len, sizeof(len));
  conn.wbuf.insert(conn.wbuf.end(), payload.begin(), payload.end());
  FrameArena::release(std::move(payload));
  // A failed send means the reply the peer owes us will never come; silently
  // dropping it would leave a blocked requester waiting forever. Count it,
  // log it, and break the connection so later sends fail fast.
  if (!write_all(conn.fd, conn.wbuf.data(), conn.wbuf.size())) {
    if (stats_ != nullptr && conn.owner < n_) {
      stats_->node(conn.owner).bump(Counter::kNetSendFailed);
    }
    mark_broken(conn, "frame write failed");
  }
}

void TcpTransport::shutdown() {
  if (stopping_.exchange(true)) return;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (conn_[i][j] != nullptr && conn_[i][j]->fd >= 0) {
        ::shutdown(conn_[i][j]->fd, SHUT_RDWR);
      }
    }
  }
  // Every cell owns a distinct per-side Conn, so each is joined and closed
  // exactly once.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      auto& c = conn_[i][j];
      if (c == nullptr) continue;
      if (c->reader.joinable()) c->reader.join();
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
      }
      c = nullptr;
    }
  }
}

}  // namespace causalmem
