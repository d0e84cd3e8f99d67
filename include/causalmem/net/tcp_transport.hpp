// TCP transport: the same Transport contract over real loopback sockets.
// One TCP connection per unordered node pair gives reliable FIFO channels in
// both directions (TCP's own guarantees). Frames are 4-byte little-endian
// length prefixes followed by the Message codec bytes.
//
// All endpoints live in this process (the paper's system is n processors on
// one LAN; we run n node threads over real sockets on one machine), but
// nothing about the protocol code knows that — it only sees Transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "causalmem/net/transport.hpp"

namespace causalmem {

class TcpTransport final : public Transport {
 public:
  /// Upper bound on a frame's payload length. The largest legitimate frame
  /// is a page reply (page_size cells at ~28 wire bytes each), orders of
  /// magnitude below this; anything larger is a corrupt or hostile length
  /// prefix, and the connection is torn down instead of letting the claimed
  /// length drive a multi-gigabyte allocation.
  static constexpr std::uint32_t kMaxFrameBytes = 1u << 20;  // 1 MiB

  /// Creates n endpoints bound to 127.0.0.1 ephemeral ports and connects the
  /// full mesh. Throws std::system_error on socket failures.
  explicit TcpTransport(std::size_t n);
  ~TcpTransport() override;

  void register_node(NodeId id, Handler handler) override;
  void start() override;
  void send(Message m) override;
  void shutdown() override;
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  /// Fault-injection/test hook: writes `bytes` verbatim (no framing) on the
  /// from->to connection, so tests can feed a node truncated or oversized
  /// frames and observe the teardown path.
  void send_raw(NodeId from, NodeId to, std::span<const std::byte> bytes);

 private:
  struct Conn {
    int fd{-1};
    NodeId owner{kNoNode};  ///< the endpoint this Conn belongs to
    std::atomic<bool> broken{false};
    std::mutex write_mu;
    std::jthread reader;
    /// Write-side scratch (guarded by write_mu): the full [len | payload]
    /// frame is assembled here and written with one send() call.
    std::vector<std::byte> wbuf;
  };

  void run_reader(Conn& conn);
  void write_frame(Conn& conn, const Message& m);
  void mark_broken(Conn& conn, const char* why);

  std::size_t n_;
  std::vector<Handler> handlers_;
  // conn_[i][j] is i's own endpoint (fd) of the TCP connection of the pair
  // {i, j}: for i < j the dialer's socket, for i > j the accepted socket.
  // Every cell owns a distinct Conn with its own reader thread.
  std::vector<std::vector<std::shared_ptr<Conn>>> conn_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace causalmem
