#include "causalmem/net/message.hpp"

#include <sstream>

#include "causalmem/common/arena.hpp"

namespace causalmem {

const char* msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kRead: return "READ";
    case MsgType::kReadReply: return "R_REPLY";
    case MsgType::kWrite: return "WRITE";
    case MsgType::kWriteReply: return "W_REPLY";
    case MsgType::kInvalidate: return "INV";
    case MsgType::kInvalidateAck: return "INV_ACK";
    case MsgType::kBroadcastUpdate: return "BCAST";
    case MsgType::kRelAck: return "REL_ACK";
    case MsgType::kHeartbeat: return "HEARTBEAT";
    case MsgType::kSyncRequest: return "SYNC";
    case MsgType::kSyncReply: return "SYNC_REPLY";
    case MsgType::kRecover: return "RECOVER";
    case MsgType::kRecoverReply: return "RECOVER_REPLY";
    case MsgType::kInvalBatch: return "INV_BATCH";
  }
  return "?";
}

void CellUpdate::encode(ByteWriter& w) const {
  w.put(addr);
  w.put(value);
  w.put(tag.writer);
  w.put(tag.seq);
}

CellUpdate CellUpdate::decode(ByteReader& r) {
  CellUpdate c;
  c.addr = r.get<Addr>();
  c.value = r.get<Value>();
  c.tag.writer = r.get<NodeId>();
  c.tag.seq = r.get<std::uint64_t>();
  return c;
}

std::vector<std::byte> Message::encode() const {
  ByteWriter w(FrameArena::acquire());
  w.put(kWireVersion);
  w.put(type);
  w.put(from);
  w.put(to);
  w.put(request_id);
  w.put(addr);
  w.put(value);
  w.put(tag.writer);
  w.put(tag.seq);
  stamp.encode(w);
  w.put<std::uint8_t>(accepted ? 1 : 0);
  w.put_count(cells.size());
  for (const auto& c : cells) c.encode(w);
  w.put(rel_seq);
  w.put(rel_ack);
  w.put(trace_id);
  // Sharding trailer: piggybacked unsubscribe / invalidation page lists.
  w.put_count(unsub_pages.size());
  for (const Addr a : unsub_pages) w.put(a);
  w.put_count(inval_pages.size());
  for (const Addr a : inval_pages) w.put(a);
  return std::move(w).take();
}

Message Message::decode(std::span<const std::byte> bytes) {
  Message m;
  decode_into(bytes, m);
  return m;
}

void Message::decode_into(std::span<const std::byte> bytes, Message& m) {
  ByteReader r(bytes);
  const auto version = r.get<std::uint8_t>();
  CM_EXPECTS_MSG(version == kWireVersion, "unsupported wire version");
  const auto type = r.get<std::uint8_t>();
  CM_EXPECTS_MSG(type >= static_cast<std::uint8_t>(MsgType::kRead) &&
                     type <= static_cast<std::uint8_t>(MsgType::kInvalBatch),
                 "unsupported message type");
  m.type = static_cast<MsgType>(type);
  m.from = r.get<NodeId>();
  m.to = r.get<NodeId>();
  m.request_id = r.get<std::uint64_t>();
  m.addr = r.get<Addr>();
  m.value = r.get<Value>();
  m.tag.writer = r.get<NodeId>();
  m.tag.seq = r.get<std::uint64_t>();
  m.stamp.decode_in_place(r);
  m.accepted = r.get<std::uint8_t>() != 0;
  const auto n = r.get<std::uint32_t>();
  // Each cell occupies a fixed number of wire bytes; checking the count
  // against the remaining payload first keeps a corrupt count from forcing
  // a huge allocation before the under-run is caught.
  constexpr std::size_t kCellWireBytes =
      sizeof(Addr) + sizeof(Value) + sizeof(NodeId) + sizeof(std::uint64_t);
  CM_EXPECTS_MSG(r.remaining() / kCellWireBytes >= n,
                 "codec under-run (cell count)");
  m.cells.clear();
  m.cells.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.cells.push_back(CellUpdate::decode(r));
  m.rel_seq = r.get<std::uint64_t>();
  m.rel_ack = r.get<std::uint64_t>();
  m.trace_id = r.get<std::uint64_t>();
  // The page counts are checked against the remaining payload like the
  // cell count above.
  const auto read_pages = [&r](std::vector<Addr>& out) {
    const auto count = r.get<std::uint32_t>();
    CM_EXPECTS_MSG(r.remaining() / sizeof(Addr) >= count,
                   "codec under-run (page count)");
    out.clear();
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.get<Addr>());
  };
  read_pages(m.unsub_pages);
  read_pages(m.inval_pages);
  CM_ENSURES(r.exhausted());
}

std::string Message::to_string() const {
  std::ostringstream oss;
  oss << msg_type_name(type) << " P" << from << "->P" << to << " x=" << addr
      << " v=" << value << " " << causalmem::to_string(tag) << " VT="
      << stamp.to_string();
  if (!accepted) oss << " REJECTED";
  if (!cells.empty()) oss << " cells=" << cells.size();
  if (rel_seq != 0) oss << " rseq=" << rel_seq;
  if (rel_ack != 0) oss << " rack=" << rel_ack;
  if (trace_id != 0) oss << " tid=" << trace_id;
  if (!unsub_pages.empty()) oss << " unsubs=" << unsub_pages.size();
  if (!inval_pages.empty()) oss << " invals=" << inval_pages.size();
  return oss.str();
}

}  // namespace causalmem
