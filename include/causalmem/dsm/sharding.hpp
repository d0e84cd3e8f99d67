// Consistent-hash sharding: the page -> owner-shard mapping for scale-out
// deployments (docs/SHARDING.md). Generalizes the node-id ring the failover
// layer already walks: every node projects `virtual_nodes` points onto a
// 64-bit hash ring, a page is owned by the first point at or after the
// page's own hash, and "the next node after X" (failover succession, probe
// neighbourhoods) becomes ring order over those points instead of id order.
//
// Properties the rest of the system relies on:
//   - Deterministic: the ring is a pure function of (n, virtual_nodes), so
//     every node computes identical owners and identical successor orders
//     with no coordination (the same property StripedOwnership had).
//   - Balanced: virtual nodes smooth the partition; with v >= 8 per node no
//     node owns more than a small constant multiple of the mean.
//   - Minimal movement: removing one node reassigns only the pages whose
//     owning point belonged to it — every other page keeps its owner. That
//     is what makes failover rebalance deterministic AND incremental: the
//     dead node's pages spread over its ring successors instead of dogpiling
//     one victim.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "causalmem/common/expect.hpp"
#include "causalmem/common/types.hpp"
#include "causalmem/dsm/ownership.hpp"

namespace causalmem {

class HashRing {
 public:
  /// Builds the ring for nodes [0, n) with `virtual_nodes` points each.
  HashRing(std::size_t n, std::size_t virtual_nodes = 8);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t virtual_nodes() const noexcept { return vnodes_; }

  /// The node owning `key` (first ring point at or after hash(key)).
  [[nodiscard]] NodeId owner_of(std::uint64_t key) const;

  /// Every other node, ordered by first encounter walking the ring forward
  /// from `node`'s primary point. This is the deterministic succession
  /// order: the failover directory picks the first live (durable-preferred)
  /// entry.
  [[nodiscard]] std::vector<NodeId> successor_order(NodeId node) const;

  /// Stable 64-bit mix (splitmix64) used for both ring points and keys.
  [[nodiscard]] static std::uint64_t hash64(std::uint64_t x) noexcept;

 private:
  struct Point {
    std::uint64_t hash;
    NodeId node;
    friend bool operator<(const Point& a, const Point& b) noexcept {
      return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
    }
  };

  std::size_t n_;
  std::size_t vnodes_;
  std::vector<Point> points_;  // sorted by hash
};

/// Ownership over a HashRing: owner(x) hashes the page index, so ownership
/// is constant within a page (the protocol's sharing-unit contract) and
/// uniformly spread across shards regardless of address locality.
class HashRingOwnership final : public Ownership {
 public:
  HashRingOwnership(std::size_t n, Addr page_size = 1,
                    std::size_t virtual_nodes = 8)
      : ring_(n, virtual_nodes), page_size_(page_size) {
    CM_EXPECTS(page_size > 0);
  }

  [[nodiscard]] NodeId owner(Addr x) const override {
    return ring_.owner_of(x / page_size_);
  }

  [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }

 private:
  HashRing ring_;
  Addr page_size_;
};

}  // namespace causalmem
