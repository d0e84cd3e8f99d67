#include "causalmem/dsm/sharding.hpp"

namespace causalmem {

std::uint64_t HashRing::hash64(std::uint64_t x) noexcept {
  // splitmix64 finalizer: cheap, well-mixed, and stable across platforms —
  // the ring must be identical on every node of a mixed-build mesh.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

HashRing::HashRing(std::size_t n, std::size_t virtual_nodes)
    : n_(n), vnodes_(virtual_nodes) {
  CM_EXPECTS(n > 0);
  CM_EXPECTS(virtual_nodes > 0);
  points_.reserve(n * virtual_nodes);
  for (NodeId node = 0; node < n; ++node) {
    for (std::size_t r = 0; r < virtual_nodes; ++r) {
      // Mix the replica index into the high bits so (node, replica) pairs
      // never collide by construction of the input.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint64_t>(node);
      points_.push_back(Point{hash64(key), node});
    }
  }
  std::sort(points_.begin(), points_.end());
}

NodeId HashRing::owner_of(std::uint64_t key) const {
  const std::uint64_t h = hash64(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), Point{h, 0},
      [](const Point& a, const Point& b) { return a.hash < b.hash; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->node;
}

std::vector<NodeId> HashRing::successor_order(NodeId node) const {
  CM_EXPECTS(node < n_);
  // Walk forward from the node's first (lowest-hash) point; first encounter
  // of each other node defines its rank. O(points) — succession is a cold
  // path, taken only by failover.
  std::size_t start = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].node == node) {
      start = i;
      break;
    }
  }
  std::vector<NodeId> order;
  order.reserve(n_ - 1);
  std::vector<bool> seen(n_, false);
  seen[node] = true;
  for (std::size_t step = 1; step < points_.size() && order.size() + 1 < n_;
       ++step) {
    const Point& p = points_[(start + step) % points_.size()];
    if (!seen[p.node]) {
      seen[p.node] = true;
      order.push_back(p.node);
    }
  }
  return order;
}

}  // namespace causalmem
