#include "causalmem/vclock/vector_clock.hpp"

#include <sstream>

namespace causalmem {

void VectorClock::grow(std::size_t want) {
  // Doubling amortizes the entry-by-entry growth of increment; a sparse
  // clock never holds more than dense_above(n) entries.
  const std::size_t cap = std::max(
      want, std::min<std::size_t>(2 * std::size_t{cap_}, dense_above(n_)));
  Entry* fresh = std::allocator<Entry>().allocate(cap);
  std::copy_n(data_, nnz_, fresh);
  release();
  data_ = fresh;
  cap_ = static_cast<std::uint32_t>(cap);
}

void VectorClock::make_dense() {
  std::uint64_t* all = allocate_dense(n_);
  std::fill_n(all, n_, 0);
  for (const Entry* e = data_; e != end(); ++e) all[e->index] = e->value;
  release();
  data_ = inline_;
  cap_ = kInlineEntries;
  nnz_ = 0;  // a dense clock keeps no sparse entries
  dense_ = all;
}

std::uint64_t* VectorClock::allocate_dense(std::uint32_t n) {
  return std::allocator<std::uint64_t>().allocate(n);
}

std::string VectorClock::to_string() const {
  std::ostringstream oss;
  oss << "[";
  Reader r(*this);
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (i != 0) oss << ",";
    oss << r.at(i);
  }
  oss << "]";
  return oss.str();
}

}  // namespace causalmem
