// Vector timestamps ("writestamps") exactly as used by the paper's owner
// protocol (Section 3.1):
//
//   - increment(i):    VT[i] += 1
//   - update(VT, VT'): component-wise max
//   - VT < VT':        forall i: VT[i] <= VT'[i]  and  exists j: VT[j] < VT'[j]
//
// Two stamps not ordered by `<` in either direction are concurrent.
//
// Representation: a clock pays for the components it uses. A sparse clock
// stores the dimension n plus only its nonzero components, sorted by index,
// the first kInlineEntries of them inside the clock itself, so operations
// are merge walks costing O(nonzeros); in a large simulated system a
// writestamp holds about one nonzero entry out of hundreds. Past
// dense_above(n) nonzero components a merge walk costs more than a plain
// loop, and the clock switches to dense storage: all n components in one
// array. The form is a function of the nonzero count (a clock's count
// never falls, and copies keep their source's form), so equal clocks share
// a form and `==` compares storage directly. On the wire a clock carries
// only its nonzero components, in either form (see "Wire format" below).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "causalmem/common/codec.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/common/types.hpp"

namespace causalmem {

/// Result of comparing two vector timestamps under the causal partial order.
enum class ClockOrder : std::uint8_t {
  kEqual,       ///< identical components
  kBefore,      ///< lhs < rhs
  kAfter,       ///< lhs > rhs
  kConcurrent,  ///< neither dominates
};

class VectorClock {
 public:
  /// Nonzero components a sparse clock holds inside itself: the threaded
  /// systems have 3-4 nodes, and simulated writestamps hold about one.
  static constexpr std::uint32_t kInlineEntries = 4;

  /// A clock of dimension n with more nonzero components than this is
  /// stored densely.
  [[nodiscard]] static constexpr std::uint32_t dense_above(
      std::uint32_t n) noexcept {
    return std::max(kInlineEntries, n / 8);
  }

  // User-provided so the inline entries stay uninitialized: only the first
  // nnz_ are ever read.
  VectorClock() noexcept {}  // NOLINT(modernize-use-equals-default)

  /// A zero clock over `n` processes (stores nothing).
  explicit VectorClock(std::size_t n) : n_(dimension(n)) {}

  /// Builds from explicit dense components (tests, examples, cold paths).
  explicit VectorClock(const std::vector<std::uint64_t>& components) {
    assign_components(dimension(components.size()), components.data());
  }

  VectorClock(const VectorClock& other) : n_(other.n_) { copy_from(other); }

  VectorClock(VectorClock&& other) noexcept
      : dense_(other.dense_), n_(other.n_), nnz_(other.nnz_) {
    other.dense_ = nullptr;
    if (other.on_heap()) {
      data_ = other.data_;
      cap_ = other.cap_;
      other.data_ = other.inline_;
      other.cap_ = kInlineEntries;
    } else if (dense_ == nullptr) {
      std::copy_n(other.inline_, nnz_, inline_);
    }
    other.n_ = 0;
    other.nnz_ = 0;
  }

  VectorClock& operator=(const VectorClock& other) {
    if (this != &other) {
      if (other.dense_ == nullptr || other.n_ != n_) drop_dense();
      n_ = other.n_;
      nnz_ = 0;  // nothing to keep if the sparse storage reallocates
      copy_from(other);
    }
    return *this;
  }

  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this == &other) return *this;
    drop_dense();
    if (other.dense_ != nullptr) {
      dense_ = other.dense_;
      other.dense_ = nullptr;
    } else if (other.on_heap()) {
      release();
      data_ = other.data_;
      cap_ = other.cap_;
      other.data_ = other.inline_;
      other.cap_ = kInlineEntries;
    } else {
      // Fits: other holds at most kInlineEntries <= cap_.
      std::copy_n(other.inline_, other.nnz_, data_);
    }
    n_ = other.n_;
    nnz_ = other.nnz_;
    other.n_ = 0;
    other.nnz_ = 0;
    return *this;
  }

  ~VectorClock() {
    release();
    drop_dense();
  }

  /// The dimension n (number of processes), zeros included.
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Number of nonzero components (counted, for a dense clock).
  [[nodiscard]] std::size_t nonzero_count() const noexcept {
    if (dense_ == nullptr) return nnz_;
    return static_cast<std::size_t>(
        n_ - std::count(dense_, dense_ + n_, std::uint64_t{0}));
  }

  /// True when all n components are stored (more than dense_above(n) are
  /// nonzero); otherwise only the nonzero ones are.
  [[nodiscard]] bool dense() const noexcept { return dense_ != nullptr; }

  /// Walks the nonzero components in index order: O(nonzeros) for a sparse
  /// clock, O(n) for a dense one.
  class NonzeroCursor {
   public:
    explicit NonzeroCursor(const VectorClock& c) noexcept : c_(&c) {
      if (c_->dense_ != nullptr) skip_zeros();
    }
    [[nodiscard]] bool done() const noexcept {
      return pos_ == (c_->dense_ != nullptr ? c_->n_ : c_->nnz_);
    }
    [[nodiscard]] std::uint32_t index() const noexcept {
      return c_->dense_ != nullptr ? pos_ : c_->data_[pos_].index;
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
      return c_->dense_ != nullptr ? c_->dense_[pos_] : c_->data_[pos_].value;
    }
    void next() noexcept {
      ++pos_;
      if (c_->dense_ != nullptr) skip_zeros();
    }

   private:
    void skip_zeros() noexcept {
      while (pos_ < c_->n_ && c_->dense_[pos_] == 0) ++pos_;
    }
    const VectorClock* c_;
    std::uint32_t pos_{0};
  };

  [[nodiscard]] std::uint64_t operator[](NodeId i) const {
    CM_EXPECTS(i < n_);
    if (dense_ != nullptr) return dense_[i];
    const Entry* e = find(i);
    return e != end() && e->index == i ? e->value : 0;
  }

  /// Adds one to the i-th component (the paper's `increment(VT_i)`).
  void increment(NodeId i) {
    CM_EXPECTS(i < n_);
    if (dense_ == nullptr) {
      Entry* e = find(i);
      if (e != end() && e->index == i) {
        ++e->value;
        return;
      }
      if (nnz_ < dense_above(n_)) {
        const std::size_t pos = static_cast<std::size_t>(e - data_);
        reserve(nnz_ + 1);
        std::copy_backward(data_ + pos, data_ + nnz_, data_ + nnz_ + 1);
        data_[pos] = Entry{i, 1};
        ++nnz_;
        return;
      }
      make_dense();
    }
    ++dense_[i];
  }

  /// Component-wise max with `other` (the paper's `update(VT, VT')`), in
  /// place. Between sparse clocks, the first walk raises shared components
  /// and counts the indices only `other` has; when there are any, a
  /// backward merge makes room for them without a temporary, unless they
  /// take the clock past dense_above(n). Allocates only when storage grows.
  void update(const VectorClock& other) {
    CM_EXPECTS(other.n_ == n_);
    if (other.dense_ != nullptr) {
      if (dense_ == nullptr) make_dense();
      std::uint64_t* const a = dense_;
      const std::uint64_t* const b = other.dense_;
      for (std::uint32_t i = 0; i < n_; ++i) {
        if (b[i] > a[i]) a[i] = b[i];
      }
      return;
    }
    if (dense_ != nullptr) {
      raise_dense(other);
      return;
    }
    // Lockstep while both clocks store the same indices — to the end when
    // they hold the same components, as small clocks often do.
    const std::uint32_t limit = std::min(nnz_, other.nnz_);
    std::uint32_t common = 0;
    for (; common < limit && data_[common].index == other.data_[common].index;
         ++common) {
      data_[common].value =
          std::max(data_[common].value, other.data_[common].value);
    }
    if (common == other.nnz_) return;
    std::uint32_t fresh = 0;
    Entry* a = data_ + common;
    Entry* const a_end = end();
    for (const Entry* b = other.data_ + common; b != other.end(); ++b) {
      while (a != a_end && a->index < b->index) ++a;
      if (a != a_end && a->index == b->index) {
        a->value = std::max(a->value, b->value);
      } else {
        ++fresh;
      }
    }
    if (fresh == 0) return;
    if (nnz_ + fresh > dense_above(n_)) {
      make_dense();
      raise_dense(other);
      return;
    }
    reserve(nnz_ + fresh);
    const Entry* bi = other.data_ + other.nnz_;
    Entry* ai = data_ + nnz_;
    Entry* out = data_ + nnz_ + fresh;
    while (out != ai) {  // until every fresh entry has its slot
      if (ai != data_ && (ai - 1)->index >= (bi - 1)->index) {
        // Shared indices were already raised by the first walk.
        if ((ai - 1)->index == (bi - 1)->index) --bi;
        *--out = *--ai;
      } else {
        *--out = *--bi;
      }
    }
    nnz_ += fresh;
  }

  /// Full partial-order comparison against `other`. Concurrency is decided
  /// as soon as both directions have been witnessed — the invalidation path
  /// compares every cached stamp against every incoming one, and most pairs
  /// of large clocks are concurrent, so the early return matters.
  [[nodiscard]] ClockOrder compare(const VectorClock& other) const {
    CM_EXPECTS(other.n_ == n_);
    bool some_less = false;
    bool some_greater = false;
    // True once both directions are witnessed.
    const auto witness = [&](std::uint64_t av, std::uint64_t bv) {
      some_less = some_less || av < bv;
      some_greater = some_greater || av > bv;
      return some_less && some_greater;
    };
    if (dense_ != nullptr && other.dense_ != nullptr) {
      const std::uint64_t* const a = dense_;
      const std::uint64_t* const b = other.dense_;
      for (std::uint32_t i = 0; i < n_; ++i) {
        if (a[i] < b[i]) {
          if (some_greater) return ClockOrder::kConcurrent;
          some_less = true;
        } else if (a[i] > b[i]) {
          if (some_less) return ClockOrder::kConcurrent;
          some_greater = true;
        }
      }
    } else if (dense_ != nullptr || other.dense_ != nullptr) {
      Reader ra(*this);
      Reader rb(other);
      for (std::uint32_t i = 0; i < n_; ++i) {
        if (witness(ra.at(i), rb.at(i))) return ClockOrder::kConcurrent;
      }
    } else {
      const Entry* a = data_;
      const Entry* b = other.data_;
      while (a != end() && b != other.end()) {
        if (a->index == b->index) {
          if (witness(a->value, b->value)) return ClockOrder::kConcurrent;
          ++a;
          ++b;
        } else if (a->index < b->index) {  // other's component is zero
          if (witness(a->value, 0)) return ClockOrder::kConcurrent;
          ++a;
        } else {  // this component is zero
          if (witness(0, b->value)) return ClockOrder::kConcurrent;
          ++b;
        }
      }
      if (a != end()) some_greater = true;
      if (b != other.end()) some_less = true;
    }
    if (some_less && some_greater) return ClockOrder::kConcurrent;
    if (some_less) return ClockOrder::kBefore;
    if (some_greater) return ClockOrder::kAfter;
    return ClockOrder::kEqual;
  }

  /// The paper's `VT < VT'` (strictly dominated).
  [[nodiscard]] bool before(const VectorClock& other) const {
    return compare(other) == ClockOrder::kBefore;
  }

  /// True when neither clock dominates the other.
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return compare(other) == ClockOrder::kConcurrent;
  }

  /// True when every component is at most max(a[k], b[k]): this <= a ⊔ b,
  /// decided without building the join.
  [[nodiscard]] bool leq_join(const VectorClock& a,
                              const VectorClock& b) const {
    CM_EXPECTS(a.n_ == n_ && b.n_ == n_);
    Reader ra(a);
    Reader rb(b);
    for (NonzeroCursor c(*this); !c.done(); c.next()) {
      if (c.value() > std::max(ra.at(c.index()), rb.at(c.index()))) {
        return false;
      }
    }
    return true;
  }

  friend bool operator==(const VectorClock& a,
                         const VectorClock& b) noexcept {
    // Equal clocks have equal nonzero counts, hence the same form.
    if (a.n_ != b.n_ || a.dense() != b.dense()) return false;
    if (a.dense_ != nullptr) {
      return std::equal(a.dense_, a.dense_ + a.n_, b.dense_);
    }
    if (a.nnz_ != b.nnz_) return false;
    const Entry* first = a.data_;
    return std::equal(first, a.end(), b.data_,
                      [](const Entry& x, const Entry& y) {
                        return x.index == y.index && x.value == y.value;
                      });
  }

  /// Writes all n components into `out` (resized to n), reusing its
  /// capacity — for the cold consumers of a dense view (traces, probes).
  void to_dense(std::vector<std::uint64_t>& out) const {
    out.resize(n_);
    Reader r(*this);
    for (std::uint32_t i = 0; i < n_; ++i) out[i] = r.at(i);
  }

  // Wire format ------------------------------------------------------------
  //
  // A clock frame is stateless and holds the nonzero components only, each
  // field an unsigned LEB128 varint (ByteWriter::put_varint):
  //   n, nonzeros, then per nonzero component in index order:
  //   gap (zero components skipped since the previous one), value.
  // The empty clock of a stamp-less message is two bytes. Decode checks
  // each field before it uses it: n must fit a u32, the nonzero count may
  // exceed neither n nor remaining()/2 (each component takes at least two
  // bytes), so storage is sized only from counts the frame can back; every
  // index must fall below n and every value must be nonzero, so the storage
  // form chosen from the declared count is the form the contents call for,
  // and `==` stays a storage comparison.

  /// Writes this clock's frame.
  void encode(ByteWriter& w) const {
    w.put_varint(n_);
    w.put_varint(nonzero_count());
    std::uint32_t next = 0;  // lowest index the next component may have
    for (NonzeroCursor c(*this); !c.done(); c.next()) {
      w.put_varint(c.index() - next);
      w.put_varint(c.value());
      next = c.index() + 1;
    }
  }

  /// u32 n, then all n components as u64 — how the persistence formats
  /// (WAL records and checkpoints) store a clock.
  void encode_dense(ByteWriter& w) const {
    w.put_count(n_);
    Reader r(*this);
    for (std::uint32_t i = 0; i < n_; ++i) w.put<std::uint64_t>(r.at(i));
  }

  static VectorClock decode(ByteReader& r) {
    VectorClock vt;
    vt.decode_in_place(r);
    return vt;
  }

  /// Decodes a frame into this clock, reusing its storage (no allocation
  /// once it has grown to the clocks it receives). A dense form is only
  /// taken for more than n/8 nonzeros, so its n-entry array is bounded by
  /// a small multiple of the frame's own bytes.
  void decode_in_place(ByteReader& r) {
    const std::uint32_t n = dimension(r.get_varint());
    const std::uint64_t nonzeros = r.get_varint();
    CM_EXPECTS_MSG(nonzeros <= n, "clock nonzero count exceeds dimension");
    CM_EXPECTS_MSG(nonzeros <= r.remaining() / 2, "codec under-run (clock)");
    reshape(n, static_cast<std::uint32_t>(nonzeros));
    if (dense_ != nullptr) std::fill_n(dense_, n, 0);
    std::uint32_t next = 0;
    for (std::uint64_t k = 0; k < nonzeros; ++k) {
      const std::uint64_t gap = r.get_varint();
      CM_EXPECTS_MSG(gap < n - next, "clock index out of range");
      const auto i = static_cast<std::uint32_t>(next + gap);
      const std::uint64_t v = r.get_varint();
      CM_EXPECTS_MSG(v != 0, "clock component is zero");
      put(i, v);
      next = i + 1;
    }
  }

  [[nodiscard]] std::string to_string() const;

 private:
  /// One stored component of a sparse clock.
  struct Entry {
    std::uint32_t index;
    std::uint64_t value;
  };

  /// Reads components at non-decreasing indices: O(1) each for a dense
  /// clock, a forward walk over the entries for a sparse one.
  class Reader {
   public:
    explicit Reader(const VectorClock& c) noexcept
        : dense_(c.dense_), e_(c.data_), end_(c.end()) {}
    [[nodiscard]] std::uint64_t at(std::uint32_t i) noexcept {
      if (dense_ != nullptr) return dense_[i];
      while (e_ != end_ && e_->index < i) ++e_;
      return e_ != end_ && e_->index == i ? e_->value : 0;
    }

   private:
    const std::uint64_t* dense_;
    const Entry* e_;
    const Entry* end_;
  };

  static std::uint32_t dimension(std::size_t n) {
    CM_EXPECTS_MSG(n <= UINT32_MAX, "vector clock dimension overflows u32");
    return static_cast<std::uint32_t>(n);
  }

  [[nodiscard]] bool on_heap() const noexcept { return data_ != inline_; }
  [[nodiscard]] Entry* end() noexcept { return data_ + nnz_; }
  [[nodiscard]] const Entry* end() const noexcept { return data_ + nnz_; }

  /// First entry whose index is >= i.
  [[nodiscard]] Entry* find(NodeId i) const noexcept {
    return std::lower_bound(
        data_, data_ + nnz_, i,
        [](const Entry& e, NodeId k) { return e.index < k; });
  }

  /// Ensures room for `want` sparse entries, keeping the first nnz_.
  void reserve(std::size_t want) {
    if (want > cap_) grow(want);
  }

  /// Copies `other`'s components into this clock, whose n_ is already
  /// other's and whose dense storage, if any, has other's length.
  void copy_from(const VectorClock& other) {
    if (other.dense_ != nullptr) {
      if (dense_ == nullptr) dense_ = allocate_dense(n_);
      std::copy_n(other.dense_, n_, dense_);
    } else {
      reserve(other.nnz_);
      std::copy_n(other.data_, other.nnz_, data_);
    }
    nnz_ = other.nnz_;
  }

  /// Empties the clock, sets its dimension to n and takes the form for
  /// `nonzeros` nonzero components, which put() then fills in index order.
  void reshape(std::uint32_t n, std::uint32_t nonzeros) {
    const bool want_dense = nonzeros > dense_above(n);
    if (!want_dense || n != n_) drop_dense();
    n_ = n;
    nnz_ = 0;
    if (want_dense) {
      if (dense_ == nullptr) dense_ = allocate_dense(n);
    } else {
      reserve(nonzeros);
    }
  }

  /// Sets component i after reshape(); every component of a dense clock
  /// must be put, a sparse one needs only the nonzero ones.
  void put(std::uint32_t i, std::uint64_t v) noexcept {
    if (dense_ != nullptr) {
      dense_[i] = v;
    } else if (v != 0) {
      data_[nnz_++] = Entry{i, v};
    }
  }

  /// Replaces the components with dense[0, n).
  void assign_components(std::uint32_t n, const std::uint64_t* dense) {
    const auto nonzeros = static_cast<std::uint32_t>(
        n - static_cast<std::uint32_t>(std::count(dense, dense + n, 0)));
    reshape(n, nonzeros);
    for (std::uint32_t i = 0; i < n; ++i) put(i, dense[i]);
  }

  /// Max of each of `other`'s (sparse) entries into this dense clock.
  void raise_dense(const VectorClock& other) noexcept {
    for (const Entry* e = other.data_; e != other.end(); ++e) {
      dense_[e->index] = std::max(dense_[e->index], e->value);
    }
  }

  // Out of line: the cold (re)allocations.
  void grow(std::size_t want);
  void make_dense();
  static std::uint64_t* allocate_dense(std::uint32_t n);

  void release() noexcept {
    if (on_heap()) std::allocator<Entry>().deallocate(data_, cap_);
  }

  void drop_dense() noexcept {
    if (dense_ != nullptr) {
      std::allocator<std::uint64_t>().deallocate(dense_, n_);
      dense_ = nullptr;
    }
  }

  Entry* data_{inline_};               ///< sparse entries, sorted by index
  std::uint64_t* dense_{nullptr};      ///< all n_ components when dense
  std::uint32_t n_{0};
  std::uint32_t nnz_{0};               ///< sparse entries in use (0 if dense)
  std::uint32_t cap_{kInlineEntries};  ///< sparse entry capacity
  Entry inline_[kInlineEntries];
};

}  // namespace causalmem
