#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace fifer {

template <typename T>
class Slab;

/// Generation-checked handle into a `Slab<T>`: a dense 32-bit slot index
/// plus a 32-bit generation counter. The slab bumps a slot's generation on
/// erase, so a handle held across an erase dereferences to nullptr instead
/// of aliasing whatever entity later reuses the slot. Default-constructed
/// handles are null.
template <typename T>
struct SlabHandle {
  static constexpr std::uint32_t kNil = 0xffffffffu;

  std::uint32_t index = kNil;
  std::uint32_t gen = 0;

  explicit operator bool() const { return index != kNil; }

  friend bool operator==(const SlabHandle& a, const SlabHandle& b) {
    return a.index == b.index && a.gen == b.gen;
  }
  friend bool operator!=(const SlabHandle& a, const SlabHandle& b) {
    return !(a == b);
  }
};

/// Slab/arena registry for the data-plane entities (containers, jobs, server
/// connections): chunked pointer-stable storage with freelist slot reuse and
/// generation-checked handles (DESIGN.md §5g).
///
/// Properties the hot path relies on:
///  - **No per-entity heap allocation.** Storage grows in chunks of
///    `kChunkSize` elements; a steady-state spawn/terminate cycle recycles
///    freelist slots and never touches the allocator.
///  - **Pointer stability.** Elements are never moved or copied, so `T`
///    need be neither movable nor copyable, and raw
///    pointers/references stay valid until that element is erased.
///  - **Deterministic, scan-friendly iteration order.** Live slot indices
///    sit densely in an *insertion-order* vector, so iterating a slab is
///    byte-for-byte equivalent to iterating the
///    `std::vector<std::unique_ptr<T>>` fleet it replaces (push_back +
///    order-preserving erase) — the property the golden-digest tests pin —
///    while each step is an independent, prefetchable indexed load rather
///    than a serialized pointer chase (the reaper, the conservation check
///    and the scalers' sweeps still scan fleets once per tick).
///  - **Use-after-erase detection.** `get()` on a stale handle returns
///    nullptr instead of a dangling pointer.
///
/// Iterator invalidation matches the vector it emulates: `emplace` and
/// `erase` invalidate iterators (handles stay valid until their element is
/// erased). To drop elements mid-scan, use `erase_if` — a single
/// order-preserving compaction pass, which is also what keeps bulk reaping
/// O(n) instead of O(n²).
///
/// Not thread-safe; one thread owns each slab (the event loop for fleets and
/// connections).
template <typename T>
class Slab {
 public:
  using Handle = SlabHandle<T>;
  static constexpr std::uint32_t kNil = Handle::kNil;
  /// Elements per storage chunk. 64 keeps chunk allocations rare without
  /// committing megabytes for small fleets.
  static constexpr std::size_t kChunkSize = 64;

  Slab() = default;
  ~Slab() { clear(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  Slab(Slab&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        meta_(std::move(other.meta_)),
        free_(std::move(other.free_)),
        order_(std::move(other.order_)) {
    other.chunks_.clear();
    other.meta_.clear();
    other.free_.clear();
    other.order_.clear();
  }

  Slab& operator=(Slab&& other) noexcept {
    if (this != &other) {
      clear();
      chunks_ = std::move(other.chunks_);
      meta_ = std::move(other.meta_);
      free_ = std::move(other.free_);
      order_ = std::move(other.order_);
      other.chunks_.clear();
      other.meta_.clear();
      other.free_.clear();
      other.order_.clear();
    }
    return *this;
  }

  /// Constructs a new element in place (appended at the tail of the
  /// iteration order) and returns its handle.
  template <typename... Args>
  Handle emplace(Args&&... args) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(meta_.size());
      if (idx % kChunkSize == 0) chunks_.push_back(std::make_unique<Chunk>());
      meta_.push_back(Meta{});
    }
    try {
      ::new (static_cast<void*>(slot_ptr(idx))) T(std::forward<Args>(args)...);
    } catch (...) {
      free_.push_back(idx);
      throw;
    }
    Meta& m = meta_[idx];
    m.occupied = true;
    m.pos = static_cast<std::uint32_t>(order_.size());
    order_.push_back(idx);
    return Handle{idx, m.gen};
  }

  /// Destroys the element `h` refers to; the slot goes back on the freelist
  /// and the handle (and any copy of it) goes stale. Returns false when the
  /// handle is already stale or null. O(live) — positions after the erased
  /// element shift left, preserving iteration order; use `erase_if` to drop
  /// many elements in one pass.
  bool erase(Handle h) {
    if (!alive(h)) return false;
    const std::uint32_t pos = meta_[h.index].pos;
    retire_slot(h.index);
    order_.erase(order_.begin() + pos);
    for (std::size_t i = pos; i < order_.size(); ++i) {
      meta_[order_[i]].pos = static_cast<std::uint32_t>(i);
    }
    return true;
  }

  /// Destroys every element for which `pred(element)` is true, in one
  /// order-preserving compaction pass (the `remove_if` analogue). Returns
  /// the number erased. `pred` must not touch the slab.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t out = 0;
    const std::size_t n = order_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t idx = order_[i];
      if (pred(const_cast<const T&>(*slot_ptr(idx)))) {
        retire_slot(idx);
      } else {
        order_[out] = idx;
        meta_[idx].pos = static_cast<std::uint32_t>(out);
        ++out;
      }
    }
    order_.resize(out);
    return n - out;
  }

  /// Handle dereference; nullptr when the handle is stale or null.
  T* get(Handle h) { return alive(h) ? slot_ptr(h.index) : nullptr; }
  const T* get(Handle h) const {
    return alive(h) ? const_cast<Slab*>(this)->slot_ptr(h.index) : nullptr;
  }

  /// Unchecked dereference: the handle must be live.
  T& operator[](Handle h) { return *slot_ptr(h.index); }
  const T& operator[](Handle h) const {
    return *const_cast<Slab*>(this)->slot_ptr(h.index);
  }

  bool alive(Handle h) const {
    return h.index < meta_.size() && meta_[h.index].occupied &&
           meta_[h.index].gen == h.gen;
  }

  std::size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }

  /// Destroys every element and resets the slab (storage is released).
  void clear() {
    for (const std::uint32_t idx : order_) slot_ptr(idx)->~T();
    chunks_.clear();
    meta_.clear();
    free_.clear();
    order_.clear();
  }

  // ----- iteration (insertion order over live elements) -----

  template <bool Const>
  class Iter {
   public:
    using value_type = T;
    using reference = std::conditional_t<Const, const T&, T&>;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using SlabPtr = std::conditional_t<Const, const Slab*, Slab*>;

    Iter() = default;
    Iter(SlabPtr slab, std::size_t pos) : slab_(slab), pos_(pos) {}

    reference operator*() const {
      return *const_cast<Slab*>(slab_)->slot_ptr(slab_->order_[pos_]);
    }
    pointer operator->() const {
      return const_cast<Slab*>(slab_)->slot_ptr(slab_->order_[pos_]);
    }
    Iter& operator++() {
      ++pos_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    /// The handle of the element the iterator points at.
    Handle handle() const {
      const std::uint32_t idx = slab_->order_[pos_];
      return Handle{idx, slab_->meta_[idx].gen};
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) { return !(a == b); }

   private:
    SlabPtr slab_ = nullptr;
    std::size_t pos_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, order_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, order_.size()); }

 private:
  struct Meta {
    std::uint32_t gen = 0;
    std::uint32_t pos = kNil;  ///< Position in order_; kNil when free.
    bool occupied = false;
  };
  struct Chunk {
    alignas(T) std::byte bytes[kChunkSize * sizeof(T)];
  };

  T* slot_ptr(std::uint32_t idx) {
    return std::launder(reinterpret_cast<T*>(
        chunks_[idx / kChunkSize]->bytes + (idx % kChunkSize) * sizeof(T)));
  }

  /// Destroys the element in `idx` and returns the slot to the freelist;
  /// the caller maintains order_.
  void retire_slot(std::uint32_t idx) {
    slot_ptr(idx)->~T();
    Meta& m = meta_[idx];
    m.occupied = false;
    m.pos = kNil;
    ++m.gen;  // stale every outstanding handle to this slot
    free_.push_back(idx);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<Meta> meta_;
  std::vector<std::uint32_t> free_;
  /// Slot indices of live elements, densely packed in insertion order.
  std::vector<std::uint32_t> order_;
};

}  // namespace fifer
