#include "cluster/fleet_index.hpp"

#include "common/check.hpp"

namespace fifer {

void FleetIndex::admit(Container& c) {
  FIFER_CHECK(c.index_ == nullptr, kCluster) << "container admitted twice";
  c.index_ = this;
  c.admission_seq_ = next_seq_++;
  add(c.footprint(), +1);
  rekey(c);
}

void FleetIndex::update(Container& c, const Container::Footprint& before) {
  add(before, -1);
  add(c.footprint(), +1);
  rekey(c);
}

void FleetIndex::rekey(Container& c) {
  const int free = c.free_slots();
  if (c.warm() && free > 0) {
    placement_.set(c, free, c.admission_seq_);
  } else {
    placement_.remove(c);
  }
  if (c.state() == ContainerState::kIdle && c.queued() == 0) {
    idle_.set(c, c.last_used_at(), c.admission_seq_);
  } else {
    idle_.remove(c);
  }
}

void FleetIndex::add(const Container::Footprint& f, int sign) {
  switch (f.state) {
    case ContainerState::kProvisioning:
      provisioning_ += sign;
      provisioning_slots_ += sign * f.free_slots;
      break;
    case ContainerState::kIdle:
    case ContainerState::kBusy:
      warm_ += sign;
      warm_free_ += sign * f.free_slots;
      break;
    case ContainerState::kTerminated:
      return;
  }
  capacity_ += sign * f.batch_size;
}

// ----------------------------------------------------------------- heap

void FleetIndex::Heap::put(std::size_t i, const Entry& e) {
  entries_[i] = e;
  e.c->*pos_ = static_cast<std::uint32_t>(i);
}

void FleetIndex::Heap::set(Container& c, double key, std::uint64_t seq) {
  const std::uint32_t pos = c.*pos_;
  const Entry e{key, seq, &c};
  if (pos == Container::kNotIndexed) {
    entries_.push_back(e);
    put(entries_.size() - 1, e);
    sift_up(entries_.size() - 1);
    return;
  }
  const double old = entries_[pos].key;
  if (key == old) return;
  put(pos, e);
  if (key < old) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void FleetIndex::Heap::remove(Container& c) {
  const std::uint32_t pos = c.*pos_;
  if (pos == Container::kNotIndexed) return;
  c.*pos_ = Container::kNotIndexed;
  const Entry last = entries_.back();
  entries_.pop_back();
  if (pos == entries_.size()) return;  // `c` was the last entry
  // Refill the hole with the last entry, which may belong above or below it.
  put(pos, last);
  if (pos > 0 && last < entries_[(pos - 1) / 2]) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void FleetIndex::Heap::sift_up(std::size_t i) {
  const Entry e = entries_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e < entries_[parent])) break;
    put(i, entries_[parent]);
    i = parent;
  }
  put(i, e);
}

void FleetIndex::Heap::sift_down(std::size_t i) {
  const Entry e = entries_[i];
  const std::size_t n = entries_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entries_[child + 1] < entries_[child]) ++child;
    if (!(entries_[child] < e)) break;
    put(i, entries_[child]);
    i = child;
  }
  put(i, e);
}

}  // namespace fifer
