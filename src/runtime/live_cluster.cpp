#include "runtime/live_cluster.hpp"

#include <utility>

#include "common/check.hpp"

namespace fifer {

namespace {

const LockClass& retired_lock_class() {
  static const LockClass cls{"runtime.retired_workers",
                             sync::lock_rank::kRuntimeLeaf};
  return cls;
}

}  // namespace

LiveCluster::LiveCluster() : retired_mu_(&retired_lock_class()) {}

void LiveCluster::check_new_worker(std::uint64_t key) const {
  FIFER_CHECK(index_.find(key) == index_.end(), kCluster)
      << "duplicate live container id " << key;
}

LiveContainer* LiveCluster::worker(ContainerId id) {
  const auto it = index_.find(value_of(id));
  return it == index_.end() ? nullptr : workers_.get(it->second);
}

void LiveCluster::retire(ContainerId id) {
  reap_joined();
  const auto it = index_.find(value_of(id));
  FIFER_CHECK(it != index_.end(), kCluster)
      << "retiring unknown live container " << value_of(id);
  const SlabHandle<LiveContainer> h = it->second;
  LiveContainer* worker = workers_.get(h);
  FIFER_CHECK(worker != nullptr, kCluster)
      << "stale worker handle for container " << value_of(id);
  index_.erase(it);
  worker->request_stop();
  MutexLock lock(&retired_mu_);
  retired_.push_back(Retired{worker, h});
}

void LiveCluster::reap_joined() {
  std::vector<SlabHandle<LiveContainer>> to_reap;
  {
    MutexLock lock(&retired_mu_);
    if (joined_.empty()) return;
    to_reap.swap(joined_);
  }
  for (const SlabHandle<LiveContainer> h : to_reap) workers_.erase(h);
}

void LiveCluster::join_retired() {
  std::vector<Retired> to_join;
  {
    MutexLock lock(&retired_mu_);
    to_join.swap(retired_);
  }
  if (to_join.empty()) return;
  for (const Retired& r : to_join) r.worker->join();
  // Storage reclamation happens back in the runtime-lock domain (retire /
  // adopt drain the joined list); only record that the joins happened.
  MutexLock lock(&retired_mu_);
  for (const Retired& r : to_join) joined_.push_back(r.handle);
}

void LiveCluster::stop_and_join_all() {
  // Signal everything first so workers wind down in parallel, then join.
  // Shutdown is single-threaded, so touching the slab here is safe.
  for (LiveContainer& w : workers_) w.request_stop();
  join_retired();
  for (const auto& [id, h] : index_) workers_.get(h)->join();
  index_.clear();
  {
    MutexLock lock(&retired_mu_);
    joined_.clear();
  }
  workers_.clear();
}

}  // namespace fifer
