#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

/// Concurrency-correctness subsystem: annotated mutex/condvar wrappers plus a
/// debug-build lock-order deadlock detector.
///
/// Two layers, both zero-cost where they don't apply:
///
///  1. **Compile time** — Clang Thread Safety Analysis attributes
///     (`FIFER_GUARDED_BY`, `FIFER_REQUIRES`, ...) let every mutex declare
///     exactly which fields it protects and every function declare which
///     locks it needs; `-Wthread-safety -Werror=thread-safety` (the
///     `FIFER_THREAD_SAFETY` CMake option, clang only) then proves every
///     access at compile time. Under non-Clang compilers the attributes
///     expand to nothing.
///
///  2. **Run time** — a lock-order registry (`FIFER_LOCK_ORDER_ENABLED`,
///     default on outside NDEBUG, forced by `-DFIFER_LOCK_ORDER=ON` or
///     `-DFIFER_DCHECKS=ON`). Each `Mutex` belongs to a `LockClass` (name +
///     rank); acquisitions push onto a thread-local held-lock stack and feed
///     a global happens-before graph. A rank inversion (acquiring a
///     lower-ranked class while holding a higher-ranked one) or an ordering
///     cycle (A taken while holding B after B was ever taken while holding
///     A — a potential deadlock) is reported *before* the blocking lock()
///     call through the contract registry (`FIFER_CHECK` machinery,
///     category `kSync`), so tests can trap it with `check::ScopedTrap`.
///     When disabled the registry vanishes and `Mutex` collapses to a plain
///     `std::mutex` wrapper of identical size.
///
/// The canonical lock-rank hierarchy lives in `lock_rank` below and is
/// documented in DESIGN.md §5f. All raw `std::mutex` /
/// `std::condition_variable` / `std::lock_guard` use in `src/` outside this
/// module is banned by `tools/lint.sh`.

// --------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops elsewhere).
// --------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FIFER_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef FIFER_THREAD_ANNOTATION_
#define FIFER_THREAD_ANNOTATION_(x)
#endif

#define FIFER_CAPABILITY(x) FIFER_THREAD_ANNOTATION_(capability(x))
#define FIFER_SCOPED_CAPABILITY FIFER_THREAD_ANNOTATION_(scoped_lockable)
#define FIFER_GUARDED_BY(x) FIFER_THREAD_ANNOTATION_(guarded_by(x))
#define FIFER_PT_GUARDED_BY(x) FIFER_THREAD_ANNOTATION_(pt_guarded_by(x))
#define FIFER_REQUIRES(...) \
  FIFER_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define FIFER_ACQUIRE(...) \
  FIFER_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define FIFER_RELEASE(...) \
  FIFER_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define FIFER_TRY_ACQUIRE(...) \
  FIFER_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define FIFER_EXCLUDES(...) FIFER_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define FIFER_ACQUIRED_AFTER(...) \
  FIFER_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define FIFER_ACQUIRED_BEFORE(...) \
  FIFER_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define FIFER_RETURN_CAPABILITY(x) FIFER_THREAD_ANNOTATION_(lock_returned(x))
#define FIFER_NO_THREAD_SAFETY_ANALYSIS \
  FIFER_THREAD_ANNOTATION_(no_thread_safety_analysis)

// --------------------------------------------------------------------------
// Lock-order detector switch: on outside NDEBUG, forced by CMake options.
// --------------------------------------------------------------------------
#ifndef FIFER_LOCK_ORDER_ENABLED
#ifdef NDEBUG
#define FIFER_LOCK_ORDER_ENABLED 0
#else
#define FIFER_LOCK_ORDER_ENABLED 1
#endif
#endif

namespace fifer::sync {

/// The repo-wide lock-rank hierarchy: a thread may only acquire a mutex
/// whose rank is >= the highest rank it already holds (strictly greater
/// across classes; acquiring the *same class* again is always a violation —
/// fifer mutexes are non-recursive). Equal-rank classes are siblings that
/// are never held together; the happens-before graph still catches any
/// actual inversion between them.
namespace lock_rank {
/// Participates in graph cycle detection only, not the rank check.
inline constexpr int kUnranked = -1;
/// Tooling locks: thread-pool queue, sweep progress serialization,
/// parallel-for first-error capture.
inline constexpr int kToolLeaf = 30;
/// The contract fail handler — a violation may fire under any other lock.
inline constexpr int kReport = 100;
}  // namespace lock_rank

/// One lock *role* (not one lock instance): all mutexes sharing a class are
/// interchangeable for ordering purposes — e.g. every thread pool's queue
/// lock is the same class. Instances must have static storage duration.
struct LockClass {
#if FIFER_LOCK_ORDER_ENABLED
  LockClass(const char* name, int rank);
  int id;
  const char* name;
  int rank;
#else
  constexpr LockClass(const char*, int) {}
#endif
};

#if FIFER_LOCK_ORDER_ENABLED
namespace lock_order {
/// Ordering check + bookkeeping for acquiring a lock of `cls`. Called
/// *before* the underlying lock() so a would-be deadlock traps instead of
/// blocking; on a violation the contract fail handler runs (and may throw —
/// the acquisition is then abandoned with the stack unchanged).
void on_acquire(const LockClass* cls);
/// Pops the most recent acquisition of `cls` off the thread-local held
/// stack. Tolerates out-of-order release (early unlock): the entry is
/// removed from wherever it sits in the stack.
void on_release(const LockClass* cls);

/// Held-lock count of the calling thread (testing / diagnostics).
std::size_t held_depth();
/// Clears the recorded happens-before edges (registered classes persist —
/// their ids live in static LockClass objects). Testing only.
void reset_edges_for_testing();
}  // namespace lock_order
#endif

/// Annotated non-recursive mutex. When the lock-order detector is disabled
/// this is a plain `std::mutex` wrapper of identical size (pinned by
/// tests/test_sync.cpp); when enabled it carries its LockClass and feeds
/// the registry on every acquisition/release.
class FIFER_CAPABILITY("mutex") Mutex {
 public:
#if FIFER_LOCK_ORDER_ENABLED
  explicit Mutex(const LockClass* cls = nullptr) : cls_(cls) {}
#else
  explicit Mutex(const LockClass* = nullptr) {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FIFER_ACQUIRE() {
#if FIFER_LOCK_ORDER_ENABLED
    lock_order::on_acquire(cls_);
#endif
    mu_.lock();
  }

  void unlock() FIFER_RELEASE() {
    mu_.unlock();
#if FIFER_LOCK_ORDER_ENABLED
    lock_order::on_release(cls_);
#endif
  }

 private:
  std::mutex mu_;
#if FIFER_LOCK_ORDER_ENABLED
  const LockClass* cls_;
#endif
};

/// Scoped lock for `Mutex` — the only sanctioned way to hold one. Supports
/// early unlock / re-lock (the thread-pool worker loop drops the lock
/// around task execution), which the lock-order registry tracks through
/// Mutex itself. Also satisfies BasicLockable, so CondVar can wait on it.
class FIFER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) FIFER_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() FIFER_RELEASE() {
    if (owned_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() FIFER_RELEASE() {
    mu_->unlock();
    owned_ = false;
  }
  void lock() FIFER_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }

 private:
  Mutex* mu_;
  bool owned_ = true;
};

/// Condition variable paired with `Mutex`/`MutexLock`. Deliberately offers
/// no predicate overloads: clang's analysis cannot see a lock held inside a
/// predicate lambda, so call sites spell the standard loop
///
///   while (!condition) cv.wait(lock);
///
/// which both analyses (TSA and `bugprone-spuriously-wake-up-functions`)
/// verify directly. Waiting releases the lock through MutexLock, so the
/// lock-order registry's held stack stays accurate across the wait.
class CondVar {
 public:
  void wait(MutexLock& lock) { cv_.wait(lock); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    return cv_.wait_until(lock, tp);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  // _any: waits on MutexLock (BasicLockable) so release/reacquire flow
  // through the annotated Mutex and its lock-order hooks.
  std::condition_variable_any cv_;
};

}  // namespace fifer::sync

namespace fifer {
using sync::CondVar;
using sync::LockClass;
using sync::Mutex;
using sync::MutexLock;
}  // namespace fifer
