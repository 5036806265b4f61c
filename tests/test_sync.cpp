// Tests for the concurrency-correctness subsystem (common/sync.hpp): the
// annotated Mutex/MutexLock/CondVar wrappers, the debug-build lock-order
// deadlock detector, and the ThreadPool submit-after-stop contract.
//
// The lock-order sections compile only when FIFER_LOCK_ORDER_ENABLED is on
// (default outside NDEBUG; forced by -DFIFER_DCHECKS=ON or
// -DFIFER_LOCK_ORDER=ON — the CI sanitizer legs). In release builds the
// detector must vanish entirely; the no-op section pins that.

#include "common/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace fifer {
namespace {

using check::Category;
using check::CheckFailure;
using check::ScopedTrap;

// ---------------------------------------------------------------- wrappers

TEST(SyncMutex, GuardsSharedCounterAcrossThreads) {
  static const LockClass cls{"test.counter", sync::lock_rank::kUnranked};
  Mutex mu{&cls};
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

TEST(SyncCondVar, SignalsAcrossThreads) {
  static const LockClass cls{"test.condvar", sync::lock_rank::kUnranked};
  Mutex mu{&cls};
  CondVar cv;
  bool ready = false;
  bool consumed = false;

  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (!ready) cv.wait(lock);
    consumed = true;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.notify_all();
  consumer.join();
  EXPECT_TRUE(consumed);
}

TEST(SyncCondVar, WaitUntilTimesOut) {
  static const LockClass cls{"test.condvar_timeout", sync::lock_rank::kUnranked};
  Mutex mu{&cls};
  CondVar cv;
  MutexLock lock(&mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  bool flag = false;  // never set: the wait loop must exit via timeout
  std::cv_status last = std::cv_status::no_timeout;
  while (!flag) {
    last = cv.wait_until(lock, deadline);
    if (last == std::cv_status::timeout) break;
  }
  EXPECT_EQ(last, std::cv_status::timeout);
}

TEST(SyncMutexLock, EarlyUnlockAndRelock) {
  static const LockClass cls{"test.early_unlock", sync::lock_rank::kUnranked};
  Mutex mu{&cls};
  MutexLock lock(&mu);
  lock.unlock();
  // Another thread can take the mutex while this scope still exists.
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    MutexLock inner(&mu);
    acquired = true;
  });
  t.join();
  EXPECT_TRUE(acquired);
  lock.lock();  // destructor releases the re-acquired lock
}

// ------------------------------------------------- lock-order: release mode

#if !FIFER_LOCK_ORDER_ENABLED

// With the detector compiled out, Mutex must collapse to a plain std::mutex
// wrapper: no class pointer, no registry, identical footprint. This is the
// zero-overhead pin for release builds.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "disabled lock-order detector must add no per-mutex state");

TEST(SyncLockOrderDisabled, MutexIsPlainWrapper) {
  // The static_assert above is the real check; this records it in the test
  // report and proves the header compiles with the registry absent.
  SUCCEED();
}

#else  // FIFER_LOCK_ORDER_ENABLED

// ------------------------------------------------- lock-order: debug mode

/// Fresh lock classes per test so recorded happens-before edges cannot leak
/// between cases; edges are additionally wiped in SetUp.
class SyncLockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sync::lock_order::reset_edges_for_testing();
    check::reset_violations();
  }
  void TearDown() override { sync::lock_order::reset_edges_for_testing(); }
};

TEST_F(SyncLockOrderTest, CleanHierarchyDoesNotTrap) {
  static const LockClass low{"test.clean_low", 1};
  static const LockClass high{"test.clean_high", 2};
  Mutex a{&low};
  Mutex b{&high};
  ScopedTrap trap;
  for (int i = 0; i < 3; ++i) {
    MutexLock la(&a);
    MutexLock lb(&b);  // ascending ranks: always legal
  }
  EXPECT_EQ(check::violations(Category::kSync), 0u);
  EXPECT_EQ(sync::lock_order::held_depth(), 0u);
}

TEST_F(SyncLockOrderTest, RankInversionTrapsBeforeBlocking) {
  static const LockClass low{"test.rank_low", 1};
  static const LockClass high{"test.rank_high", 2};
  Mutex a{&low};
  Mutex b{&high};
  ScopedTrap trap;
  MutexLock lb(&b);
  // Acquiring a lower rank while holding a higher one is the seeded
  // inversion; the trap fires before the underlying std::mutex is touched,
  // so nothing deadlocks and `a` stays unlocked.
  EXPECT_THROW({ MutexLock la(&a); }, CheckFailure);
  EXPECT_EQ(check::violations(Category::kSync), 1u);
  EXPECT_EQ(sync::lock_order::held_depth(), 1u);  // only b is held
}

TEST_F(SyncLockOrderTest, HappensBeforeCycleTraps) {
  // Unranked classes: only the recorded A-then-B order can convict B-then-A.
  static const LockClass ca{"test.cycle_a", sync::lock_rank::kUnranked};
  static const LockClass cb{"test.cycle_b", sync::lock_rank::kUnranked};
  Mutex a{&ca};
  Mutex b{&cb};
  ScopedTrap trap;
  {
    MutexLock la(&a);
    MutexLock lb(&b);  // establishes a -> b
  }
  MutexLock lb(&b);
  EXPECT_THROW({ MutexLock la(&a); }, CheckFailure);  // b -> a: cycle
  EXPECT_EQ(check::violations(Category::kSync), 1u);
}

TEST_F(SyncLockOrderTest, TransitiveCycleTraps) {
  static const LockClass ca{"test.trans_a", sync::lock_rank::kUnranked};
  static const LockClass cb{"test.trans_b", sync::lock_rank::kUnranked};
  static const LockClass cc{"test.trans_c", sync::lock_rank::kUnranked};
  Mutex a{&ca};
  Mutex b{&cb};
  Mutex c{&cc};
  ScopedTrap trap;
  {
    MutexLock la(&a);
    MutexLock lb(&b);  // a -> b
  }
  {
    MutexLock lb(&b);
    MutexLock lc(&c);  // b -> c
  }
  MutexLock lc(&c);
  EXPECT_THROW({ MutexLock la(&a); }, CheckFailure);  // c -> a closes a cycle
  EXPECT_EQ(check::violations(Category::kSync), 1u);
}

TEST_F(SyncLockOrderTest, RecursiveAcquisitionTraps) {
  static const LockClass cls{"test.recursive", sync::lock_rank::kUnranked};
  Mutex a{&cls};
  ScopedTrap trap;
  MutexLock la(&a);
  // Same class again — whether the same instance (self-deadlock) or a
  // sibling — is a violation; detection precedes the blocking lock().
  EXPECT_THROW({ MutexLock again(&a); }, CheckFailure);
  EXPECT_EQ(check::violations(Category::kSync), 1u);
}

TEST_F(SyncLockOrderTest, EarlyUnlockUnwindsHeldStack) {
  static const LockClass ca{"test.unwind_a", sync::lock_rank::kUnranked};
  static const LockClass cb{"test.unwind_b", sync::lock_rank::kUnranked};
  static const LockClass cc{"test.unwind_c", sync::lock_rank::kUnranked};
  Mutex a{&ca};
  Mutex b{&cb};
  Mutex c{&cc};
  ScopedTrap trap;

  MutexLock la(&a);
  MutexLock lb(&b);
  EXPECT_EQ(sync::lock_order::held_depth(), 2u);
  la.unlock();  // out of stack order: a leaves from under b
  EXPECT_EQ(sync::lock_order::held_depth(), 1u);
  {
    MutexLock lc(&c);  // records b -> c only; a is no longer held
    EXPECT_EQ(sync::lock_order::held_depth(), 2u);
  }
  EXPECT_EQ(sync::lock_order::held_depth(), 1u);
  lb.unlock();
  EXPECT_EQ(sync::lock_order::held_depth(), 0u);
  la.lock();  // scope-exit release needs an owned lock
  EXPECT_EQ(check::violations(Category::kSync), 0u);
}

TEST_F(SyncLockOrderTest, SoftHandlerContinuesPastViolation) {
  static const LockClass low{"test.soft_low", 1};
  static const LockClass high{"test.soft_high", 2};
  Mutex a{&low};
  Mutex b{&high};
  int reported = 0;
  check::FailHandler previous =
      check::set_fail_handler([&](const check::Violation& v) {
        EXPECT_EQ(v.category, Category::kSync);
        ++reported;
      });
  {
    MutexLock lb(&b);
    MutexLock la(&a);  // inversion: reported, then the acquisition proceeds
    EXPECT_EQ(sync::lock_order::held_depth(), 2u);
  }
  check::set_fail_handler(std::move(previous));
  EXPECT_EQ(reported, 1);
  EXPECT_EQ(sync::lock_order::held_depth(), 0u);
}

TEST_F(SyncLockOrderTest, RuntimeLockRanksAreOrdered) {
  // The canonical hierarchy of DESIGN.md §5f, pinned so a refactor cannot
  // silently flatten it: tools before the contract reporter, which may fire
  // under any other lock.
  EXPECT_LT(sync::lock_rank::kToolLeaf, sync::lock_rank::kReport);
}

#endif  // FIFER_LOCK_ORDER_ENABLED

// ------------------------------------------------ ThreadPool stop contract

TEST(ThreadPoolContract, SubmitAfterStopTraps) {
  ScopedTrap trap;
  check::reset_violations();

  auto pool = std::make_unique<ThreadPool>(1);
  std::atomic<bool> trapped{false};
  std::atomic<bool> task_ran{false};

  // The resident task waits until the destructor has signalled stop, then
  // tries to sneak in a follow-up: exactly the silent-drop window the
  // contract closes.
  pool->submit([&, p = pool.get()] {
    task_ran = true;
    while (!p->stopping()) std::this_thread::yield();
    try {
      p->submit([] {});
    } catch (const CheckFailure&) {
      trapped = true;
    }
  });

  pool.reset();  // sets stop_, then joins — unblocking the resident task
  EXPECT_TRUE(task_ran);
  EXPECT_TRUE(trapped);
  EXPECT_GE(check::violations(Category::kCommon), 1u);
}

TEST(ThreadPoolContract, NormalLifecycleUnaffected) {
  check::reset_violations();
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) pool.submit([&] { ++ran; });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_FALSE(pool.stopping());
  }
  EXPECT_EQ(check::violations(Category::kCommon), 0u);
}

// ------------------------------------------- thread-safety analysis probe
//
// Compile-time negative: under clang with -DFIFER_THREAD_SAFETY=ON the
// snippet below must FAIL to build ("writing variable 'value' requires
// holding mutex 'mu' exclusively"). tools/ci.sh compiles it standalone in
// the thread-safety leg; it stays commented here so the positive build and
// the gcc tier-1 build are unaffected.
//
//   struct MisAnnotated {
//     fifer::Mutex mu;
//     int value FIFER_GUARDED_BY(mu) = 0;
//     void bad_write() { value = 1; }  // no lock held: rejected by TSA
//   };

}  // namespace
}  // namespace fifer
