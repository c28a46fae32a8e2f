// Annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::condition_variable that carry the
// Clang thread-safety capability attributes from util/thread_annotations.h.
// Every lock in the tree goes through these types (tools/lint_invariants.py
// rejects naked std::mutex elsewhere), so the locking rules documented in
// header comments — "snap_ is guarded by mu_", "commit_queue_ is guarded by
// commit_mu_" — are machine-checked by the Clang CI leg instead of
// trusted.
//
// Conventions:
//   * Prefer MutexLock (scoped) over manual Lock/Unlock pairs.
//   * Condition waits spell the predicate loop out at the call site
//     (`while (!pred) cv.Wait(lock);`): a wait-with-predicate lambda would
//     be analyzed as a separate unannotated function and could not read
//     GUARDED_BY members without a false positive.
//   * ThreadRole names a capability with no runtime lock behind it — it
//     encodes single-owner contracts like "only the coordinator thread may
//     call ComputeBatch between rounds". Callers claim the role with
//     role.Assume() where the surrounding protocol (e.g. ThreadPool::Wait
//     barriers) guarantees exclusivity.

#ifndef HCORE_UTIL_MUTEX_H_
#define HCORE_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace hcore {

/// An annotated exclusive mutex. Identical at runtime to std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis the calling thread holds this mutex. No runtime
  /// effect; use where the holder is established out-of-band.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex; the analysis treats construction as
/// acquisition and scope exit as release.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with MutexLock. Wait releases and reacquires
/// the caller's scoped lock, so from the analysis' point of view the lock
/// state is unchanged across the call — which matches the semantics the
/// caller's predicate loop relies on.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A virtual capability naming a thread role rather than a lock. There is
/// no runtime state: holding the role is a protocol fact (e.g. "the
/// coordinator between two ThreadPool::Wait barriers"), claimed with
/// Assume() at the point where that fact is established. Functions
/// restricted to the role take REQUIRES(role) and are thereby uncallable —
/// under Clang — from code that never claimed it.
class CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  /// Claims the role for the current scope. No runtime effect; the caller
  /// is vouching that the surrounding protocol makes it the sole holder.
  void Assume() const ASSERT_CAPABILITY(this) {}
};

}  // namespace hcore

#endif  // HCORE_UTIL_MUTEX_H_
