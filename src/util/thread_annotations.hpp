#pragma once
// Clang -Wthread-safety capability annotations plus the annotated mutex
// types the project locks with.
//
// The macros expand to clang's thread-safety attributes under clang and
// to nothing elsewhere, so annotated code compiles identically under gcc
// while the clang CI leg statically checks the locking discipline
// (DESIGN.md §10: RAII-only, one lock at a time, compute outside /
// publish under the lock). ThreadPool is the one annotated class.
//
// st::util::Mutex wraps std::mutex with the CAPABILITY attribute —
// std::mutex itself carries no annotations, so GUARDED_BY on a plain
// std::mutex member checks nothing. MutexLock is the matching
// SCOPED_CAPABILITY RAII guard; st-lint treats it as a lock-guard type
// (LOCK-1/3/4 extents) just like std::lock_guard.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define ST_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ST_THREAD_ANNOTATION(x)  // no-op off clang
#endif

#define ST_CAPABILITY(x) ST_THREAD_ANNOTATION(capability(x))
#define ST_SCOPED_CAPABILITY ST_THREAD_ANNOTATION(scoped_lockable)
#define ST_GUARDED_BY(x) ST_THREAD_ANNOTATION(guarded_by(x))
#define ST_PT_GUARDED_BY(x) ST_THREAD_ANNOTATION(pt_guarded_by(x))
#define ST_REQUIRES(...) \
  ST_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ST_ACQUIRE(...) \
  ST_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ST_RELEASE(...) \
  ST_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ST_EXCLUDES(...) ST_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ST_RETURN_CAPABILITY(x) ST_THREAD_ANNOTATION(lock_returned(x))
#define ST_NO_THREAD_SAFETY_ANALYSIS \
  ST_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace st::util {

/// std::mutex with the `capability` attribute, so members can be
/// declared ST_GUARDED_BY(mutex_) and functions ST_REQUIRES(mutex_).
/// BasicLockable, so std::condition_variable_any and std::unique_lock
/// still work where a scoped guard is not enough (ThreadPool's wait
/// loop).
class ST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // st-lint: LOCK-2 exempts this file — these are the primitives the
  // RAII guards are built from.
  void lock() ST_ACQUIRE() { m_.lock(); }
  void unlock() ST_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII guard over Mutex, annotated as a scoped capability so clang
/// tracks the held set through it. Deliberately minimal: no deferred or
/// adopted locking — the project's discipline is acquire-in-ctor,
/// release-in-dtor, nothing else.
class ST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) ST_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() ST_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace st::util
