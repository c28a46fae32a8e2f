// Clang thread-safety-analysis attribute macros.
//
// These expand to `__attribute__((...))` under Clang (where -Wthread-safety
// turns the annotations into compile-time lock-discipline checks) and to
// nothing elsewhere, so GCC builds are unaffected. The vocabulary follows
// the Clang documentation's canonical names:
//
//   * CAPABILITY / SCOPED_CAPABILITY mark a class as a lockable capability
//     (util/mutex.h defines the project's annotated Mutex and MutexLock).
//   * GUARDED_BY(mu) on a data member means reads and writes require `mu`.
//   * PT_GUARDED_BY(mu) guards the pointee of a pointer member.
//   * REQUIRES(mu) on a function means the caller must already hold `mu`;
//     the capability may be a member, a parameter (a generic container
//     naming its caller's lock), or a ThreadRole.
//   * EXCLUDES(mu) means the caller must NOT hold `mu` (anti-deadlock).
//   * ACQUIRE / RELEASE / TRY_ACQUIRE annotate lock-management functions.
//   * ASSERT_CAPABILITY tells the analysis a capability is held without
//     performing a runtime acquisition (used by Mutex::AssertHeld and
//     ThreadRole::Assume).
//   * RETURN_CAPABILITY marks an accessor as returning a capability, so
//     callers can lock through the accessor.
//   * NO_THREAD_SAFETY_ANALYSIS opts a function out entirely; every use
//     must carry a comment justifying why the analysis cannot see the
//     invariant.
//
// The internal HCORE_TSA macro is the only conditional piece; everything
// else is a thin naming layer over it.

#ifndef HCORE_UTIL_THREAD_ANNOTATIONS_H_
#define HCORE_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define HCORE_TSA(x) __attribute__((x))
#endif
#endif
#ifndef HCORE_TSA
#define HCORE_TSA(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) HCORE_TSA(capability(x))
#define SCOPED_CAPABILITY HCORE_TSA(scoped_lockable)

#define GUARDED_BY(x) HCORE_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) HCORE_TSA(pt_guarded_by(x))

#define REQUIRES(...) HCORE_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) HCORE_TSA(requires_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) HCORE_TSA(locks_excluded(__VA_ARGS__))

#define ACQUIRE(...) HCORE_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) HCORE_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) HCORE_TSA(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) HCORE_TSA(try_acquire_capability(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) HCORE_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) HCORE_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS HCORE_TSA(no_thread_safety_analysis)

#endif  // HCORE_UTIL_THREAD_ANNOTATIONS_H_
