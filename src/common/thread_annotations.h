#ifndef HADAD_COMMON_THREAD_ANNOTATIONS_H_
#define HADAD_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety (capability) analysis annotations.
//
// These macros attach compile-time lock-discipline contracts to the
// session/workspace/views/exec concurrency stack: which mutex guards which
// member, which capability a method requires, and which scoped types
// acquire/release them. Under `clang++ -Wthread-safety` every violation —
// a guarded member touched without its lock, a REQUIRES method called
// outside the lock, a shared hold where exclusive is needed — is a
// compile error on every path, not just the interleavings a TSan run
// happens to exercise. `scripts/ci.sh lint` builds the tree with
// `-Werror=thread-safety`; docs/STATIC_ANALYSIS.md has the capability map
// and the annotation how-to.
//
// Every macro expands to nothing when the attribute is unavailable
// (`__has_attribute` missing or the attribute unsupported), so the GCC
// tier-1 build is unaffected. Use the `HADAD_*` spellings, never raw
// `__attribute__` — the no-op fallback is what keeps non-clang builds
// clean.

#if defined(__has_attribute)
#define HADAD_TSA_HAS_ATTRIBUTE__(x) __has_attribute(x)
#else
#define HADAD_TSA_HAS_ATTRIBUTE__(x) 0
#endif

// --- Capability types -------------------------------------------------------

// Marks a class as a capability ("mutex", "shared_mutex", ...). The
// analysis only tracks acquisition/release of capability-annotated types;
// raw std::mutex members are invisible to it, which is why the stack locks
// through common::Mutex / common::SharedMutex (common/mutex.h).
#if HADAD_TSA_HAS_ATTRIBUTE__(capability)
#define HADAD_CAPABILITY(x) __attribute__((capability(x)))
#else
#define HADAD_CAPABILITY(x)
#endif

// Marks an RAII class whose constructor acquires and destructor releases a
// capability (common::MutexLock and friends).
#if HADAD_TSA_HAS_ATTRIBUTE__(scoped_lockable)
#define HADAD_SCOPED_CAPABILITY __attribute__((scoped_lockable))
#else
#define HADAD_SCOPED_CAPABILITY
#endif

// --- Data annotations -------------------------------------------------------

// The member may only be read while `x` is held (shared or exclusive) and
// only be written while `x` is held exclusively.
#if HADAD_TSA_HAS_ATTRIBUTE__(guarded_by)
#define HADAD_GUARDED_BY(x) __attribute__((guarded_by(x)))
#else
#define HADAD_GUARDED_BY(x)
#endif

// For pointers: the *pointed-to* data follows the GUARDED_BY rules; the
// pointer itself may be read freely.
#if HADAD_TSA_HAS_ATTRIBUTE__(pt_guarded_by)
#define HADAD_PT_GUARDED_BY(x) __attribute__((pt_guarded_by(x)))
#else
#define HADAD_PT_GUARDED_BY(x)
#endif

// --- Function annotations ---------------------------------------------------

// The caller must hold the capability exclusively when calling.
#if HADAD_TSA_HAS_ATTRIBUTE__(requires_capability)
#define HADAD_REQUIRES(...) __attribute__((requires_capability(__VA_ARGS__)))
#else
#define HADAD_REQUIRES(...)
#endif

// The caller must hold the capability at least shared when calling.
#if HADAD_TSA_HAS_ATTRIBUTE__(requires_shared_capability)
#define HADAD_REQUIRES_SHARED(...) \
  __attribute__((requires_shared_capability(__VA_ARGS__)))
#else
#define HADAD_REQUIRES_SHARED(...)
#endif

// The function acquires the capability exclusively and does not release it.
#if HADAD_TSA_HAS_ATTRIBUTE__(acquire_capability)
#define HADAD_ACQUIRE(...) __attribute__((acquire_capability(__VA_ARGS__)))
#else
#define HADAD_ACQUIRE(...)
#endif

// The function acquires the capability shared and does not release it.
#if HADAD_TSA_HAS_ATTRIBUTE__(acquire_shared_capability)
#define HADAD_ACQUIRE_SHARED(...) \
  __attribute__((acquire_shared_capability(__VA_ARGS__)))
#else
#define HADAD_ACQUIRE_SHARED(...)
#endif

// The function releases the capability (exclusive / shared / either).
#if HADAD_TSA_HAS_ATTRIBUTE__(release_capability)
#define HADAD_RELEASE(...) __attribute__((release_capability(__VA_ARGS__)))
#else
#define HADAD_RELEASE(...)
#endif

#if HADAD_TSA_HAS_ATTRIBUTE__(release_shared_capability)
#define HADAD_RELEASE_SHARED(...) \
  __attribute__((release_shared_capability(__VA_ARGS__)))
#else
#define HADAD_RELEASE_SHARED(...)
#endif

#if HADAD_TSA_HAS_ATTRIBUTE__(release_generic_capability)
#define HADAD_RELEASE_GENERIC(...) \
  __attribute__((release_generic_capability(__VA_ARGS__)))
#else
#define HADAD_RELEASE_GENERIC(...)
#endif

// The function acquires the capability iff it returns `b` (try_lock).
#if HADAD_TSA_HAS_ATTRIBUTE__(try_acquire_capability)
#define HADAD_TRY_ACQUIRE(...) \
  __attribute__((try_acquire_capability(__VA_ARGS__)))
#else
#define HADAD_TRY_ACQUIRE(...)
#endif

#if HADAD_TSA_HAS_ATTRIBUTE__(try_acquire_shared_capability)
#define HADAD_TRY_ACQUIRE_SHARED(...) \
  __attribute__((try_acquire_shared_capability(__VA_ARGS__)))
#else
#define HADAD_TRY_ACQUIRE_SHARED(...)
#endif

// The caller must NOT hold the capability (deadlock prevention for
// functions that acquire it themselves).
#if HADAD_TSA_HAS_ATTRIBUTE__(locks_excluded)
#define HADAD_EXCLUDES(...) __attribute__((locks_excluded(__VA_ARGS__)))
#else
#define HADAD_EXCLUDES(...)
#endif

// The function returns a reference to the given capability (getters).
#if HADAD_TSA_HAS_ATTRIBUTE__(lock_returned)
#define HADAD_RETURN_CAPABILITY(x) __attribute__((lock_returned(x)))
#else
#define HADAD_RETURN_CAPABILITY(x)
#endif

// Static lock-ordering declarations (deadlock detection).
#if HADAD_TSA_HAS_ATTRIBUTE__(acquired_before)
#define HADAD_ACQUIRED_BEFORE(...) \
  __attribute__((acquired_before(__VA_ARGS__)))
#else
#define HADAD_ACQUIRED_BEFORE(...)
#endif

#if HADAD_TSA_HAS_ATTRIBUTE__(acquired_after)
#define HADAD_ACQUIRED_AFTER(...) __attribute__((acquired_after(__VA_ARGS__)))
#else
#define HADAD_ACQUIRED_AFTER(...)
#endif

// Opts a function out of the analysis entirely. Reserved for code the
// analysis cannot model (conditional locking across aliased capabilities);
// every use needs a written rationale next to it — see
// docs/STATIC_ANALYSIS.md.
#if HADAD_TSA_HAS_ATTRIBUTE__(no_thread_safety_analysis)
#define HADAD_NO_THREAD_SAFETY_ANALYSIS \
  __attribute__((no_thread_safety_analysis))
#else
#define HADAD_NO_THREAD_SAFETY_ANALYSIS
#endif

#endif  // HADAD_COMMON_THREAD_ANNOTATIONS_H_
