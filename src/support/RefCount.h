//===- support/RefCount.h - Intrusive, single-thread-aware refcount -------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference count an intrusively counted object embeds. A new
/// object holds one reference. `retain()` increments relaxed: the holder
/// already owns a reference, so nothing it reads can be freed. `release()`
/// decrements acq_rel and reports the last reference, so every holder's
/// reads happen before the owner deletes. `unique()` is an acquire load
/// (as Rust's `Arc::get_mut`): reading 1 orders an in-place write after
/// the last read by any holder that has since let go, on any thread.
///
/// Until the process starts its second thread the count changes without
/// a locked instruction, as libstdc++'s shared_ptr does: no other thread
/// can hold a reference, and glibc clears the flag before a second
/// thread starts.
///
//===----------------------------------------------------------------------===//

#ifndef P_SUPPORT_REFCOUNT_H
#define P_SUPPORT_REFCOUNT_H

#include <atomic>
#include <cstdint>

#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#endif

namespace p {

class RefCount {
public:
  void retain() {
    if (singleThreaded())
      Count.store(Count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    else
      Count.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drops one reference; true when it was the last, and the caller
  /// must delete the object.
  [[nodiscard]] bool release() {
    if (singleThreaded()) {
      const uint32_t N = Count.load(std::memory_order_relaxed);
      if (N == 1)
        return true;
      Count.store(N - 1, std::memory_order_relaxed);
      return false;
    }
    return Count.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// True when the caller holds the only reference.
  bool unique() const { return Count.load(std::memory_order_acquire) == 1; }

private:
  static bool singleThreaded() {
#if __has_include(<sys/single_threaded.h>)
    return __libc_single_threaded;
#else
    return false;
#endif
  }

  std::atomic<uint32_t> Count{1};
};

} // namespace p

#endif // P_SUPPORT_REFCOUNT_H
