// Counting replacement for the global allocation functions, plus the
// getrusage readers.  One relaxed atomic increment per operator-new call:
// cheap enough to leave on in every run, so allocs_per_op is measured on
// the same binary as the timings.
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {

std::uint64_t allocs_so_far() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace perfbench

// new is malloc-backed so the matching delete frees with std::free; GCC
// cannot see the pairing across the replaced global operators and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop
