// Allocation-free per-operation latency capture.
//
// A fixed-bucket log-linear histogram (HDR-histogram shape): values are
// microseconds, each power of two is split into 2^kSubBits linear
// sub-buckets, so any recorded value lands in a bucket whose width is at
// most value/32 — quantiles read back from bucket upper edges are within
// ~3.1% ("one histogram bucket") of the exact order statistic.  The
// bucket array is a value-type std::array, sized for the full 64-bit
// range (1920 counters, 15 KiB): record() is a single array increment,
// merge_from() an element-wise add, and neither ever allocates — the same
// pooled, steady-state-allocation-free discipline as the event queue, so
// per-op capture can sit on the million-ops hot path and inside the
// parallel engine's shards (one histogram per owner thread, merged after the
// run; element-wise merge is associative and commutative, so the merge
// order cannot change the result).
//
// Censoring: an operation that was issued (or was due per the open-loop
// arrival schedule) but never completed — dead channel, never-recovered
// crash — must not vanish from the ledger or show up as a ~0 latency.
// add_censored() accounts such ops as a mass *above every bucket*:
// quantiles whose rank falls into the censored mass report
// `censored == true` (latency "at least longer than the run") instead of
// a made-up number.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace pardsm {

class LatencyHistogram {
 public:
  /// Each power of two splits into 2^kSubBits linear sub-buckets.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBits;  // 32
  /// Values < kSubBuckets get exact unit buckets; exponents kSubBits..63
  /// get one group of kSubBuckets each.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;  // 1920

  /// Bucket index of a microsecond value (total over the 64-bit range).
  [[nodiscard]] static constexpr std::uint32_t bucket_index(std::uint64_t us) {
    if (us < kSubBuckets) return static_cast<std::uint32_t>(us);
    const unsigned exp = 63U - static_cast<unsigned>(std::countl_zero(us));
    const std::uint64_t sub = (us >> (exp - kSubBits)) & (kSubBuckets - 1);
    return static_cast<std::uint32_t>((exp - (kSubBits - 1)) * kSubBuckets +
                                      sub);
  }

  /// Largest microsecond value mapping to bucket `index` (quantiles report
  /// this edge, which over-approximates by at most one bucket width).
  [[nodiscard]] static constexpr std::uint64_t bucket_upper_us(
      std::uint32_t index) {
    if (index < kSubBuckets) return index;
    const unsigned exp =
        static_cast<unsigned>(index / kSubBuckets) + (kSubBits - 1);
    const std::uint64_t sub = index & (kSubBuckets - 1);
    const std::uint64_t lower = (kSubBuckets + sub) << (exp - kSubBits);
    return lower + ((1ULL << (exp - kSubBits)) - 1);
  }

  /// Record one completed operation's latency.  Never allocates.
  void record(std::uint64_t us) {
    ++buckets_[bucket_index(us)];
    ++samples_;
    sum_us_ += us;
    if (us > max_us_) max_us_ = us;
  }

  /// Account `n` censored operations (issued or due, never completed).
  void add_censored(std::uint64_t n) { censored_ += n; }

  /// Element-wise merge; associative and commutative, so per-client /
  /// per-shard histograms can be folded in any order.  Never allocates.
  void merge_from(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    samples_ += other.samples_;
    censored_ += other.censored_;
    sum_us_ += other.sum_us_;
    if (other.max_us_ > max_us_) max_us_ = other.max_us_;
  }

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t censored() const { return censored_; }
  [[nodiscard]] std::uint64_t total() const { return samples_ + censored_; }
  [[nodiscard]] std::uint64_t max_us() const { return max_us_; }
  [[nodiscard]] std::uint64_t sum_us() const { return sum_us_; }
  [[nodiscard]] double mean_us() const {
    return samples_ == 0
               ? 0.0
               : static_cast<double>(sum_us_) / static_cast<double>(samples_);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }

  /// A quantile answer: either a latency bound in microseconds, or the
  /// statement that the rank falls into the censored mass (the op at that
  /// rank never completed, so its latency is only known to exceed the
  /// run).
  struct Quantile {
    double us = 0.0;
    bool censored = false;
  };

  /// The q-quantile over *all* accounted ops — completed samples plus the
  /// censored mass, which sits above every bucket.  q is clamped to
  /// [0, 1]; an empty histogram reports {0, false}.  Never allocates.
  [[nodiscard]] Quantile quantile(double q) const {
    const std::uint64_t n = total();
    if (n == 0) return {};
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // 1-based rank of the order statistic: ceil(q * n), at least 1.
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
    if (rank == 0) rank = 1;
    if (rank > n) rank = n;
    if (rank > samples_) {
      return {std::numeric_limits<double>::infinity(), true};
    }
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cum += buckets_[i];
      if (cum >= rank) {
        const std::uint64_t edge = bucket_upper_us(static_cast<std::uint32_t>(i));
        // The top occupied bucket's edge over-reports the true maximum;
        // clamp to the exact recorded max.
        return {static_cast<double>(edge < max_us_ ? edge : max_us_), false};
      }
    }
    return {static_cast<double>(max_us_), false};  // unreachable
  }

  void clear() {
    buckets_.fill(0);
    samples_ = censored_ = sum_us_ = max_us_ = 0;
  }

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t samples_ = 0;
  std::uint64_t censored_ = 0;
  std::uint64_t sum_us_ = 0;
  std::uint64_t max_us_ = 0;
};

}  // namespace pardsm
