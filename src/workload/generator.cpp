#include "workload/generator.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "simnet/check.h"
#include "simnet/rng.h"

namespace pardsm::workload {

namespace {

/// Stream tag separating op-content draws from every other counter_rng
/// user (the parallel engine's channel streams use small tags).
constexpr std::uint64_t kOpStreamTag = 0x774C'4F41'4421'0001ULL;  // "wLOAD!"

}  // namespace

Generator::Generator(const graph::Distribution& dist, const Spec& spec)
    : dist_(&dist), spec_(spec) {
  PARDSM_CHECK(spec_.ops_per_process > 0, "workload: ops_per_process == 0");
  PARDSM_CHECK(spec_.read_fraction >= 0.0 && spec_.read_fraction <= 1.0,
               "workload: read_fraction outside [0, 1]");
  PARDSM_CHECK(spec_.arrival_rate >= 0.0, "workload: negative arrival_rate");
  PARDSM_CHECK(dist.process_count() > 0, "workload: empty distribution");
  PARDSM_CHECK(dist.process_count() < (1ULL << kProcessBits),
               "workload: process count exceeds the value-packing width");
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    PARDSM_CHECK(!dist.per_process[p].empty(),
                 "workload: process replicates no variable");
  }
  if (spec_.keys != KeyDist::kZipf) return;

  PARDSM_CHECK(spec_.zipf_theta > 0.0 && spec_.zipf_theta < 1.0,
               "workload: zipf_theta must lie in (0, 1)");
  // One zeta sum per distinct replica-set size; processes share them.
  // Lookup-only cache local to the constructor: zipf_[p] is filled by
  // process index, so hash order never reaches generated ops.
  // pardsm-lint: allow(unordered-iter): lookup-only zeta cache, never iterated
  std::unordered_map<std::uint64_t, ZipfParams> by_size;
  zipf_.resize(dist.process_count());
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    const auto n = static_cast<std::uint64_t>(dist.per_process[p].size());
    auto it = by_size.find(n);
    if (it == by_size.end()) {
      const double theta = spec_.zipf_theta;
      ZipfParams z;
      z.n = n;
      for (std::uint64_t i = 1; i <= n; ++i) {
        z.zetan += 1.0 / std::pow(static_cast<double>(i), theta);
      }
      z.half_pow_theta = std::pow(0.5, theta);
      z.alpha = 1.0 / (1.0 - theta);
      z.eta = n < 2 ? 0.0
                    : (1.0 - std::pow(2.0 / static_cast<double>(n),
                                      1.0 - theta)) /
                          (1.0 - (1.0 + z.half_pow_theta) / z.zetan);
      it = by_size.emplace(n, z).first;
    }
    zipf_[p] = it->second;
  }
}

std::uint64_t Generator::zipf_rank(const ZipfParams& z, double u) {
  // The YCSB zipfian inversion (Gray et al. "Quickly generating
  // billion-record synthetic databases"): rank 0 is the hottest key.
  if (z.n < 2) return 0;
  const double uz = u * z.zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + z.half_pow_theta) return 1;
  const double r = static_cast<double>(z.n) *
                   std::pow(z.eta * u - z.eta + 1.0, z.alpha);
  auto rank = static_cast<std::uint64_t>(r);
  return rank >= z.n ? z.n - 1 : rank;
}

OpSpec Generator::op(ProcessId p, std::uint64_t k) const {
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < dist_->process_count(),
               "workload: op() for unknown process");
  PARDSM_CHECK(k < spec_.ops_per_process, "workload: op index out of range");
  // Coordinates, not draw order, pick the stream: (seed, p, k) fully
  // determines this op wherever and whenever it is generated.
  Rng rng = counter_rng(spec_.seed, static_cast<std::uint64_t>(p), 0, k,
                        kOpStreamTag);
  const auto& vars = dist_->per_process[static_cast<std::size_t>(p)];
  OpSpec out;
  out.is_read = rng.chance(spec_.read_fraction);
  std::uint64_t idx = 0;
  if (vars.size() > 1) {
    idx = spec_.keys == KeyDist::kZipf
              ? zipf_rank(zipf_[static_cast<std::size_t>(p)], rng.uniform01())
              : rng.below(vars.size());
  }
  out.var = vars[idx];
  if (!out.is_read) out.value = packed_value(p, k);
  return out;
}

Value Generator::packed_value(ProcessId p, std::uint64_t k) {
  PARDSM_CHECK(p >= 0 && p < static_cast<ProcessId>(1U << kProcessBits),
               "workload: process id exceeds the value-packing width");
  PARDSM_CHECK(k < (1ULL << (63 - kProcessBits)),
               "workload: op index exceeds the value-packing width");
  // Positive, globally unique, never kBottom.  The +1 happens in
  // unsigned space and the very top packed value is rejected too: at
  // (p_max, k_max) the increment would overflow int64 — UB in signed
  // arithmetic, and a silent kBottom collision after wraparound.
  const std::uint64_t packed =
      (k << kProcessBits) | static_cast<std::uint64_t>(p);
  PARDSM_CHECK(packed < static_cast<std::uint64_t>(
                            std::numeric_limits<Value>::max()),
               "workload: packed value exceeds the int64 value range");
  return static_cast<Value>(packed + 1);
}

std::uint64_t Generator::arrival_offset_us(double rate, std::uint64_t k) {
  PARDSM_CHECK(rate > 0.0, "workload: arrival_offset_us needs a rate");
  const double off = static_cast<double>(k) * (1e6 / rate);
  // The simulated clock is int64 microseconds; an offset that cannot fit
  // is a configuration error, not a silent wrap into the past.
  PARDSM_CHECK(off < 9.0e18, "workload: arrival schedule overflows the "
                             "microsecond clock");
  return static_cast<std::uint64_t>(std::llround(off));
}

}  // namespace pardsm::workload
