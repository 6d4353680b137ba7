// Regenerates the golden table of test_golden_metrics.cpp.
//
//   $ ./tests/golden_metrics_gen
//
// Paste each block of the output over its array (kGolden,
// kGoldenScenario, kGoldenParallel, kGoldenAdHocLossy).  Only do this when a protocol's
// message complexity *legitimately* changes (new protocol feature, new
// accounting); for pure engine/performance work the table must stay
// byte-identical — that is the point of the gate.

#include <cstdio>

#include "golden_metrics_common.h"

int main() {
  using namespace pardsm;
  std::printf("// generated by golden_metrics_gen — do not hand-edit\n");
  for (const auto& topo : golden::golden_topologies()) {
    for (auto kind : mcs::all_protocols()) {
      const auto m = golden::measure(kind, topo.dist);
      std::printf(
          "    {\"%s\", \"%s\", %lluull, %lluull, %lluull, %lluull, "
          "%lluull, %lld},\n",
          mcs::to_string(kind), topo.name,
          static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes),
          static_cast<unsigned long long>(m.exposure_sum),
          static_cast<unsigned long long>(m.exposure_hash),
          static_cast<unsigned long long>(m.events),
          static_cast<long long>(m.finished_us));
    }
  }
  std::printf(
      "\n// scenario gate (paste over kGoldenScenario)\n"
      "// generated by golden_metrics_gen — do not hand-edit\n");
  for (auto kind : mcs::all_protocols()) {
    const auto m = golden::measure_scenario(kind);
    std::printf("    {\"%s\", %lluull, %lluull, %lluull, %lluull, %lld},\n",
                mcs::to_string(kind),
                static_cast<unsigned long long>(m.messages),
                static_cast<unsigned long long>(m.bytes),
                static_cast<unsigned long long>(m.retransmissions),
                static_cast<unsigned long long>(m.dropped),
                static_cast<long long>(m.finished_us));
  }
  std::printf(
      "\n// parallel-root gate (paste over kGoldenParallel)\n"
      "// generated by golden_metrics_gen — do not hand-edit\n");
  for (const char* cell : golden::kParallelCells) {
    for (auto kind : mcs::all_protocols()) {
      const auto m = golden::measure_parallel(kind, cell, /*threads=*/1);
      std::printf(
          "    {\"%s\", \"%s\", %lluull, %lluull, %lluull, %lluull, "
          "%lluull, %lluull, %lluull, %lluull, %lld},\n",
          mcs::to_string(kind), cell,
          static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes),
          static_cast<unsigned long long>(m.retransmissions),
          static_cast<unsigned long long>(m.loss),
          static_cast<unsigned long long>(m.severed),
          static_cast<unsigned long long>(m.down),
          static_cast<unsigned long long>(m.in_flight),
          static_cast<unsigned long long>(m.events),
          static_cast<long long>(m.finished_us));
    }
  }
  const auto a = golden::measure_adhoc_lossy();
  std::printf(
      "\n// sim-adhoc-lossy shape (paste over kGoldenAdHocLossy)\n"
      "// generated by golden_metrics_gen — do not hand-edit\n"
      "    %lluull, %lluull, %lluull, %lluull, %lluull, %lluull,\n",
      static_cast<unsigned long long>(a.messages),
      static_cast<unsigned long long>(a.bytes),
      static_cast<unsigned long long>(a.events),
      static_cast<unsigned long long>(a.retransmissions),
      static_cast<unsigned long long>(a.updates_buffered),
      static_cast<unsigned long long>(a.replicas_digest));
  return 0;
}
