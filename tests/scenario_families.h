// Shared fault-scenario families for the scenario-aware test suites.
//
// The fault-aware property sweep (test_property_sweep.cpp) and the P6
// differential-convergence suite (test_scenario_convergence.cpp) sweep the
// same three fault families over all nine protocols; this header keeps the
// family enum, names and canonical timelines in one place so a new family
// or a timing change lands in every suite at once.  (bench_scenarios.cpp
// deliberately keeps its own Schedule axis: there loss is an independent
// dimension and every cell is forced through the ARQ layer.)
#pragma once

#include "simnet/scenario.h"

namespace pardsm::golden {

enum class FaultFamily { kLoss, kPartition, kCrash };

inline const char* family_name(FaultFamily f) {
  switch (f) {
    case FaultFamily::kLoss:
      return "loss";
    case FaultFamily::kPartition:
      return "partition";
    case FaultFamily::kCrash:
      return "crash";
  }
  return "?";
}

/// The canonical six-process timeline of one family: `loss` everywhere for
/// the whole run, plus the family's structural fault — a 3|3 partition over
/// 2..8 units, or a crash of process 1 over 3..7 units (1 unit = 1 ms by
/// default).  Suites pick the loss rate (the sweep stresses one rate across
/// families; convergence pairs a high pure-loss rate with milder
/// structural cells).
inline Scenario make_fault_scenario(FaultFamily family, double loss,
                                    Duration unit = millis(1)) {
  Scenario s(std::string(family_name(family)) + "-loss" +
             std::to_string(loss));
  if (loss > 0.0) s.set_loss(loss);
  switch (family) {
    case FaultFamily::kLoss:
      break;
    case FaultFamily::kPartition:
      s.partition({{0, 1, 2}, {3, 4, 5}}, after(unit * 2), after(unit * 8));
      break;
    case FaultFamily::kCrash:
      s.crash(1, after(unit * 3), after(unit * 7));
      break;
  }
  return s;
}

}  // namespace pardsm::golden
