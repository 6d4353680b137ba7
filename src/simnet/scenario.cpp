#include "simnet/scenario.h"

#include <algorithm>
#include <memory>

#include "simnet/check.h"
#include "simnet/parallel_sim.h"
#include "simnet/simulator.h"

namespace pardsm {

namespace {

/// True for events that *end* a condition (heals, recoveries).  At equal
/// timestamps these fire before events that start one, regardless of
/// builder call order.
bool closes_condition(const FaultEvent& e) {
  return e.type == FaultEvent::Type::kHeal ||
         e.type == FaultEvent::Type::kRecover;
}

}  // namespace

/// Plan-time rate source over the scenario's probability windows: what a
/// message faces at its send instant, no simulator events needed.
class Scenario::Rates final : public RateOverride {
 public:
  explicit Rates(const Scenario* scenario) : scenario_(scenario) {}

  [[nodiscard]] double loss(ProcessId from, ProcessId to,
                            TimePoint now) const override {
    return window_rate(scenario_->loss_windows_, from, to, now);
  }
  [[nodiscard]] double duplicate(ProcessId from, ProcessId to,
                                 TimePoint now) const override {
    return window_rate(scenario_->dup_windows_, from, to, now);
  }

 private:
  const Scenario* scenario_;
};

double Scenario::window_rate(const std::vector<ProbWindow>& windows,
                             ProcessId from, ProcessId to, TimePoint now) {
  // The most recently opened active window covering the pair wins;
  // builder order breaks open-time ties (>= keeps the later builder).
  double rate = -1.0;
  TimePoint best_open{};
  for (const ProbWindow& w : windows) {
    if (!(w.open <= now && now < w.close)) continue;
    if (w.a != kNoProcess && (w.a != from || w.b != to)) continue;
    if (rate < 0.0 || w.open >= best_open) {
      rate = w.prob;
      best_open = w.open;
    }
  }
  return rate;
}

template <typename Fn>
void Scenario::for_each_cut(const FaultEvent& e, std::size_t n, Fn&& fn) {
  // Group id per process: listed processes get their group's index,
  // everyone else a singleton id, so a pair is cut iff its ids differ.
  std::vector<std::size_t> gid(n);
  std::size_t next = e.groups.size();
  for (std::size_t p = 0; p < n; ++p) gid[p] = next++;
  for (std::size_t g = 0; g < e.groups.size(); ++g) {
    for (ProcessId p : e.groups[g]) {
      PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < n,
                   "partition: process outside the system");
      gid[static_cast<std::size_t>(p)] = g;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && gid[i] != gid[j]) {
        fn(static_cast<ProcessId>(i), static_cast<ProcessId>(j));
      }
    }
  }
}

Scenario& Scenario::add(FaultEvent e) {
  max_process_ = std::max(max_process_, e.a);
  for (const auto& group : e.groups) {
    for (ProcessId p : group) max_process_ = std::max(max_process_, p);
  }
  events_.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::add_window(std::vector<ProbWindow>& windows, ProcessId a,
                               ProcessId b, double probability,
                               TimePoint from, TimePoint until,
                               const char* what) {
  PARDSM_CHECK(probability >= 0.0 && probability <= 1.0, what);
  PARDSM_CHECK(until > from, what);
  // Same liveness contract as partition()/crash(): a total-loss window
  // must end, or the ARQ layer can never drain the channel.
  PARDSM_CHECK(probability < 1.0 || until != kTimeForever,
               "probability window: a permanent total-loss/duplication "
               "window never quiesces (give it an end time)");
  if (probability > 0.0) faulty_ = true;
  max_process_ = std::max({max_process_, a, b});
  windows.push_back({a, b, probability, from, until});
  return *this;
}

Scenario& Scenario::set_loss(double probability, TimePoint from,
                             TimePoint until) {
  return set_loss(kNoProcess, kNoProcess, probability, from, until);
}

Scenario& Scenario::set_loss(ProcessId from_p, ProcessId to_p,
                             double probability, TimePoint from,
                             TimePoint until) {
  return add_window(loss_windows_, from_p, to_p, probability, from, until,
                    "set_loss: bad probability or interval");
}

Scenario& Scenario::duplicate(double probability, TimePoint from,
                              TimePoint until) {
  return duplicate(kNoProcess, kNoProcess, probability, from, until);
}

Scenario& Scenario::duplicate(ProcessId from_p, ProcessId to_p,
                              double probability, TimePoint from,
                              TimePoint until) {
  return add_window(dup_windows_, from_p, to_p, probability, from, until,
                    "duplicate: bad probability or interval");
}

Scenario& Scenario::partition(std::vector<std::vector<ProcessId>> groups,
                              TimePoint at, TimePoint heal_at) {
  PARDSM_CHECK(!groups.empty(), "partition: no groups");
  PARDSM_CHECK(heal_at > at, "partition: heal_at must follow at");
  PARDSM_CHECK(heal_at != kTimeForever,
               "partition: must heal before the end of the run (liveness)");
  faulty_ = true;
  FaultEvent sever{FaultEvent::Type::kSever, at, kNoProcess, groups};
  FaultEvent heal{FaultEvent::Type::kHeal, heal_at, kNoProcess,
                  std::move(groups)};
  add(std::move(sever));
  return add(std::move(heal));
}

Scenario& Scenario::crash(ProcessId p, TimePoint at, TimePoint recover_at) {
  PARDSM_CHECK(p >= 0, "crash: bad process");
  PARDSM_CHECK(recover_at > at, "crash: recover_at must follow at");
  PARDSM_CHECK(recover_at != kTimeForever,
               "crash: must recover before the end of the run (liveness)");
  for (const auto& [q, from, to] : crash_windows_) {
    PARDSM_CHECK(q != p || recover_at <= from || at >= to,
                 "crash: overlapping crash windows for one process");
  }
  crash_windows_.emplace_back(p, at, recover_at);
  faulty_ = true;
  add({FaultEvent::Type::kCrash, at, p, {}});
  return add({FaultEvent::Type::kRecover, recover_at, p, {}});
}

void Scenario::fire(const FaultEvent& e, ChannelFaults& faults,
                    const ScenarioHooks& hooks) const {
  const auto n = faults.process_count();
  switch (e.type) {
    case FaultEvent::Type::kSever:
      for_each_cut(e, n, [&](ProcessId a, ProcessId b) { faults.sever(a, b); });
      break;
    case FaultEvent::Type::kHeal:
      for_each_cut(e, n, [&](ProcessId a, ProcessId b) { faults.heal(a, b); });
      break;
    case FaultEvent::Type::kCrash:
      faults.set_down(e.a, true);
      if (hooks.on_crash) hooks.on_crash(e.a, e.at);
      break;
    case FaultEvent::Type::kRecover:
      faults.set_down(e.a, false);
      if (hooks.on_recover) hooks.on_recover(e.a, e.at);
      break;
  }
}

std::vector<const FaultEvent*> Scenario::execution_order() const {
  std::vector<const FaultEvent*> ordered;
  ordered.reserve(events_.size());
  for (const FaultEvent& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     if (a->at != b->at) return a->at < b->at;
                     return closes_condition(*a) && !closes_condition(*b);
                   });
  return ordered;
}

void Scenario::apply(ChannelFaults& faults, TimePoint now,
                     const ScenarioHooks& hooks,
                     const Schedule& schedule) const {
  PARDSM_CHECK(max_process_ == kNoProcess ||
                   static_cast<std::size_t>(max_process_) <
                       faults.process_count(),
               "scenario mentions a process outside the system");
  // Probability windows: resolved per message at planning time, so they
  // need no events and never delay quiescence.
  if (!loss_windows_.empty() || !dup_windows_.empty()) {
    faults.set_rate_override(std::make_shared<Rates>(this));
  }
  for (const FaultEvent& e : events_) {
    if (e.type == FaultEvent::Type::kSever) {
      for_each_cut(e, faults.process_count(), [&](ProcessId a, ProcessId b) {
        faults.reserve_cut(a, b);
      });
    }
  }
  // Structural events, in timeline order independent of builder call
  // order: by time, closing edges before opening edges at equal times,
  // builder order as the tie break (stable sort).
  for (const FaultEvent* ep : execution_order()) {
    const FaultEvent& e = *ep;
    if (e.at <= now) {
      fire(e, faults, hooks);
    } else {
      schedule(e.at, e.a,
               [this, &faults, hooks, &e] { fire(e, faults, hooks); });
    }
  }
}

void Scenario::apply(Simulator& sim, ScenarioHooks hooks) const {
  apply(sim.ensure_network(), sim.now(), hooks,
        [&sim](TimePoint at, ProcessId, std::function<void()> fn) {
          sim.schedule_at(at, std::move(fn));
        });
}

void Scenario::apply(ParallelSimulator& sim, ScenarioHooks hooks) const {
  // Structural events mutate shared fault state, so each becomes a
  // stop-the-world global: the coordinator fires it with every worker
  // parked, at its exact time (windows never span a global's instant).
  apply(sim.faults(), sim.now(), hooks,
        [&sim](TimePoint at, ProcessId, std::function<void()> fn) {
          sim.schedule_global(at, std::move(fn));
        });
}

}  // namespace pardsm
