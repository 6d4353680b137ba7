#include "apps/async_jacobi.h"

#include <algorithm>
#include <cstdlib>

#include "core/dsm.h"
#include "simnet/check.h"
#include "simnet/rng.h"

namespace pardsm::apps {

JacobiProblem JacobiProblem::contraction(std::size_t n, std::uint64_t seed) {
  PARDSM_CHECK(n >= 2, "Jacobi problem needs >= 2 components");
  Rng rng(seed);
  JacobiProblem p;
  p.sub.assign(n, 0);
  p.diag.assign(n, 0);
  p.super.assign(n, 0);
  p.b.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // Row coefficients summing to ~0.6 in absolute value.
    const auto frac = [&](double f) {
      return static_cast<std::int64_t>(f * kJacobiScale);
    };
    p.diag[i] = frac(0.2);
    if (i > 0) p.sub[i] = frac(0.2);
    if (i + 1 < n) p.super[i] = frac(0.2);
    p.b[i] = frac(static_cast<double>(rng.range(-50, 50)) / 10.0);
  }
  return p;
}

namespace {

std::vector<std::int64_t> apply_row(const JacobiProblem& p,
                                    const std::vector<std::int64_t>& x) {
  const std::size_t n = p.size();
  std::vector<std::int64_t> out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    __int128 acc = static_cast<__int128>(p.diag[i]) * x[i];
    if (i > 0) acc += static_cast<__int128>(p.sub[i]) * x[i - 1];
    if (i + 1 < n) acc += static_cast<__int128>(p.super[i]) * x[i + 1];
    out[i] = static_cast<std::int64_t>(acc / kJacobiScale) + p.b[i];
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> jacobi_reference(const JacobiProblem& p,
                                           std::size_t max_rounds) {
  std::vector<std::int64_t> x(p.size(), 0);
  for (std::size_t r = 0; r < max_rounds; ++r) {
    auto next = apply_row(p, x);
    if (next == x) break;
    x = std::move(next);
  }
  return x;
}

namespace {

/// x_i lives in variable i; C(x_i) = {i-1, i, i+1} ∩ range.
graph::Distribution make_distribution(std::size_t n) {
  graph::Distribution d;
  d.name = "jacobi-n" + std::to_string(n);
  d.var_count = n;
  d.per_process.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) d.per_process[i].push_back(static_cast<VarId>(i - 1));
    d.per_process[i].push_back(static_cast<VarId>(i));
    if (i + 1 < n) d.per_process[i].push_back(static_cast<VarId>(i + 1));
  }
  return d;
}

class Component {
 public:
  Component(std::size_t self, const JacobiProblem& p, mcs::McsProcess& mcs,
            Simulator& sim, const JacobiOptions& options)
      : self_(self), p_(p), mcs_(mcs), sim_(sim), options_(options) {}

  void start() {
    mcs_.write(static_cast<VarId>(self_), 0, [this] { round(); });
  }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::int64_t value() const { return x_; }

 private:
  void round() {
    if (rounds_done_ >= options_.rounds) {
      done_ = true;
      return;
    }
    // Read neighbours (stale values acceptable — no barrier at all).
    read_neighbour_left();
  }

  void read_neighbour_left() {
    if (self_ == 0) {
      left_ = 0;
      read_neighbour_right();
      return;
    }
    mcs_.read(static_cast<VarId>(self_ - 1), [this](Value v) {
      left_ = (v == kBottom) ? 0 : v;
      read_neighbour_right();
    });
  }

  void read_neighbour_right() {
    if (self_ + 1 >= p_.size()) {
      right_ = 0;
      update();
      return;
    }
    mcs_.read(static_cast<VarId>(self_ + 1), [this](Value v) {
      right_ = (v == kBottom) ? 0 : v;
      update();
    });
  }

  void update() {
    __int128 acc = static_cast<__int128>(p_.diag[self_]) * x_;
    if (self_ > 0) acc += static_cast<__int128>(p_.sub[self_]) * left_;
    if (self_ + 1 < p_.size()) {
      acc += static_cast<__int128>(p_.super[self_]) * right_;
    }
    x_ = static_cast<std::int64_t>(acc / kJacobiScale) + p_.b[self_];
    mcs_.write(static_cast<VarId>(self_), x_, [this] {
      ++rounds_done_;
      sim_.schedule_at(sim_.now() + options_.round_delay,
                       [this] { round(); });
    });
  }

  std::size_t self_;
  const JacobiProblem& p_;
  mcs::McsProcess& mcs_;
  Simulator& sim_;
  JacobiOptions options_;
  Value x_ = 0;
  Value left_ = 0;
  Value right_ = 0;
  std::size_t rounds_done_ = 0;
  bool done_ = false;
};

}  // namespace

JacobiResult run_async_jacobi(const JacobiProblem& p,
                              const JacobiOptions& options) {
  const std::size_t n = p.size();
  System dsm({.protocol = options.protocol,
              .distribution = make_distribution(n),
              .seed = options.sim_seed,
              .latency_lo = millis(1),
              .latency_hi = millis(6)});
  Simulator& sim = dsm.simulator();

  std::vector<std::unique_ptr<Component>> comps;
  for (std::size_t i = 0; i < n; ++i) {
    comps.push_back(std::make_unique<Component>(
        i, p, dsm.process(static_cast<ProcessId>(i)), sim, options));
  }
  for (auto& c : comps) {
    sim.schedule_at(kTimeZero, [comp = c.get()] { comp->start(); });
  }
  dsm.run();

  JacobiResult result;
  const auto reference = jacobi_reference(p);
  for (const auto& c : comps) {
    PARDSM_CHECK(c->done(), "Jacobi component did not finish");
    result.solution.push_back(c->value());
  }
  for (std::size_t i = 0; i < n; ++i) {
    result.max_abs_error = std::max(
        result.max_abs_error, std::abs(result.solution[i] - reference[i]));
  }
  // Tolerance: a few fixed-point ulps per unit magnitude.
  result.converged = result.max_abs_error <= kJacobiScale / 256;
  result.total_traffic = dsm.stats().total();
  result.finished_at = dsm.now();
  return result;
}

}  // namespace pardsm::apps
