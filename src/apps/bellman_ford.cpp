#include "apps/bellman_ford.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/dsm.h"
#include "simnet/check.h"

namespace pardsm::apps {

graph::Distribution bellman_ford_distribution(const WeightedGraph& g) {
  const std::size_t n = g.size();
  graph::Distribution d;
  d.name = "bellman-ford-n" + std::to_string(n);
  d.var_count = 2 * n;
  d.per_process.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<int> hs;
    hs.insert(static_cast<int>(i));
    for (int p : g.predecessors(static_cast<int>(i))) hs.insert(p);
    for (int h : hs) {
      d.per_process[i].push_back(x_var(h));
    }
    for (int h : hs) {
      d.per_process[i].push_back(k_var(n, h));
    }
    std::sort(d.per_process[i].begin(), d.per_process[i].end());
  }
  return d;
}

namespace {

/// One application process executing Figure 7 as an event-driven state
/// machine over the asynchronous MCS API.
class BfNode {
 public:
  BfNode(int self, const WeightedGraph& g, mcs::McsProcess& mcs,
         Simulator& sim, const BellmanFordOptions& options)
      : self_(self),
        n_(g.size()),
        preds_(g.predecessors(self)),
        mcs_(mcs),
        sim_(sim),
        options_(options) {
    weights_.reserve(preds_.size());
    for (int j : preds_) {
      weights_.push_back(g.weight(j, self));
    }
  }

  /// Lines 1-4 of Figure 7: initialize x_i and k_i, then iterate.
  void start() {
    const Value x0 = (self_ == options_.source) ? 0 : kInfDistance;
    x_ = x0;
    mcs_.write(x_var(self_), x0, [this] {
      mcs_.write(k_var(n_, self_), 0, [this] { barrier(); });
    });
  }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] Value distance() const { return x_; }
  [[nodiscard]] std::int64_t round() const { return k_; }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }

 private:
  /// Line 5: while (k_i < N).
  void iterate() {
    if (k_ >= static_cast<std::int64_t>(n_)) {
      done_ = true;
      return;
    }
    barrier();
  }

  /// Line 6: spin until every predecessor reached our round.
  void barrier() {
    if (preds_.empty()) {
      update();
      return;
    }
    check_pred(0);
  }

  void check_pred(std::size_t idx) {
    if (idx == preds_.size()) {
      update();
      return;
    }
    mcs_.read(k_var(n_, preds_[idx]), [this, idx](Value kh) {
      if (kh == kBottom || kh < k_) {
        ++polls_;
        PARDSM_CHECK(polls_ <= options_.max_polls,
                     "Bellman-Ford barrier did not release — deadlock?");
        sim_.schedule_at(sim_.now() + options_.poll, [this] { barrier(); });
        return;
      }
      check_pred(idx + 1);
    });
  }

  /// Line 7: x_i := min over predecessors of x_j + w(j, i).
  void update() {
    best_ = x_;  // include the own value (w(i,i) = 0 in the paper)
    read_pred(0);
  }

  void read_pred(std::size_t idx) {
    if (idx == preds_.size()) {
      finish_round();
      return;
    }
    mcs_.read(x_var(preds_[idx]), [this, idx](Value xj) {
      if (xj == kBottom) {
        // A reader saw k_j but not the x_j written before it: the memory
        // reordered a single writer's writes across variables.  PRAM
        // forbids this; slow memory does not (the ablation experiment
        // counts these).  Treat as "no information" and continue.
        ++handoff_violations_;
        xj = kInfDistance;
      }
      best_ = std::min(best_, xj + weights_[idx]);
      read_pred(idx + 1);
    });
  }

  /// Lines 7-8: publish the new distance (Figure 7 writes x_i every
  /// round), then advance k_i.
  void finish_round() {
    if (self_ != options_.source) x_ = best_;
    mcs_.write(x_var(self_), x_, [this] {
      ++k_;
      mcs_.write(k_var(n_, self_), k_, [this] { iterate(); });
    });
  }

 public:
  [[nodiscard]] std::uint64_t handoff_violations() const {
    return handoff_violations_;
  }

 private:

  int self_;
  std::size_t n_;
  std::vector<int> preds_;
  std::vector<std::int64_t> weights_;
  mcs::McsProcess& mcs_;
  Simulator& sim_;
  BellmanFordOptions options_;

  Value x_ = kInfDistance;
  Value best_ = kInfDistance;
  std::int64_t k_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t handoff_violations_ = 0;
  bool done_ = false;
};

}  // namespace

BellmanFordResult run_bellman_ford(const WeightedGraph& g,
                                   const BellmanFordOptions& options) {
  System dsm({.protocol = options.protocol,
              .distribution = bellman_ford_distribution(g),
              .seed = options.sim_seed,
              .latency_lo = options.latency_lo,
              .latency_hi = options.latency_hi});
  Simulator& sim = dsm.simulator();

  std::vector<std::unique_ptr<BfNode>> nodes;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto id = static_cast<int>(i);
    nodes.push_back(
        std::make_unique<BfNode>(id, g, dsm.process(id), sim, options));
  }
  for (auto& node : nodes) {
    sim.schedule_at(kTimeZero, [n = node.get()] { n->start(); });
  }

  dsm.run();

  BellmanFordResult result;
  result.reference = bellman_ford_reference(g, options.source);
  for (const auto& node : nodes) {
    PARDSM_CHECK(node->done(), "Bellman-Ford node did not terminate");
    result.distances.push_back(node->distance());
    result.rounds.push_back(node->round());
    result.barrier_polls += node->polls();
    result.handoff_violations += node->handoff_violations();
  }
  result.matches_reference = result.distances == result.reference;
  result.total_traffic = dsm.stats().total();
  result.finished_at = dsm.now();
  result.history = dsm.history();
  return result;
}

std::string format_fig9_table(const BellmanFordResult& result,
                              std::size_t node_count, std::size_t max_steps) {
  std::ostringstream os;
  const auto& h = result.history;
  for (std::size_t p = 0; p < h.process_count(); ++p) {
    os << "p" << p + 1 << ":\n";
    std::size_t step = 0;
    std::ostringstream line;
    for (hist::OpIndex op : h.ops_of(static_cast<ProcessId>(p))) {
      const auto& o = h.op(op);
      line << ' ' << o.to_string();
      // A step ends with the write of k_i (variable id n + p).
      const bool step_end =
          o.is_write() &&
          o.var == k_var(node_count, static_cast<int>(p));
      if (step_end) {
        os << "  step " << step << ":" << line.str() << '\n';
        line.str("");
        ++step;
        if (max_steps != 0 && step >= max_steps) break;
      }
    }
  }
  return os.str();
}

}  // namespace pardsm::apps
