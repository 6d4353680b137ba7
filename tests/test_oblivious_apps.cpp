// The §5 "power of PRAM" claims: matrix product, dynamic programming and
// asynchronous fixed-point iteration run correctly on weak memories with
// partial replication.

#include <gtest/gtest.h>

#include "apps/async_jacobi.h"
#include "apps/bellman_ford.h"
#include "apps/matrix_product.h"
#include "apps/wavefront_lcs.h"

namespace pardsm::apps {
namespace {

// ------------------------------------------------------------ matrix product
TEST(MatrixProduct, ReferenceOracle) {
  const Matrix a = {{1, 2}, {3, 4}};
  const Matrix b = {{5, 6}, {7, 8}};
  EXPECT_EQ(multiply_reference(a, b), (Matrix{{19, 22}, {43, 50}}));
}

TEST(MatrixProduct, DistributedOnPramMatchesReference) {
  const auto a = random_matrix(6, 9, 1);
  const auto b = random_matrix(6, 9, 2);
  const auto result = run_matrix_product(a, b, /*processes=*/3);
  EXPECT_TRUE(result.matches_reference);
}

TEST(MatrixProduct, UnevenRowBlocks) {
  const auto a = random_matrix(7, 5, 3);
  const auto b = random_matrix(7, 5, 4);
  const auto result = run_matrix_product(a, b, /*processes=*/3);
  EXPECT_TRUE(result.matches_reference);
}

TEST(MatrixProduct, OneProcessPerRow) {
  const auto a = random_matrix(5, 4, 5);
  const auto b = random_matrix(5, 4, 6);
  const auto result = run_matrix_product(a, b, /*processes=*/5);
  EXPECT_TRUE(result.matches_reference);
}

TEST(MatrixProduct, WorksOnCausalProtocolsToo) {
  const auto a = random_matrix(4, 4, 7);
  const auto b = random_matrix(4, 4, 8);
  MatrixProductOptions options;
  options.protocol = mcs::ProtocolKind::kCausalPartialNaive;
  const auto result = run_matrix_product(a, b, 2, options);
  EXPECT_TRUE(result.matches_reference);
}

// ------------------------------------------------------------------- LCS
TEST(WavefrontLcs, ReferenceOracle) {
  EXPECT_EQ(lcs_reference("ABCBDAB", "BDCABA"), 4u);
  EXPECT_EQ(lcs_reference("AAAA", "AA"), 2u);
  EXPECT_EQ(lcs_reference("ABC", "XYZ"), 0u);
}

TEST(WavefrontLcs, DistributedMatchesReference) {
  const auto result = run_wavefront_lcs("ABCBDAB", "BDCABA");
  EXPECT_TRUE(result.matches_reference);
  EXPECT_EQ(result.length, 4u);
}

TEST(WavefrontLcs, DistributionIsHoopFree) {
  // The wavefront chain is the hoop-free contrast case: partial
  // replication is efficient here even for causal consistency.
  const auto result = run_wavefront_lcs("GATTACA", "TACGATC");
  EXPECT_TRUE(result.hoop_free);
  EXPECT_TRUE(result.matches_reference);
}

TEST(WavefrontLcs, LongerStrings) {
  const std::string s = "THEQUICKBROWNFOX";
  const std::string t = "JUMPSOVERTHELAZYDOG";
  const auto result = run_wavefront_lcs(s, t);
  EXPECT_TRUE(result.matches_reference);
}

// ----------------------------------------------------------------- Jacobi
TEST(AsyncJacobi, ReferenceConverges) {
  const auto p = JacobiProblem::contraction(6, 5);
  const auto x = jacobi_reference(p);
  // Fixed point: x = Ax + b within one ulp per component.
  const auto again = jacobi_reference(p);
  EXPECT_EQ(x, again);
}

TEST(AsyncJacobi, ConvergesOnSlowMemory) {
  const auto p = JacobiProblem::contraction(6, 7);
  JacobiOptions options;
  options.protocol = mcs::ProtocolKind::kSlowPartial;
  const auto result = run_async_jacobi(p, options);
  EXPECT_TRUE(result.converged)
      << "max error (fixed-point): " << result.max_abs_error;
}

TEST(AsyncJacobi, ConvergesOnPramToo) {
  const auto p = JacobiProblem::contraction(5, 11);
  JacobiOptions options;
  options.protocol = mcs::ProtocolKind::kPramPartial;
  const auto result = run_async_jacobi(p, options);
  EXPECT_TRUE(result.converged);
}

TEST(AsyncJacobi, DifferentSeedsDifferentProblemsAllConverge) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto p = JacobiProblem::contraction(8, seed);
    JacobiOptions options;
    options.sim_seed = seed;
    const auto result = run_async_jacobi(p, options);
    EXPECT_TRUE(result.converged) << "seed " << seed;
  }
}

// ------------------------------------------------------ fixed-seed pins
// One fixed-seed run per app, pinned to its exact traffic ledger, finish
// time and answer.  The values are a pure function of (app, input, seed):
// any change to how the apps assemble their system — simulator, recorder,
// process wiring — must leave every one of them unchanged.
struct AppRun {
  ProcessTraffic traffic;
  TimePoint finished_at;
  std::vector<std::int64_t> answer;
};

struct AppPin {
  const char* app;
  AppRun (*run)();
  std::uint64_t msgs_sent;
  std::uint64_t control_bytes_sent;
  std::uint64_t payload_bytes_sent;
  std::int64_t finished_at_us;
  std::vector<std::int64_t> answer;
};

AppRun bellman_ford_run() {
  BellmanFordOptions options;
  options.sim_seed = 7;
  const auto r = run_bellman_ford(WeightedGraph::fig8(), options);
  return {r.total_traffic, r.finished_at, r.distances};
}

AppRun jacobi_run() {
  JacobiOptions options;
  options.sim_seed = 3;
  const auto r = run_async_jacobi(JacobiProblem::contraction(6, 7), options);
  return {r.total_traffic, r.finished_at, r.solution};
}

AppRun matrix_product_run() {
  MatrixProductOptions options;
  options.sim_seed = 5;
  const auto r = run_matrix_product(random_matrix(4, 9, 1),
                                    random_matrix(4, 9, 2), 2, options);
  std::vector<std::int64_t> cells;
  for (const auto& row : r.product) {
    cells.insert(cells.end(), row.begin(), row.end());
  }
  return {r.total_traffic, r.finished_at, cells};
}

AppRun lcs_run() {
  LcsOptions options;
  options.sim_seed = 2;
  const auto r = run_wavefront_lcs("GATTACA", "TACGATC", options);
  return {r.total_traffic, r.finished_at,
          {static_cast<std::int64_t>(r.length)}};
}

TEST(ObliviousApps, FixedSeedRunsArePinned) {
  const AppPin pins[] = {
      {"bellman-ford", bellman_ford_run, 96, 2304, 768, 26777,
       {0, 2, 1, 4, 4}},
      {"async-jacobi", jacobi_run, 810, 25920, 6480, 164085,
       {94216, 180264, -257894, -556493, -591849, -500212}},
      {"matrix-product", matrix_product_run, 18, 432, 144, 4000,
       {-5, -38, 46, 31, -11, 29, -2, 19, -19, -87, 54, 83, 42, 42, 50,
        -102}},
      {"wavefront-lcs", lcs_run, 96, 2304, 768, 18000, {4}},
  };
  for (const AppPin& pin : pins) {
    SCOPED_TRACE(pin.app);
    const AppRun got = pin.run();
    EXPECT_EQ(got.traffic.msgs_sent, pin.msgs_sent);
    EXPECT_EQ(got.traffic.control_bytes_sent, pin.control_bytes_sent);
    EXPECT_EQ(got.traffic.payload_bytes_sent, pin.payload_bytes_sent);
    EXPECT_EQ(got.finished_at.us, pin.finished_at_us);
    EXPECT_EQ(got.answer, pin.answer);
  }
}

}  // namespace
}  // namespace pardsm::apps
