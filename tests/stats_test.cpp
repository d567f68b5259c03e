#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.h"
#include "graph/stats.h"

namespace ebv {
namespace {

TEST(Stats, DegreeHistogramSumsToVertexCount) {
  const Graph g = gen::erdos_renyi(500, 3000, 21);
  const auto hist = degree_histogram(g);
  const std::uint64_t total =
      std::accumulate(hist.begin(), hist.end(), std::uint64_t{0});
  EXPECT_EQ(total, g.num_vertices());
}

TEST(Stats, DegreeHistogramOnStar) {
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const auto hist = degree_histogram(g);
  ASSERT_EQ(hist.size(), 5u);  // max degree 4
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[4], 1u);
}

TEST(Stats, EtaZeroWhenNoQualifyingVertices) {
  const Graph g(4, {});
  EXPECT_EQ(estimate_power_law_exponent(g), 0.0);
}

TEST(Stats, EtaOnSyntheticPowerLawIsInBand) {
  const Graph g = gen::chung_lu(20000, 200000, 2.5, false, 33);
  const double eta = estimate_power_law_exponent(g);
  EXPECT_GT(eta, 1.5);
  EXPECT_LT(eta, 4.5);
}

TEST(Stats, EtaMonotoneInSkew) {
  const double eta_heavy = estimate_power_law_exponent(
      gen::chung_lu(10000, 100000, 2.0, false, 5));
  const double eta_light = estimate_power_law_exponent(
      gen::chung_lu(10000, 100000, 3.2, false, 5));
  EXPECT_LT(eta_heavy, eta_light);
}

TEST(Stats, ComputeStatsFields) {
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}});
  const GraphStats s = compute_stats(g);
  EXPECT_EQ(s.num_vertices, 5u);
  EXPECT_EQ(s.num_edges, 3u);
  EXPECT_DOUBLE_EQ(s.average_degree, 0.6);
  EXPECT_EQ(s.max_out_degree, 3u);
  EXPECT_EQ(s.max_total_degree, 3u);
  EXPECT_EQ(s.isolated_vertices, 1u);  // vertex 4
}

TEST(Stats, MinDegreeZeroSelectsAdaptiveThreshold) {
  // dmin = 0 (auto) must behave like passing the average total degree.
  const Graph g = gen::chung_lu(5000, 50000, 2.5, false, 19);
  const auto avg = static_cast<std::uint32_t>(
      2.0 * static_cast<double>(g.num_edges()) / g.num_vertices());
  EXPECT_DOUBLE_EQ(estimate_power_law_exponent(g, 0),
                   estimate_power_law_exponent(g, std::max(2u, avg)));
}

}  // namespace
}  // namespace ebv
