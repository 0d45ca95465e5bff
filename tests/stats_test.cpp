// Unit and property tests for src/stats: descriptive statistics,
// correlation, histograms/CCDF, matrices, and OLS regression.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/bootstrap.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/matrix.hpp"
#include "stats/regression.hpp"
#include "util/rng.hpp"

namespace {

using namespace dsa::stats;

// -------------------------------------------------------- descriptive ----

TEST(Descriptive, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyAndSingletonEdges) {
  const std::vector<double> empty;
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
  EXPECT_DOUBLE_EQ(min_value(empty), 0.0);
  EXPECT_DOUBLE_EQ(max_value(empty), 0.0);
  EXPECT_DOUBLE_EQ(ci95_half_width(one), 0.0);
}

TEST(Descriptive, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 1.5), std::invalid_argument);
}

TEST(Descriptive, MinMaxNormalizeMapsToUnitInterval) {
  const std::vector<double> xs{5.0, 10.0, 7.5};
  const auto norm = min_max_normalize(xs);
  EXPECT_DOUBLE_EQ(norm[0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1], 1.0);
  EXPECT_DOUBLE_EQ(norm[2], 0.5);
}

TEST(Descriptive, NormalizeConstantSampleIsZero) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  for (double v : min_max_normalize(xs)) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : standardize(xs)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Descriptive, StandardizeHasZeroMeanUnitVariance) {
  dsa::util::Rng rng(3);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.uniform(10.0, 90.0);
  const auto z = standardize(xs);
  EXPECT_NEAR(mean(z), 0.0, 1e-12);
  EXPECT_NEAR(variance(z), 1.0, 1e-9);
}

TEST(Descriptive, Ci95ShrinksWithSampleSize) {
  dsa::util::Rng rng(5);
  std::vector<double> small(10), large(1000);
  for (auto& x : small) x = rng.uniform();
  for (auto& x : large) x = rng.uniform();
  EXPECT_GT(ci95_half_width(small), ci95_half_width(large));
}

class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, PercentileIsMonotoneInQ) {
  dsa::util::Rng rng(GetParam());
  std::vector<double> xs(50);
  for (auto& x : xs) x = rng.uniform(-5.0, 5.0);
  double prev = percentile(xs, 0.0);
  for (int i = 1; i <= 20; ++i) {
    const double cur = percentile(xs, i / 20.0);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Range(1, 9));

// -------------------------------------------------------- correlation ----

TEST(Correlation, PerfectLinearRelationships) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{2.0, 4.0, 6.0, 8.0};
  const std::vector<double> down{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Correlation, ConstantSampleGivesZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Correlation, RejectsBadInput) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW(pearson(a, b), std::invalid_argument);
  EXPECT_THROW(pearson(b, b), std::invalid_argument);
  EXPECT_THROW(spearman(a, b), std::invalid_argument);
}

TEST(Correlation, SpearmanCapturesMonotoneNonlinear) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 30; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.3 * i));  // monotone but very non-linear
  }
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
  EXPECT_LT(pearson(xs, ys), 1.0);
}

TEST(Correlation, SpearmanHandlesTies) {
  const std::vector<double> xs{1.0, 2.0, 2.0, 3.0};
  const std::vector<double> ys{10.0, 20.0, 20.0, 30.0};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Correlation, IndependentSamplesNearZero) {
  dsa::util::Rng rng(17);
  std::vector<double> xs(2000), ys(2000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform();
    ys[i] = rng.uniform();
  }
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.08);
}

// ---------------------------------------------------------- histogram ----

TEST(Histogram1D, CountsAndClampsOutOfRange) {
  Histogram1D h(10, 0.0, 1.0);
  h.add(0.05);
  h.add(0.15);
  h.add(0.15);
  h.add(-1.0);  // clamps into bin 0
  h.add(2.0);   // clamps into bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.4);
}

TEST(Histogram1D, BinEdgesPartitionRange) {
  Histogram1D h(4, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lower(3), 1.5);
  EXPECT_DOUBLE_EQ(h.bin_upper(3), 2.0);
  EXPECT_EQ(h.bin_of(0.999), 1u);
  EXPECT_EQ(h.bin_of(1.0), 2u);
  EXPECT_EQ(h.bin_of(2.0), 3u);  // top edge closed
}

TEST(Histogram1D, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram1D(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Histogram1D(5, 1.0, 1.0), std::invalid_argument);
}

TEST(FrequencyGrid, RowRelativeFrequencies) {
  FrequencyGrid grid(10, 10);  // deciles x partner count
  grid.add(0.95, 1);
  grid.add(0.95, 1);
  grid.add(0.92, 2);
  grid.add(0.15, 9);
  EXPECT_EQ(grid.count(9, 1), 2u);
  EXPECT_EQ(grid.row_total(9), 3u);
  EXPECT_NEAR(grid.row_relative_frequency(9, 1), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(grid.row_relative_frequency(5, 5), 0.0);  // empty row
  EXPECT_DOUBLE_EQ(grid.row_lower(9), 0.9);
  EXPECT_DOUBLE_EQ(grid.row_upper(9), 1.0);
}

TEST(FrequencyGrid, BoundsChecking) {
  FrequencyGrid grid(2, 3);
  EXPECT_THROW(grid.add(0.5, 3), std::out_of_range);
  EXPECT_THROW((void)grid.count(2, 0), std::out_of_range);
  EXPECT_THROW(FrequencyGrid(0, 1), std::invalid_argument);
}

TEST(Ccdf, MatchesHandComputedValues) {
  const std::vector<double> sample{1.0, 2.0, 2.0, 3.0};
  Ccdf ccdf(sample);
  EXPECT_DOUBLE_EQ(ccdf.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ccdf.at(1.0), 0.75);   // strictly greater than 1
  EXPECT_DOUBLE_EQ(ccdf.at(2.0), 0.25);
  EXPECT_DOUBLE_EQ(ccdf.at(3.0), 0.0);
  EXPECT_THROW(Ccdf({}), std::invalid_argument);
}

TEST(Ccdf, SeriesIsMonotoneNonIncreasing) {
  dsa::util::Rng rng(23);
  std::vector<double> sample(200);
  for (auto& x : sample) x = rng.uniform();
  Ccdf ccdf(sample);
  const auto series = ccdf.series(0.0, 1.0, 21);
  ASSERT_EQ(series.size(), 21u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.front().first, 0.0);
  EXPECT_DOUBLE_EQ(series.back().first, 1.0);
}

// ------------------------------------------------------------- matrix ----

TEST(Matrix, MultiplyAndTranspose) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
  const Matrix at = a.transposed();
  EXPECT_DOUBLE_EQ(at.at(0, 1), 3.0);
}

TEST(Matrix, SolveRecoversKnownSolution) {
  const Matrix a = Matrix::from_rows({{2.0, 1.0}, {1.0, 3.0}});
  const std::vector<double> b{5.0, 10.0};
  const auto x = a.solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SolveNeedsPivoting) {
  // Leading zero forces a row swap.
  const Matrix a = Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const auto x = a.solve(std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, SingularMatrixThrows) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_THROW(a.solve(std::vector<double>{1.0, 2.0}), std::runtime_error);
  EXPECT_THROW(a.inverted(), std::runtime_error);
}

TEST(Matrix, InverseTimesSelfIsIdentity) {
  const Matrix a =
      Matrix::from_rows({{4.0, 7.0, 2.0}, {3.0, 6.0, 1.0}, {2.0, 5.0, 3.0}});
  const Matrix product = a * a.inverted();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(product.at(r, c), r == c ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Matrix, ShapeErrors) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a.solve(std::vector<double>{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Matrix::from_rows({{1.0}, {1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW((void)a.at(5, 0), std::out_of_range);
}

// --------------------------------------------------------- regression ----

TEST(Ols, RecoversCoefficientsUnderNoise) {
  dsa::util::Rng rng(29);
  OlsModel model({"x1", "x2"});
  for (int i = 0; i < 500; ++i) {
    const double x1 = rng.uniform(-1.0, 1.0);
    const double x2 = rng.uniform(-1.0, 1.0);
    const double noise = rng.uniform(-0.05, 0.05);
    model.add(std::vector<double>{x1, x2}, 1.5 - 2.0 * x1 + 0.5 * x2 + noise);
  }
  const OlsFit fit = model.fit();
  EXPECT_NEAR(fit.coefficient("(intercept)").estimate, 1.5, 0.02);
  EXPECT_NEAR(fit.coefficient("x1").estimate, -2.0, 0.02);
  EXPECT_NEAR(fit.coefficient("x2").estimate, 0.5, 0.02);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_GT(fit.adjusted_r_squared, 0.99);
  EXPECT_TRUE(fit.coefficient("x1").significant_at(0.001));
}

TEST(Ols, InsignificantRegressorDetected) {
  dsa::util::Rng rng(31);
  OlsModel model({"signal", "junk"});
  for (int i = 0; i < 400; ++i) {
    const double s = rng.uniform(-1.0, 1.0);
    const double j = rng.uniform(-1.0, 1.0);
    model.add(std::vector<double>{s, j},
              2.0 * s + rng.uniform(-1.0, 1.0));
  }
  const OlsFit fit = model.fit();
  EXPECT_TRUE(fit.coefficient("signal").significant_at(0.001));
  EXPECT_FALSE(fit.coefficient("junk").significant_at(0.001));
}

TEST(Ols, DummyVariablesMatchGroupMeans) {
  // Response = 1 for group A, 3 for group B; dummy coding with A as base.
  OlsModel model({"isB"});
  for (int i = 0; i < 10; ++i) {
    model.add(std::vector<double>{0.0}, 1.0 + (i % 2 == 0 ? 0.01 : -0.01));
    model.add(std::vector<double>{1.0}, 3.0 + (i % 2 == 0 ? 0.01 : -0.01));
  }
  const OlsFit fit = model.fit();
  EXPECT_NEAR(fit.coefficient("(intercept)").estimate, 1.0, 1e-9);
  EXPECT_NEAR(fit.coefficient("isB").estimate, 2.0, 1e-9);
}

TEST(Ols, PredictAppliesIntercept) {
  OlsModel model({"x"});
  for (int i = 0; i < 10; ++i) {
    model.add(std::vector<double>{static_cast<double>(i)}, 5.0 + 3.0 * i);
  }
  const OlsFit fit = model.fit();
  EXPECT_NEAR(fit.predict(std::vector<double>{4.0}), 17.0, 1e-9);
  EXPECT_THROW((void)fit.predict(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Ols, CollinearRegressorsThrow) {
  OlsModel model({"x", "x_copy"});
  for (int i = 0; i < 50; ++i) {
    const double x = i;
    model.add(std::vector<double>{x, x}, 2.0 * x);
  }
  EXPECT_THROW(model.fit(), std::runtime_error);
}

TEST(Ols, TooFewObservationsThrow) {
  OlsModel model({"a", "b", "c"});
  model.add(std::vector<double>{1.0, 2.0, 3.0}, 1.0);
  EXPECT_THROW(model.fit(), std::runtime_error);
}

TEST(Ols, WidthMismatchThrows) {
  OlsModel model({"a"});
  EXPECT_THROW(model.add(std::vector<double>{1.0, 2.0}, 0.0),
               std::invalid_argument);
}

TEST(Ols, NoInterceptRegressionThroughOrigin) {
  OlsModel model({"x"}, /*include_intercept=*/false);
  for (int i = 1; i <= 20; ++i) {
    model.add(std::vector<double>{static_cast<double>(i)}, 4.0 * i);
  }
  const OlsFit fit = model.fit();
  ASSERT_EQ(fit.coefficients.size(), 1u);
  EXPECT_NEAR(fit.coefficient("x").estimate, 4.0, 1e-9);
  EXPECT_NEAR(fit.predict(std::vector<double>{2.0}), 8.0, 1e-9);
}

TEST(Ols, UnknownCoefficientThrows) {
  OlsModel model({"x"});
  for (int i = 0; i < 5; ++i) {
    model.add(std::vector<double>{static_cast<double>(i)}, i * 1.0 + 0.1 * (i % 2));
  }
  const OlsFit fit = model.fit();
  EXPECT_THROW((void)fit.coefficient("nope"), std::out_of_range);
}

// ----------------------------------------------------------- bootstrap ----

TEST(Bootstrap, IntervalCoversTheTrueMean) {
  dsa::util::Rng rng(41);
  std::vector<double> sample(200);
  for (auto& x : sample) x = rng.uniform(0.0, 10.0);  // true mean 5
  const auto ci = bootstrap_mean_ci(sample);
  EXPECT_TRUE(ci.contains(5.0)) << "[" << ci.lower << ", " << ci.upper << "]";
  EXPECT_LT(ci.width(), 2.0);
  EXPECT_TRUE(ci.contains(mean(sample)));
}

TEST(Bootstrap, WiderConfidenceGivesWiderInterval) {
  dsa::util::Rng rng(43);
  std::vector<double> sample(60);
  for (auto& x : sample) x = rng.uniform();
  const auto narrow = bootstrap_mean_ci(sample, 0.80);
  const auto wide = bootstrap_mean_ci(sample, 0.99);
  EXPECT_GT(wide.width(), narrow.width());
}

TEST(Bootstrap, ShrinksWithSampleSize) {
  dsa::util::Rng rng(47);
  std::vector<double> small(20), large(500);
  for (auto& x : small) x = rng.uniform();
  for (auto& x : large) x = rng.uniform();
  EXPECT_GT(bootstrap_mean_ci(small).width(),
            bootstrap_mean_ci(large).width());
}

TEST(Bootstrap, DeterministicInSeed) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto a = bootstrap_mean_ci(sample, 0.95, 500, 7);
  const auto b = bootstrap_mean_ci(sample, 0.95, 500, 7);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(Bootstrap, CustomStatistic) {
  // 30 ordinary values plus one huge outlier: the median's CI must ignore
  // the outlier while the mean's CI is dragged upward.
  std::vector<double> sample;
  for (int i = 1; i <= 30; ++i) sample.push_back(static_cast<double>(i));
  sample.push_back(1000.0);
  const auto median_ci = bootstrap_statistic_ci(
      sample, [](std::span<const double> xs) { return percentile(xs, 0.5); });
  const auto mean_ci = bootstrap_mean_ci(sample);
  EXPECT_LT(median_ci.upper, 30.0);
  EXPECT_GT(mean_ci.upper, median_ci.upper);
}

TEST(Bootstrap, ValidatesInput) {
  const std::vector<double> sample{1.0};
  EXPECT_THROW(bootstrap_mean_ci({}), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(sample, 1.0), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(sample, 0.95, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_statistic_ci(sample, nullptr),
               std::invalid_argument);
}

TEST(NormalPValue, MatchesKnownQuantiles) {
  EXPECT_NEAR(two_sided_normal_p(0.0), 1.0, 1e-12);
  EXPECT_NEAR(two_sided_normal_p(1.959964), 0.05, 1e-4);
  EXPECT_NEAR(two_sided_normal_p(3.290527), 0.001, 1e-5);
  EXPECT_NEAR(two_sided_normal_p(-3.290527), 0.001, 1e-5);  // symmetric
}

}  // namespace
