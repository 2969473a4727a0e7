#include "core/distribution.h"

#include <gtest/gtest.h>

namespace gmark {
namespace {

TEST(DistributionTest, UniformDrawsInRange) {
  DistributionSpec d = DistributionSpec::Uniform(2, 5);
  RandomEngine rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = DegreeSampler(d, 100).Draw(&rng);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
  }
  EXPECT_DOUBLE_EQ(d.Mean(100), 3.5);
}

TEST(DistributionTest, GaussianMeanAndNonNegativity) {
  DistributionSpec d = DistributionSpec::Gaussian(3.0, 1.0);
  RandomEngine rng(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    int64_t v = DegreeSampler(d, 100).Draw(&rng);
    EXPECT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
  EXPECT_DOUBLE_EQ(d.Mean(100), 3.0);
}

TEST(DistributionTest, ZipfianUsesSupportMax) {
  DistributionSpec d = DistributionSpec::Zipfian(2.5);
  RandomEngine rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = DegreeSampler(d, 7).Draw(&rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 7);
  }
  EXPECT_GT(d.Mean(1000), 1.0);
  EXPECT_TRUE(d.IsZipfian());
}

TEST(DistributionTest, NonSpecifiedDrawsZero) {
  DistributionSpec d = DistributionSpec::NonSpecified();
  RandomEngine rng(4);
  EXPECT_EQ(DegreeSampler(d, 10).Draw(&rng), 0);
  EXPECT_FALSE(d.specified());
  EXPECT_DOUBLE_EQ(d.Mean(10), 0.0);
}

TEST(DistributionTest, ValidateCatchesBadParameters) {
  EXPECT_FALSE(DistributionSpec::Uniform(5, 2).Validate().ok());
  EXPECT_FALSE(DistributionSpec::Uniform(-1, 2).Validate().ok());
  EXPECT_FALSE(DistributionSpec::Gaussian(1, -0.5).Validate().ok());
  EXPECT_FALSE(DistributionSpec::Zipfian(0).Validate().ok());
  EXPECT_FALSE(DistributionSpec::Zipfian(-2).Validate().ok());
  EXPECT_TRUE(DistributionSpec::Uniform(0, 0).Validate().ok());
  EXPECT_TRUE(DistributionSpec::Gaussian(0, 0).Validate().ok());
  EXPECT_TRUE(DistributionSpec::Zipfian(2.5).Validate().ok());
  EXPECT_TRUE(DistributionSpec::NonSpecified().Validate().ok());
}

TEST(DistributionTest, ToStringForms) {
  EXPECT_EQ(DistributionSpec::Uniform(1, 3).ToString(), "uniform[1,3]");
  EXPECT_EQ(DistributionSpec::Gaussian(3, 1).ToString(), "gaussian(3,1)");
  EXPECT_EQ(DistributionSpec::Zipfian(2.5).ToString(), "zipfian(2.5)");
  EXPECT_EQ(DistributionSpec::NonSpecified().ToString(), "nonspecified");
}

TEST(DistributionTest, ParseTypeNames) {
  EXPECT_EQ(ParseDistributionType("uniform").ValueOrDie(),
            DistributionType::kUniform);
  EXPECT_EQ(ParseDistributionType("gaussian").ValueOrDie(),
            DistributionType::kGaussian);
  EXPECT_EQ(ParseDistributionType("normal").ValueOrDie(),
            DistributionType::kGaussian);
  EXPECT_EQ(ParseDistributionType("zipfian").ValueOrDie(),
            DistributionType::kZipfian);
  EXPECT_EQ(ParseDistributionType("zipf").ValueOrDie(),
            DistributionType::kZipfian);
  EXPECT_EQ(ParseDistributionType("nonspecified").ValueOrDie(),
            DistributionType::kNonSpecified);
  EXPECT_EQ(ParseDistributionType("").ValueOrDie(),
            DistributionType::kNonSpecified);
  EXPECT_FALSE(ParseDistributionType("pareto").ok());
}

}  // namespace
}  // namespace gmark
