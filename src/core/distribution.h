// Degree-distribution specifications (Def. 3.1 of the paper).
//
// gMark supports uniform, Gaussian, and Zipfian in-/out-degree
// distributions, plus "non-specified": the side of an edge constraint
// whose slot count is dictated by the opposite side.

#ifndef GMARK_CORE_DISTRIBUTION_H_
#define GMARK_CORE_DISTRIBUTION_H_

#include <cstdint>
#include <optional>
#include <string>

#include "util/random.h"
#include "util/result.h"
#include "util/zipf.h"

namespace gmark {

/// \brief The distribution families of Def. 3.1.
enum class DistributionType {
  kNonSpecified = 0,
  kUniform,
  kGaussian,
  kZipfian,
};

/// \brief Name used in XML configs: "uniform", "gaussian", "zipfian",
/// "nonspecified".
const char* DistributionTypeName(DistributionType type);

/// \brief A parameterized degree distribution.
///
/// Parameter meaning per family (matching the paper):
///   uniform   — param1 = min, param2 = max (inclusive integers)
///   gaussian  — param1 = mu, param2 = sigma
///   zipfian   — param1 = s (exponent); support is [1, support_max]
///   nonspecified — no parameters
struct DistributionSpec {
  DistributionType type = DistributionType::kNonSpecified;
  double param1 = 0.0;
  double param2 = 0.0;

  static DistributionSpec NonSpecified() { return {}; }
  static DistributionSpec Uniform(int64_t min, int64_t max) {
    return {DistributionType::kUniform, static_cast<double>(min),
            static_cast<double>(max)};
  }
  static DistributionSpec Gaussian(double mean, double stddev) {
    return {DistributionType::kGaussian, mean, stddev};
  }
  static DistributionSpec Zipfian(double s) {
    return {DistributionType::kZipfian, s, 0.0};
  }

  /// \brief True unless the distribution is non-specified.
  bool specified() const { return type != DistributionType::kNonSpecified; }

  /// \brief True for the Zipfian family (the power-law case the
  /// selectivity algebra treats as unbounded, §5.2.2).
  bool IsZipfian() const { return type == DistributionType::kZipfian; }

  /// \brief Expected degree under this distribution (Zipfian uses
  /// `support_max` as its support bound).
  double Mean(int64_t support_max) const;

  /// \brief Validate parameters (e.g. uniform min <= max, sigma >= 0).
  Status Validate() const;

  /// \brief Human-readable form, e.g. "gaussian(3,1)".
  std::string ToString() const;

  bool operator==(const DistributionSpec&) const = default;
};

/// \brief Draws degrees from a DistributionSpec. `support_max` bounds
/// Zipfian draws (the number of opposite-side nodes) and is ignored by
/// other families; the Zipfian sampler's constants are computed once,
/// not per draw.
class DegreeSampler {
 public:
  DegreeSampler(const DistributionSpec& spec, int64_t support_max);

  /// \brief Draw one degree.
  int64_t Draw(RandomEngine* rng) const;

 private:
  DistributionSpec spec_;
  std::optional<ZipfSampler> zipf_;  // Engaged for the Zipfian family.
};

/// \brief Parse "uniform"/"gaussian"/"zipfian"/"nonspecified".
Result<DistributionType> ParseDistributionType(const std::string& name);

}  // namespace gmark

#endif  // GMARK_CORE_DISTRIBUTION_H_
