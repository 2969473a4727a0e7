#include "core/distribution.h"

#include <cmath>

#include "util/string_util.h"
#include "util/zipf.h"

namespace gmark {

const char* DistributionTypeName(DistributionType type) {
  switch (type) {
    case DistributionType::kNonSpecified:
      return "nonspecified";
    case DistributionType::kUniform:
      return "uniform";
    case DistributionType::kGaussian:
      return "gaussian";
    case DistributionType::kZipfian:
      return "zipfian";
  }
  return "unknown";
}

Result<DistributionType> ParseDistributionType(const std::string& name) {
  if (name == "uniform") return DistributionType::kUniform;
  if (name == "gaussian" || name == "normal") {
    return DistributionType::kGaussian;
  }
  if (name == "zipfian" || name == "zipf") return DistributionType::kZipfian;
  if (name == "nonspecified" || name == "non-specified" || name.empty()) {
    return DistributionType::kNonSpecified;
  }
  return Status::InvalidArgument("unknown distribution type: " + name);
}

DegreeSampler::DegreeSampler(const DistributionSpec& spec,
                             int64_t support_max)
    : spec_(spec) {
  if (spec.type == DistributionType::kZipfian) {
    zipf_.emplace(spec.param1, support_max < 1 ? 1 : support_max);
  }
}

int64_t DegreeSampler::Draw(RandomEngine* rng) const {
  switch (spec_.type) {
    case DistributionType::kNonSpecified:
      return 0;
    case DistributionType::kUniform:
      return rng->UniformInt(static_cast<int64_t>(spec_.param1),
                             static_cast<int64_t>(spec_.param2));
    case DistributionType::kGaussian:
      return rng->GaussianInt(spec_.param1, spec_.param2);
    case DistributionType::kZipfian:
      return zipf_->Sample(rng);
  }
  return 0;
}

double DistributionSpec::Mean(int64_t support_max) const {
  switch (type) {
    case DistributionType::kNonSpecified:
      return 0.0;
    case DistributionType::kUniform:
      return (param1 + param2) / 2.0;
    case DistributionType::kGaussian:
      return param1 < 0.0 ? 0.0 : param1;
    case DistributionType::kZipfian: {
      ZipfSampler sampler(param1, support_max < 1 ? 1 : support_max);
      return sampler.Mean();
    }
  }
  return 0.0;
}

Status DistributionSpec::Validate() const {
  switch (type) {
    case DistributionType::kNonSpecified:
      return Status::OK();
    case DistributionType::kUniform:
      if (param1 < 0 || param2 < param1) {
        return Status::InvalidArgument(
            "uniform distribution requires 0 <= min <= max, got " +
            ToString());
      }
      return Status::OK();
    case DistributionType::kGaussian:
      if (param2 < 0) {
        return Status::InvalidArgument("gaussian sigma must be >= 0, got " +
                                       ToString());
      }
      return Status::OK();
    case DistributionType::kZipfian:
      if (param1 <= 0) {
        return Status::InvalidArgument("zipfian exponent must be > 0, got " +
                                       ToString());
      }
      return Status::OK();
  }
  return Status::Internal("corrupt distribution type");
}

std::string DistributionSpec::ToString() const {
  std::string out = DistributionTypeName(type);
  switch (type) {
    case DistributionType::kNonSpecified:
      break;
    case DistributionType::kUniform:
      StrAppend(&out, '[', static_cast<int64_t>(param1), ',',
                static_cast<int64_t>(param2), ']');
      break;
    case DistributionType::kGaussian:
      StrAppend(&out, '(', FormatDouble(param1), ',', FormatDouble(param2),
                ')');
      break;
    case DistributionType::kZipfian:
      StrAppend(&out, '(', FormatDouble(param1), ')');
      break;
  }
  return out;
}

}  // namespace gmark
