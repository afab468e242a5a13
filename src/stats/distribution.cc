#include "stats/distribution.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace randrecon {
namespace stats {
namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014326779;  // 1/sqrt(2π)
constexpr double kInvSqrt2 = 0.7071067811865475244;    // 1/sqrt(2)

// Laplace inverse CDF on a uniform u in [0, 1):
// x = mean - b sign(t) ln(1 - 2|t|) with t = u - 1/2. The log goes
// through the substrate's Log01 so the sequence is machine-stable like
// the core fills; the argument is clamped away from 0 (u = 0 occurs with
// probability 2^-53).
double LaplaceFromUniform(double mean, double scale, double u) {
  const double t = u - 0.5;
  const double arg = std::max(1.0 - 2.0 * std::fabs(t), 0x1.0p-53);
  const double pull = -scale * Log01(arg);
  return t < 0.0 ? mean - pull : mean + pull;
}
}  // namespace

double StandardNormalPdf(double z) {
  return kInvSqrt2Pi * std::exp(-0.5 * z * z);
}

double StandardNormalCdf(double z) {
  return 0.5 * std::erfc(-z * kInvSqrt2);
}

NormalDistribution::NormalDistribution(double mean, double stddev)
    : mean_(mean), stddev_(stddev) {
  RR_CHECK_GT(stddev, 0.0) << "NormalDistribution needs positive stddev";
}

double NormalDistribution::Pdf(double x) const {
  return StandardNormalPdf((x - mean_) / stddev_) / stddev_;
}

double NormalDistribution::Cdf(double x) const {
  return StandardNormalCdf((x - mean_) / stddev_);
}

// Base-class batch hook: distributions without a counter-substrate
// sampler must be routed through the scalar Sample path instead.
void ScalarDistribution::SampleSliceAt(const Philox& /*stream*/,
                                       uint64_t /*elem_begin*/,
                                       double* /*out*/, size_t /*n*/) const {
  RR_CHECK(false) << ToString()
                  << " has no batch sampler (SupportsBatchSampling is false)";
}

void NormalDistribution::SampleSliceAt(const Philox& stream,
                                       uint64_t elem_begin, double* out,
                                       size_t n) const {
  GaussianSliceAt(stream, mean_, stddev_, elem_begin, out, n);
}

double NormalDistribution::Sample(Philox* rng) const {
  return rng->Gaussian(mean_, stddev_);
}

std::string NormalDistribution::ToString() const {
  return "Normal(" + FormatDouble(mean_, 3) + ", " +
         FormatDouble(stddev_ * stddev_, 3) + ")";
}

std::unique_ptr<ScalarDistribution> NormalDistribution::Clone() const {
  return std::make_unique<NormalDistribution>(mean_, stddev_);
}

UniformDistribution::UniformDistribution(double lo, double hi)
    : lo_(lo), hi_(hi) {
  RR_CHECK_LT(lo, hi) << "UniformDistribution needs lo < hi";
}

double UniformDistribution::Pdf(double x) const {
  return (x >= lo_ && x < hi_) ? 1.0 / (hi_ - lo_) : 0.0;
}

double UniformDistribution::Cdf(double x) const {
  if (x < lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

void UniformDistribution::SampleSliceAt(const Philox& stream,
                                        uint64_t elem_begin, double* out,
                                        size_t n) const {
  UniformSliceAt(stream, lo_, hi_, elem_begin, out, n);
}

double UniformDistribution::Sample(Philox* rng) const {
  return rng->Uniform(lo_, hi_);
}

std::string UniformDistribution::ToString() const {
  return "Uniform[" + FormatDouble(lo_, 3) + ", " + FormatDouble(hi_, 3) + ")";
}

std::unique_ptr<ScalarDistribution> UniformDistribution::Clone() const {
  return std::make_unique<UniformDistribution>(lo_, hi_);
}

LaplaceDistribution::LaplaceDistribution(double mean, double scale)
    : mean_(mean), scale_(scale) {
  RR_CHECK_GT(scale, 0.0) << "LaplaceDistribution needs positive scale";
}

double LaplaceDistribution::Pdf(double x) const {
  return std::exp(-std::fabs(x - mean_) / scale_) / (2.0 * scale_);
}

double LaplaceDistribution::Cdf(double x) const {
  if (x < mean_) return 0.5 * std::exp((x - mean_) / scale_);
  return 1.0 - 0.5 * std::exp(-(x - mean_) / scale_);
}

void LaplaceDistribution::SampleSliceAt(const Philox& stream,
                                        uint64_t elem_begin, double* out,
                                        size_t n) const {
  UniformSliceAt(stream, elem_begin, out, n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = LaplaceFromUniform(mean_, scale_, out[i]);
  }
}

double LaplaceDistribution::Sample(Philox* rng) const {
  return LaplaceFromUniform(mean_, scale_, rng->NextUniform());
}

std::string LaplaceDistribution::ToString() const {
  return "Laplace(" + FormatDouble(mean_, 3) + ", b=" +
         FormatDouble(scale_, 3) + ")";
}

std::unique_ptr<ScalarDistribution> LaplaceDistribution::Clone() const {
  return std::make_unique<LaplaceDistribution>(mean_, scale_);
}

Result<MixtureDistribution> MixtureDistribution::Create(
    std::vector<std::unique_ptr<ScalarDistribution>> components,
    std::vector<double> weights) {
  if (components.empty() || components.size() != weights.size()) {
    return Status::InvalidArgument(
        "MixtureDistribution: component/weight count mismatch or empty");
  }
  double total = 0.0;
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i] == nullptr) {
      return Status::InvalidArgument("MixtureDistribution: null component");
    }
    if (weights[i] <= 0.0) {
      return Status::InvalidArgument(
          "MixtureDistribution: weights must be positive");
    }
    total += weights[i];
  }
  for (double& w : weights) w /= total;
  return MixtureDistribution(std::move(components), std::move(weights));
}

MixtureDistribution::MixtureDistribution(const MixtureDistribution& other)
    : weights_(other.weights_) {
  components_.reserve(other.components_.size());
  for (const auto& component : other.components_) {
    components_.push_back(component->Clone());
  }
}

double MixtureDistribution::Pdf(double x) const {
  double sum = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    sum += weights_[i] * components_[i]->Pdf(x);
  }
  return sum;
}

double MixtureDistribution::Cdf(double x) const {
  double sum = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    sum += weights_[i] * components_[i]->Cdf(x);
  }
  return sum;
}

double MixtureDistribution::Sample(Philox* rng) const {
  double pick = rng->Uniform(0.0, 1.0);
  for (size_t i = 0; i < components_.size(); ++i) {
    pick -= weights_[i];
    if (pick <= 0.0) return components_[i]->Sample(rng);
  }
  return components_.back()->Sample(rng);  // Floating-point slack.
}

double MixtureDistribution::Mean() const {
  double mean = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    mean += weights_[i] * components_[i]->Mean();
  }
  return mean;
}

double MixtureDistribution::Variance() const {
  // Law of total variance: E[Var] + Var[E].
  const double mean = Mean();
  double total = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    const double component_mean = components_[i]->Mean();
    total += weights_[i] * (components_[i]->Variance() +
                            (component_mean - mean) * (component_mean - mean));
  }
  return total;
}

std::string MixtureDistribution::ToString() const {
  std::string out = "Mixture(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += " + ";
    out += FormatDouble(weights_[i], 2) + "*" + components_[i]->ToString();
  }
  return out + ")";
}

std::unique_ptr<ScalarDistribution> MixtureDistribution::Clone() const {
  return std::make_unique<MixtureDistribution>(*this);
}

}  // namespace stats
}  // namespace randrecon
