#include "linalg/vector_ops.h"

#include <cmath>

namespace randrecon {
namespace linalg {

double Dot(const Vector& a, const Vector& b) {
  RR_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(const Vector& a) { return std::sqrt(Dot(a, a)); }

Vector Add(const Vector& a, const Vector& b) {
  RR_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector Subtract(const Vector& a, const Vector& b) {
  RR_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}


void AddScaled(Vector* a, double s, const Vector& b) {
  RR_CHECK_EQ(a->size(), b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

double Mean(const Vector& a) {
  if (a.empty()) return 0.0;
  return Sum(a) / static_cast<double>(a.size());
}

double Variance(const Vector& a) {
  if (a.size() < 1) return 0.0;
  const double mu = Mean(a);
  double sum = 0.0;
  for (double v : a) sum += (v - mu) * (v - mu);
  return sum / static_cast<double>(a.size());
}

double Sum(const Vector& a) {
  double sum = 0.0;
  for (double v : a) sum += v;
  return sum;
}

double MaxAbs(const Vector& a) {
  double best = 0.0;
  for (double v : a) best = std::max(best, std::fabs(v));
  return best;
}

}  // namespace linalg
}  // namespace randrecon
