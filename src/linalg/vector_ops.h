// Free functions on linalg::Vector used throughout the library.

#ifndef RANDRECON_LINALG_VECTOR_OPS_H_
#define RANDRECON_LINALG_VECTOR_OPS_H_

#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {

/// Inner product <a, b>; sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm ||a||₂.
double Norm(const Vector& a);

/// Element-wise a + b.
Vector Add(const Vector& a, const Vector& b);

/// Element-wise a - b.
Vector Subtract(const Vector& a, const Vector& b);


/// In-place a += s * b (axpy).
void AddScaled(Vector* a, double s, const Vector& b);

/// Arithmetic mean of the entries.
double Mean(const Vector& a);

/// Population variance (divide by n); 0 for n < 1.
double Variance(const Vector& a);

/// Sum of entries.
double Sum(const Vector& a);

/// Largest absolute entry; 0 for an empty vector.
double MaxAbs(const Vector& a);

}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_VECTOR_OPS_H_
