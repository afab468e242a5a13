#include "data/realistic.h"

#include "linalg/vector_ops.h"

namespace randrecon {
namespace data {

Result<Dataset> GenerateLatentFactorTable(const LatentFactorSpec& spec,
                                          size_t num_records,
                                          stats::Philox* rng) {
  const size_t m = spec.loadings.rows();
  const size_t k = spec.loadings.cols();
  if (m == 0 || k == 0) {
    return Status::InvalidArgument("LatentFactorTable: empty loading matrix");
  }
  if (spec.mean.size() != m || spec.idiosyncratic_stddev.size() != m) {
    return Status::InvalidArgument(
        "LatentFactorTable: mean/stddev length != attribute count");
  }
  if (spec.attribute_names.size() != m) {
    return Status::InvalidArgument(
        "LatentFactorTable: name count != attribute count");
  }
  for (double s : spec.idiosyncratic_stddev) {
    if (s < 0.0) {
      return Status::InvalidArgument(
          "LatentFactorTable: negative idiosyncratic stddev");
    }
  }

  linalg::Matrix records(num_records, m);
  for (size_t i = 0; i < num_records; ++i) {
    linalg::Vector factors(k);
    for (size_t f = 0; f < k; ++f) factors[f] = rng->Gaussian();
    double* row = records.row_data(i);
    for (size_t j = 0; j < m; ++j) {
      double value = spec.mean[j];
      for (size_t f = 0; f < k; ++f) value += spec.loadings(j, f) * factors[f];
      value += rng->Gaussian(0.0, spec.idiosyncratic_stddev[j]);
      row[j] = value;
    }
  }
  return Dataset::Create(std::move(records), spec.attribute_names);
}

linalg::Matrix LatentFactorCovariance(const LatentFactorSpec& spec) {
  linalg::Matrix cov = spec.loadings * spec.loadings.Transpose();
  for (size_t j = 0; j < cov.rows(); ++j) {
    cov(j, j) += spec.idiosyncratic_stddev[j] * spec.idiosyncratic_stddev[j];
  }
  return cov;
}

LatentFactorSpec MedicalRecordsSpec() {
  // Three latent factors: age, cardiovascular strain, metabolic load.
  // Loadings are in attribute units (years, kg/m², mmHg, mg/dL, bpm, $).
  LatentFactorSpec spec;
  spec.attribute_names = {"age",          "bmi",         "systolic_bp",
                          "diastolic_bp", "cholesterol", "glucose",
                          "heart_rate",   "annual_cost"};
  spec.mean = {52.0, 27.0, 128.0, 82.0, 195.0, 102.0, 72.0, 4200.0};
  spec.loadings = linalg::Matrix{
      //  age  cardio  metabolic
      {12.0, 0.0, 0.0},     // age
      {1.0, 1.5, 2.5},      // bmi
      {6.0, 9.0, 3.0},      // systolic_bp
      {3.0, 6.5, 2.0},      // diastolic_bp
      {10.0, 14.0, 18.0},   // cholesterol
      {4.0, 3.0, 14.0},     // glucose
      {-2.0, 7.0, 3.0},     // heart_rate
      {900.0, 700.0, 600.0} // annual_cost
  };
  spec.idiosyncratic_stddev = {2.0, 1.2, 4.0, 3.0, 8.0, 5.0, 4.0, 350.0};
  return spec;
}

LatentFactorSpec HouseholdFinanceSpec() {
  // Two latent factors: earning power and financial stress.
  LatentFactorSpec spec;
  spec.attribute_names = {"income",     "rent",        "savings",
                          "debt",       "credit_score", "monthly_spend"};
  spec.mean = {68000.0, 1450.0, 22000.0, 18000.0, 690.0, 3100.0};
  spec.loadings = linalg::Matrix{
      //  earning  stress
      {15000.0, -2000.0},  // income
      {350.0, 80.0},       // rent
      {8000.0, -5000.0},   // savings
      {2500.0, 7000.0},    // debt
      {35.0, -55.0},       // credit_score
      {600.0, 250.0}       // monthly_spend
  };
  spec.idiosyncratic_stddev = {3000.0, 120.0, 2000.0, 1500.0, 12.0, 180.0};
  return spec;
}

}  // namespace data
}  // namespace randrecon
