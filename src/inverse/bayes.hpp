// Bayesian linear inverse problem layer (paper §2.2-2.3).
//
// With a Gaussian prior m ~ N(m_pr, G_pr), Gaussian noise
// nu ~ N(0, G_n), and the linear p2o map F, the posterior is Gaussian
// with Hessian H = F* G_n^{-1} F + G_pr^{-1}, and the MAP point
// solves H m = F* G_n^{-1} d_obs + G_pr^{-1} m_pr.  All F / F*
// actions run through the FFTMatvec plan, so the inverse-problem
// workflow exercises exactly the matvecs the paper accelerates.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/matvec_plan.hpp"
#include "util/types.hpp"

namespace fftmv::inverse {

/// Diagonal Gaussian measurement-noise model on the data vector
/// (length n_t * n_d, TOSI).
struct NoiseModel {
  double sigma = 1e-2;
  double inv_variance() const { return 1.0 / (sigma * sigma); }
};

/// Gaussian process prior on the space-time parameter (length
/// n_t * n_m, TOSI) with precision  G_pr^{-1} = (1/sigma^2)(I + alpha L)
/// where L is the 1-D graph Laplacian in space — a sparse,
/// smoothing-inverse covariance whose action is O(n).
struct PriorModel {
  double sigma = 1.0;
  double alpha = 1.0;
  index_t n_m = 0;

  /// y = G_pr^{-1} x for a TOSI space-time vector.
  void apply_inverse_covariance(index_t n_t, std::span<const double> x,
                                std::span<double> y) const;

  /// y = G_pr x (tridiagonal solve of (I + alpha L) per time slice).
  void apply_covariance(index_t n_t, std::span<const double> x,
                        std::span<double> y) const;
};

/// Matrix-free posterior Hessian H = F* G_n^{-1} F + G_pr^{-1}.
class HessianOperator {
 public:
  HessianOperator(core::FftMatvecPlan& plan, const core::BlockToeplitzOperator& op,
                  PriorModel prior, NoiseModel noise,
                  precision::PrecisionConfig config);

  index_t parameter_size() const;
  index_t data_size() const;

  /// y = H x.  The data-misfit term is one FftMatvecPlan::apply_normal
  /// (five launches), bit-identical to F, scaling by G_n^{-1}, then F*.
  void apply(std::span<const double> x, std::span<double> y) const;

  /// rhs = F* G_n^{-1} d_obs (+ G_pr^{-1} m_pr when provided).
  std::vector<double> map_rhs(std::span<const double> d_obs,
                              std::span<const double> m_prior = {}) const;

  /// Number of F/F* actions taken so far (the paper's outer-loop
  /// cost metric, Remark 1).
  index_t matvec_count() const { return matvec_count_; }

  const precision::PrecisionConfig& config() const { return config_; }

 private:
  core::FftMatvecPlan* plan_;
  const core::BlockToeplitzOperator* op_;
  PriorModel prior_;
  NoiseModel noise_;
  precision::PrecisionConfig config_;
  mutable index_t matvec_count_ = 0;
  mutable std::vector<double> scratch_d_;  // data-space temp (map_rhs)
  mutable std::vector<double> scratch_m_;  // parameter-space temp
};

struct CgResult {
  index_t iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Preconditioner-free conjugate gradient on a SPD operator.
CgResult conjugate_gradient(
    const std::function<void(std::span<const double>, std::span<double>)>& apply_A,
    std::span<const double> b, std::span<double> x, double rel_tolerance,
    index_t max_iterations);

/// MAP estimate: solves H m = rhs with CG.
CgResult solve_map(const HessianOperator& hessian, std::span<const double> d_obs,
                   std::span<double> m_map, double rel_tolerance = 1e-8,
                   index_t max_iterations = 500);

}  // namespace fftmv::inverse
