#include "inverse/bayes.hpp"

#include <cmath>
#include <stdexcept>

#include "blas/vector_ops.hpp"
#include "inverse/tridiagonal.hpp"

namespace fftmv::inverse {

void PriorModel::apply_inverse_covariance(index_t n_t, std::span<const double> x,
                                          std::span<double> y) const {
  if (x.size() != y.size() ||
      static_cast<index_t>(x.size()) != n_t * n_m) {
    throw std::invalid_argument("PriorModel: extent mismatch");
  }
  const double inv_var = 1.0 / (sigma * sigma);
  for (index_t t = 0; t < n_t; ++t) {
    const double* xt = x.data() + t * n_m;
    double* yt = y.data() + t * n_m;
    for (index_t i = 0; i < n_m; ++i) {
      // (I + alpha L) with L the 1-D path-graph Laplacian.
      double lap = 2.0 * xt[i];
      if (i > 0) lap -= xt[i - 1];
      if (i + 1 < n_m) lap -= xt[i + 1];
      yt[i] = inv_var * (xt[i] + alpha * lap);
    }
  }
}

void PriorModel::apply_covariance(index_t n_t, std::span<const double> x,
                                  std::span<double> y) const {
  if (x.size() != y.size() ||
      static_cast<index_t>(x.size()) != n_t * n_m) {
    throw std::invalid_argument("PriorModel: extent mismatch");
  }
  const TridiagonalSolver solver(
      std::vector<double>(static_cast<std::size_t>(n_m - 1), -alpha),
      std::vector<double>(static_cast<std::size_t>(n_m), 1.0 + 2.0 * alpha),
      std::vector<double>(static_cast<std::size_t>(n_m - 1), -alpha));
  const double var = sigma * sigma;
  for (index_t t = 0; t < n_t; ++t) {
    double* yt = y.data() + t * n_m;
    const double* xt = x.data() + t * n_m;
    for (index_t i = 0; i < n_m; ++i) yt[i] = var * xt[i];
    solver.solve(yt);
  }
}

HessianOperator::HessianOperator(core::FftMatvecPlan& plan,
                                 const core::BlockToeplitzOperator& op,
                                 PriorModel prior, NoiseModel noise,
                                 precision::PrecisionConfig config)
    : plan_(&plan), op_(&op), prior_(prior), noise_(noise), config_(config) {
  if (prior_.n_m != op.dims().n_m_local) {
    throw std::invalid_argument("HessianOperator: prior/operator size mismatch");
  }
  scratch_d_.resize(static_cast<std::size_t>(data_size()));
  scratch_m_.resize(static_cast<std::size_t>(parameter_size()));
}

index_t HessianOperator::parameter_size() const {
  return op_->dims().n_t() * op_->dims().n_m_local;
}

index_t HessianOperator::data_size() const {
  return op_->dims().n_t() * op_->dims().n_d_local;
}

void HessianOperator::apply(std::span<const double> x, std::span<double> y) const {
  if (static_cast<index_t>(x.size()) != parameter_size() ||
      static_cast<index_t>(y.size()) != parameter_size()) {
    throw std::invalid_argument("HessianOperator::apply: extent mismatch");
  }
  // F* G_n^{-1} F x, one F and one F* action chained in one apply.
  const core::ConstVectorView in[] = {x};
  const core::VectorView out[] = {scratch_m_};
  plan_->apply_normal(*op_, config_, in, noise_.inv_variance(), out);
  matvec_count_ += 2;
  // + G_pr^{-1} x
  prior_.apply_inverse_covariance(op_->dims().n_t(), x, y);
  for (index_t i = 0; i < parameter_size(); ++i) y[i] += scratch_m_[static_cast<std::size_t>(i)];
}

std::vector<double> HessianOperator::map_rhs(std::span<const double> d_obs,
                                             std::span<const double> m_prior) const {
  if (static_cast<index_t>(d_obs.size()) != data_size()) {
    throw std::invalid_argument("HessianOperator::map_rhs: data extent mismatch");
  }
  const double w = noise_.inv_variance();
  for (index_t i = 0; i < data_size(); ++i) {
    scratch_d_[static_cast<std::size_t>(i)] = w * d_obs[i];
  }
  std::vector<double> rhs(static_cast<std::size_t>(parameter_size()));
  plan_->adjoint(*op_, scratch_d_, rhs, config_);
  ++matvec_count_;
  if (!m_prior.empty()) {
    if (static_cast<index_t>(m_prior.size()) != parameter_size()) {
      throw std::invalid_argument("HessianOperator::map_rhs: prior mean mismatch");
    }
    std::vector<double> pr(static_cast<std::size_t>(parameter_size()));
    prior_.apply_inverse_covariance(op_->dims().n_t(), m_prior, pr);
    for (index_t i = 0; i < parameter_size(); ++i) {
      rhs[static_cast<std::size_t>(i)] += pr[static_cast<std::size_t>(i)];
    }
  }
  return rhs;
}

CgResult conjugate_gradient(
    const std::function<void(std::span<const double>, std::span<double>)>& apply_A,
    std::span<const double> b, std::span<double> x, double rel_tolerance,
    index_t max_iterations) {
  const index_t n = static_cast<index_t>(b.size());
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> p, Ap(static_cast<std::size_t>(n));

  // x0 = 0.
  for (index_t i = 0; i < n; ++i) x[i] = 0.0;
  p = r;

  const double b_norm = blas::nrm2(n, b.data());
  if (b_norm == 0.0) {
    return {0, 0.0, true};
  }
  double rr = blas::dot(n, r.data(), r.data());

  CgResult result;
  for (index_t it = 0; it < max_iterations; ++it) {
    apply_A(p, Ap);
    const double pAp = blas::dot(n, p.data(), Ap.data());
    if (pAp <= 0.0) {
      throw std::domain_error("conjugate_gradient: operator is not SPD");
    }
    const double alpha = rr / pAp;
    blas::axpy(n, alpha, p.data(), x.data());
    blas::axpy(n, -alpha, Ap.data(), r.data());
    const double rr_new = blas::dot(n, r.data(), r.data());
    result.iterations = it + 1;
    result.residual_norm = std::sqrt(rr_new) / b_norm;
    if (result.residual_norm < rel_tolerance) {
      result.converged = true;
      return result;
    }
    const double beta = rr_new / rr;
    for (index_t i = 0; i < n; ++i) {
      p[static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(i)] + beta * p[static_cast<std::size_t>(i)];
    }
    rr = rr_new;
  }
  return result;
}

CgResult solve_map(const HessianOperator& hessian, std::span<const double> d_obs,
                   std::span<double> m_map, double rel_tolerance,
                   index_t max_iterations) {
  const auto rhs = hessian.map_rhs(d_obs);
  return conjugate_gradient(
      [&hessian](std::span<const double> in, std::span<double> out) {
        hessian.apply(in, out);
      },
      rhs, m_map, rel_tolerance, max_iterations);
}

}  // namespace fftmv::inverse
