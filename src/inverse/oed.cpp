#include "inverse/oed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "inverse/dense.hpp"

namespace fftmv::inverse {

std::vector<double> assemble_data_space_gram(core::FftMatvecPlan& plan,
                                             const core::BlockToeplitzOperator& op,
                                             const PriorModel& prior,
                                             const NoiseModel& noise,
                                             const precision::PrecisionConfig& config,
                                             index_t* matvecs_used) {
  const index_t nt = op.dims().n_t();
  const index_t nd = op.dims().n_d_local;
  const index_t nm = op.dims().n_m_local;
  const index_t n = nt * nd;
  const double w = 1.0 / noise.sigma;  // G_n^{-1/2}

  std::vector<double> gram(static_cast<std::size_t>(n * n));
  std::vector<double> e(static_cast<std::size_t>(n));
  std::vector<double> m1(static_cast<std::size_t>(nt * nm));
  std::vector<double> m2(static_cast<std::size_t>(nt * nm));
  std::vector<double> dcol(static_cast<std::size_t>(n));
  index_t matvecs = 0;

  for (index_t j = 0; j < n; ++j) {
    std::fill(e.begin(), e.end(), 0.0);
    e[static_cast<std::size_t>(j)] = w;
    plan.adjoint(op, e, m1, config);
    ++matvecs;
    prior.apply_covariance(nt, m1, m2);
    plan.forward(op, m2, dcol, config);
    ++matvecs;
    for (index_t i = 0; i < n; ++i) {
      gram[static_cast<std::size_t>(i * n + j)] = w * dcol[static_cast<std::size_t>(i)];
    }
  }
  if (matvecs_used != nullptr) *matvecs_used = matvecs;
  return gram;
}

namespace {

/// Principal submatrix I + H_S for the chosen sensors; index order is
/// (sensor-in-S, time).
std::vector<double> identity_plus_submatrix(const std::vector<double>& gram,
                                            index_t n_d, index_t n_t,
                                            const std::vector<index_t>& sensors) {
  const index_t k = static_cast<index_t>(sensors.size());
  const index_t n_sub = k * n_t;
  const index_t n = n_d * n_t;
  std::vector<double> sub(static_cast<std::size_t>(n_sub * n_sub));
  for (index_t a = 0; a < k; ++a) {
    for (index_t ta = 0; ta < n_t; ++ta) {
      const index_t row_sub = a * n_t + ta;
      const index_t row = ta * n_d + sensors[static_cast<std::size_t>(a)];
      for (index_t b = 0; b < k; ++b) {
        for (index_t tb = 0; tb < n_t; ++tb) {
          const index_t col_sub = b * n_t + tb;
          const index_t col = tb * n_d + sensors[static_cast<std::size_t>(b)];
          double v = gram[static_cast<std::size_t>(row * n + col)];
          if (row_sub == col_sub) v += 1.0;
          sub[static_cast<std::size_t>(row_sub * n_sub + col_sub)] = v;
        }
      }
    }
  }
  return sub;
}

}  // namespace

GreedyPlacementResult greedy_sensor_placement(const std::vector<double>& gram,
                                              index_t n_d, index_t n_t,
                                              index_t budget) {
  if (static_cast<index_t>(gram.size()) != n_d * n_t * n_d * n_t) {
    throw std::invalid_argument("greedy_sensor_placement: gram extent mismatch");
  }
  if (budget < 1 || budget > n_d) {
    throw std::invalid_argument("greedy_sensor_placement: invalid budget");
  }

  GreedyPlacementResult result;
  std::vector<bool> used(static_cast<std::size_t>(n_d), false);

  std::vector<double> gain(static_cast<std::size_t>(n_d));
  for (index_t pick = 0; pick < budget; ++pick) {
    double best_gain = -std::numeric_limits<double>::infinity();
    for (index_t s = 0; s < n_d; ++s) {
      if (used[static_cast<std::size_t>(s)]) continue;
      auto candidate = result.chosen_sensors;
      candidate.push_back(s);
      const auto sub = identity_plus_submatrix(gram, n_d, n_t, candidate);
      const double eig =
          0.5 * DenseSpd::log_det(static_cast<index_t>(candidate.size()) * n_t, sub);
      gain[static_cast<std::size_t>(s)] = eig;
      best_gain = std::max(best_gain, eig);
    }
    // The lowest-indexed candidate tied with the best.
    const double floor = best_gain - kGainTieRtol * std::abs(best_gain);
    index_t chosen = 0;
    while (used[static_cast<std::size_t>(chosen)] ||
           !(gain[static_cast<std::size_t>(chosen)] >= floor)) {
      ++chosen;
    }
    used[static_cast<std::size_t>(chosen)] = true;
    result.chosen_sensors.push_back(chosen);
    result.information_gain.push_back(gain[static_cast<std::size_t>(chosen)]);
  }
  return result;
}

}  // namespace fftmv::inverse
