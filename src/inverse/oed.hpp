// Optimal sensor placement — the paper's flagship "outer-loop"
// problem (Remark 1).
//
// For a linear inverse problem with Gaussian prior and noise, the
// expected information gain (KL divergence from prior to posterior)
// of a sensor subset S has the closed form
//
//   EIG(S) = 1/2 log det( I + H_S ),
//   H = G_n^{-1/2} F G_pr F* G_n^{-1/2}   (data-space prior-predictive
//                                          Gram matrix),
//
// where H_S is the principal submatrix of rows/columns belonging to
// the sensors in S.  Assembling H requires N_d * N_t actions of F and
// F* — exactly the workload Remark 1 says makes mixed-precision
// matvec speedups pay off — after which greedy selection maximises
// the (submodular) gain one sensor at a time.
#pragma once

#include <span>
#include <vector>

#include "core/matvec_plan.hpp"
#include "inverse/bayes.hpp"

namespace fftmv::inverse {

/// Dense data-space Gram matrix H (row-major, n = n_t * n_d), built
/// column by column with one F* and one F action each (plus the
/// cheap prior solve), all through the given precision config.
/// `matvecs_used` (optional) receives the number of F/F* actions.
std::vector<double> assemble_data_space_gram(core::FftMatvecPlan& plan,
                                             const core::BlockToeplitzOperator& op,
                                             const PriorModel& prior,
                                             const NoiseModel& noise,
                                             const precision::PrecisionConfig& config,
                                             index_t* matvecs_used = nullptr);

struct GreedyPlacementResult {
  std::vector<index_t> chosen_sensors;   ///< in selection order
  std::vector<double> information_gain;  ///< cumulative EIG after each pick
  index_t matvecs_used = 0;
};

/// Relative EIG difference within which greedy_sensor_placement counts
/// candidates as tied: 8 eps_s.  A Gram assembled with single-precision
/// phases perturbs each gain by ~1e-7 relative, so it cannot rank
/// candidates closer than that, and uniformly spaced sensors in the
/// advection-diffusion examples have gains within 1e-8 of each other.
inline constexpr double kGainTieRtol = 8.0 * kEpsSingle;

/// Greedy maximisation of EIG over sensors, choosing `budget` of the
/// operator's n_d sensors.  `gram` is the matrix from
/// assemble_data_space_gram for the full sensor set.  Each pick takes
/// the lowest-indexed sensor whose EIG is within kGainTieRtol of the
/// best candidate's, so the design does not follow the assembly's
/// rounding: a double and a mixed-precision Gram select the same
/// sensors wherever their gains differ by more than that rounding.
GreedyPlacementResult greedy_sensor_placement(const std::vector<double>& gram,
                                              index_t n_d, index_t n_t,
                                              index_t budget);

}  // namespace fftmv::inverse
