// The FFTMatvec execution plan: one rank's five-phase mixed-precision
// matvec with a block-triangular Toeplitz operator (paper §2.4, §3.2).
//
// Forward (F) matvec on the rank's local block (N_t x n_m_local in,
// N_t x n_d_local out):
//   1. fused TOSI->SOTI transpose + zero-pad (+cast to the FFT
//      precision) — folded into phase 2's sample loads, so its time is
//      charged to FFT,
//   2. batched real FFT (n_m_local sequences of length 2 N_t), which
//      stores its bins frequency-outer, the Fourier reorder the GEMV
//      needs,
//   3. the strided batched GEMV over the N_t + 1 frequency blocks,
//   4. batched inverse real FFT (n_d_local sequences) that loads its
//      bins from the GEMV's frequency-outer output,
//   5. unpad + SOTI->TOSI transpose, cast back to double — folded
//      into phase 4's sample stores, so its time is charged to IFFT.
// Three launches in all — forward FFT, GEMV, inverse FFT.  The
// forward FFT reads each double input and the inverse FFT writes each
// double output, with the casts to and from the phase precisions
// inside the same launch; the zero-padded half of each sequence is
// never stored, the forward FFT's loads return 0 for it.  The
// spectrum stays in the FFT precision between phases 2 and 3 and the
// GEMV casts it to its own as it reads it.  The fusion ablation
// (fuse_casts = false) keeps the unfused 7-launch pipeline — a pad
// into a padded buffer, the FFT into a space-outer spectrum, the
// Fourier reorder, the GEMV, its output reordered back to
// space-outer, the inverse FFT into a padded buffer and a separate
// unpad, with every cast a kernel of its own — as the reference the
// fused pipeline is bit-identical to.  The adjoint (F*) matvec
// mirrors the pipeline with the conjugate-transpose SBGEMV.
//
// The plan is single-rank.  A distributed matvec is this apply
// between a broadcast of the input over the grid column and a
// pairwise-tree reduction of the partial outputs over the grid row
// (the adjoint swaps the roles); the callers own those collectives.
// Because phase 5 rounds through its precision, a rank's
// double output already holds its phase-5 partial exactly:
// DistributedMatvecPlan narrows it to float when phase 5 is single
// and reduces it there, or copies it when the rank alone owns its
// output slice.
//
// Precision semantics (§3.2): input/output are always double; each
// phase computes in its configured precision; casts occur where the
// working precision changes and are fused into the adjacent memory
// operations (toggleable for the fusion ablation); the pure reorders,
// the GEMV's spectrum reads and the inverse FFT's bin loads read the
// producer's precision and compute in the consumer's, so traffic runs
// at the lowest adjacent width.
//
// One executor runs every apply: the grouped apply_batch, with b
// right-hand sides; forward()/adjoint() are its one-RHS calls.  It
// runs the phases in sequence on the plan's own stream, as the
// paper's FFTMatvec does; a batch widens each launch instead of
// adding launches.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "blas/sbgemv.hpp"
#include "core/block_toeplitz.hpp"
#include "core/problem.hpp"
#include "device/device_vector.hpp"
#include "device/stream.hpp"
#include "fft/plan.hpp"
#include "precision/precision.hpp"

namespace fftmv::core {

/// Simulated seconds per computational phase of one matvec
/// (mirroring the runtime breakdowns of Figures 2-3).
///
/// Makespan vs busy time: the per-phase fields are *busy* time — the
/// simulated seconds each phase's kernels were charged, regardless of
/// which stream ran them — so total() is the serial-equivalent work.
/// `makespan` is the end-to-end simulated duration of the apply.  A
/// single-rank apply runs on one in-order stream, so makespan ==
/// total().  Only a sharded DistributedMatvecPlan apply overlaps work:
/// its ranks run concurrently, so the group makespan (max over rank
/// streams, plus collectives) falls below the summed busy time.
/// Per-RHS attributions (last_batch_timings) split both: phase fields
/// sum to the batch's phase fields and makespan shares sum to the
/// batch makespan.
struct PhaseTimings {
  /// Transpose/pad (+cast): the fusion ablation only, 0 on the fused
  /// path.
  double pad = 0.0;
  /// Phase-2 batched FFT; on the fused path it also reads the inputs
  /// and stores the bins frequency-outer, so it carries phase 1 and
  /// the Fourier reorder.
  double fft = 0.0;
  /// Phase-3 GEMV (in the fusion ablation, also the Fourier reorder
  /// before it and the output reorder after it).
  double sbgemv = 0.0;
  /// Phase-4 batched IFFT; on the fused path it also writes the
  /// outputs, so it carries phase 5.
  double ifft = 0.0;
  /// Unpad/transpose + final cast: the fusion ablation only, 0 on the
  /// fused path.
  double unpad = 0.0;
  double comm = 0.0;    ///< modelled collectives (DistributedMatvecPlan)
  double makespan = 0.0;  ///< end-to-end duration (== total() at one rank)

  double compute_total() const { return pad + fft + sbgemv + ifft + unpad; }
  double total() const { return compute_total() + comm; }
  /// End-to-end simulated duration (every apply records its makespan).
  double span() const { return makespan; }

  PhaseTimings& operator+=(const PhaseTimings& o);
  PhaseTimings& operator*=(double s);
};

/// Direction selector for the batched entry point (forward() /
/// adjoint() remain the single-RHS spellings).
enum class ApplyDirection : unsigned char { kForward, kAdjoint };

/// ABFT verification level for apply_batch, a per-apply argument
/// rather than a MatvecOptions field so flipping it never splits
/// plan-cache entries:
///   kOff       no checks (today's behaviour, zero extra cost);
///   kChecksum  Huang-Abraham column checksums on the grouped
///              phase-3 SBGEMV — covers the library's silent-
///              corruption injection site at a few percent modelled
///              overhead;
///   kParanoid  checksum plus a Parseval energy invariant on the
///              phase-2/4 FFTs (defense in depth for corruption
///              sources the GEMV checksum cannot see).
/// Detection throws device::SilentCorruption; outputs of a verified
/// apply are bit-identical to an unverified one (the checks only
/// read), so a clean recompute after a detection is a full repair.
/// A verified apply that throws may already have written its outputs:
/// the inverse FFT that writes them carries the checks.  Callers must
/// not read the outputs of a throwing apply (the serving layer fulfils
/// a failed request with a fresh result that has no output).
/// Tolerances come from core::verify_tolerances, calibrated per
/// precision config so legitimate rounding never trips a check.
enum class VerifyMode : unsigned char { kOff, kChecksum, kParanoid };

inline const char* verify_mode_name(VerifyMode m) {
  switch (m) {
    case VerifyMode::kOff: return "off";
    case VerifyMode::kChecksum: return "checksum";
    case VerifyMode::kParanoid: return "paranoid";
  }
  return "?";
}

/// Mutable / immutable views of one right-hand side or output vector
/// in an apply_batch call.
using VectorView = std::span<double>;
using ConstVectorView = std::span<const double>;

struct MatvecOptions {
  /// When false, precision changes run as separate cast kernels after
  /// a same-precision memory op (the fusion ablation of §3.2).
  bool fuse_casts = true;

  bool operator==(const MatvecOptions&) const = default;
};

class FftMatvecPlan {
 public:
  FftMatvecPlan(device::Device& dev, device::Stream& stream,
                const LocalDims& dims, MatvecOptions options = {});

  const LocalDims& dims() const { return dims_; }
  device::Stream& stream() const { return *stream_; }
  const MatvecOptions& options() const { return options_; }

  /// d = F m.  `m` is the local TOSI input (N_t x n_m_local), `d`
  /// receives the local TOSI output (N_t x n_d_local).  A one-RHS
  /// apply_batch call: outputs, timings and stream clock are its.
  void forward(const BlockToeplitzOperator& op, std::span<const double> m,
               std::span<double> d, const precision::PrecisionConfig& config);

  /// m = F* d; mirror conventions of forward().
  void adjoint(const BlockToeplitzOperator& op, std::span<const double> d,
               std::span<double> m, const precision::PrecisionConfig& config);

  /// Execute b same-shape right-hand sides as ONE fused pipeline: the
  /// phase-2/4 real FFTs run the cached plan with a runtime batch
  /// multiplier (b * n_s sequences in one launch), the forward reading
  /// the caller's inputs and the inverse writing the caller's outputs
  /// directly, and phase 3 is a single multi-RHS strided batched GEMV
  /// that pays the operator's matrix traffic once per frequency block
  /// instead of once per request — so a serial batch issues three
  /// launches whatever b is.  Results are
  /// bit-identical to b independent forward()/adjoint() calls for
  /// every precision config — those are this same executor at b == 1.
  /// last_timings() afterwards holds the totals for the whole batch
  /// and last_batch_timings() the per-RHS shares.  `verify` arms the
  /// ABFT checks; a verified apply that throws may have written its
  /// outputs (see VerifyMode).
  void apply_batch(const BlockToeplitzOperator& op, ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   VerifyMode verify = VerifyMode::kOff);

  /// One operator's contiguous slice of a grouped batch: `rhs_count`
  /// right-hand sides applied through `op`.  Every group's operator
  /// must share this plan's global dims and local extents (same-shape
  /// requests from different tenants); its offsets may differ.
  struct OperatorGroup {
    const BlockToeplitzOperator* op = nullptr;
    index_t rhs_count = 0;
  };

  /// Grouped batched apply, the executor behind every apply (see the
  /// stage comment in matvec_plan.cpp): b right-hand sides spanning
  /// several same-shape operators run as ONE fused pipeline.  Phases
  /// 1/2/4/5 are operator-agnostic and execute exactly as in the
  /// single-operator apply_batch; only phase 3 switches to the grouped
  /// multi-operator SBGEMV (blas::sbgemv_grouped), whose per-group
  /// arithmetic — and, for a single group, modelled cost — is
  /// identical to the flat multi-RHS kernel.  Inputs/outputs are
  /// ordered group by group: group g's RHS r sits at global index
  /// (sum of earlier groups' rhs_count) + r.  Results are
  /// bit-identical to per-operator apply_batch calls (and therefore
  /// to b independent applies) in every precision config.
  void apply_batch(std::span<const OperatorGroup> groups,
                   ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   VerifyMode verify = VerifyMode::kOff);

  /// Timings of the most recent apply (an apply_batch reports the
  /// whole batch's totals).
  const PhaseTimings& last_timings() const { return timings_; }

  /// Per-RHS attribution of the most recent apply's totals (size = the
  /// batch's RHS count, 1 after a single-RHS apply; valid until the
  /// next apply).
  /// Phases 1/2/4/5 split evenly — every RHS is the same shape — but
  /// the SBGEMV phase splits by modelled work: the GEMV launch's time
  /// is shared across groups in proportion to each group's share of
  /// the traffic the launch is charged with (blas::gemv_grouped_footprint:
  /// one matrix read per group + the group's vectors and split-column
  /// partial sums), then evenly within a group, so an RHS riding a
  /// large group is correctly attributed less matrix traffic than a
  /// singleton.  The shares always sum to last_timings().  With one
  /// group the split is exactly even.
  const std::vector<PhaseTimings>& last_batch_timings() const {
    return rhs_timings_;
  }

  /// Executor runs so far: +1 per apply of any kind — a single-RHS
  /// forward/adjoint is a b = 1 run, and an apply_batch counts once
  /// REGARDLESS of its RHS count.  The serving layer's tests hook
  /// this to assert a coalesced batch costs one plan execution.
  std::int64_t executions() const { return executions_; }

 private:
  struct DualReal {
    std::optional<device::device_vector<double>> d;
    std::optional<device::device_vector<float>> f;
    template <class T>
    T* get(device::Device& dev, index_t n);
  };
  struct DualComplex {
    std::optional<device::device_vector<cdouble>> d;
    std::optional<device::device_vector<cfloat>> f;
    template <class T>
    T* get(device::Device& dev, index_t n);
  };

  device::Device* dev_;
  device::Stream* stream_;
  LocalDims dims_;
  MatvecOptions options_;
  PhaseTimings timings_;
  std::vector<PhaseTimings> rhs_timings_;
  std::int64_t executions_ = 0;

  // FFT plans per (precision, batch-role); built lazily.
  std::optional<fft::BatchedRealFft<double>> fft_m_d_, fft_d_d_;
  std::optional<fft::BatchedRealFft<float>> fft_m_f_, fft_d_f_;

  // Phase buffers (shared between directions, max-size semantics).
  // The forward FFT reads and the inverse FFT writes the caller's
  // vectors directly, so a fused apply holds only the two spectra the
  // GEMV reads and writes.
  DualComplex spec_t_; ///< spectrum, frequency-outer (n_f x ns)
  DualComplex ospec_t_;///< GEMV output spectrum, frequency-outer, then
                       ///< the split kernel's partial sums
  // The fusion ablation's buffers, allocated only when used.
  DualReal padded_;    ///< SOTI zero-padded real input (x L)
  DualComplex spec_;   ///< spectrum, space-outer (ns x n_f)
  DualComplex ospec_;  ///< GEMV output spectrum, space-outer
  DualReal opad_;      ///< padded real output (x L)
  DualReal stage_;     ///< input cast to p1
  DualReal olocal_;    ///< unpadded output in p4, then p5

  // ABFT verify workspaces (double-width regardless of the precision
  // config — see blas::SbgemvVerify::acc_t): per (frequency block,
  // RHS) checksum dots and magnitude estimates, written by the GEMV
  // and compared by the first kernel that reads its output.
  std::optional<device::device_vector<cdouble>> chk_;
  std::optional<device::device_vector<double>> chk_scale_;
};

}  // namespace fftmv::core
