// Fourier-space representation of a block-lower-triangular Toeplitz
// operator (paper §2.3-2.4).
//
// Only the first block column {F_11, F_21, ..., F_{Nt,1}} is stored
// (time invariance); setup embeds it in a block circulant of size
// L = 2 N_t and precomputes the batched real FFT of every (sensor,
// parameter) time sequence, yielding N_t + 1 frequency blocks
// F_hat_f of shape n_d x n_m (column-major, ready for the Phase-3
// SBGEMV).  Setup is two launches: the permutation kernel
// (blas::transpose_batched) gathers the operator's block of the
// caller's global column into time-contiguous sequences, and one
// fused batched FFT zero-pads them through its loads and stores each
// bin in its frequency block.  Setup always runs in double precision
// (§3.2: "a one-time operation that is not performance critical"); a
// single-precision copy of the spectrum is materialised lazily for
// configurations whose SBGEMV phase computes in single.
#pragma once

#include <optional>
#include <span>

#include "core/problem.hpp"
#include "device/device_vector.hpp"
#include "device/stream.hpp"
#include "util/types.hpp"

namespace fftmv::core {

class BlockToeplitzOperator {
 public:
  /// `first_block_col` is the GLOBAL time-outer column, whatever slice
  /// `dims` describes: element (t, i, j) — block t, sensor i,
  /// parameter j — lives at t*(N_d*N_m) + i*N_m + j, for the global
  /// N_d = dims.global.n_d and N_m = dims.global.n_m.  The operator
  /// reads the entries with i in [d_offset, d_offset + n_d_local) and
  /// j in [m_offset, m_offset + n_m_local).  Throws
  /// std::invalid_argument unless the span holds n_t*N_d*N_m values;
  /// on a phantom device (dry-run shape) any span, empty included, is
  /// accepted and nothing is read.
  BlockToeplitzOperator(device::Device& dev, device::Stream& stream,
                        const LocalDims& dims,
                        std::span<const double> first_block_col);

  const LocalDims& dims() const { return dims_; }

  /// Frequency blocks, double precision: block f is the column-major
  /// n_d x n_m matrix at spectrum_d() + f*n_d*n_m (lda = n_d).
  const cdouble* spectrum_d() const { return spectrum_d_.data(); }

  /// Lazily cast single-precision copy (charged to `stream`).
  const cfloat* spectrum_f(device::Stream& stream) const;

  /// ABFT checksum rows (Huang-Abraham encoding) for the grouped
  /// GEMV's verify mode, lazily materialised and charged to `stream`:
  /// for each frequency block, the column sums (forward matvec,
  /// length n_m_local) or row sums (adjoint, length n_d_local) of the
  /// block, laid out block-contiguously — block f's vector starts at
  /// f * x_len.  The single-precision rows are summed from the
  /// single-precision spectrum (the matrix the verified kernel
  /// actually reads) so matrix-cast rounding cancels out of the
  /// checksum relation instead of accumulating into it.
  const cdouble* checksum_d(device::Stream& stream, bool adjoint) const;
  const cfloat* checksum_f(device::Stream& stream, bool adjoint) const;

  index_t block_elems() const { return dims_.n_d_local * dims_.n_m_local; }
  index_t spectrum_elems() const {
    return dims_.num_frequencies() * block_elems();
  }

  /// Simulated seconds spent in setup.
  double setup_seconds() const { return setup_seconds_; }

 private:
  device::Device* dev_;
  LocalDims dims_;
  device::device_vector<cdouble> spectrum_d_;
  mutable std::optional<device::device_vector<cfloat>> spectrum_f_;
  mutable std::optional<device::device_vector<cdouble>> checksum_col_d_;
  mutable std::optional<device::device_vector<cdouble>> checksum_row_d_;
  mutable std::optional<device::device_vector<cfloat>> checksum_col_f_;
  mutable std::optional<device::device_vector<cfloat>> checksum_row_f_;
  double setup_seconds_ = 0.0;
};

}  // namespace fftmv::core
