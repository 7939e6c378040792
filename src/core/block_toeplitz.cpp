#include "core/block_toeplitz.hpp"

#include <stdexcept>

#include "blas/permute.hpp"
#include "fft/plan.hpp"
#include "precision/convert.hpp"
#include "util/math.hpp"

namespace fftmv::core {

namespace {

/// Setup permutation: spectra stored sequence-major
/// ((i*n_m + j) * n_f + f) -> frequency-block column-major
/// (f * n_d * n_m + j * n_d + i).  This is the second use of the
/// custom permutation kernel that replaced the cuTENSOR (v2)
/// dependency (paper §3.1); grid-limit-safe like blas::transpose_batched.
device::KernelTiming spectrum_to_blocks(device::Stream& stream, const cdouble* src,
                                        cdouble* dst, index_t n_d, index_t n_m,
                                        index_t n_f) {
  const auto& spec = stream.device().spec();
  const device::LaunchGeometry geom{
      .grid_x = util::ceil_div(n_f, index_t{16}),
      .grid_y = std::min(n_d, spec.max_grid_dim_yz),
      .grid_z = 1,
      .block_threads = 256};
  device::KernelFootprint fp;
  const double bytes = static_cast<double>(n_d) * static_cast<double>(n_m) *
                       static_cast<double>(n_f) * sizeof(cdouble);
  fp.bytes_read = bytes;
  fp.bytes_written = bytes;
  fp.fp64_path = true;
  fp.vector_load_bytes = 16;
  fp.coalescing_efficiency = 0.8;
  return stream.launch(geom, fp, [=](index_t bx, index_t by, index_t) {
    const index_t f0 = bx * 16;
    const index_t f1 = std::min(n_f, f0 + 16);
    for (index_t i = by; i < n_d; i += geom.grid_y) {
      for (index_t j = 0; j < n_m; ++j) {
        const cdouble* seq = src + (i * n_m + j) * n_f;
        for (index_t f = f0; f < f1; ++f) {
          dst[f * n_d * n_m + j * n_d + i] = seq[f];
        }
      }
    }
  });
}

/// Compute the per-frequency-block checksum rows: column sums
/// (forward) or row sums (adjoint), accumulated in double and
/// narrowed to the spectrum's own precision.  One gridblock per
/// frequency block; charged like any setup kernel.
template <class C>
device::KernelTiming compute_checksums(device::Stream& stream,
                                       const C* spectrum, C* out, index_t n_d,
                                       index_t n_m, index_t n_f, bool adjoint) {
  const index_t x_len = adjoint ? n_d : n_m;
  const device::LaunchGeometry geom{
      .grid_x = n_f, .grid_y = 1, .grid_z = 1, .block_threads = 256};
  device::KernelFootprint fp;
  fp.bytes_read = static_cast<double>(n_d) * static_cast<double>(n_m) *
                  static_cast<double>(n_f) * sizeof(C);
  fp.bytes_written =
      static_cast<double>(n_f) * static_cast<double>(x_len) * sizeof(C);
  fp.flops = 2.0 * static_cast<double>(n_d) * static_cast<double>(n_m) *
             static_cast<double>(n_f);
  fp.fp64_path = true;
  fp.vector_load_bytes = 16;
  fp.coalescing_efficiency = 0.8;
  return stream.launch(geom, fp, [=](index_t bx, index_t, index_t) {
    const C* blk = spectrum + bx * n_d * n_m;
    C* o = out + bx * x_len;
    if (adjoint) {
      for (index_t i = 0; i < n_d; ++i) {
        cdouble acc{};
        for (index_t j = 0; j < n_m; ++j) acc += cdouble(blk[i + j * n_d]);
        o[i] = C(acc);
      }
    } else {
      for (index_t j = 0; j < n_m; ++j) {
        cdouble acc{};
        for (index_t i = 0; i < n_d; ++i) acc += cdouble(blk[i + j * n_d]);
        o[j] = C(acc);
      }
    }
  });
}

}  // namespace

BlockToeplitzOperator::BlockToeplitzOperator(device::Device& dev,
                                             device::Stream& stream,
                                             const LocalDims& dims,
                                             std::span<const double> first_block_col)
    : dev_(&dev), dims_(dims), spectrum_d_(dev, spectrum_elems()) {
  const index_t n_seq = block_elems();        // n_d * n_m time sequences
  const index_t n_t = dims_.n_t();
  const index_t L = dims_.padded_length();
  const index_t n_f = dims_.num_frequencies();

  if (!dev.phantom() &&
      static_cast<index_t>(first_block_col.size()) != n_seq * n_t) {
    throw std::invalid_argument(
        "BlockToeplitzOperator: first_block_col has wrong extent");
  }

  const double t0 = stream.now();

  // Scratch buffers live only during setup.
  device::device_vector<double> seq_major(dev, n_seq * n_t);
  device::device_vector<double> padded(dev, n_seq * L);
  device::device_vector<cdouble> spectra(dev, n_seq * n_f);

  // 1. Permute time-outer (n_t, n_d*n_m) -> sequence-major
  //    (n_d*n_m, n_t): the cuTENSOR-replacement kernel.
  blas::transpose_batched(stream, first_block_col.data(), seq_major.data(),
                          /*batch=*/1, /*rows=*/n_t, /*cols=*/n_seq);

  // 2. Zero-pad every sequence to the circulant length L = 2 N_t.
  precision::pad_rows_cast<double>(stream, seq_major.data(), padded.data(), n_t,
                                   n_seq, L);

  // 3. Batched real FFT of all n_d*n_m sequences (always double).
  fft::BatchedRealFft<double> plan(L, n_seq);
  plan.forward_on(stream, padded.data(), L, spectra.data(), n_f);

  // 4. Permute spectra into per-frequency column-major blocks.
  spectrum_to_blocks(stream, spectra.data(), spectrum_d_.data(), dims_.n_d_local,
                     dims_.n_m_local, n_f);

  setup_seconds_ = stream.now() - t0;
}

const cfloat* BlockToeplitzOperator::spectrum_f(device::Stream& stream) const {
  if (!spectrum_f_) {
    spectrum_f_.emplace(*dev_, spectrum_elems());
    precision::convert_array(stream, spectrum_d_.data(), spectrum_f_->data(),
                             spectrum_elems());
  }
  return spectrum_f_->data();
}

const cdouble* BlockToeplitzOperator::checksum_d(device::Stream& stream,
                                                 bool adjoint) const {
  auto& slot = adjoint ? checksum_row_d_ : checksum_col_d_;
  if (!slot) {
    const index_t x_len = adjoint ? dims_.n_d_local : dims_.n_m_local;
    slot.emplace(*dev_, dims_.num_frequencies() * x_len);
    compute_checksums(stream, spectrum_d_.data(), slot->data(),
                      dims_.n_d_local, dims_.n_m_local,
                      dims_.num_frequencies(), adjoint);
  }
  return slot->data();
}

const cfloat* BlockToeplitzOperator::checksum_f(device::Stream& stream,
                                                bool adjoint) const {
  auto& slot = adjoint ? checksum_row_f_ : checksum_col_f_;
  if (!slot) {
    const cfloat* spec = spectrum_f(stream);
    const index_t x_len = adjoint ? dims_.n_d_local : dims_.n_m_local;
    slot.emplace(*dev_, dims_.num_frequencies() * x_len);
    compute_checksums(stream, spec, slot->data(), dims_.n_d_local,
                      dims_.n_m_local, dims_.num_frequencies(), adjoint);
  }
  return slot->data();
}

}  // namespace fftmv::core
