#include "core/block_toeplitz.hpp"

#include <stdexcept>

#include "blas/permute.hpp"
#include "fft/plan.hpp"
#include "precision/convert.hpp"

namespace fftmv::core {

namespace {

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
  const ProblemDims& g = dims_.global;
  const index_t n_d = dims_.n_d_local;
  const index_t n_m = dims_.n_m_local;
  const index_t n_t = dims_.n_t();
  const index_t n_seq = block_elems();  // n_d * n_m time sequences

  if (!dev.phantom() &&
      static_cast<index_t>(first_block_col.size()) != g.n_t * g.n_d * g.n_m) {
    throw std::invalid_argument(
        "BlockToeplitzOperator: first_block_col has wrong extent");
  }

  const double t0 = stream.now();

  // 1. The cuTENSOR-replacement kernel gathers the block from the
  //    global column: batch entry i (sensor d_offset + i) is an n_t x
  //    n_m matrix whose rows lie N_d * N_m apart.  Entry (i, j)'s
  //    samples land contiguously at (i * n_m + j) * n_t in a buffer
  //    that lives only during setup.  A phantom launch reads nothing.
  device::device_vector<double> seq(dev, n_seq * n_t);
  const double* block =
      dev.phantom() ? nullptr
                    : first_block_col.data() + dims_.d_offset * g.n_m + dims_.m_offset;
  blas::transpose_batched(stream, block, /*src_ld=*/g.n_d * g.n_m,
                          /*src_stride=*/g.n_m, seq.data(), /*batch=*/n_d,
                          /*rows=*/n_t, /*cols=*/n_m);

  // 2. ONE fused batched real FFT, always in double.  Sequence
  //    q = j * n_d + i loads entry (i, j)'s sample t < n_t and +0.0 up
  //    to L = 2 N_t (the circulant embedding), and stores bin f at
  //    f * n_d * n_m + q: frequency block f, column-major, where the
  //    GEMV reads it.
  const double* x = seq.data();
  cdouble* spec = spectrum_d_.data();
  const fft::BatchedRealFft<double> plan(dims_.padded_length(), n_seq);
  const auto load = [=](index_t q, index_t t) {
    return t < n_t ? x[((q % n_d) * n_m + q / n_d) * n_t + t] : 0.0;
  };
  const auto store = [=](index_t q, index_t f, const cdouble& v) {
    spec[f * n_seq + q] = v;
  };
  const auto fp = plan.fused_footprint(
      1, static_cast<double>(n_t * sizeof(double)),
      static_cast<double>(dims_.num_frequencies() * sizeof(cdouble)));
  plan.forward_fused_on(stream, 1, fp, load, store);

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
