#include "core/matvec_plan.hpp"

#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error_model.hpp"
#include "precision/convert.hpp"
#include "util/trace.hpp"

namespace fftmv::core {

using precision::Precision;
using precision::PrecisionConfig;

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& o) {
  pad += o.pad;
  fft += o.fft;
  sbgemv += o.sbgemv;
  ifft += o.ifft;
  unpad += o.unpad;
  comm += o.comm;
  makespan += o.makespan;
  return *this;
}

PhaseTimings& PhaseTimings::operator*=(double s) {
  pad *= s;
  fft *= s;
  sbgemv *= s;
  ifft *= s;
  unpad *= s;
  comm *= s;
  makespan *= s;
  return *this;
}

template <class T>
T* FftMatvecPlan::DualReal::get(device::Device& dev, index_t n) {
  if constexpr (std::is_same_v<T, double>) {
    if (!d || d->size() < n) d.emplace(dev, n);
    return d->data();
  } else {
    static_assert(std::is_same_v<T, float>, "DualReal holds float/double");
    if (!f || f->size() < n) f.emplace(dev, n);
    return f->data();
  }
}

template <class T>
T* FftMatvecPlan::DualComplex::get(device::Device& dev, index_t n) {
  if constexpr (std::is_same_v<T, cdouble>) {
    if (!d || d->size() < n) d.emplace(dev, n);
    return d->data();
  } else {
    static_assert(std::is_same_v<T, cfloat>, "DualComplex holds cfloat/cdouble");
    if (!f || f->size() < n) f.emplace(dev, n);
    return f->data();
  }
}

FftMatvecPlan::FftMatvecPlan(device::Device& dev, device::Stream& stream,
                             const LocalDims& dims, MatvecOptions options)
    : dev_(&dev), stream_(&stream), dims_(dims), options_(options) {
  dims_.global.validate();
}

namespace {

/// Invoke fn(SrcTag{}, DstTag{}) with float/double value tags for the
/// given precision pair.
template <class Fn>
void dispatch2(Precision src, Precision dst, Fn&& fn) {
  if (src == Precision::kDouble) {
    if (dst == Precision::kDouble) {
      fn(double{}, double{});
    } else {
      fn(double{}, float{});
    }
  } else {
    if (dst == Precision::kDouble) {
      fn(float{}, double{});
    } else {
      fn(float{}, float{});
    }
  }
}

template <class Fn>
void dispatch1(Precision p, Fn&& fn) {
  if (p == Precision::kDouble) {
    fn(double{});
  } else {
    fn(float{});
  }
}

/// The first element of each sequence q = r * ns + j (RHS r, entry j)
/// in RHS r's time-outer caller vector.  The fused FFTs' callbacks
/// reach sample t of sequence q at starts[q][t * ns], so the division
/// that splits q runs once per sequence, not once per sample.  A
/// phantom apply reads no vector and gets null starts.
template <class T>
std::vector<T*> sequence_starts(std::span<const std::span<T>> views, index_t ns,
                                bool phantom) {
  const index_t nq = static_cast<index_t>(views.size()) * ns;
  std::vector<T*> starts(static_cast<std::size_t>(nq));
  if (!phantom) {
    for (index_t q = 0; q < nq; ++q) {
      starts[static_cast<std::size_t>(q)] = views[q / ns].data() + q % ns;
    }
  }
  return starts;
}

/// One grouped-GEMV launch as the executor builds it: the kernel
/// arguments, the kernel kind they resolve to, the ABFT request and
/// the split kernel's partial-sum workspace.
template <class T, class X>
struct GemvLaunch {
  blas::SbgemvGroupedArgs<T, X> args;
  blas::GemvKernelKind kind = blas::GemvKernelKind::kReferenceN;
  blas::SbgemvVerify<T> verify;
  std::span<T> workspace;
};

/// Each group's modelled GEMV traffic in a launch of `kind`, from the
/// footprint the launch is charged with: the group's own matrix read
/// plus its RHS' vectors and split partial sums.  The groups' bytes
/// sum to the launch's.
template <class T, class X>
std::vector<double> group_gemv_bytes(blas::GemvKernelKind kind,
                                     const blas::SbgemvGroupedArgs<T, X>& args) {
  std::vector<double> bytes;
  bytes.reserve(args.groups.size());
  for (const auto& g : args.groups) {
    bytes.push_back(blas::gemv_grouped_footprint<T, X>(kind, args.base.m, args.base.n,
                                                       args.base.batch, 1, g.nrhs)
                        .total_bytes());
  }
  return bytes;
}

}  // namespace

void FftMatvecPlan::forward(const BlockToeplitzOperator& op,
                            std::span<const double> m, std::span<double> d,
                            const PrecisionConfig& config) {
  const ConstVectorView inputs[] = {m};
  const VectorView outputs[] = {d};
  apply_batch(op, ApplyDirection::kForward, config, inputs, outputs);
}

void FftMatvecPlan::adjoint(const BlockToeplitzOperator& op,
                            std::span<const double> d, std::span<double> m,
                            const PrecisionConfig& config) {
  const ConstVectorView inputs[] = {d};
  const VectorView outputs[] = {m};
  apply_batch(op, ApplyDirection::kAdjoint, config, inputs, outputs);
}

void FftMatvecPlan::apply_batch(const BlockToeplitzOperator& op,
                                ApplyDirection direction,
                                const PrecisionConfig& config,
                                std::span<const ConstVectorView> inputs,
                                std::span<const VectorView> outputs,
                                VerifyMode verify) {
  const OperatorGroup group{&op, static_cast<index_t>(inputs.size())};
  apply_batch({&group, 1}, direction, config, inputs, outputs, verify);
}

void FftMatvecPlan::apply_batch(std::span<const OperatorGroup> groups,
                                ApplyDirection direction,
                                const PrecisionConfig& config,
                                std::span<const ConstVectorView> inputs,
                                std::span<const VectorView> outputs,
                                VerifyMode verify) {
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const index_t b = static_cast<index_t>(inputs.size());
  if (b < 1) {
    throw std::invalid_argument("matvec: need at least one right-hand side");
  }
  if (outputs.size() != inputs.size()) {
    throw std::invalid_argument("matvec: inputs/outputs count mismatch");
  }
  if (groups.empty()) {
    throw std::invalid_argument("matvec: need at least one operator group");
  }
  index_t grouped_rhs = 0;
  for (const auto& g : groups) {
    if (g.op == nullptr || g.rhs_count < 1) {
      throw std::invalid_argument(
          "matvec: every group needs an operator and >= 1 RHS");
    }
    // A grid rank's operator may sit at other offsets than the rank
    // the plan was built for: one plan serves every same-shape rank.
    if (!g.op->dims().same_extents(dims_)) {
      throw std::invalid_argument(
          "matvec: group operator dims do not match the plan");
    }
    grouped_rhs += g.rhs_count;
  }
  if (grouped_rhs != b) {
    throw std::invalid_argument(
        "matvec: group RHS counts do not sum to the input count");
  }

  const Precision p1 = config.phase(precision::kPhasePad);
  const Precision p2 = config.phase(precision::kPhaseFft);
  const Precision p3 = config.phase(precision::kPhaseSbgemv);
  const Precision p4 = config.phase(precision::kPhaseIfft);
  const Precision p5 = config.phase(precision::kPhaseUnpad);

  const index_t nt = dims_.n_t();
  const index_t L = dims_.padded_length();
  const index_t nf = dims_.num_frequencies();
  const index_t ns_in = adjoint ? dims_.n_d_local : dims_.n_m_local;
  const index_t ns_out = adjoint ? dims_.n_m_local : dims_.n_d_local;

  // Validation runs before any state mutation: a throwing call must
  // not perturb executions() or the previous apply's timings.
  if (!dev_->phantom()) {
    for (index_t r = 0; r < b; ++r) {
      if (static_cast<index_t>(inputs[r].size()) != nt * ns_in) {
        throw std::invalid_argument("matvec: input span has wrong extent");
      }
      if (static_cast<index_t>(outputs[r].size()) != nt * ns_out) {
        throw std::invalid_argument("matvec: output span has wrong extent");
      }
    }
  }

  // The GEMV kernel kind (split-column or not forward, optimized
  // transpose or not adjoint) is picked from the GLOBAL shape, not
  // this plan's slice, so a sharded rank plan runs the same kernel —
  // and the same summation order — as the full operator would.
  const blas::Op gemv_op = adjoint ? blas::Op::C : blas::Op::N;
  const blas::GemvKernelPolicy gemv_policy =
      blas::auto_policy(gemv_op, dims_.global.n_d, dims_.global.n_m);

  timings_ = PhaseTimings{};
  rhs_timings_.clear();
  ++executions_;
  const bool fuse = options_.fuse_casts;

  // ---- Executor.  Three stages run in order on the plan's stream,
  // one launch each whatever b is:
  //   stage 1: ONE fused forward real FFT over the b * ns_in sequences
  //     (runtime batch multiplier).  It loads every sample straight
  //     from its RHS's caller input, rounded double -> p1 -> p2
  //     in-kernel, the zero-padded half as loads that return 0, and
  //     stores each p2 bin into the frequency-outer spectrum the GEMV
  //     reads;
  //   stage 2: the grouped multi-RHS SBGEMV into the frequency-outer
  //     output spectrum — the dominant phase at paper scale.  It reads
  //     the p2 spectrum and casts it to p3 in registers.  On a
  //     short-and-wide forward it is the split-column kernel, whose
  //     partial sums sit behind the output in `ospec_t_` and are
  //     folded within the same launch;
  //   stage 3: ONE batched inverse FFT that reads the GEMV output where
  //     it lies and writes every RHS's caller output directly, rounding
  //     p4 -> p5 -> double in-kernel; it carries a verified apply's
  //     checksum compare.
  // A paranoid apply's Parseval checks ride the two FFT launches.
  // The fusion ablation (fuse_casts = false) is the unfused 7-launch
  // pipeline: a pad launch into a padded buffer, the forward FFT into a
  // space-outer spectrum, the Fourier reorder, the GEMV, the output
  // reorder back (carrying the compare), the inverse FFT into a padded
  // buffer and a separate unpad, with each precision change a cast
  // kernel of its own around a memory op in the producer's precision.
  device::Stream& s = *stream_;
  // ABFT verification state: per-config tolerances plus the
  // double-width checksum workspaces, one slot per (frequency, RHS).
  VerifyTolerances vtol;
  if (verify != VerifyMode::kOff) {
    vtol = verify_tolerances(config, dims_, adjoint);
    if (!chk_ || chk_->size() < nf * b) chk_.emplace(*dev_, nf * b);
    if (!chk_scale_ || chk_scale_->size() < nf * b) {
      chk_scale_.emplace(*dev_, nf * b);
    }
  }
  const double t_begin = s.now();
  // The lazily built FFT plan of one precision for the parameter side
  // (n_m_local sequences) or the data side (n_d_local sequences).
  const auto fft_plan = [&](auto tag, bool d_side) -> fft::BatchedRealFft<decltype(tag)>& {
    auto& slot = [&]() -> std::optional<fft::BatchedRealFft<decltype(tag)>>& {
      if constexpr (std::is_same_v<decltype(tag), double>) {
        return d_side ? fft_d_d_ : fft_m_d_;
      } else {
        return d_side ? fft_d_f_ : fft_m_f_;
      }
    }();
    const index_t ns = d_side ? dims_.n_d_local : dims_.n_m_local;
    if (!slot || slot->batch() != ns) slot.emplace(L, ns);
    return *slot;
  };
  double gemv_seconds = 0.0;

  // Per-phase device-clock trace spans: each phase's [t0, now()]
  // window on the stream's track.  Untracked streams (trace_tid < 0 —
  // phantom probes, ad-hoc streams) never emit.
  const auto trace_phase = [&](const char* phase, double t0) {
    if (util::trace::enabled() && s.trace_tid() >= 0) {
      util::trace::complete_device(s.trace_tid(), phase, "phase", t0,
                                   s.now() - t0, {{"rhs", b}});
    }
  };

  // ---- Stage 1: forward FFT (after a pad launch in the fusion
  // ablation).
  double t0 = s.now();
  if (fuse) {
    // ONE fused forward real FFT over the b * ns_in sequences.
    // Sequence q = r * ns_in + j (RHS r, entry j) loads sample t < nt
    // from input r at t * ns_in + j, rounded double -> p1 -> p2, and
    // +0.0 for nt <= t < L, so the engine runs the padded buffer's
    // arithmetic without the buffer.  It stores bin f at f * nq + q,
    // the frequency-outer layout the GEMV reads.  A paranoid apply's
    // forward Parseval check rides the launch.
    const index_t nq = b * ns_in;
    const auto starts = sequence_starts(inputs, ns_in, dev_->phantom());
    const double* const* in = starts.data();
    dispatch2(p1, p2, [&](auto tag1, auto tag2) {
      using S1 = decltype(tag1);
      using S2 = decltype(tag2);
      using C2 = std::complex<S2>;
      auto& plan = fft_plan(tag2, /*d_side=*/adjoint);
      C2* x = spec_t_.get<C2>(*dev_, nf * nq);
      const auto load = [=](index_t q, index_t t) {
        return t < nt ? static_cast<S2>(static_cast<S1>(in[q][t * ns_in])) : S2(0);
      };
      const auto store = [=](index_t q, index_t f, const C2& v) { x[f * nq + q] = v; };
      const auto stored = [=](index_t q, index_t f) { return x[f * nq + q]; };
      const auto fp = plan.fused_footprint(b, static_cast<double>(nt * sizeof(double)),
                                           static_cast<double>(nf * sizeof(C2)));
      fft::ParsevalFailure parseval_fail;
      const fft::ParsevalCheck parseval{vtol.fft_forward, &parseval_fail};
      plan.forward_fused_on(s, b, fp, load, store,
                            verify == VerifyMode::kParanoid ? &parseval : nullptr,
                            stored);
      parseval_fail.throw_if_any("fft-parseval-forward");
    });
  } else {
    dispatch2(p1, p2, [&](auto tag1, auto tag2) {
      using S1 = decltype(tag1);
      using S2 = decltype(tag2);
      const index_t n = nt * ns_in;
      S2* padded = padded_.get<S2>(*dev_, b * ns_in * L);
      std::vector<const double*> srcs;
      srcs.reserve(static_cast<std::size_t>(b));
      for (index_t r = 0; r < b; ++r) srcs.push_back(inputs[r].data());
      // Cast each input to p1, pad in p1, then cast the batch to p2 (an
      // all-double chain pads straight from the inputs).
      if constexpr (std::is_same_v<S1, double> && std::is_same_v<S2, double>) {
        precision::transpose_pad_cast<S1>(s, std::span<const double* const>(srcs),
                                          padded, nt, ns_in, L);
        return;
      }
      std::vector<const S1*> srcs1;
      if constexpr (std::is_same_v<S1, double>) {
        srcs1 = srcs;
      } else {
        S1* staged = stage_.get<S1>(*dev_, b * n);
        for (index_t k = 0; k < b; ++k) {
          precision::convert_array(s, srcs[static_cast<std::size_t>(k)],
                                   staged + k * n, n);
          srcs1.push_back(staged + k * n);
        }
      }
      const std::span<const S1* const> in1(srcs1);
      if constexpr (std::is_same_v<S1, S2>) {
        precision::transpose_pad_cast<S1>(s, in1, padded, nt, ns_in, L);
      } else {
        S1* tmp = padded_.get<S1>(*dev_, b * ns_in * L);
        precision::transpose_pad_cast<S1>(s, in1, tmp, nt, ns_in, L);
        precision::convert_array(s, tmp, padded, b * ns_in * L);
      }
    });
    trace_phase("pad", t0);
    timings_.pad += s.now() - t0;
    t0 = s.now();
    dispatch1(p2, [&](auto tag2) {
      using S2 = decltype(tag2);
      using C2 = std::complex<S2>;
      auto& plan = fft_plan(tag2, /*d_side=*/adjoint);
      const S2* padded = padded_.get<S2>(*dev_, b * ns_in * L);
      C2* spec = spec_.get<C2>(*dev_, b * ns_in * nf);
      plan.forward_on(s, padded, L, spec, nf, /*batch_multiplier=*/b);
      if (verify == VerifyMode::kParanoid) {
        plan.verify_parseval_on(s, padded, L, spec, nf, b, vtol.fft_forward,
                                "fft-parseval-forward");
      }
    });
  }
  trace_phase("fft", t0);
  timings_.fft += s.now() - t0;

  // The grouped-GEMV launch in the phase-3 precision, reading the
  // spectrum `x`: one operator-spectrum base pointer per group —
  // nothing else in the pipeline is operator-specific, so this is the
  // only thing that distinguishes a grouped (cross-tenant) batch from
  // a flat one.  `gemv_groups` holds the groups the returned arguments
  // point at.  x is frequency-outer like the output y: frequency f,
  // RHS r, entry j at f * b * ns + r * ns + j.  `ospec_t_` holds y
  // followed by the split kernel's workspace, K partial-sum tiles each
  // shaped like y: (K + 1) n_d elements per (frequency, RHS) against
  // the adjoint output's n_m.  A plan that also runs adjoints at the
  // same b therefore allocates nothing for it when (K + 1) n_d <= n_m
  // (6 x 96: 24 <= 96; 16 x 1000: 528 <= 1000), and otherwise grows the
  // buffer on its first such forward (48 x 100: 240 > 100).
  const auto gemv_launch = [&](auto tag3, const auto* x, auto& gemv_groups) {
    using C3 = std::complex<decltype(tag3)>;
    using CX = std::remove_cvref_t<decltype(*x)>;
    gemv_groups.reserve(groups.size());
    for (const auto& g : groups) {
      const C3* spectrum;
      const C3* checksum = nullptr;
      if constexpr (std::is_same_v<C3, cdouble>) {
        spectrum = g.op->spectrum_d();
        if (verify != VerifyMode::kOff) checksum = g.op->checksum_d(s, adjoint);
      } else {
        spectrum = g.op->spectrum_f(s);
        if (verify != VerifyMode::kOff) checksum = g.op->checksum_f(s, adjoint);
      }
      gemv_groups.push_back({spectrum, g.rhs_count, checksum});
    }
    GemvLaunch<C3, CX> launch;
    blas::SbgemvGroupedArgs<C3, CX>& args = launch.args;
    args.base.op = gemv_op;
    args.base.m = dims_.n_d_local;
    args.base.n = dims_.n_m_local;
    args.base.alpha = C3(1);
    args.base.lda = dims_.n_d_local;
    args.base.stride_a = dims_.n_d_local * dims_.n_m_local;
    args.base.x = x;
    args.base.stride_x = b * ns_in;
    args.base.beta = C3(0);
    args.base.stride_y = b * ns_out;
    args.base.batch = nf;
    args.rhs_stride_x = ns_in;
    args.rhs_stride_y = ns_out;
    args.groups = gemv_groups;
    launch.kind = blas::select_kernel(args.base, gemv_policy);
    const index_t out = nf * b * ns_out;
    const index_t ws = blas::gemv_workspace_size(launch.kind, args);
    C3* y = ospec_t_.get<C3>(*dev_, out + ws);
    args.base.y = y;
    if (y != nullptr) launch.workspace = std::span<C3>(y + out, ws);
    if (verify != VerifyMode::kOff) {
      launch.verify.enabled = true;
      launch.verify.checksum_out = chk_->data();
      launch.verify.scale_out = chk_scale_->data();
      launch.verify.tolerance = vtol.gemv;
    }
    return launch;
  };
  // Run the launch and record each group's modelled share of its
  // traffic for the per-RHS attribution below.
  std::vector<double> gemv_bytes;
  const auto run_gemv = [&](const auto& launch) {
    gemv_bytes = group_gemv_bytes(launch.kind, launch.args);
    blas::sbgemv_grouped(s, launch.args, gemv_policy, launch.verify, launch.workspace);
  };

  // ---- Stage 2: the grouped SBGEMV (between the Fourier reorder and
  // the output reorder in the fusion ablation).
  t0 = s.now();
  if (fuse) {
    dispatch2(p2, p3, [&](auto tag2, auto tag3) {
      using C2 = std::complex<decltype(tag2)>;
      using C3 = std::complex<decltype(tag3)>;
      std::vector<blas::SbgemvGroup<C3>> gemv_groups;
      const C2* x = spec_t_.get<C2>(*dev_, nf * b * ns_in);
      run_gemv(gemv_launch(tag3, x, gemv_groups));
    });
    gemv_seconds = s.now() - t0;
  } else {
    dispatch2(p2, p3, [&](auto tag2, auto tag3) {
      using C2 = std::complex<decltype(tag2)>;
      using C3 = std::complex<decltype(tag3)>;
      const C2* spec = spec_.get<C2>(*dev_, b * ns_in * nf);
      C3* spec_t = spec_t_.get<C3>(*dev_, nf * b * ns_in);
      if constexpr (std::is_same_v<C2, C3>) {
        precision::transpose_cast<C3>(s, spec, spec_t, b * ns_in, nf);
      } else {
        C2* tmp = spec_t_.get<C2>(*dev_, nf * b * ns_in);
        precision::transpose_cast<C2>(s, spec, tmp, b * ns_in, nf);
        precision::convert_array(s, tmp, spec_t, nf * b * ns_in);
      }
    });
    dispatch2(p3, p4, [&](auto tag3, auto tag4) {
      using C3 = std::complex<decltype(tag3)>;
      using C4 = std::complex<decltype(tag4)>;
      std::vector<blas::SbgemvGroup<C3>> gemv_groups;
      const C3* x = spec_t_.get<C3>(*dev_, nf * b * ns_in);
      const auto launch = gemv_launch(tag3, x, gemv_groups);
      const auto& args = launch.args;
      const auto& vreq = launch.verify;
      const double gemv_t0 = s.now();
      run_gemv(launch);
      gemv_seconds += s.now() - gemv_t0;
      // The output reorder is the first kernel to read the GEMV output
      // after its write-back (the SDC site), so a verified apply's
      // checksum compare rides it: each row tile's first block checks
      // its frequency blocks' (entry, RHS) columns.
      blas::GemvVerifyFailure fail;
      const auto reorder = [&](auto* dst) {
        if (verify == VerifyMode::kOff) {
          precision::transpose_cast(s, args.base.y, dst, nf, b * ns_out);
          return;
        }
        precision::transpose_cast(
            s, args.base.y, dst, nf, b * ns_out,
            [&](index_t f0, index_t f1) {
              for (index_t f = f0; f < f1; ++f) {
                blas::gemv_grouped_verify_block(args, vreq, &fail, f);
              }
            },
            blas::gemv_compare_extra_footprint<C3>(ns_out, nf, b));
      };
      C4* ospec = ospec_.get<C4>(*dev_, b * ns_out * nf);
      if (std::is_same_v<C3, C4>) {
        reorder(ospec);
      } else {
        C3* tmp = ospec_.get<C3>(*dev_, b * ns_out * nf);
        reorder(tmp);
        precision::convert_array(s, tmp, ospec, b * ns_out * nf);
      }
      blas::throw_if_checksum_failed(fail);
    });
  }
  trace_phase("sbgemv", t0);
  timings_.sbgemv += s.now() - t0;

  // ---- Stage 3: inverse FFT (+ unpad in the fusion ablation).
  t0 = s.now();
  if (fuse) {
    // ONE batched inverse real FFT over the b * ns_out sequences.
    // Sequence q = r * ns_out + j (RHS r, entry j) loads bin f from
    // the GEMV's frequency-outer output at f * b * ns_out + q, in p3,
    // cast to p4 in-register, and stores its first nt samples straight
    // into output r at t * ns_out + j, rounded p4 -> p5 -> double; the
    // padding tail is dropped.  The launch is the first kernel to read
    // the GEMV output after its write-back, so it carries a verified
    // apply's checksum compare — gridblock q checks frequencies
    // [q nf / nq, (q+1) nf / nq), so each (frequency, RHS) column is
    // checked once — and a paranoid apply's inverse Parseval check.
    const index_t nq = b * ns_out;
    const auto starts = sequence_starts(outputs, ns_out, dev_->phantom());
    double* const* out = starts.data();
    dispatch2(p3, p4, [&](auto tag3, auto tag4) {
      dispatch1(p5, [&](auto tag5) {
        using C3 = std::complex<decltype(tag3)>;
        using S4 = decltype(tag4);
        using C4 = std::complex<S4>;
        using S5 = decltype(tag5);
        auto& plan = fft_plan(tag4, /*d_side=*/!adjoint);
        // The compare reads y alone, so x stays null.
        std::vector<blas::SbgemvGroup<C3>> gemv_groups;
        const auto launch =
            gemv_launch(tag3, static_cast<const C3*>(nullptr), gemv_groups);
        const auto& args = launch.args;
        const auto& vreq = launch.verify;
        const C3* y = args.base.y;
        const auto load = [=](index_t q, index_t f) {
          return precision::convert_scalar<C4>(y[f * nq + q]);
        };
        const auto store = [=](index_t q, index_t t, S4 v) {
          if (t < nt) out[q][t * ns_out] = static_cast<double>(static_cast<S5>(v));
        };
        blas::GemvVerifyFailure fail;
        const auto compare = [&](index_t q) {
          if (verify == VerifyMode::kOff) return;
          for (index_t f = q * nf / nq; f < (q + 1) * nf / nq; ++f) {
            blas::gemv_grouped_verify_block(args, vreq, &fail, f);
          }
        };
        auto fp = plan.fused_footprint(b, static_cast<double>(nf * sizeof(C3)),
                                       static_cast<double>(nt * sizeof(double)));
        if (verify != VerifyMode::kOff) {
          const auto extra = blas::gemv_compare_extra_footprint<C3>(ns_out, nf, b);
          fp.bytes_read += extra.bytes_read;
          fp.bytes_written += extra.bytes_written;
          fp.flops += extra.flops;
        }
        fft::ParsevalFailure parseval_fail;
        const fft::ParsevalCheck parseval{vtol.fft_inverse, &parseval_fail};
        plan.inverse_fused_on(s, b, fp, load, store, compare,
                              verify == VerifyMode::kParanoid ? &parseval : nullptr);
        blas::throw_if_checksum_failed(fail);
        parseval_fail.throw_if_any("fft-parseval-inverse");
      });
    });
    trace_phase("ifft", t0);
    timings_.ifft += s.now() - t0;
  } else {
    // The fusion ablation: inverse FFT into the padded buffer, then
    // unpad in p4 into a plan buffer, cast the batch to p5, then each
    // RHS to its output (an all-double chain unpads straight into the
    // outputs).
    std::vector<double*> dsts;
    dsts.reserve(static_cast<std::size_t>(b));
    for (index_t r = 0; r < b; ++r) dsts.push_back(outputs[r].data());
    dispatch1(p4, [&](auto tag4) {
      using S4 = decltype(tag4);
      using C4 = std::complex<S4>;
      auto& plan = fft_plan(tag4, /*d_side=*/!adjoint);
      const C4* ospec = ospec_.get<C4>(*dev_, b * ns_out * nf);
      S4* opad = opad_.get<S4>(*dev_, b * ns_out * L);
      plan.inverse_on(s, ospec, nf, opad, L, /*batch_multiplier=*/b);
      if (verify == VerifyMode::kParanoid) {
        plan.verify_parseval_on(s, opad, L, ospec, nf, b, vtol.fft_inverse,
                                "fft-parseval-inverse");
      }
    });
    trace_phase("ifft", t0);
    timings_.ifft += s.now() - t0;
    t0 = s.now();
    dispatch2(p4, p5, [&](auto tag4, auto tag5) {
      using S4 = decltype(tag4);
      using S5 = decltype(tag5);
      const index_t n = nt * ns_out;
      const S4* opad = opad_.get<S4>(*dev_, b * ns_out * L);
      if (std::is_same_v<S4, double> && std::is_same_v<S5, double>) {
        precision::unpad_transpose_cast<S5>(s, opad, std::span<double* const>(dsts),
                                            nt, ns_out, L);
        return;
      }
      S4* out4 = olocal_.get<S4>(*dev_, b * n);
      std::vector<S4*> dsts4;
      for (index_t k = 0; k < b; ++k) dsts4.push_back(out4 + k * n);
      precision::unpad_transpose_cast<S4>(s, opad, std::span<S4* const>(dsts4),
                                          nt, ns_out, L);
      const auto cast_out = [&](const auto* from) {
        for (index_t k = 0; k < b; ++k) {
          precision::convert_array(s, from + k * n,
                                   dsts[static_cast<std::size_t>(k)], n);
        }
      };
      if constexpr (!std::is_same_v<S4, S5> && !std::is_same_v<S5, double>) {
        S5* out5 = olocal_.get<S5>(*dev_, b * n);
        precision::convert_array(s, out4, out5, b * n);
        cast_out(out5);
      } else {
        cast_out(out4);
      }
    });
    trace_phase("unpad", t0);
    timings_.unpad += s.now() - t0;
  }
  // One in-order stream: the elapsed clock is the busy-time total.
  timings_.makespan = s.now() - t_begin;

  // ---- Per-RHS attribution (last_batch_timings).  Phases 1/2/4/5,
  // the ablation's phase-3 reorders and the makespan do identical work
  // per RHS (one shape per batch) and split evenly; the GEMV launch
  // splits across groups in proportion to each group's share of the
  // traffic the launch is charged with (gemv_bytes: one n_d x n_m
  // matrix read per group plus the group's vectors and split partial
  // sums, x at the width the GEMV reads it), then evenly within a
  // group.  A singleton group therefore carries its full matrix read
  // while a b-wide group amortises its own over b requests; with one
  // group this reduces to the even split.
  const double db = static_cast<double>(b);
  double total_w = 0.0;
  for (const double w : gemv_bytes) total_w += w;
  PhaseTimings even = timings_;
  even.sbgemv = timings_.sbgemv - gemv_seconds;  // the ablation's reorders
  even *= 1.0 / db;
  rhs_timings_.assign(static_cast<std::size_t>(b), even);
  std::size_t r0 = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const index_t count = groups[gi].rhs_count;
    const double gemv_share =
        gemv_seconds * (gemv_bytes[gi] / total_w) / static_cast<double>(count);
    for (index_t r = 0; r < count; ++r) {
      rhs_timings_[r0 + static_cast<std::size_t>(r)].sbgemv += gemv_share;
    }
    r0 += static_cast<std::size_t>(count);
  }
}

}  // namespace fftmv::core
