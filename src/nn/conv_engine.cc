#include "nn/conv_engine.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "arch/simd.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "photonics/converters.hh"
#include "signal/fft.hh"
#include "signal/fft_plan.hh"
#include "tiling/tiled_convolution.hh"

namespace photofourier {
namespace nn {

namespace {

/**
 * Per-thread scratch for the engines' convolution hot loops: channel
 * matrices, partial planes, and the tiled executor's workspace, all
 * reused across calls so steady-state inference never allocates on
 * the per-channel path.
 */
struct EngineScratch
{
    signal::Matrix in_ch;
    signal::Matrix w_ch;
    signal::Matrix part_p;
    signal::Matrix part_n;
    tiling::ConvWorkspace conv;
    std::vector<double> kernel_row;
    signal::ComplexVector acc_spec;
    std::vector<double> row_time;
    std::vector<std::shared_ptr<const signal::ComplexVector>> specs;
};

EngineScratch &
threadEngineScratch()
{
    static thread_local EngineScratch scratch;
    return scratch;
}

void
checkConvShapes(const Tensor &input, const std::vector<Tensor> &weights,
                const std::vector<double> &bias)
{
    pf_assert(!weights.empty(), "conv layer with no output channels");
    pf_assert(weights[0].channels() == input.channels(),
              "weight input channels ", weights[0].channels(),
              " != input channels ", input.channels());
    pf_assert(bias.empty() || bias.size() == weights.size(),
              "bias size mismatch");
    pf_assert(weights[0].height() == weights[0].width(),
              "only square kernels are supported");
}

size_t
outputDim(size_t in, size_t k, size_t stride, signal::ConvMode mode)
{
    const size_t full = mode == signal::ConvMode::Same ? in : in - k + 1;
    return (full + stride - 1) / stride;
}

/** Fold one 64-bit word into a running hash (hash_combine style). */
uint64_t
hashBits(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

uint64_t
hashTensor(uint64_t h, const Tensor &t)
{
    h = hashBits(h, t.channels());
    h = hashBits(h, t.height());
    h = hashBits(h, t.width());
    for (double v : t.data())
        h = hashBits(h, std::bit_cast<uint64_t>(v));
    return h;
}

/**
 * True when the frequency-domain row path is predicted faster than the
 * direct sliding window for one conv-layer call. Flop model, fitted in
 * Release against BM_DirectEngine{Sliding,FftRows} in
 * bench/micro_kernels.cc: a transform of size n costs ~3*n*log2(n)
 * model-flops, a frequency MAC 5 per bin, and a direct sliding MAC 4.
 * The frequency-side weights started at the textbook 5/8 and were
 * divided by the measured SIMD speedup of that path
 * (BM_DirectEngineFftRows, ~1.6x with vector butterflies, r2c packs,
 * and the vector complex-MAC) while the direct weight is unchanged
 * (the 2D window walk in conv2dInto is not vectorized and its
 * BM_DirectEngineSliding time did not move) — re-fit the same way if
 * either path's kernels change speed. The FFT path pays one r2c per
 * (input channel, input row), one c2r per (output channel, output
 * row), and a complex multiply-add per half-spectrum bin per (oc, ic,
 * kernel row, output row); the direct path pays ow*k*k MACs per
 * (oc, ic, output row) — with the vector kernels frequency
 * accumulation now wins from k >= 3 at CIFAR widths (measured 1.9x at
 * k=3, 6.4x at k=13 on 32x32x8->8 layers), while 1x1/2x2 stay direct.
 */
bool
fftRowPathProfitable(size_t in_rows, size_t in_cols, size_t k,
                     size_t n_in, size_t n_out, size_t oh, size_t ow)
{
    const size_t n = signal::nextPowerOfTwo(in_cols + k - 1);
    const size_t half = n / 2 + 1;
    const double log2n = std::log2(static_cast<double>(n));
    const double transform_flops =
        3.0 * static_cast<double>(n) * log2n *
        static_cast<double>(n_in * in_rows + n_out * oh);
    const double product_flops =
        5.0 * static_cast<double>(half * k) *
        static_cast<double>(n_out * n_in * oh);
    const double direct_flops =
        4.0 * static_cast<double>(n_out * n_in * oh) *
        static_cast<double>(ow * k * k);
    return tiling::fftCrossoverScale() *
               (transform_flops + product_flops) <
           direct_flops;
}

/**
 * The frequency-domain conv layer over a batch of same-shape inputs:
 * input row half-spectra are computed once per (input, channel, row)
 * in ONE dispatch; each output channel's job fetches its kernel-row
 * spectra from the shared cache once for the whole batch, and each
 * output row accumulates its (ic, kernel row) products in the
 * frequency domain so one c2r finishes the row. Each input's
 * arithmetic does not depend on the batch, so outs[i] is bit-identical
 * to a batch of one. Matches the direct path within FFT rounding
 * (~1e-12 relative).
 */
void
fftRowConvolve(std::span<const Tensor> inputs,
               const std::vector<Tensor> &weights,
               const std::vector<double> &bias, size_t stride,
               signal::ConvMode mode, tiling::KernelSpectrumCache &cache,
               std::span<Tensor> outs)
{
    const size_t batch = inputs.size();
    const size_t k = weights[0].height();
    const size_t n_in = inputs[0].channels();
    const size_t n_out = weights.size();
    const size_t rows = inputs[0].height();
    const size_t cols = inputs[0].width();
    const size_t oh = outputDim(rows, k, stride, mode);
    const size_t ow = outputDim(cols, k, stride, mode);
    const long pad =
        mode == signal::ConvMode::Same ? static_cast<long>(k / 2) : 0;

    const size_t n = signal::nextPowerOfTwo(cols + k - 1);
    const auto plan = signal::fftPlanFor(n);
    const size_t half = plan->halfSpectrumSize();

    const size_t total_macs = batch * n_out * n_in * oh * ow * k * k;
    const size_t workers =
        total_macs < signal::kParallelDispatchThreshold ? 1 : 0;

    // Row spectra of every input, one fused dispatch, shared read-only
    // by the output-channel fan-out. Disjoint writes keep the pass
    // bit-exact for any worker count.
    signal::ComplexVector in_spec(batch * n_in * rows * half);
    signal::parallelFor(batch * n_in * rows, workers, [&](size_t job) {
        const size_t b = job / (n_in * rows);
        const size_t ic = (job / rows) % n_in;
        const size_t r = job % rows;
        // Slot 16: first slot of the nn-engine reserved range (16-19,
        // see FftWorkspace's slot discipline).
        std::vector<double> &pad_buf =
            signal::threadFftWorkspace().realBuffer(16, n);
        const double *row =
            inputs[b].data().data() + (ic * rows + r) * cols;
        std::copy(row, row + cols, pad_buf.begin());
        std::fill(pad_buf.begin() + cols, pad_buf.end(), 0.0);
        plan->executeReal(pad_buf.data(), &in_spec[job * half]);
    });

    for (size_t b = 0; b < batch; ++b)
        outs[b] = Tensor(n_out, oh, ow);
    signal::parallelFor(n_out, workers, [&](size_t oc) {
        EngineScratch &sc = threadEngineScratch();
        // Kernel-row spectra for this output channel, fetched once for
        // the whole batch from the shared cache (hits after the first
        // request).
        sc.specs.resize(n_in * k);
        sc.kernel_row.resize(k);
        for (size_t ic = 0; ic < n_in; ++ic) {
            for (size_t kr = 0; kr < k; ++kr) {
                for (size_t kc = 0; kc < k; ++kc)
                    sc.kernel_row[kc] = weights[oc].at(ic, kr, kc);
                sc.specs[ic * k + kr] =
                    cache.correlationSpectrum(sc.kernel_row, n);
            }
        }

        sc.acc_spec.resize(half);
        sc.row_time.resize(n);
        const double bv = bias.empty() ? 0.0 : bias[oc];
        for (size_t b = 0; b < batch; ++b) {
            Tensor &out = outs[b];
            for (size_t r_out = 0; r_out < oh; ++r_out) {
                std::fill(sc.acc_spec.begin(), sc.acc_spec.end(),
                          signal::Complex(0.0, 0.0));
                for (size_t ic = 0; ic < n_in; ++ic) {
                    for (size_t kr = 0; kr < k; ++kr) {
                        const long r_in =
                            static_cast<long>(r_out * stride) - pad +
                            static_cast<long>(kr);
                        if (r_in < 0 || r_in >= static_cast<long>(rows))
                            continue;
                        const signal::Complex *src =
                            &in_spec[((b * n_in + ic) * rows +
                                      static_cast<size_t>(r_in)) *
                                     half];
                        const signal::Complex *ks =
                            sc.specs[ic * k + kr]->data();
                        simd::kernels().complexMacInto(
                            reinterpret_cast<double *>(
                                sc.acc_spec.data()),
                            reinterpret_cast<const double *>(src),
                            reinterpret_cast<const double *>(ks), half);
                    }
                }
                plan->executeRealInverse(sc.acc_spec.data(),
                                         sc.row_time.data());
                for (size_t c = 0; c < ow; ++c)
                    out.at(oc, r_out, c) =
                        sc.row_time[static_cast<size_t>(
                            static_cast<long>(c * stride) - pad +
                            static_cast<long>(k) - 1)] +
                        bv;
            }
        }
        // Release the spectrum handles: the thread_local scratch
        // outlives this call, and pinned shared_ptrs would keep a
        // re-registered model's swapped-out cache alive per thread.
        sc.specs.clear();
    });
}

/** All batch inputs one shape? Fused dispatches require it; the
 *  serving layer groups per model so mixed batches only appear from
 *  direct API use, which falls back to the loop. */
bool
uniformBatchShape(const std::vector<Tensor> &inputs)
{
    for (size_t i = 1; i < inputs.size(); ++i)
        if (inputs[i].channels() != inputs[0].channels() ||
            inputs[i].height() != inputs[0].height() ||
            inputs[i].width() != inputs[0].width())
            return false;
    return true;
}

} // namespace

std::vector<Tensor>
ConvEngine::convolveBatch(const std::vector<Tensor> &inputs,
                          const std::vector<Tensor> &weights,
                          const std::vector<double> &bias, size_t stride,
                          signal::ConvMode mode) const
{
    std::vector<Tensor> outs;
    outs.reserve(inputs.size());
    for (const Tensor &input : inputs)
        outs.push_back(convolve(input, weights, bias, stride, mode));
    return outs;
}

DirectEngine::DirectEngine(
    std::shared_ptr<tiling::KernelSpectrumCache> spectra, ConvPath path)
    : spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<tiling::KernelSpectrumCache>()),
      path_(path)
{
}

Tensor
DirectEngine::convolve(const Tensor &input,
                       const std::vector<Tensor> &weights,
                       const std::vector<double> &bias, size_t stride,
                       signal::ConvMode mode) const
{
    Tensor out;
    convolveInputs({&input, 1}, weights, bias, stride, mode, {&out, 1});
    return out;
}

std::vector<Tensor>
DirectEngine::convolveBatch(const std::vector<Tensor> &inputs,
                            const std::vector<Tensor> &weights,
                            const std::vector<double> &bias,
                            size_t stride, signal::ConvMode mode) const
{
    if (!uniformBatchShape(inputs))
        return ConvEngine::convolveBatch(inputs, weights, bias, stride,
                                         mode);
    std::vector<Tensor> outs(inputs.size());
    convolveInputs(inputs, weights, bias, stride, mode, outs);
    return outs;
}

void
DirectEngine::convolveInputs(std::span<const Tensor> inputs,
                             const std::vector<Tensor> &weights,
                             const std::vector<double> &bias,
                             size_t stride, signal::ConvMode mode,
                             std::span<Tensor> outs) const
{
    if (inputs.empty())
        return;
    // One thread_local read when the request is untraced.
    obs::ScopedSpan span("direct_conv");
    const Tensor &first = inputs[0];
    checkConvShapes(first, weights, bias);
    const size_t k = weights[0].height();
    // Catch the degenerate shape before outputDim's size_t arithmetic
    // wraps: the sliding path would hit conv2dInto's assert anyway,
    // but the FFT row path must not get as far as allocating a
    // wrapped-size output.
    pf_assert(mode != signal::ConvMode::Valid ||
              (first.height() >= k && first.width() >= k),
              "conv2d valid: kernel larger than input");
    const size_t oh = outputDim(first.height(), k, stride, mode);
    const size_t ow = outputDim(first.width(), k, stride, mode);

    // The crossover is a pure function of the (shared) shape, so every
    // input takes the path it would take alone.
    const bool use_fft =
        path_ == ConvPath::Fft ||
        (path_ == ConvPath::Auto &&
         fftRowPathProfitable(first.height(), first.width(), k,
                              first.channels(), weights.size(), oh, ow));
    if (use_fft) {
        fftRowConvolve(inputs, weights, bias, stride, mode, *spectra_,
                       outs);
        return;
    }

    // The sliding path shares nothing across inputs: per input, fan
    // the independent output channels across the worker pool. Each
    // channel's input-channel accumulation keeps its sequential order,
    // so results are bit-exact vs the serial loop. Tiny layers run
    // sequentially: below the shared dispatch threshold a pool
    // publication costs more than the convolution.
    const size_t total_macs =
        weights.size() * first.channels() * oh * ow * k * k;
    const size_t oc_workers =
        total_macs < signal::kParallelDispatchThreshold ? 1 : 0;
    for (size_t b = 0; b < inputs.size(); ++b) {
        const Tensor &input = inputs[b];
        Tensor &out = outs[b] = Tensor(weights.size(), oh, ow);
        signal::parallelFor(weights.size(), oc_workers, [&](size_t oc) {
            EngineScratch &sc = threadEngineScratch();
            signal::Matrix &acc = sc.part_p;
            acc.resize(oh, ow);
            for (size_t ic = 0; ic < input.channels(); ++ic) {
                input.channelMatrixInto(ic, sc.in_ch);
                weights[oc].channelMatrixInto(ic, sc.w_ch);
                signal::conv2dInto(sc.in_ch, sc.w_ch, mode, stride,
                                   sc.part_n);
                for (size_t i = 0; i < acc.data.size(); ++i)
                    acc.data[i] += sc.part_n.data[i];
            }
            const double b = bias.empty() ? 0.0 : bias[oc];
            for (size_t i = 0; i < acc.data.size(); ++i)
                acc.data[i] += b;
            out.setChannel(oc, acc);
        });
    }
}

PhotoFourierEngine::PhotoFourierEngine(
    PhotoFourierEngineConfig config,
    std::shared_ptr<tiling::KernelSpectrumCache> spectra)
    : config_(config),
      spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<tiling::KernelSpectrumCache>())
{
    pf_assert(config_.temporal_accumulation_depth >= 1,
              "temporal accumulation depth must be >= 1");
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    snr_gauge_ = &registry.gauge("pf_photonic_snr_db");
    saturation_gauge_ = &registry.gauge("pf_photonic_saturation");
}

/** Input-independent half of PhotoFourierEngine::convolve. */
struct PhotoFourierEngine::PreparedLayer
{
    /** DAC-quantized weights (the noise key hashes these). */
    std::vector<Tensor> q_weights;
    /** Pseudo-negative split of q_weights: non-negative p filters. */
    std::vector<Tensor> w_pos;
    /** ... and the matching non-negative n filters. */
    std::vector<Tensor> w_neg;
};

PhotoFourierEngine::PreparedLayer
PhotoFourierEngine::prepareLayer(const std::vector<Tensor> &weights) const
{
    // --- weight DAC quantization (per-layer symmetric range) ---
    double w_range = 0.0;
    for (const auto &w : weights)
        w_range = std::max(w_range, w.maxAbs());
    photonics::Quantizer w_dac(
        config_.dac_bits > 0 ? config_.dac_bits : 2,
        config_.dac_bits > 0 ? w_range : 0.0);

    PreparedLayer prep;
    prep.q_weights = weights;
    for (auto &w : prep.q_weights)
        for (auto &v : w.data())
            v = w_dac.quantize(v);

    // Pseudo-negative execution [13]: each filter runs as a (p, n)
    // pair of non-negative filters whose photodetector charges are
    // read out *separately* and subtracted digitally. The ADC
    // quantizes each readout on a grid fixed by the layer's output
    // scale — that fixed grid is why fewer readouts (deeper temporal
    // accumulation) mean less total quantization error (Section V-C1:
    // "8-bit precision is not enough for partial sums").
    prep.w_pos = prep.q_weights;
    prep.w_neg = prep.q_weights;
    for (size_t oc = 0; oc < prep.q_weights.size(); ++oc) {
        for (size_t i = 0; i < prep.w_pos[oc].data().size(); ++i) {
            const double w = prep.q_weights[oc].data()[i];
            prep.w_pos[oc].data()[i] = w >= 0.0 ? w : 0.0;
            prep.w_neg[oc].data()[i] = w < 0.0 ? -w : 0.0;
        }
    }
    return prep;
}

namespace {

/** The 1D backend of the tiled path for a given engine config. */
tiling::Conv1dBackend
selectConvBackend(
    const PhotoFourierEngineConfig &config,
    const std::shared_ptr<tiling::KernelSpectrumCache> &spectra)
{
    if (config.optical_backend)
        // The optical cache rides along with the digital spectrum
        // cache (one lifetime), so serving replicas sharing spectra
        // also share the transformed joint-plane kernel fields.
        return tiling::jtcBackend({}, spectra->opticalPlaneCache());
    switch (config.conv_path) {
      case ConvPath::Auto:
        return tiling::autoBackend(spectra);
      case ConvPath::Direct:
        return tiling::cpuBackend();
      case ConvPath::Fft:
        return tiling::fftBackend(spectra);
    }
    return tiling::cpuBackend();
}

} // namespace

Tensor
PhotoFourierEngine::convolve(const Tensor &input,
                             const std::vector<Tensor> &weights,
                             const std::vector<double> &bias,
                             size_t stride,
                             signal::ConvMode mode) const
{
    Tensor out;
    convolveInputs({&input, 1}, weights, bias, stride, mode, {&out, 1});
    return out;
}

std::vector<Tensor>
PhotoFourierEngine::convolveBatch(const std::vector<Tensor> &inputs,
                                  const std::vector<Tensor> &weights,
                                  const std::vector<double> &bias,
                                  size_t stride,
                                  signal::ConvMode mode) const
{
    if (!uniformBatchShape(inputs))
        return ConvEngine::convolveBatch(inputs, weights, bias, stride,
                                         mode);
    std::vector<Tensor> outs(inputs.size());
    convolveInputs(inputs, weights, bias, stride, mode, outs);
    return outs;
}

void
PhotoFourierEngine::convolveInputs(std::span<const Tensor> inputs,
                                   const std::vector<Tensor> &weights,
                                   const std::vector<double> &bias,
                                   size_t stride, signal::ConvMode mode,
                                   std::span<Tensor> outs) const
{
    if (inputs.empty())
        return;
    obs::ScopedSpan span("photonic_conv");
    checkConvShapes(inputs[0], weights, bias);
    pf_assert(inputs[0].height() == inputs[0].width(),
              "PhotoFourier engine expects square feature maps");
    // Weight quantization, the (p, n) split, and the tiling plan are
    // input-independent: build them once, share them read-only across
    // the inputs. Everything per-input runs in convolvePrepared.
    const PreparedLayer prep = prepareLayer(weights);
    tiling::TilingParams params{
        .input_size = inputs[0].height(),
        .kernel_size = weights[0].height(),
        .n_conv = config_.n_conv,
        .mode = mode,
        .stride = stride,
        .zero_pad_rows = config_.zero_pad_rows,
    };
    tiling::TiledConvolution tiled(params,
                                   selectConvBackend(config_, spectra_));
    for (size_t b = 0; b < inputs.size(); ++b)
        outs[b] = convolvePrepared(inputs[b], prep, tiled, bias, stride,
                                   mode);
}

Tensor
PhotoFourierEngine::convolvePrepared(const Tensor &input,
                                     const PreparedLayer &prep,
                                     const tiling::TiledConvolution &tiled,
                                     const std::vector<double> &bias,
                                     size_t stride,
                                     signal::ConvMode mode) const
{
    const std::vector<Tensor> &q_weights = prep.q_weights;
    const std::vector<Tensor> &w_pos = prep.w_pos;
    const std::vector<Tensor> &w_neg = prep.w_neg;
    const size_t k = q_weights[0].height();
    const size_t n_in = input.channels();
    const size_t n_out = q_weights.size();
    const size_t nta = config_.temporal_accumulation_depth;

    // --- activation DAC quantization (per-call symmetric range) ---
    const double act_range = input.maxAbs();
    photonics::Quantizer act_dac(
        config_.dac_bits > 0 ? config_.dac_bits : 2,
        config_.dac_bits > 0 ? act_range : 0.0);
    Tensor q_input = input;
    for (auto &v : q_input.data())
        v = act_dac.quantize(v);

    const size_t oh = outputDim(input.height(), k, stride, mode);
    const size_t ow = outputDim(input.width(), k, stride, mode);
    const size_t groups = (n_in + nta - 1) / nta;

    // Per-call noise key: sensing noise is a pure function of the
    // seed, the quantized activations, and the quantized weights. No
    // engine state is consumed, so convolve() stays const-and-parallel
    // safe, and a request's noise does not depend on which thread (or
    // serving worker) executed it or on how many calls came before.
    uint64_t noise_key = 0;
    if (config_.noise) {
        uint64_t h = hashBits(config_.noise_seed, n_out);
        h = hashTensor(h, q_input);
        for (const auto &w : q_weights)
            h = hashTensor(h, w);
        noise_key = h;
    }

    // First pass: per-group photodetector charges (full precision,
    // plus optional sensing noise), p and n separately.
    const double inv_snr = std::pow(10.0, -config_.snr_db / 20.0);
    std::vector<std::vector<signal::Matrix>> group_p(n_out);
    std::vector<std::vector<signal::Matrix>> group_n(n_out);
    std::vector<double> oc_calib(n_out, 0.0);
    // Output channels are independent, so both paths fan them across
    // the worker pool (each channel touches only its own
    // group_p/group_n/oc_calib slots). Noise draws come from a
    // per-channel stream forked off the call key, so the result is
    // identical for any worker count. Small layers stay sequential,
    // like DirectEngine: below the shared dispatch threshold a pool
    // publication costs more than it buys — and, for serving, keeps
    // concurrent workers off the pool's dispatch lock.
    const size_t total_macs = n_out * n_in * oh * ow * k * k;
    const size_t oc_workers =
        total_macs < signal::kParallelDispatchThreshold ? 1 : 0;
    signal::parallelFor(n_out, oc_workers, [&](size_t oc) {
        EngineScratch &sc = threadEngineScratch();
        Rng noise_rng(hashBits(noise_key, oc + 1));
        group_p[oc].assign(groups, signal::Matrix(oh, ow));
        group_n[oc].assign(groups, signal::Matrix(oh, ow));
        signal::Matrix total_p(oh, ow), total_n(oh, ow);
        for (size_t g = 0; g < groups; ++g) {
            auto &acc_p = group_p[oc][g];
            auto &acc_n = group_n[oc][g];
            const size_t ic_end = std::min(n_in, (g + 1) * nta);
            for (size_t ic = g * nta; ic < ic_end; ++ic) {
                q_input.channelMatrixInto(ic, sc.in_ch);
                w_pos[oc].channelMatrixInto(ic, sc.w_ch);
                tiled.execute(sc.in_ch, sc.w_ch, sc.part_p, sc.conv);
                w_neg[oc].channelMatrixInto(ic, sc.w_ch);
                tiled.execute(sc.in_ch, sc.w_ch, sc.part_n, sc.conv);
                for (size_t i = 0; i < acc_p.data.size(); ++i) {
                    acc_p.data[i] += sc.part_p.data[i];
                    acc_n.data[i] += sc.part_n.data[i];
                }
            }
            if (config_.noise) {
                for (auto &v : acc_p.data)
                    v += noise_rng.normal(0.0, std::abs(v) * inv_snr);
                for (auto &v : acc_n.data)
                    v += noise_rng.normal(0.0, std::abs(v) * inv_snr);
            }
            for (size_t i = 0; i < acc_p.data.size(); ++i) {
                total_p.data[i] += acc_p.data[i];
                total_n.data[i] += acc_n.data[i];
            }
        }
        for (size_t i = 0; i < total_p.data.size(); ++i) {
            oc_calib[oc] = std::max(oc_calib[oc],
                                    std::abs(total_p.data[i]));
            oc_calib[oc] = std::max(oc_calib[oc],
                                    std::abs(total_n.data[i]));
        }
    });
    double adc_calib = 0.0; // max accumulated charge per polarity
    for (double calib : oc_calib)
        adc_calib = std::max(adc_calib, calib);

    // Health-facing gauges (two relaxed stores, nothing else): the
    // detector SNR this engine models (ideal 120 dB with noise off,
    // so the snr_floor_db SLO rule only fires on a genuinely noisy
    // configuration) and the ADC calibration range — the peak
    // photodetector charge the readout grid was scaled to this call.
    snr_gauge_->set(config_.noise ? config_.snr_db : 120.0);
    saturation_gauge_->set(adc_calib);

    // Second pass: one ADC readout per group per polarity on the
    // layer-scale grid; digital subtraction and accumulation.
    photonics::Quantizer adc(config_.adc_bits > 0 ? config_.adc_bits : 2,
                             config_.adc_bits > 0 ? adc_calib : 0.0);
    Tensor out(n_out, oh, ow);
    for (size_t oc = 0; oc < n_out; ++oc) {
        signal::Matrix acc(oh, ow);
        for (size_t g = 0; g < groups; ++g) {
            const auto &p = group_p[oc][g];
            const auto &n = group_n[oc][g];
            for (size_t i = 0; i < acc.data.size(); ++i)
                acc.data[i] += adc.quantize(p.data[i]) -
                               adc.quantize(n.data[i]);
        }
        const double b = bias.empty() ? 0.0 : bias[oc];
        for (size_t i = 0; i < acc.data.size(); ++i)
            acc.data[i] += b;
        out.setChannel(oc, acc);
    }
    return out;
}

} // namespace nn
} // namespace photofourier
