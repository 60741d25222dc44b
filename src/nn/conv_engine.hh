/**
 * @file
 * Convolution engines: how a Conv2d layer computes its output.
 *
 * DirectEngine is the floating-point reference. PhotoFourierEngine
 * models execution on the accelerator: row-tiled 1D convolutions, 8-bit
 * DAC quantization of activations and weights, photodetector temporal
 * accumulation over input-channel groups, a single 8-bit ADC readout per
 * group (Section V-C), optional per-readout sensing noise, and the
 * pseudo-negative weight decomposition (implicit: the engine's math is
 * sign-exact, matching the digitally subtracted pair).
 *
 * Accuracy experiments (Table I, Figure 7) swap the engine on a trained
 * network and measure the drop.
 */

#ifndef PHOTOFOURIER_NN_CONV_ENGINE_HH
#define PHOTOFOURIER_NN_CONV_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/tensor.hh"
#include "obs/metrics.hh"
#include "signal/convolution.hh"
#include "tiling/spectrum_cache.hh"

namespace photofourier {
namespace tiling {
class TiledConvolution;
} // namespace tiling
namespace nn {

/**
 * How a digital engine computes its convolutions.
 *
 * Auto picks per layer geometry between the direct/sliding reference
 * and the real-FFT frequency path using a measured crossover — the
 * choice is a pure function of the shapes, so outputs stay
 * deterministic across threads, workers, and processes. The FFT path
 * reuses kernel spectra through a KernelSpectrumCache and matches the
 * direct path within ~1e-12 relative error (well inside the 1e-9
 * engine contract).
 */
enum class ConvPath
{
    Auto,   ///< measured crossover decides per call shape
    Direct, ///< always the sliding/direct reference
    Fft,    ///< always the frequency-domain fast path
};

/**
 * Abstract convolution executor.
 *
 * Thread-safety contract: convolve() is const and must be safe to call
 * concurrently from any number of threads on one engine instance, with
 * results that are a pure function of the arguments (and the engine's
 * immutable configuration). The serving layer relies on this: worker
 * replicas may share an engine, and a request's output must not depend
 * on which worker ran it. Engines therefore may not keep mutable
 * per-call state; PhotoFourierEngine derives its noise stream per call
 * from (noise_seed, quantized activations, weights) instead of
 * consuming a shared RNG.
 */
class ConvEngine
{
  public:
    virtual ~ConvEngine() = default;

    /**
     * Compute a conv layer:
     * out[oc] = sum_ic corr2d(input[ic], weights[oc] channel ic) + bias.
     *
     * @param input   CHW input activations
     * @param weights one Tensor per output channel (ic x kh x kw)
     * @param bias    one bias per output channel (may be empty)
     * @param stride  spatial stride
     * @param mode    Same or Valid padding
     */
    virtual Tensor convolve(const Tensor &input,
                            const std::vector<Tensor> &weights,
                            const std::vector<double> &bias,
                            size_t stride,
                            signal::ConvMode mode) const = 0;

    /**
     * Batched convolve: N inputs (one micro-batch, all one shape)
     * through one set of weights. Contract: outs[i] is bit-identical
     * to convolve(inputs[i], ...) for every engine — batching may
     * only amortize work whose result is input-independent (weight
     * quantization, kernel-spectrum lookups, tiling plans, fused
     * transform dispatches), never change per-request numerics. The
     * base implementation loops convolve (correct for any third-party
     * engine). DirectEngine and PhotoFourierEngine keep one body per
     * engine, over a span of inputs: convolve is that body with one
     * input, convolveBatch with the whole (same-shape) batch.
     */
    virtual std::vector<Tensor>
    convolveBatch(const std::vector<Tensor> &inputs,
                  const std::vector<Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const;

    /** Engine name for logs. */
    virtual std::string name() const = 0;

    /** The kernel-spectrum cache this engine reads, or null if it
     *  keeps none (serving folds it into its pf_cache_* gauges). */
    virtual std::shared_ptr<tiling::KernelSpectrumCache>
    spectrumCache() const
    {
        return nullptr;
    }
};

/** Floating-point reference engine (direct 2D sliding window, with an
 *  FFT fast path for geometries where it measures faster). */
class DirectEngine : public ConvEngine
{
  public:
    /**
     * @param spectra kernel-spectrum cache the FFT path draws from;
     *                null = a private cache (still reused across calls
     *                on this engine). Pass the registry's per-model
     *                cache to share spectra across worker replicas.
     * @param path    force the direct or FFT path (Auto = crossover)
     */
    explicit DirectEngine(
        std::shared_ptr<tiling::KernelSpectrumCache> spectra = nullptr,
        ConvPath path = ConvPath::Auto);

    Tensor convolve(const Tensor &input,
                    const std::vector<Tensor> &weights,
                    const std::vector<double> &bias, size_t stride,
                    signal::ConvMode mode) const override;

    /** Fused batch: on the frequency row path, the input-row spectra
     *  of all N inputs run as one dispatch, kernel-row spectra are
     *  fetched once for the whole batch, and the (input, output
     *  channel) fan-out crosses requests. Bit-identical to looped
     *  convolve. */
    std::vector<Tensor>
    convolveBatch(const std::vector<Tensor> &inputs,
                  const std::vector<Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const override;

    std::string name() const override { return "direct"; }

    /** The kernel-spectrum cache this engine populates and reads. */
    std::shared_ptr<tiling::KernelSpectrumCache>
    spectrumCache() const override
    {
        return spectra_;
    }

  private:
    /** The one body of convolve and convolveBatch: outs[i] (sized
     *  like inputs, all one shape) receives the layer's output for
     *  inputs[i]. */
    void convolveInputs(std::span<const Tensor> inputs,
                        const std::vector<Tensor> &weights,
                        const std::vector<double> &bias, size_t stride,
                        signal::ConvMode mode,
                        std::span<Tensor> outs) const;

    std::shared_ptr<tiling::KernelSpectrumCache> spectra_;
    ConvPath path_;
};

/** Numerical model of PhotoFourier execution. */
struct PhotoFourierEngineConfig
{
    /** Hardware 1D convolution size (input waveguides per PFCU). */
    size_t n_conv = 256;

    /** Activation / weight DAC resolution; 0 bits = ideal. */
    int dac_bits = 8;

    /** ADC resolution for partial-sum readout; 0 = full precision
     *  partial sums (the fp_psum reference of Figure 7). */
    int adc_bits = 8;

    /** Temporal accumulation depth N_TA (channels per PD readout). */
    size_t temporal_accumulation_depth = 16;

    /** Tile rows with zero padding (exact Same mode). Off by default,
     *  reproducing the paper's edge-effect approximation. */
    bool zero_pad_rows = false;

    /** Inject photodetector sensing noise per readout sample. */
    bool noise = false;

    /** Detector SNR target (dB) when noise is on (Section VI-A). */
    double snr_db = 20.0;

    /**
     * Noise seed (deterministic experiments). The per-readout noise
     * stream is derived from this seed and the call's quantized
     * activations and weights, so a given (input, weights) pair always
     * sees the same noise — across runs, threads, and schedulers.
     */
    uint64_t noise_seed = 1;

    /**
     * Run the 1D convolutions through the field-level optical JTC
     * simulation instead of the (numerically identical) digital
     * backend. Slow; for end-to-end validation and demos.
     */
    bool optical_backend = false;

    /**
     * Digital 1D-backend selection for the tiled path (ignored when
     * optical_backend is set): Auto picks sliding vs real-FFT
     * correlation per tile shape by the measured crossover; Direct
     * and Fft force one path (tests, benchmarks).
     */
    ConvPath conv_path = ConvPath::Auto;
};

/**
 * Row-tiled, quantization-aware engine.
 *
 * The 1D convolutions run on the exact digital backend (the optical
 * path is validated equal to it elsewhere); what this engine adds is
 * the numerics of the mixed-signal system around the optics.
 */
class PhotoFourierEngine : public ConvEngine
{
  public:
    /**
     * @param config  mixed-signal numerics settings
     * @param spectra kernel-spectrum cache for the FFT backend; null =
     *                a private cache (spectra still amortize across
     *                calls on this engine). The serving layer passes
     *                the registry's per-(model, version) cache so all
     *                worker replicas share one set of spectra.
     */
    explicit PhotoFourierEngine(
        PhotoFourierEngineConfig config = {},
        std::shared_ptr<tiling::KernelSpectrumCache> spectra = nullptr);

    Tensor convolve(const Tensor &input,
                    const std::vector<Tensor> &weights,
                    const std::vector<double> &bias, size_t stride,
                    signal::ConvMode mode) const override;

    /** Fused batch: the input-independent mixed-signal prep — weight
     *  DAC quantization, the pseudo-negative (p, n) split, and the
     *  tiled-convolution plan/backend — runs once for all N inputs.
     *  Per-request numerics (activation quantization, the per-call
     *  noise key, ADC calibration) stay per input, so outs[i] is
     *  bit-identical to convolve(inputs[i], ...) even with sensing
     *  noise on. */
    std::vector<Tensor>
    convolveBatch(const std::vector<Tensor> &inputs,
                  const std::vector<Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const override;

    std::string name() const override { return "photofourier"; }

    /** The configuration. */
    const PhotoFourierEngineConfig &config() const { return config_; }

    /** The kernel-spectrum cache this engine populates and reads. */
    std::shared_ptr<tiling::KernelSpectrumCache>
    spectrumCache() const override
    {
        return spectra_;
    }

  private:
    /** The one body of convolve and convolveBatch: the weight prep
     *  and tiling plan are built once, then every input runs
     *  convolvePrepared. outs is sized like inputs (all one shape). */
    void convolveInputs(std::span<const Tensor> inputs,
                        const std::vector<Tensor> &weights,
                        const std::vector<double> &bias, size_t stride,
                        signal::ConvMode mode,
                        std::span<Tensor> outs) const;

    /** Everything input-independent that convolve() sets up before
     *  touching activations: the DAC-quantized weights and their
     *  pseudo-negative (p, n) split. Built once per call and shared
     *  read-only by every input. */
    struct PreparedLayer;

    /** Quantize `weights` through the layer-range DAC and split the
     *  result into the pseudo-negative (p, n) pair. */
    PreparedLayer
    prepareLayer(const std::vector<Tensor> &weights) const;

    /** The per-input tail of convolve(): activation quantization,
     *  per-call noise key, group charges, ADC readout. Pure function
     *  of (input, prepared state), so an input's output does not
     *  depend on the batch it rides in. */
    Tensor convolvePrepared(const Tensor &input,
                            const PreparedLayer &prep,
                            const tiling::TiledConvolution &tiled,
                            const std::vector<double> &bias,
                            size_t stride,
                            signal::ConvMode mode) const;

    PhotoFourierEngineConfig config_;
    std::shared_ptr<tiling::KernelSpectrumCache> spectra_;

    /** Health-facing gauges (pf_photonic_snr_db, pf_photonic_
     *  saturation), resolved once from the global registry so
     *  convolve() records with two relaxed stores — no lookups, no
     *  allocation on the hot path. The SLO rule snr_floor_db
     *  (obs/health) reads the first one. */
    obs::Gauge *snr_gauge_ = nullptr;
    obs::Gauge *saturation_gauge_ = nullptr;
};

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_CONV_ENGINE_HH
