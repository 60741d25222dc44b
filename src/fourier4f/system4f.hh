/**
 * @file
 * Free-space 4F Fourier-optics convolution system (paper Sections I
 * and VIII — the rival architecture JTC is compared against).
 *
 * A 4F system places the input at the front focal plane of a lens,
 * multiplies its 2D Fourier transform point-wise with a *complex*
 * Fourier-domain filter H = FT(kernel) at the Fourier plane, and
 * transforms back with a second lens. Consequences the paper calls
 * out, modelled here:
 *
 *  - the filter must be complex-valued (amplitude AND phase
 *    modulators at every Fourier-plane pixel),
 *  - the filter is as large as the input (N^2 complex values even for
 *    a 3x3 kernel), wasting weight-modulation bandwidth,
 *  - finite modulator precision quantizes amplitude and phase, which
 *    perturbs the computed convolution.
 *
 * System4f::convolve is the functional model; Requirements4f tallies
 * the hardware demands so benches can compare against the JTC.
 */

#ifndef PHOTOFOURIER_FOURIER4F_SYSTEM4F_HH
#define PHOTOFOURIER_FOURIER4F_SYSTEM4F_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "signal/fft2d.hh"
#include "signal/plane_spectrum_cache.hh"

namespace photofourier {
namespace fourier4f {

/** Configuration of the 4F simulation. */
struct System4fConfig
{
    /** Fourier-filter amplitude modulator resolution; 0 = ideal. */
    int amplitude_bits = 0;

    /** Fourier-filter phase modulator resolution; 0 = ideal. */
    int phase_bits = 0;
};

/** Hardware demand of one convolution configuration. */
struct Requirements4f
{
    size_t modulators = 0;        ///< Fourier-plane complex pixels
    size_t dofs = 0;              ///< scalar degrees of freedom (2x)
    size_t weight_values_per_update = 0; ///< rewritten per new filter

    /** JTC equivalent for the same convolution (real spatial taps). */
    size_t jtc_weight_taps = 0;

    /** Bandwidth waste factor of 4F vs JTC for weight updates. */
    double
    bandwidthWasteFactor() const
    {
        return static_cast<double>(weight_values_per_update) /
               static_cast<double>(jtc_weight_taps);
    }
};

/** Free-space 4F convolution engine. */
class System4f
{
  public:
    /**
     * @param config  modulator resolutions
     * @param spectra cache of programmed Fourier filters, keyed on
     *                (kernel bytes, plane geometry, modulator bits):
     *                a 4F system programs its filter once per kernel
     *                and then streams activations through the lens,
     *                and the simulation mirrors that — the filter FT
     *                (and its quantization) runs once per distinct
     *                kernel. Null = a private cache, still reused
     *                across calls on this instance.
     */
    explicit System4f(
        System4fConfig config = {},
        std::shared_ptr<signal::PlaneSpectrumCache> spectra = nullptr);

    /**
     * Convolve image with kernel through the 4F path. Returns the
     * full linear convolution (rows+krows-1 x cols+kcols-1), matching
     * signal::convolve2dFft up to modulator quantization.
     */
    signal::Matrix convolve(const signal::Matrix &image,
                            const signal::Matrix &kernel) const;

    /**
     * convolve writing into `out` (resized, capacity reused): a bank
     * of one through applyBatchInto's pass. With the kernel's filter
     * already programmed (warm cache) it is an r2c of the input plane,
     * a pointwise product against the cached filter half-spectrum, and
     * a c2r back — no heap allocation at all.
     */
    void apply(const signal::Matrix &image, const signal::Matrix &kernel,
               signal::Matrix &out) const;

    /**
     * Convolve one image with k same-shape kernels in one pass through
     * the optics. The input-side lens runs ONCE (the 4F input
     * transform does not depend on the filter), the k programmed
     * filters come from a single cached filter *bank* — one
     * PlaneSpectrumCache entry holding all k half-spectra
     * contiguously, the software analogue of programming the Fourier
     * plane once per filter set — and the k output-side transforms
     * fuse through Fft2dPlan::inverseRealBatchInto. Per-kernel cost
     * falls from (2 transforms + products) to (1 + 1/k transforms +
     * products). Every plane's arithmetic is independent of k, so
     * outs[j] is bit-identical to apply(image, kernels[j], .).
     * Allocation-free in steady state once outs' capacity is warm.
     */
    void applyBatchInto(const signal::Matrix &image,
                        const std::vector<signal::Matrix> &kernels,
                        std::vector<signal::Matrix> &outs) const;

    /**
     * The Fourier-domain filter actually programmed: FT of the
     * zero-padded kernel with amplitude/phase quantization applied.
     */
    signal::ComplexMatrix programFilter(const signal::Matrix &kernel,
                                        size_t rows,
                                        size_t cols) const;

    /** Hardware demands for an input_size x input_size convolution
     *  with a kernel_size x kernel_size kernel. */
    static Requirements4f requirements(size_t input_size,
                                       size_t kernel_size);

    const System4fConfig &config() const { return config_; }

    /** The programmed-filter spectrum cache of this instance. */
    const std::shared_ptr<signal::PlaneSpectrumCache> &
    spectrumCache() const
    {
        return spectra_;
    }

  private:
    /** The one body of apply and applyBatchInto: outs[j] (sized like
     *  kernels) receives the convolution with kernels[j]. */
    void applyBank(const signal::Matrix &image,
                   std::span<const signal::Matrix> kernels,
                   std::span<signal::Matrix> outs) const;

    /** Cached bank of k programmed filter half-spectra (filter j at
     *  offset j*rows*(cols/2+1)), one cache entry per kernel set. */
    std::shared_ptr<const signal::ComplexVector> filterBankHalfSpectrum(
        std::span<const signal::Matrix> kernels, size_t rows,
        size_t cols) const;

    System4fConfig config_;
    std::shared_ptr<signal::PlaneSpectrumCache> spectra_;
};

} // namespace fourier4f
} // namespace photofourier

#endif // PHOTOFOURIER_FOURIER4F_SYSTEM4F_HH
