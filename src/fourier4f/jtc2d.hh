/**
 * @file
 * Free-space 2D Joint Transform Correlator.
 *
 * The conventional JTC [71] the paper's on-chip system descends from:
 * signal and kernel sit side by side on a 2D input plane; a 2D lens,
 * square-law detection and a second 2D lens yield an output plane with
 * the 2D auto-correlation terms spatially separated. Exists here to
 * validate the on-chip 1D + row-tiling pipeline against native 2D
 * Fourier optics (the row-edge effect is the only difference), and to
 * give the "free-space vs on-chip" comparison substance.
 *
 * The whole optical path runs on the cached 2D real-FFT plan
 * (signal::Fft2dPlan): the joint plane is real, so both lenses ride
 * the half-spectrum transforms, and the static kernel blocks'
 * Fourier-plane contribution is transformed once per (kernel bank,
 * layout) through a content-addressed signal::PlaneSpectrumCache —
 * only the streamed signal is transformed per call. There is one
 * body: a single kernel is a bank of one on the classic layout.
 */

#ifndef PHOTOFOURIER_FOURIER4F_JTC2D_HH
#define PHOTOFOURIER_FOURIER4F_JTC2D_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "signal/fft2d.hh"
#include "signal/plane_spectrum_cache.hh"

namespace photofourier {
namespace fourier4f {

/** Plane geometry for a non-aliasing 2D JTC. */
struct Jtc2dLayout
{
    size_t signal_rows, signal_cols;
    size_t kernel_rows, kernel_cols;
    size_t kernel_row_pos; ///< vertical offset of the kernel block
    size_t plane_rows, plane_cols;

    /** Tiled kernel blocks sharing this plane (1 = classic layout). */
    size_t kernel_count = 1;

    /** Row spacing between consecutive tiled kernel blocks (0 =
     *  single). Block j starts at kernel_row_pos + j*kernel_row_step. */
    size_t kernel_row_step = 0;

    /** Design a layout separating the three output terms:
     *  designBatch with kernel_count = 1. */
    static Jtc2dLayout design(size_t signal_rows, size_t signal_cols,
                              size_t kernel_rows, size_t kernel_cols);

    /**
     * Layout tiling `kernel_count` kernel blocks down ONE joint plane
     * so a single 2D Fourier pass yields every kernel's correlation.
     * The row axis is the 1D joint plane (JtcPlaneLayout::designBatch
     * with Ls -> Sr and Lk -> Kr): blocks at row spacing
     * S = Sr + 3*Kr - 2 interleave each signal-kernel cross band
     * between the kernel-kernel bands with one clear row each side;
     * plane_rows >= 2*q_last + 2*Kr clears the mirrors; columns are
     * unchanged (all blocks share the column origin).
     */
    static Jtc2dLayout designBatch(size_t signal_rows,
                                   size_t signal_cols,
                                   size_t kernel_rows,
                                   size_t kernel_cols,
                                   size_t kernel_count);
};

/** Free-space 2D JTC simulator (noiseless). */
class Jtc2d
{
  public:
    /**
     * @param spectra kernel-block spectrum cache, keyed on the kernel
     *                bytes and the plane layout. Null = a private
     *                cache (spectra still amortize across calls on
     *                this instance).
     */
    explicit Jtc2d(
        std::shared_ptr<signal::PlaneSpectrumCache> spectra = nullptr);

    /**
     * Full output plane: the circular 2D autocorrelation of the joint
     * input plane, with the cross-correlation terms displaced
     * vertically by the input separation.
     */
    signal::Matrix outputPlane(const signal::Matrix &s,
                               const signal::Matrix &k) const;

    /** outputPlane writing into `out` (resized, capacity reused);
     *  allocation-free with a warm kernel-spectrum cache. */
    void outputPlaneInto(const signal::Matrix &s,
                         const signal::Matrix &k,
                         signal::Matrix &out) const;

    /**
     * Extracted 2D sliding correlation (the CNN convolution),
     * `Valid` support: (Sr-Kr+1) x (Sc-Kc+1).
     */
    signal::Matrix correlate(const signal::Matrix &s,
                             const signal::Matrix &k) const;

    /** correlate writing into `out`: correlateBatchInto's pass with a
     *  bank of one. Allocation-free when warm. */
    void correlateInto(const signal::Matrix &s, const signal::Matrix &k,
                       signal::Matrix &out) const;

    /**
     * k same-shape kernels tiled down one joint plane
     * (Jtc2dLayout::designBatch), their summed block spectrum cached
     * as a single bank entry — one r2c + |.|^2 + c2r on the tiled
     * plane computes every kernel's 2D correlation, and outs[j] is
     * read at kernel j's own row displacement. Matches k bank-of-one
     * calls within FFT rounding of the larger plane. Allocation-free
     * with a warm bank cache once outs' capacity is warm.
     */
    void correlateBatchInto(const signal::Matrix &s,
                            const std::vector<signal::Matrix> &kernels,
                            std::vector<signal::Matrix> &outs) const;

    /** The kernel-block spectrum cache of this instance. */
    const std::shared_ptr<signal::PlaneSpectrumCache> &
    spectrumCache() const
    {
        return spectra_;
    }

  private:
    /** The one body of correlateInto and correlateBatchInto: outs[j]
     *  (sized like kernels) receives the correlation with kernels[j]. */
    void correlateBank(const signal::Matrix &s,
                       std::span<const signal::Matrix> kernels,
                       std::span<signal::Matrix> outs) const;

    /** The full output plane of `s` beside the kernel blocks of
     *  `layout` (the optical path shared by outputPlaneInto and
     *  correlateBank). */
    void jointPlane(const signal::Matrix &s,
                    std::span<const signal::Matrix> kernels,
                    const Jtc2dLayout &layout, signal::Matrix &out) const;

    /** Cached summed half-spectrum of every tiled kernel block
     *  (block j at row kernel_row_pos + j*kernel_row_step) — one
     *  bank entry per (kernel bytes, tiling geometry). */
    std::shared_ptr<const signal::ComplexVector> kernelBankSpectrum(
        std::span<const signal::Matrix> kernels,
        const Jtc2dLayout &layout) const;

    std::shared_ptr<signal::PlaneSpectrumCache> spectra_;
};

} // namespace fourier4f
} // namespace photofourier

#endif // PHOTOFOURIER_FOURIER4F_JTC2D_HH
