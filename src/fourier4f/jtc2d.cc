#include "fourier4f/jtc2d.hh"

#include <algorithm>

#include "common/logging.hh"
#include "jtc/jtc_system.hh"
#include "signal/fft2d_plan.hh"

namespace photofourier {
namespace fourier4f {

namespace {

// Workspace slot 26: the 2D JTC share of the optical-simulator range
// (see the slot discipline in fft_plan.hh) — the kernel-block padding
// scratch on cache misses. The per-call signal plane is a
// thread_local Matrix (the plan's joint-autocorrelation core draws
// its own scratch from slots 2-3/7).
constexpr size_t kSlotJtc2dPad = 26;

} // namespace

Jtc2dLayout
Jtc2dLayout::design(size_t signal_rows, size_t signal_cols,
                    size_t kernel_rows, size_t kernel_cols)
{
    return designBatch(signal_rows, signal_cols, kernel_rows, kernel_cols,
                       1);
}

Jtc2dLayout
Jtc2dLayout::designBatch(size_t signal_rows, size_t signal_cols,
                         size_t kernel_rows, size_t kernel_cols,
                         size_t kernel_count)
{
    // The row axis carries every guard band: it is the 1D joint plane
    // with Ls -> Sr and Lk -> Kr, so one axis design serves both (a
    // batch of one is the classic separation).
    const jtc::JtcPlaneLayout row_axis =
        jtc::JtcPlaneLayout::designBatch(signal_rows, kernel_rows,
                                         kernel_count);
    Jtc2dLayout layout;
    layout.signal_rows = signal_rows;
    layout.signal_cols = signal_cols;
    layout.kernel_rows = kernel_rows;
    layout.kernel_cols = kernel_cols;
    layout.kernel_row_pos = row_axis.kernel_pos;
    layout.plane_rows = row_axis.plane_size;
    layout.kernel_count = row_axis.kernel_count;
    layout.kernel_row_step = row_axis.kernel_step;
    // Columns only need to avoid circular aliasing of the correlation
    // support (all blocks share the column origin).
    layout.plane_cols =
        signal::nextPowerOfTwo(signal_cols + kernel_cols);
    return layout;
}

Jtc2d::Jtc2d(std::shared_ptr<signal::PlaneSpectrumCache> spectra)
    : spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<signal::PlaneSpectrumCache>())
{
}

std::shared_ptr<const signal::ComplexVector>
Jtc2d::kernelBankSpectrum(std::span<const signal::Matrix> kernels,
                          const Jtc2dLayout &layout) const
{
    // One entry for the whole tiled bank: the salt pins the tiling
    // geometry and the block shape (the payload bytes alone do not
    // encode it), the payload is the concatenated kernel bytes, and
    // the lens linearity folds every block into one summed spectrum.
    uint64_t salt = signal::planeSpectrumSalt(layout.plane_rows);
    salt = signal::planeSpectrumSalt(layout.plane_cols, salt);
    salt = signal::planeSpectrumSalt(layout.kernel_row_pos, salt);
    salt = signal::planeSpectrumSalt(layout.kernel_row_step, salt);
    salt = signal::planeSpectrumSalt(layout.kernel_count, salt);
    salt = signal::planeSpectrumSalt(kernels[0].cols, salt);

    struct Ctx
    {
        std::span<const signal::Matrix> kernels;
        const Jtc2dLayout *layout;
    } ctx{kernels, &layout};
    const size_t hc = layout.plane_cols / 2 + 1;
    return spectra_->spectrum(
        salt, signal::bankPayload(kernels, &signal::Matrix::data),
        layout.plane_rows * hc, [&ctx](signal::ComplexVector &out) {
            const size_t rows = ctx.layout->plane_rows;
            const size_t cols = ctx.layout->plane_cols;
            const auto plan = signal::fft2dPlanFor(rows, cols);
            std::vector<double> &padded =
                signal::threadFftWorkspace().realBuffer(kSlotJtc2dPad,
                                                        rows * cols);
            std::fill(padded.begin(), padded.end(), 0.0);
            for (size_t j = 0; j < ctx.kernels.size(); ++j) {
                const signal::Matrix &kern = ctx.kernels[j];
                const size_t row0 =
                    ctx.layout->kernel_row_pos +
                    j * ctx.layout->kernel_row_step;
                for (size_t r = 0; r < kern.rows; ++r)
                    std::copy(kern.data.begin() + r * kern.cols,
                              kern.data.begin() + (r + 1) * kern.cols,
                              padded.begin() + (row0 + r) * cols);
            }
            plan->forwardReal(padded.data(), out.data());
        });
}

void
Jtc2d::jointPlane(const signal::Matrix &s,
                  std::span<const signal::Matrix> kernels,
                  const Jtc2dLayout &layout, signal::Matrix &out) const
{
    const size_t rows = layout.plane_rows;
    const size_t cols = layout.plane_cols;
    const auto plan = signal::fft2dPlanFor(rows, cols);

    // Static kernel blocks: transformed once per (bank, layout) and
    // cached; fetched before the signal plane is built.
    const auto kspec = kernelBankSpectrum(kernels, layout);

    // Signal block on the (real) joint plane; the kernel blocks stay
    // zero — their contribution is the cached spectrum, added between
    // the lenses (the lens transform is linear).
    static thread_local signal::Matrix plane;
    plane.resize(rows, cols);
    for (size_t r = 0; r < s.rows; ++r)
        std::copy(s.data.begin() + r * s.cols,
                  s.data.begin() + (r + 1) * s.cols,
                  plane.data.begin() + r * cols);

    // Lens -> intensity -> lens: ifft2d(|fft2d(E)|^2) is the circular
    // 2D autocorrelation (correlation theorem), exactly as in 1D.
    plan->jointAutocorrelationInto(plane, kspec->data(), out);
}

signal::Matrix
Jtc2d::outputPlane(const signal::Matrix &s, const signal::Matrix &k) const
{
    signal::Matrix out;
    outputPlaneInto(s, k, out);
    return out;
}

void
Jtc2d::outputPlaneInto(const signal::Matrix &s, const signal::Matrix &k,
                       signal::Matrix &out) const
{
    jointPlane(s, {&k, 1},
               Jtc2dLayout::design(s.rows, s.cols, k.rows, k.cols), out);
}

signal::Matrix
Jtc2d::correlate(const signal::Matrix &s, const signal::Matrix &k) const
{
    signal::Matrix out;
    correlateInto(s, k, out);
    return out;
}

void
Jtc2d::correlateInto(const signal::Matrix &s, const signal::Matrix &k,
                     signal::Matrix &out) const
{
    correlateBank(s, {&k, 1}, {&out, 1});
}

void
Jtc2d::correlateBatchInto(const signal::Matrix &s,
                          const std::vector<signal::Matrix> &kernels,
                          std::vector<signal::Matrix> &outs) const
{
    outs.resize(kernels.size());
    correlateBank(s, kernels, outs);
}

void
Jtc2d::correlateBank(const signal::Matrix &s,
                     std::span<const signal::Matrix> kernels,
                     std::span<signal::Matrix> outs) const
{
    pf_assert(!kernels.empty(), "2D JTC correlation with no kernels");
    for (const auto &k : kernels)
        pf_assert(k.rows == kernels[0].rows &&
                      k.cols == kernels[0].cols,
                  "tiled kernels must share one shape");
    pf_assert(s.rows >= kernels[0].rows && s.cols >= kernels[0].cols,
              "kernel larger than signal");
    const auto layout = Jtc2dLayout::designBatch(
        s.rows, s.cols, kernels[0].rows, kernels[0].cols,
        kernels.size());
    const size_t rows = layout.plane_rows;
    const size_t cols = layout.plane_cols;

    // ONE 2D Fourier pass serves every kernel of the bank. The full
    // plane is per-thread scratch: steady state never allocates.
    static thread_local signal::Matrix out_plane;
    jointPlane(s, kernels, layout, out_plane);

    // Per-kernel readout at each block's own row displacement; the
    // designBatch guard bands keep every read row clear of the other
    // kernels' terms.
    const size_t out_rows = s.rows - kernels[0].rows + 1;
    const size_t out_cols = s.cols - kernels[0].cols + 1;
    for (size_t j = 0; j < kernels.size(); ++j) {
        const size_t q =
            layout.kernel_row_pos + j * layout.kernel_row_step;
        signal::Matrix &out = outs[j];
        out.resizeNoFill(out_rows, out_cols);
        for (size_t i = 0; i < out_rows; ++i) {
            const size_t dr = (q - i) % rows;
            for (size_t c = 0; c < out_cols; ++c) {
                const size_t dc = (cols - c) % cols;
                out.at(i, c) = out_plane.at(dr, dc);
            }
        }
    }
}

} // namespace fourier4f
} // namespace photofourier
