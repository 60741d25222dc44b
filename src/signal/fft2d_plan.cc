#include "signal/fft2d_plan.hh"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "arch/simd.hh"
#include "common/logging.hh"

namespace photofourier {
namespace signal {

namespace {

// Workspace slots 2-3 are reserved for Fft2dPlan internals (see the
// slot discipline in fft_plan.hh): the transpose scratch and the
// inverse-real intermediate can both be live while the row passes
// recurse into FftPlan's own slots 0-1.
constexpr size_t kSlotTranspose = 2;
constexpr size_t kSlotHalfScratch = 3;
// Slot 7 (signal-level helper range): the autocorrelation half-
// spectrum, live across a forwardReal + inverseReal pair that uses
// slots 2-3 internally.
constexpr size_t kSlotAutoCorrHalf = 7;

} // namespace

void
transposeInto(const Complex *in, size_t rows, size_t cols, Complex *out)
{
    pf_assert(in != nullptr && out != nullptr, "transposeInto on null");
    // Cache blocking (32x32 complex tiles = 16 KiB working set) and
    // the vector micro-tiles both live in the dispatched kernel;
    // std::complex<double> guarantees the (re, im) double-pair layout
    // the kernel operates on.
    simd::kernels().transposeComplex(
        reinterpret_cast<const double *>(in), rows, cols,
        reinterpret_cast<double *>(out));
}

Fft2dPlan::Fft2dPlan(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), row_plan_(fftPlanFor(cols)),
      col_plan_(fftPlanFor(rows))
{
    pf_assert(rows >= 1 && cols >= 1, "empty Fft2dPlan geometry");
}

void
Fft2dPlan::rowBatch(const FftPlan &plan, Complex *data, size_t count,
                    bool inverse) const
{
    const size_t n = plan.size();
    if (count == 0)
        return;
    // Small batches run inline (same amortization bound as batchFft);
    // the plain loop also keeps the path allocation-free — no
    // std::function is materialized at all.
    if (count * n < kParallelDispatchThreshold ||
        defaultFftThreads() <= 1) {
        for (size_t i = 0; i < count; ++i)
            plan.execute(data + i * n, inverse);
        return;
    }
    // One-reference capture so the std::function stays within its
    // small-buffer storage — the dispatch itself never allocates.
    struct Job
    {
        const FftPlan *plan;
        Complex *data;
        size_t n;
        bool inverse;
    } job{&plan, data, n, inverse};
    parallelFor(count, 0, [&job](size_t i) {
        job.plan->execute(job.data + i * job.n, job.inverse);
    });
}

void
Fft2dPlan::execute(ComplexMatrix &m, bool inverse) const
{
    pf_assert(m.rows == rows_ && m.cols == cols_, "Fft2dPlan for ",
              rows_, "x", cols_, " executed on ", m.rows, "x", m.cols);

    // Row pass: rows are contiguous in the row-major layout.
    rowBatch(*row_plan_, m.data.data(), rows_, inverse);

    // Column pass: blocked transpose, batch the now-contiguous
    // columns, blocked transpose back.
    ComplexVector &t = threadFftWorkspace().complexBuffer(
        kSlotTranspose, rows_ * cols_);
    transposeInto(m.data.data(), rows_, cols_, t.data());
    rowBatch(*col_plan_, t.data(), cols_, inverse);
    transposeInto(t.data(), cols_, rows_, m.data.data());
}

void
Fft2dPlan::executeInto(const ComplexMatrix &in, ComplexMatrix &out,
                       bool inverse) const
{
    pf_assert(in.rows == rows_ && in.cols == cols_, "Fft2dPlan for ",
              rows_, "x", cols_, " executed on ", in.rows, "x",
              in.cols);
    out.resizeNoFill(rows_, cols_);
    std::copy(in.data.begin(), in.data.end(), out.data.begin());
    execute(out, inverse);
}

void
Fft2dPlan::forwardReal(const double *in, Complex *half) const
{
    forwardRealBatchInto(in, 1, half);
}

void
Fft2dPlan::inverseReal(const Complex *half, double *out) const
{
    inverseRealBatchInto(half, 1, out);
}

void
Fft2dPlan::forwardRealBatchInto(const double *in, size_t count,
                                Complex *half) const
{
    pf_assert(in != nullptr && half != nullptr,
              "Fft2dPlan::forwardRealBatchInto on null data");
    if (count == 0)
        return;
    const size_t hc = halfCols();
    const size_t plane = rows_ * cols_;
    const size_t half_plane = rows_ * hc;

    // Fused row pass: one dispatch over every row of every plane.
    if (count * plane < kParallelDispatchThreshold ||
        defaultFftThreads() <= 1) {
        for (size_t r = 0; r < count * rows_; ++r)
            row_plan_->executeReal(in + r * cols_, half + r * hc);
    } else {
        struct Job
        {
            const FftPlan *plan;
            const double *in;
            Complex *half;
            size_t cols, hc;
        } job{row_plan_.get(), in, half, cols_, hc};
        parallelFor(count * rows_, 0, [&job](size_t r) {
            job.plan->executeReal(job.in + r * job.cols,
                                  job.half + r * job.hc);
        });
    }

    // Shared column pass: the stacked (count*rows) x hc matrix is the
    // planes laid end to end, so one blocked transpose makes every
    // plane's columns contiguous — segment (i, c) of the transposed
    // matrix holds exactly plane i's half-column c — and one batch of
    // count*hc length-rows transforms covers all planes.
    ComplexVector &t = threadFftWorkspace().complexBuffer(
        kSlotTranspose, count * half_plane);
    transposeInto(half, count * rows_, hc, t.data());
    rowBatch(*col_plan_, t.data(), count * hc, /*inverse=*/false);
    transposeInto(t.data(), hc, count * rows_, half);
}

void
Fft2dPlan::inverseRealBatchInto(const Complex *half, size_t count,
                                double *out) const
{
    pf_assert(half != nullptr && out != nullptr,
              "Fft2dPlan::inverseRealBatchInto on null data");
    if (count == 0)
        return;
    const size_t hc = halfCols();
    const size_t half_plane = rows_ * hc;
    FftWorkspace &ws = threadFftWorkspace();

    // Shared column pass (transpose pair + one fused inverse batch),
    // mirroring forwardRealBatchInto.
    ComplexVector &t =
        ws.complexBuffer(kSlotTranspose, count * half_plane);
    transposeInto(half, count * rows_, hc, t.data());
    rowBatch(*col_plan_, t.data(), count * hc, /*inverse=*/true);
    ComplexVector &h2 =
        ws.complexBuffer(kSlotHalfScratch, count * half_plane);
    transposeInto(t.data(), hc, count * rows_, h2.data());

    // Fused row pass: one dispatch of count*rows c2r transforms.
    if (count * rows_ * cols_ < kParallelDispatchThreshold ||
        defaultFftThreads() <= 1) {
        for (size_t r = 0; r < count * rows_; ++r)
            row_plan_->executeRealInverse(h2.data() + r * hc,
                                          out + r * cols_);
    } else {
        struct Job
        {
            const FftPlan *plan;
            const Complex *h2;
            double *out;
            size_t cols, hc;
        } job{row_plan_.get(), h2.data(), out, cols_, hc};
        parallelFor(count * rows_, 0, [&job](size_t r) {
            job.plan->executeRealInverse(job.h2 + r * job.hc,
                                         job.out + r * job.cols);
        });
    }
}

void
Fft2dPlan::forwardRealInto(const Matrix &in, ComplexMatrix &half) const
{
    pf_assert(in.rows == rows_ && in.cols == cols_, "Fft2dPlan for ",
              rows_, "x", cols_, " executed on ", in.rows, "x",
              in.cols);
    half.resizeNoFill(rows_, halfCols());
    forwardReal(in.data.data(), half.data.data());
}

void
Fft2dPlan::inverseRealInto(const ComplexMatrix &half, Matrix &out) const
{
    pf_assert(half.rows == rows_ && half.cols == halfCols(),
              "half-spectrum shape ", half.rows, "x", half.cols,
              " does not match plan ", rows_, "x", halfCols());
    out.resizeNoFill(rows_, cols_);
    inverseReal(half.data.data(), out.data.data());
}

void
Fft2dPlan::circularAutocorrelationInto(const Matrix &plane,
                                       Matrix &out) const
{
    jointAutocorrelationInto(plane, nullptr, out);
}

void
Fft2dPlan::jointAutocorrelationInto(const Matrix &plane,
                                    const Complex *static_half,
                                    Matrix &out) const
{
    pf_assert(plane.rows == rows_ && plane.cols == cols_,
              "Fft2dPlan for ", rows_, "x", cols_, " executed on ",
              plane.rows, "x", plane.cols);
    const size_t hc = halfCols();
    ComplexVector &half =
        threadFftWorkspace().complexBuffer(kSlotAutoCorrHalf,
                                           rows_ * hc);
    forwardReal(plane.data.data(), half.data());
    // |F|^2 of a real joint plane is centro-symmetric, so its stored
    // half is exactly the half-spectrum of the (real) autocorrelation.
    if (static_half != nullptr) {
        for (size_t i = 0; i < half.size(); ++i)
            half[i] = Complex(std::norm(half[i] + static_half[i]), 0.0);
    } else {
        for (auto &v : half)
            v = Complex(std::norm(v), 0.0);
    }
    out.resizeNoFill(rows_, cols_);
    inverseReal(half.data(), out.data.data());
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

namespace {

std::mutex plan2d_cache_mutex;
std::unordered_map<uint64_t, std::shared_ptr<const Fft2dPlan>>
    plan2d_cache;

uint64_t
planeKey(size_t rows, size_t cols)
{
    pf_assert(rows > 0 && cols > 0, "fft2dPlanFor empty geometry");
    pf_assert(rows <= 0xffffffffull && cols <= 0xffffffffull,
              "2D plan geometry out of range");
    return (static_cast<uint64_t>(rows) << 32) |
           static_cast<uint64_t>(cols);
}

} // namespace

std::shared_ptr<const Fft2dPlan>
fft2dPlanFor(size_t rows, size_t cols)
{
    const uint64_t key = planeKey(rows, cols);
    {
        std::lock_guard<std::mutex> lock(plan2d_cache_mutex);
        auto it = plan2d_cache.find(key);
        if (it != plan2d_cache.end())
            return it->second;
    }
    // Construct outside the lock: the ctor recurses into the 1D plan
    // cache (its own lock).
    auto plan = std::make_shared<const Fft2dPlan>(rows, cols);
    std::lock_guard<std::mutex> lock(plan2d_cache_mutex);
    auto [it, inserted] = plan2d_cache.emplace(key, std::move(plan));
    (void)inserted; // a racing thread may have built it first
    return it->second;
}

size_t
fft2dPlanCacheSize()
{
    std::lock_guard<std::mutex> lock(plan2d_cache_mutex);
    return plan2d_cache.size();
}

} // namespace signal
} // namespace photofourier
