/**
 * @file
 * The one bounded record store under both obs sinks: TraceSink keeps
 * spans in it and LogSink keeps events in it.
 */

#ifndef PHOTOFOURIER_OBS_RING_HH
#define PHOTOFOURIER_OBS_RING_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace photofourier {
namespace obs {

/**
 * A preallocated ring of fixed-size `Record` slots that overwrites
 * its oldest record when full, so memory stays constant under any
 * record rate. record() copies one slot under a mutex: O(1) and
 * allocation-free. snapshot() copies the live records out oldest
 * first, each converted to an owning `Value` (constructible from a
 * `const Record &`).
 */
template <typename Record, typename Value = Record>
class BoundedRing
{
  public:
    explicit BoundedRing(size_t capacity)
        : ring_(capacity == 0 ? 1 : capacity)
    {
    }

    /** Append one record, overwriting the oldest when full. */
    void
    record(const Record &rec)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ring_[next_] = rec;
        next_ = (next_ + 1) % ring_.size();
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
    }

    /** Copy out every live record, oldest first. */
    std::vector<Value>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Value> out;
        out.reserve(size_);
        const size_t start = (next_ + ring_.size() - size_) % ring_.size();
        for (size_t i = 0; i < size_; ++i)
            out.emplace_back(ring_[(start + i) % ring_.size()]);
        return out;
    }

    /** Records overwritten because the ring was full. */
    uint64_t
    dropped() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return dropped_;
    }

    /** Number of live records. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    size_t capacity() const { return ring_.size(); }

    /** Forget every record (tests). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        next_ = 0;
        size_ = 0;
        dropped_ = 0;
    }

  private:
    // Lock order: mutex_ is a leaf lock — record() and snapshot()
    // acquire nothing else while holding it.
    mutable std::mutex mutex_;
    std::vector<Record> ring_;
    size_t next_ = 0;
    size_t size_ = 0;
    uint64_t dropped_ = 0;
};

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_RING_HH
