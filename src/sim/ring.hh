/**
 * @file
 * The FIFO ring buffer behind the hot paths' queues: the hint
 * ingress's pending and draining queues and each microservice
 * instance's wait queue.
 */

#ifndef SOC_SIM_RING_HH
#define SOC_SIM_RING_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace soc
{
namespace sim
{

/**
 * FIFO ring over a vector: push at the back, pop at the front,
 * index from the front.  It grows by doubling (16 entries first) up
 * to an optional limit, never shrinks, and keeps its buffer across
 * clear() and swap(), so a warm ring allocates nothing.
 */
template <class T>
class Ring
{
  public:
    static constexpr std::size_t kNoLimit =
        std::numeric_limits<std::size_t>::max();

    explicit Ring(std::size_t limit = kNoLimit) : limit_(limit) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const T &operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }

    /** Append @p value.  A ring holding its limit throws
     *  std::length_error and is left unchanged. */
    void
    push(const T &value)
    {
        if (size_ == buf_.size())
            grow();
        (*this)[size_] = value;
        ++size_;
    }

    /** Remove and return the front entry. */
    T
    pop()
    {
        assert(size_ > 0);
        const T front = buf_[head_];
        head_ = wrap(head_ + 1);
        if (--size_ == 0)
            head_ = 0;
        return front;
    }

    /** Remove entry @p i, shifting the shorter side (as
     *  std::deque::erase does). */
    void
    erase(std::size_t i)
    {
        assert(i < size_);
        if (i < size_ / 2) {
            for (std::size_t k = i; k > 0; --k)
                (*this)[k] = (*this)[k - 1];
            pop();
        } else {
            for (std::size_t k = i; k + 1 < size_; ++k)
                (*this)[k] = (*this)[k + 1];
            if (--size_ == 0)
                head_ = 0;
        }
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    void
    swap(Ring &other) noexcept
    {
        buf_.swap(other.buf_);
        std::swap(head_, other.head_);
        std::swap(size_, other.size_);
        std::swap(limit_, other.limit_);
    }

  private:
    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    void
    grow()
    {
        if (size_ >= limit_)
            throw std::length_error("Ring: full at its limit");
        std::vector<T> grown(
            std::min(limit_, std::max(kMinSlots, 2 * buf_.size())));
        for (std::size_t i = 0; i < size_; ++i)
            grown[i] = (*this)[i];
        buf_.swap(grown);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t limit_;
};

} // namespace sim
} // namespace soc

#endif // SOC_SIM_RING_HH
