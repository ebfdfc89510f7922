/**
 * @file
 * Growable ring-buffer deque for hot-path FIFO queues.
 *
 * std::deque never shrinks its chunk map, but libstdc++ allocates and
 * frees 512-byte element chunks as push_back/pop_front cycle across
 * chunk boundaries — a steady drip of allocations in steady state (the
 * residual ~0.06 allocs/op the queueing bench used to show came from
 * exactly this, two SlidingTimeWindow::record() calls per request).
 * RingDeque keeps one contiguous buffer and wraps head/tail indices
 * around it instead: once the buffer has grown to the high-water mark
 * of the queue, pushes and pops are allocation-free forever.
 *
 * Iteration order (operator[] from 0 to size()-1) is front-to-back,
 * matching std::deque, so index-based consumers port over unchanged.
 * Not thread-safe for concurrent mutation; const reads are pure.
 */

#ifndef IMSIM_UTIL_RING_HH
#define IMSIM_UTIL_RING_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace imsim {
namespace util {

/**
 * Double-ended FIFO over a growable power-of-two ring buffer.
 *
 * @tparam T element type; must be default-constructible and movable
 *           (the grow path move-relocates live elements in order).
 */
template <typename T> class RingDeque
{
  public:
    /** @return number of live elements. */
    std::size_t size() const { return count; }

    /** @return whether the deque is empty. */
    bool empty() const { return count == 0; }

    /** @return element @p i from the front (0 = oldest). */
    const T &operator[](std::size_t i) const
    {
        fatalIf(i >= count, "RingDeque: index out of range");
        return buffer[wrap(head + i)];
    }

    /** @copydoc operator[] */
    T &operator[](std::size_t i)
    {
        fatalIf(i >= count, "RingDeque: index out of range");
        return buffer[wrap(head + i)];
    }

    /** @return oldest element; FatalError when empty. */
    const T &front() const
    {
        fatalIf(count == 0, "RingDeque::front: empty");
        return buffer[head];
    }

    /** @return newest element; FatalError when empty. */
    const T &back() const
    {
        fatalIf(count == 0, "RingDeque::back: empty");
        return buffer[wrap(head + count - 1)];
    }

    /** @copydoc back() */
    T &back()
    {
        fatalIf(count == 0, "RingDeque::back: empty");
        return buffer[wrap(head + count - 1)];
    }

    /**
     * Call @p f(operator[](i), operator[](i + 1)) for each i in
     * [lo, hi), in order. The live range covers at most two contiguous
     * runs of the buffer, so the walk reads each run by raw pointer
     * with no per-index bound check or wrap, and visits the one pair
     * that straddles the buffer's end once in between. Requires
     * lo <= hi < size(); FatalError otherwise.
     */
    template <typename F>
    void
    forEachPair(std::size_t lo, std::size_t hi, F &&f) const
    {
        fatalIf(lo > hi || hi >= count,
                "RingDeque::forEachPair: range out of bounds");
        if (lo == hi)
            return;
        const T *data = buffer.data();
        const std::size_t last = buffer.size() - 1;
        const std::size_t p = wrap(head + lo);
        const std::size_t pairs = hi - lo;
        // Pairs whose both elements lie before the buffer's end.
        const std::size_t run = std::min(pairs, last - p);
        for (std::size_t k = p; k < p + run; ++k)
            f(data[k], data[k + 1]);
        if (run == pairs)
            return;
        f(data[last], data[0]);
        for (std::size_t k = 0; k + 1 < pairs - run; ++k)
            f(data[k], data[k + 1]);
    }

    /** Append @p value at the back (amortised allocation-free). */
    void push_back(T value)
    {
        if (count == buffer.size())
            grow();
        buffer[wrap(head + count)] = std::move(value);
        ++count;
    }

    /** Construct an element in place at the back. */
    template <typename... Args> void emplace_back(Args &&...args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    /** Prepend @p value at the front (requeue-ahead-of-backlog path). */
    void push_front(T value)
    {
        if (count == buffer.size())
            grow();
        head = wrap(head + buffer.size() - 1);
        buffer[head] = std::move(value);
        ++count;
    }

    /** Drop the oldest element; FatalError when empty. */
    void pop_front()
    {
        fatalIf(count == 0, "RingDeque::pop_front: empty");
        buffer[head] = T(); // Release payload resources eagerly.
        head = wrap(head + 1);
        --count;
    }

    /** Drop every element; capacity is retained. */
    void clear()
    {
        for (std::size_t i = 0; i < count; ++i)
            buffer[wrap(head + i)] = T();
        head = 0;
        count = 0;
    }

    /** Pre-size the buffer so @p n pushes need no growth. */
    void reserve(std::size_t n)
    {
        if (n > buffer.size())
            regrow(nextPow2(n));
    }

  private:
    std::size_t wrap(std::size_t i) const
    {
        // buffer.size() is always a power of two (or zero, in which
        // case no index is ever wrapped).
        return i & (buffer.size() - 1);
    }

    static std::size_t nextPow2(std::size_t n)
    {
        std::size_t p = kInitialCapacity;
        while (p < n)
            p <<= 1;
        return p;
    }

    void grow() { regrow(buffer.empty() ? kInitialCapacity : buffer.size() * 2); }

    void regrow(std::size_t new_capacity)
    {
        std::vector<T> next(new_capacity);
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move(buffer[wrap(head + i)]);
        buffer.swap(next);
        head = 0;
    }

    static constexpr std::size_t kInitialCapacity = 8;

    std::vector<T> buffer;
    std::size_t head = 0;  ///< Index of the front element.
    std::size_t count = 0; ///< Live elements.
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_RING_HH
