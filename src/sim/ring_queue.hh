/**
 * @file
 * RingQueue: a FIFO in a power-of-two ring that keeps its storage.
 *
 * std::deque frees a block whenever pop_front() leaves it and
 * allocates one whenever push_back() fills the last, so a queue that
 * streams requests allocates steadily even at a constant depth. A
 * RingQueue allocates only when its depth exceeds every earlier
 * depth.
 */

#ifndef SALAM_SIM_RING_QUEUE_HH
#define SALAM_SIM_RING_QUEUE_HH

#include <cstddef>
#include <vector>

#include "logging.hh"

namespace salam
{

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return head == tail; }

    std::size_t size() const { return tail - head; }

    T &
    front()
    {
        SALAM_ASSERT(!empty());
        return slots[head & (slots.size() - 1)];
    }

    const T &
    front() const
    {
        SALAM_ASSERT(!empty());
        return slots[head & (slots.size() - 1)];
    }

    /** Element @p i from the front (0 = front). */
    const T &
    operator[](std::size_t i) const
    {
        SALAM_ASSERT(i < size());
        return slots[(head + i) & (slots.size() - 1)];
    }

    void
    push_back(const T &value)
    {
        if (size() == slots.size())
            grow();
        slots[tail & (slots.size() - 1)] = value;
        ++tail;
    }

    void
    pop_front()
    {
        SALAM_ASSERT(!empty());
        ++head;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 16 : 2 * slots.size());
        for (std::size_t i = 0; i < size(); ++i)
            bigger[i] = slots[(head + i) & (slots.size() - 1)];
        tail = size();
        head = 0;
        slots.swap(bigger);
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t tail = 0;
};

} // namespace salam

#endif // SALAM_SIM_RING_QUEUE_HH
