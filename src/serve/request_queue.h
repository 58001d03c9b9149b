#ifndef LLMULATOR_SERVE_REQUEST_QUEUE_H
#define LLMULATOR_SERVE_REQUEST_QUEUE_H

/**
 * @file
 * Bounded multi-producer/multi-consumer queue used by the prediction
 * server. Producers block while the queue is full (backpressure toward
 * the clients) — or use tryPush() to refuse instead of blocking, which
 * is what the fleet front-end's admission control does.
 * Consumers pop one item at a time, blocking while the queue is empty.
 * close() stops new pushes immediately but lets consumers drain
 * everything already queued, which is what gives the server its
 * clean-shutdown guarantee (every accepted request is answered). Order
 * is strictly FIFO.
 */

#include <condition_variable>
#include <deque>
#include <mutex>

namespace llmulator {
namespace serve {

template <typename T> class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

    /**
     * Block until there is room. Returns false once closed, leaving
     * `item` unmoved so the caller can still fail it gracefully.
     */
    bool push(T&& item)
    {
        std::unique_lock<std::mutex> lk(mu_);
        notFull_.wait(lk,
                      [&] { return closed_ || items_.size() < capacity_; });
        if (closed_)
            return false;
        enqueue(std::move(item));
        return true;
    }

    /**
     * Non-blocking push: false when the queue is full or closed (the
     * admission path — `item` stays unmoved), true once enqueued.
     */
    bool tryPush(T&& item)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_ || items_.size() >= capacity_)
            return false;
        enqueue(std::move(item));
        return true;
    }

    /**
     * Pop the oldest item into `out`, blocking while the queue is empty.
     * Returns false only when the queue is closed and fully drained —
     * the consumer-loop exit condition.
     */
    bool pop(T& out)
    {
        std::unique_lock<std::mutex> lk(mu_);
        notEmpty_.wait(lk, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false; // closed and drained
        out = std::move(items_.front());
        items_.pop_front();
        notFull_.notify_one();
        return true;
    }

    /** Stop accepting pushes; queued items remain poppable. */
    void close()
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = true;
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    /** Current number of queued items. */
    size_t depth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return items_.size();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return closed_;
    }

  private:
    // Runs under mu_.
    void enqueue(T&& item)
    {
        items_.push_back(std::move(item));
        notEmpty_.notify_one();
    }

    size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace serve
} // namespace llmulator

#endif // LLMULATOR_SERVE_REQUEST_QUEUE_H
