#ifndef LLMULATOR_SERVE_REQUEST_QUEUE_H
#define LLMULATOR_SERVE_REQUEST_QUEUE_H

/**
 * @file
 * Bounded multi-producer/multi-consumer queue used by the prediction
 * server. Producers block while the queue is full (backpressure toward
 * the clients) — or use tryPush() to load-shed instead of blocking,
 * which is what the fleet front-end's admission control does.
 * Consumers pop *batches*: the first element blocks, then up to
 * `max_batch - 1` more are collected until `timeout` elapses or the
 * queue drains. close() stops new pushes immediately but lets consumers
 * drain everything already queued, which is what gives the server its
 * clean-shutdown guarantee (every accepted request is answered).
 *
 * Items carry a Priority class. Higher classes (numerically lower) are
 * always popped first; within one class order is strictly FIFO. The
 * capacity bound is shared across classes, so a flood of Low traffic
 * can fill the queue — per-class *admission* limits are the caller's
 * job (see ServeConfig::admitDepth), the queue only orders what was
 * accepted.
 */

#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

namespace llmulator {
namespace serve {

/**
 * Request priority class. Numerically lower = more important; the
 * values double as the wire encoding of the fleet protocol and as the
 * `serve.shed_p<k>` counter suffix.
 */
enum class Priority : int { High = 0, Normal = 1, Low = 2 };
constexpr int kNumPriorities = 3;

template <typename T> class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

    /**
     * Block until there is room. Returns false once closed, leaving
     * `item` unmoved so the caller can still fail it gracefully.
     */
    bool push(T&& item, Priority prio = Priority::Normal)
    {
        std::unique_lock<std::mutex> lk(mu_);
        notFull_.wait(lk, [&] { return closed_ || size_ < capacity_; });
        if (closed_)
            return false;
        enqueue(std::move(item), prio);
        return true;
    }

    /**
     * Non-blocking push: false when the queue is full or closed (the
     * load-shed path — `item` stays unmoved), true once enqueued.
     */
    bool tryPush(T&& item, Priority prio = Priority::Normal)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_ || size_ >= capacity_)
            return false;
        enqueue(std::move(item), prio);
        return true;
    }

    /**
     * Pop a batch into `out` (cleared first). Blocks for the first
     * element; afterwards keeps collecting until `out` holds `max_batch`
     * items, `timeout` has elapsed, or the queue is empty with no timeout
     * budget left. Higher-priority classes drain first; within a class
     * the order is FIFO. Returns false only when the queue is closed and
     * fully drained — the consumer-loop exit condition.
     */
    bool popBatch(std::vector<T>& out, size_t max_batch,
                  std::chrono::microseconds timeout)
    {
        out.clear();
        std::unique_lock<std::mutex> lk(mu_);
        notEmpty_.wait(lk, [&] { return closed_ || size_ > 0; });
        if (size_ == 0)
            return false; // closed and drained
        auto deadline = std::chrono::steady_clock::now() + timeout;
        for (;;) {
            while (size_ > 0 && out.size() < max_batch) {
                out.push_back(takeFront());
                notFull_.notify_one();
            }
            if (out.size() >= max_batch || closed_)
                break;
            // Queue drained but the batch has room: wait out the budget
            // for stragglers, then dispatch whatever we have.
            if (!notEmpty_.wait_until(lk, deadline, [&] {
                    return closed_ || size_ > 0;
                }))
                break;
        }
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

    /** Current number of queued items across all priority classes. */
    size_t depth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return size_;
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return closed_;
    }

  private:
    // Both helpers run under mu_.
    void enqueue(T&& item, Priority prio)
    {
        classes_[static_cast<size_t>(prio)].push_back(std::move(item));
        ++size_;
        notEmpty_.notify_one();
    }

    T takeFront()
    {
        for (auto& cls : classes_) {
            if (cls.empty())
                continue;
            T item = std::move(cls.front());
            cls.pop_front();
            --size_;
            return item;
        }
        // Unreachable: callers check size_ > 0 first.
        __builtin_unreachable();
    }

    size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    //! One FIFO per priority class, drained High -> Normal -> Low.
    std::array<std::deque<T>, kNumPriorities> classes_;
    size_t size_ = 0;
    bool closed_ = false;
};

} // namespace serve
} // namespace llmulator

#endif // LLMULATOR_SERVE_REQUEST_QUEUE_H
