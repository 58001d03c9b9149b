#ifndef LLMULATOR_OBS_METRICS_H
#define LLMULATOR_OBS_METRICS_H

/**
 * @file
 * Lock-free metrics registry: monotonic counters, gauges, and
 * fixed-bucket histograms.
 *
 * ## Shape
 *
 * A Registry owns named instruments (convention: `subsystem.name`,
 * e.g. `serve.e2e_ms`, `nn.gemm_accum.vector.flops`). Instrument
 * lookup (counter()/gauge()/histogram()) takes a mutex and may
 * allocate — it is a COLD path; callers cache the returned reference,
 * which stays valid for the registry's lifetime (instruments are never
 * erased, reset() only zeroes values). The update path (add / set /
 * record) is lock-free: a counter is one atomic cell (one relaxed
 * fetch_add), a histogram one bucket array plus one sum, min and max
 * cell (a fetch_add and three CAS loops on bit-cast doubles). All
 * writers of an instrument share its cells: a serving registry sees a
 * few hundred updates a second, and the busiest instruments, the GEMM
 * counters of a metered 4-thread training run, ~10^5 from 4 threads,
 * a rate at which one shared cell costs no measurable training
 * throughput (bench_train_throughput). Reads
 * (total / snapshot / rows) are relaxed loads — exact once writers
 * quiesce, momentarily stale while they run.
 *
 * ## Gating
 *
 * The process-global registry() is gated by LLMULATOR_METRICS (see
 * telemetry.h): when off, every update is one relaxed load + branch —
 * no allocation, no locking, no stores. A Registry constructed with
 * alwaysOn = true records unconditionally; PredictionServer uses one
 * per instance so ServerStats is a view over its own registry without
 * cross-instance mixing (per-instance recording replaces the old
 * mutex-guarded latency window, so "always on" is still cheaper than
 * what it replaced).
 *
 * ## Histogram quantiles
 *
 * Histograms use fixed ascending bucket upper bounds (plus an implicit
 * overflow bucket). quantile(q) is nearest-rank over the cumulative
 * bucket counts and returns the containing bucket's upper bound,
 * clamped to the observed maximum — EXACT whenever recorded values lie
 * on bucket bounds (pinned by test_obs), an overestimate of at most
 * one bucket width otherwise. defaultLatencyBoundsMs() is a geometric
 * 1µs..~35min grid, so p50/p95/p99 of a latency distribution carry at
 * most 2x quantization.
 */

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace llmulator {
namespace obs {

namespace detail {

inline uint64_t
doubleBits(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

inline double
bitsDouble(uint64_t u)
{
    double d;
    std::memcpy(&d, &u, sizeof d);
    return d;
}

/** Lock-free d += v on a double stored as bits in an atomic u64. */
inline void
atomicAddDouble(std::atomic<uint64_t>& cell, double v)
{
    uint64_t old = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(
        old, doubleBits(bitsDouble(old) + v), std::memory_order_relaxed))
        ;
}

inline void
atomicMinDouble(std::atomic<uint64_t>& cell, double v)
{
    uint64_t old = cell.load(std::memory_order_relaxed);
    while (bitsDouble(old) > v &&
           !cell.compare_exchange_weak(old, doubleBits(v),
                                       std::memory_order_relaxed))
        ;
}

inline void
atomicMaxDouble(std::atomic<uint64_t>& cell, double v)
{
    uint64_t old = cell.load(std::memory_order_relaxed);
    while (bitsDouble(old) < v &&
           !cell.compare_exchange_weak(old, doubleBits(v),
                                       std::memory_order_relaxed))
        ;
}

} // namespace detail

class Registry;

/** Monotonic counter. */
class Counter
{
  public:
    inline void add(uint64_t n = 1);

    uint64_t total() const { return value_.load(std::memory_order_relaxed); }

    const std::string& name() const { return name_; }

  private:
    friend class Registry;
    Counter(const Registry* owner, std::string name)
        : owner_(owner), name_(std::move(name))
    {
    }
    void resetValues() { value_.store(0, std::memory_order_relaxed); }

    const Registry* owner_;
    std::string name_;
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins double gauge. */
class Gauge
{
  public:
    inline void set(double v);

    double value() const
    {
        return detail::bitsDouble(bits_.load(std::memory_order_relaxed));
    }

    const std::string& name() const { return name_; }

  private:
    friend class Registry;
    Gauge(const Registry* owner, std::string name)
        : owner_(owner), name_(std::move(name))
    {
    }
    void resetValues()
    {
        bits_.store(0, std::memory_order_relaxed);
    }

    const Registry* owner_;
    std::string name_;
    std::atomic<uint64_t> bits_{0};
};

/** Read-side view of a histogram (see Histogram::snapshot). */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0;
    double min = 0; //!< 0 when empty
    double max = 0; //!< 0 when empty
    std::vector<double> bounds;   //!< ascending bucket upper bounds
    std::vector<uint64_t> buckets; //!< bounds.size() + 1 (overflow last)

    double mean() const { return count == 0 ? 0.0 : sum / double(count); }

    /**
     * Nearest-rank quantile over the cumulative bucket counts: the
     * upper bound of the bucket holding rank ceil(q * count), clamped
     * to the observed max (which also answers for the overflow
     * bucket). Exact when recorded values sit on bucket bounds.
     */
    double quantile(double q) const;
};

/** Fixed-bucket histogram with exact-at-bucket-edge quantiles. */
class Histogram
{
  public:
    inline void record(double v);

    HistogramSnapshot snapshot() const;

    const std::string& name() const { return name_; }
    const std::vector<double>& bounds() const { return bounds_; }

  private:
    friend class Registry;
    Histogram(const Registry* owner, std::string name,
              std::vector<double> bounds);
    void resetValues();

    int bucketOf(double v) const
    {
        // First bound >= v; everything above the last bound lands in
        // the overflow bucket. Linear scan: bounds lists stay small
        // (<= ~40) and the early buckets are the hot ones.
        int nb = static_cast<int>(bounds_.size());
        for (int i = 0; i < nb; ++i)
            if (v <= bounds_[i])
                return i;
        return nb;
    }

    const Registry* owner_;
    std::string name_;
    std::vector<double> bounds_;
    //! bounds_.size() + 1 counts, the overflow bucket last.
    std::vector<std::atomic<uint64_t>> buckets_;
    std::atomic<uint64_t> sum_{0}; //!< double bits
    std::atomic<uint64_t> min_{0}; //!< double bits, +inf when empty
    std::atomic<uint64_t> max_{0}; //!< double bits, -inf when empty
};

/**
 * Named-instrument registry. The process-global registry() follows the
 * LLMULATOR_METRICS gate; per-component instances (alwaysOn = true)
 * record unconditionally.
 */
class Registry
{
  public:
    explicit Registry(bool alwaysOn = false) : alwaysOn_(alwaysOn) {}
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** Whether update calls record right now (hot-path predicate). */
    bool recording() const { return alwaysOn_ || metricsEnabled(); }

    /** Lookup-or-create; cold path (mutex + possible allocation). */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /** Default bounds: defaultLatencyBoundsMs(). An existing histogram
     *  is returned as-is (its original bounds win). */
    Histogram& histogram(const std::string& name);
    Histogram& histogram(const std::string& name,
                         const std::vector<double>& bounds);

    /** Lookup-only; nullptr when the instrument does not exist. */
    const Counter* findCounter(const std::string& name) const;
    const Gauge* findGauge(const std::string& name) const;
    const Histogram* findHistogram(const std::string& name) const;

    /** One flattened value: `<instrument name>,<metric>,<value>`. */
    struct Row
    {
        std::string name;   //!< instrument name (subsystem.name)
        std::string metric; //!< count | value | sum | mean | min | max |
                            //!< p50 | p95 | p99
        double value = 0;
    };

    /**
     * Flatten every instrument into rows, sorted by instrument name
     * (counters: count; gauges: value; histograms: count, sum, mean,
     * min, max, p50, p95, p99). `prefix` filters by name prefix.
     */
    std::vector<Row> rows(const std::string& prefix = "") const;

    /** Zero every instrument's values; instruments stay registered. */
    void reset();

  private:
    const bool alwaysOn_;
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** The process-global registry (gated by LLMULATOR_METRICS). */
Registry& registry();

/** Geometric 0.001ms..~2e6ms bucket grid for latency histograms. */
const std::vector<double>& defaultLatencyBoundsMs();

inline void
Counter::add(uint64_t n)
{
    if (!owner_->recording())
        return;
    value_.fetch_add(n, std::memory_order_relaxed);
}

inline void
Gauge::set(double v)
{
    if (!owner_->recording())
        return;
    bits_.store(detail::doubleBits(v), std::memory_order_relaxed);
}

inline void
Histogram::record(double v)
{
    if (!owner_->recording())
        return;
    buckets_[size_t(bucketOf(v))].fetch_add(1, std::memory_order_relaxed);
    detail::atomicAddDouble(sum_, v);
    detail::atomicMinDouble(min_, v);
    detail::atomicMaxDouble(max_, v);
}

} // namespace obs
} // namespace llmulator

#endif // LLMULATOR_OBS_METRICS_H
