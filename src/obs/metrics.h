#ifndef LLMULATOR_OBS_METRICS_H
#define LLMULATOR_OBS_METRICS_H

/**
 * @file
 * Lock-free metrics registry: monotonic counters, gauges, and
 * fixed-bucket histograms, aggregated from per-thread shards.
 *
 * ## Shape
 *
 * A Registry owns named instruments (convention: `subsystem.name`,
 * e.g. `serve.e2e_ms`, `nn.gemm_accum.vector.flops`). Instrument
 * lookup (counter()/gauge()/histogram()) takes a mutex and may
 * allocate — it is a COLD path; callers cache the returned reference,
 * which stays valid for the registry's lifetime (instruments are never
 * erased, reset() only zeroes values). The update path (add / set /
 * record) is lock-free: each thread writes a private shard slot picked
 * by a thread-local shard index, so concurrent writers on one
 * instrument never contend on a cache line (kMetricShards striping;
 * readers sum the shards). Reads (total / snapshot / rows) are
 * relaxed-atomic sums — exact once writers quiesce, momentarily stale
 * while they run.
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

/** Shard-stripe width for per-thread instrument slots. */
constexpr int kMetricShards = 16;

namespace detail {

/** Thread-local shard slot in [0, kMetricShards). */
int shardIndexSlow();

inline int
shardIndex()
{
    thread_local int idx = shardIndexSlow();
    return idx;
}

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

/** One cache line per shard so concurrent writers never false-share. */
struct alignas(64) U64Shard
{
    std::atomic<uint64_t> v{0};
};

} // namespace detail

class Registry;

/** Monotonic counter, summed across per-thread shards. */
class Counter
{
  public:
    inline void add(uint64_t n = 1);

    uint64_t total() const
    {
        uint64_t t = 0;
        for (const auto& s : shards_)
            t += s.v.load(std::memory_order_relaxed);
        return t;
    }

    const std::string& name() const { return name_; }

  private:
    friend class Registry;
    Counter(const Registry* owner, std::string name)
        : owner_(owner), name_(std::move(name))
    {
    }
    void resetValues()
    {
        for (auto& s : shards_)
            s.v.store(0, std::memory_order_relaxed);
    }

    const Registry* owner_;
    std::string name_;
    detail::U64Shard shards_[kMetricShards];
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
    int stride_; //!< buckets per shard, padded to a cache line
    std::unique_ptr<std::atomic<uint64_t>[]> cells_; //!< [shard][stride]
    detail::U64Shard sum_[kMetricShards];
    detail::U64Shard min_[kMetricShards];
    detail::U64Shard max_[kMetricShards];
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
    shards_[detail::shardIndex()].v.fetch_add(n,
                                              std::memory_order_relaxed);
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
    int s = detail::shardIndex();
    cells_[size_t(s) * size_t(stride_) + size_t(bucketOf(v))].fetch_add(
        1, std::memory_order_relaxed);
    detail::atomicAddDouble(sum_[s].v, v);
    detail::atomicMinDouble(min_[s].v, v);
    detail::atomicMaxDouble(max_[s].v, v);
}

} // namespace obs
} // namespace llmulator

#endif // LLMULATOR_OBS_METRICS_H
