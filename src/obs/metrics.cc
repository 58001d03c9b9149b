#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/common.h"

namespace llmulator {
namespace obs {

namespace detail {

int
shardIndexSlow()
{
    static std::atomic<unsigned> next{0};
    return static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                            unsigned(kMetricShards));
}

} // namespace detail

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank == 0)
        rank = 1;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum >= rank) {
            if (i < bounds.size())
                return std::min(bounds[i], max);
            return max; // overflow bucket: best exact answer is the max
        }
    }
    return max;
}

Histogram::Histogram(const Registry* owner, std::string name,
                     std::vector<double> bounds)
    : owner_(owner), name_(std::move(name)), bounds_(std::move(bounds))
{
    LLM_CHECK(!bounds_.empty(),
              "histogram '" << name_ << "' needs >= 1 bucket bound");
    LLM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram '" << name_ << "' bounds must be ascending");
    // +1 overflow bucket; pad the per-shard stripe to a cache line so
    // two shards never share one.
    int nb = static_cast<int>(bounds_.size()) + 1;
    stride_ = (nb + 7) & ~7;
    cells_ = std::make_unique<std::atomic<uint64_t>[]>(
        size_t(kMetricShards) * size_t(stride_));
    resetValues();
}

void
Histogram::resetValues()
{
    for (size_t i = 0; i < size_t(kMetricShards) * size_t(stride_); ++i)
        cells_[i].store(0, std::memory_order_relaxed);
    for (int s = 0; s < kMetricShards; ++s) {
        sum_[s].v.store(0, std::memory_order_relaxed);
        // Sentinels: untouched shards must not win the min/max folds.
        min_[s].v.store(detail::doubleBits(kInf),
                        std::memory_order_relaxed);
        max_[s].v.store(detail::doubleBits(-kInf),
                        std::memory_order_relaxed);
    }
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.bounds = bounds_;
    snap.buckets.assign(bounds_.size() + 1, 0);
    double mn = kInf, mx = -kInf;
    for (int s = 0; s < kMetricShards; ++s) {
        for (size_t b = 0; b < snap.buckets.size(); ++b)
            snap.buckets[b] += cells_[size_t(s) * size_t(stride_) + b]
                                   .load(std::memory_order_relaxed);
        snap.sum += detail::bitsDouble(
            sum_[s].v.load(std::memory_order_relaxed));
        mn = std::min(mn, detail::bitsDouble(
                              min_[s].v.load(std::memory_order_relaxed)));
        mx = std::max(mx, detail::bitsDouble(
                              max_[s].v.load(std::memory_order_relaxed)));
    }
    for (uint64_t b : snap.buckets)
        snap.count += b;
    snap.min = snap.count == 0 ? 0.0 : mn;
    snap.max = snap.count == 0 ? 0.0 : mx;
    return snap;
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = counters_[name];
    if (!slot)
        slot.reset(new Counter(this, name));
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = gauges_[name];
    if (!slot)
        slot.reset(new Gauge(this, name));
    return *slot;
}

Histogram&
Registry::histogram(const std::string& name)
{
    return histogram(name, defaultLatencyBoundsMs());
}

Histogram&
Registry::histogram(const std::string& name,
                    const std::vector<double>& bounds)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = histograms_[name];
    if (!slot)
        slot.reset(new Histogram(this, name, bounds));
    return *slot;
}

const Counter*
Registry::findCounter(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge*
Registry::findGauge(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram*
Registry::findHistogram(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<Registry::Row>
Registry::rows(const std::string& prefix) const
{
    auto matches = [&](const std::string& n) {
        return prefix.empty() || n.compare(0, prefix.size(), prefix) == 0;
    };
    std::vector<Row> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& kv : counters_)
        if (matches(kv.first))
            out.push_back(
                {kv.first, "count", double(kv.second->total())});
    for (const auto& kv : gauges_)
        if (matches(kv.first))
            out.push_back({kv.first, "value", kv.second->value()});
    for (const auto& kv : histograms_) {
        if (!matches(kv.first))
            continue;
        HistogramSnapshot s = kv.second->snapshot();
        out.push_back({kv.first, "count", double(s.count)});
        out.push_back({kv.first, "sum", s.sum});
        out.push_back({kv.first, "mean", s.mean()});
        out.push_back({kv.first, "min", s.min});
        out.push_back({kv.first, "max", s.max});
        out.push_back({kv.first, "p50", s.quantile(0.50)});
        out.push_back({kv.first, "p95", s.quantile(0.95)});
        out.push_back({kv.first, "p99", s.quantile(0.99)});
    }
    std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
        return a.name != b.name ? a.name < b.name : a.metric < b.metric;
    });
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& kv : counters_)
        kv.second->resetValues();
    for (auto& kv : gauges_)
        kv.second->resetValues();
    for (auto& kv : histograms_)
        kv.second->resetValues();
}

Registry&
registry()
{
    static Registry g; // gated: follows LLMULATOR_METRICS
    return g;
}

const std::vector<double>&
defaultLatencyBoundsMs()
{
    // Geometric x2 grid from 1µs to ~35min: 32 bounds, <= 2x
    // quantization on any latency quantile.
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        double v = 0.001;
        for (int i = 0; i < 32; ++i, v *= 2.0)
            b.push_back(v);
        return b;
    }();
    return bounds;
}

} // namespace obs
} // namespace llmulator
