#ifndef LLMULATOR_SERVE_RESULT_CACHE_H
#define LLMULATOR_SERVE_RESULT_CACHE_H

/**
 * @file
 * LRU cache of finished predictions, keyed by (canonical program
 * hash, remapped runtime-input hash, metric, model version).
 * makeResultKey() is the one place that key is derived. One mutex
 * guards one LRU list and its index, so `capacity` bounds the whole
 * cache whatever the keys hash to. A lookup holds the mutex for one
 * hash probe and a list splice, and a fleet answering a few hundred
 * requests a second takes it at most three times an answer, so that
 * lock is never what an answer waits on. A capacity of zero
 * disables caching entirely (used by throughput benchmarks that want
 * to measure raw model throughput).
 *
 * The model-version component makes calibration hot-swaps cache-safe:
 * entries produced by a retired weight generation simply stop being
 * addressable (their version never matches again) and age out of the
 * LRU — no explicit flush, no lock coupling with the swap itself.
 */

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/cost_model.h"
#include "model/numeric_head.h"

namespace llmulator {
namespace serve {

/** Cache identity of one prediction request. */
struct ResultKey
{
    uint64_t program = 0; //!< dfir::canonicalHash of the graph
    uint64_t input = 0;   //!< hashRuntimeData, canonical names (0 = static)
    int metric = 0;       //!< static_cast<int>(model::Metric)
    uint64_t version = 0; //!< model weight generation (hot-swap counter)

    bool operator==(const ResultKey& o) const
    {
        return program == o.program && input == o.input &&
               metric == o.metric && version == o.version;
    }
};

/** Stable 64-bit hash of runtime data (scalars + tensor payloads). */
uint64_t hashRuntimeData(const dfir::RuntimeData& data);

/**
 * The cache key of one request, version left 0 for the server to stamp:
 * the structural hash of the canonicalized graph, and the runtime data
 * hashed after renaming its scalars into the canonical graph's
 * namespace. Semantically identical programs (renamed values, commuted
 * operands, dead code) therefore share one key — and one fleet shard.
 */
ResultKey makeResultKey(const dfir::DataflowGraph& g,
                        const dfir::RuntimeData* data, model::Metric metric);

/** Mix a ResultKey down to one 64-bit hash (the index's bucket hash). */
uint64_t hashResultKey(const ResultKey& k);

/** Hasher so ResultKey can key an unordered_map directly. */
struct ResultKeyHash
{
    size_t operator()(const ResultKey& k) const
    {
        return static_cast<size_t>(hashResultKey(k));
    }
};

/** Thread-safe LRU map: ResultKey -> NumericPrediction. */
class ResultCache
{
  public:
    using Entry = std::pair<ResultKey, model::NumericPrediction>;

    /**
     * `capacity` is the total entry budget. capacity == 0 disables the
     * cache: get() always misses, put() is a no-op, and neither counts
     * toward hit-rate statistics.
     */
    explicit ResultCache(size_t capacity) : capacity_(capacity) {}

    /** Look up a key; fills `out` and refreshes LRU order on hit. */
    bool get(const ResultKey& key, model::NumericPrediction& out);

    /** Insert (or refresh) a key, evicting the LRU tail when full. */
    void put(const ResultKey& key, const model::NumericPrediction& value);

    bool enabled() const { return capacity_ > 0; }

    /** Cached entries right now. */
    size_t size() const;

    /**
     * Copy of every entry, least recently used first — so put()ting
     * them back in order into a cache of the same capacity rebuilds its
     * LRU order.
     */
    std::vector<Entry> entries() const;

  private:
    const size_t capacity_;
    mutable std::mutex mu_;
    //! Most-recently-used entries sit at the front.
    std::list<Entry> lru_;
    std::unordered_map<ResultKey, std::list<Entry>::iterator, ResultKeyHash>
        index_;
};

} // namespace serve
} // namespace llmulator

#endif // LLMULATOR_SERVE_RESULT_CACHE_H
