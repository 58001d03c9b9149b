#ifndef LLMULATOR_SERVE_RESULT_CACHE_H
#define LLMULATOR_SERVE_RESULT_CACHE_H

/**
 * @file
 * Sharded LRU cache of finished predictions, keyed by (canonical
 * program hash, remapped runtime-input hash, metric, model version).
 * makeResultKey() is the one place that key is derived. Sharding by key
 * hash keeps lock contention bounded when many workers and client
 * threads hit the cache concurrently; each shard holds an independent
 * LRU list. A capacity of zero disables caching entirely (used by
 * throughput benchmarks that want to measure raw model throughput).
 *
 * The model-version component makes calibration hot-swaps cache-safe:
 * entries produced by a retired weight generation simply stop being
 * addressable (their version never matches again) and age out of the
 * LRU — no explicit flush, no lock coupling with the swap itself.
 */

#include <cstdint>
#include <list>
#include <memory>
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

/** Mix a ResultKey down to one 64-bit hash (shard + bucket selector). */
uint64_t hashResultKey(const ResultKey& k);

/** Hasher so ResultKey can key the per-shard unordered_map directly. */
struct ResultKeyHash
{
    size_t operator()(const ResultKey& k) const
    {
        return static_cast<size_t>(hashResultKey(k));
    }
};

/** Sharded LRU map: ResultKey -> NumericPrediction. */
class ResultCache
{
  public:
    using Entry = std::pair<ResultKey, model::NumericPrediction>;

    /**
     * `capacity` is the total entry budget split evenly across
     * `shards` (each shard gets at least one entry). capacity == 0
     * disables the cache: get() always misses, put() is a no-op, and
     * neither counts toward hit-rate statistics.
     */
    ResultCache(size_t capacity, size_t shards);

    /** Look up a key; fills `out` and refreshes LRU order on hit. */
    bool get(const ResultKey& key, model::NumericPrediction& out);

    /** Insert (or refresh) a key, evicting the shard's LRU tail. */
    void put(const ResultKey& key, const model::NumericPrediction& value);

    bool enabled() const { return perShard_ > 0; }

    /** Total cached entries across shards (approximate under load). */
    size_t size() const;

    /**
     * Copy of every entry, shard by shard, each shard least recently
     * used first — so put()ting them back in order into a cache with
     * the same shard count rebuilds every shard's LRU order.
     */
    std::vector<Entry> entries() const;

  private:
    struct Shard
    {
        std::mutex mu;
        //! Most-recently-used entries sit at the front.
        std::list<Entry> lru;
        std::unordered_map<ResultKey, decltype(lru)::iterator,
                           ResultKeyHash>
            index;
    };

    Shard& shardFor(const ResultKey& key);

    size_t perShard_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace serve
} // namespace llmulator

#endif // LLMULATOR_SERVE_RESULT_CACHE_H
