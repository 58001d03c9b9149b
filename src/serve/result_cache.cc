#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>

#include "dfir/passes.h"
#include "util/string_util.h"

namespace llmulator {
namespace serve {

uint64_t
hashRuntimeData(const dfir::RuntimeData& data)
{
    // std::map iteration is name-ordered, so the hash is stable across
    // insertion orders — required for cache keys to be reproducible.
    uint64_t h = util::fnv1a("runtime_data");
    for (const auto& kv : data.scalars) {
        h = util::hashCombine(h, util::fnv1a(kv.first));
        h = util::hashCombine(h, static_cast<uint64_t>(kv.second));
    }
    for (const auto& kv : data.tensors) {
        h = util::hashCombine(h, util::fnv1a(kv.first));
        h = util::hashCombine(h, static_cast<uint64_t>(kv.second.size()));
        for (double v : kv.second) {
            uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            h = util::hashCombine(h, bits);
        }
    }
    return h;
}

ResultKey
makeResultKey(const dfir::DataflowGraph& g, const dfir::RuntimeData* data,
              model::Metric metric)
{
    dfir::CanonResult canon = dfir::canonicalizeEx(g);
    ResultKey key;
    key.program = dfir::structuralHash(canon.graph);
    key.input = data ? hashRuntimeData(dfir::remapRuntimeData(
                           *data, canon.scalarRenames))
                     : 0;
    key.metric = static_cast<int>(metric);
    return key;
}

uint64_t
hashResultKey(const ResultKey& k)
{
    uint64_t h = util::hashCombine(k.program, k.input);
    h = util::hashCombine(h, static_cast<uint64_t>(k.metric));
    return util::hashCombine(h, k.version);
}

ResultCache::ResultCache(size_t capacity, size_t shards)
{
    if (shards == 0)
        shards = 1;
    perShard_ = capacity == 0 ? 0 : std::max<size_t>(1, capacity / shards);
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard&
ResultCache::shardFor(const ResultKey& key)
{
    // The low bits pick the bucket inside a shard's unordered_map; use
    // the high bits for shard selection so the two stay decorrelated.
    uint64_t h = hashResultKey(key);
    return *shards_[(h >> 48) % shards_.size()];
}

bool
ResultCache::get(const ResultKey& key, model::NumericPrediction& out)
{
    if (!enabled())
        return false;
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end())
        return false;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    out = it->second->second;
    return true;
}

void
ResultCache::put(const ResultKey& key, const model::NumericPrediction& value)
{
    if (!enabled())
        return;
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
        it->second->second = value;
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return;
    }
    s.lru.emplace_front(key, value);
    s.index[key] = s.lru.begin();
    if (s.lru.size() > perShard_) {
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();
    }
}

size_t
ResultCache::size() const
{
    size_t n = 0;
    for (const auto& s : shards_) {
        std::lock_guard<std::mutex> lk(s->mu);
        n += s->lru.size();
    }
    return n;
}

std::vector<ResultCache::Entry>
ResultCache::entries() const
{
    std::vector<Entry> out;
    for (const auto& s : shards_) {
        std::lock_guard<std::mutex> lk(s->mu);
        out.insert(out.end(), s->lru.rbegin(), s->lru.rend());
    }
    return out;
}

} // namespace serve
} // namespace llmulator
