#include "serve/result_cache.h"

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

bool
ResultCache::get(const ResultKey& key, model::NumericPrediction& out)
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->second;
    return true;
}

void
ResultCache::put(const ResultKey& key, const model::NumericPrediction& value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = value;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, value);
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return lru_.size();
}

std::vector<ResultCache::Entry>
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return std::vector<Entry>(lru_.rbegin(), lru_.rend());
}

} // namespace serve
} // namespace llmulator
