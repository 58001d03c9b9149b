#include "net/snapshot.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "net/protocol.h"
#include "util/string_util.h"

namespace llmulator {
namespace net {

Snapshot
loadSnapshot(const std::string& path, uint64_t modelVersion)
{
    Snapshot snap;
    std::ifstream in(path, std::ios::binary);
    if (!in) // cold start: nothing on disk yet, not a fault
        return snap;
    snap.fileFound = true;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    wire::Reader r(bytes);
    if (r.u32() != kSnapshotMagic || !r.ok()) {
        std::fprintf(stderr,
                     "[llm_net] result snapshot %s: bad magic, ignoring\n",
                     path.c_str());
        snap.clean = false;
        return snap;
    }
    uint32_t version = r.u32();
    if (!r.ok() || version != kSnapshotFormat) {
        std::fprintf(
            stderr,
            "[llm_net] result snapshot %s: format version %u (want %u), "
            "ignoring\n",
            path.c_str(), version, kSnapshotFormat);
        snap.clean = false;
        return snap;
    }
    uint64_t count = r.u64();
    for (uint64_t i = 0; r.ok() && i < count; ++i) {
        serve::ResultCache::Entry e;
        e.first.program = r.u64();
        e.first.input = r.u64();
        e.first.metric = r.i32();
        e.first.version = r.u64();
        if (!wire::getPrediction(r, e.second))
            break; // entry ran past the end of the file
        if (e.first.version != modelVersion) {
            ++snap.staleSkipped;
            continue;
        }
        snap.entries.push_back(std::move(e));
    }
    if (!r.ok()) { // truncated in the header count or inside an entry
        snap.clean = false;
        std::fprintf(stderr,
                     "[llm_net] result snapshot %s: truncated after %zu "
                     "entries, keeping what loaded\n",
                     path.c_str(), snap.entries.size());
    }
    if (snap.staleSkipped > 0)
        std::fprintf(stderr,
                     "[llm_net] result snapshot %s: skipped %zu entries "
                     "from another model version\n",
                     path.c_str(), snap.staleSkipped);
    return snap;
}

bool
saveSnapshot(const std::string& path,
             const std::vector<serve::ResultCache::Entry>& entries)
{
    std::string bytes;
    wire::putU32(bytes, kSnapshotMagic);
    wire::putU32(bytes, kSnapshotFormat);
    wire::putU64(bytes, entries.size());
    for (const serve::ResultCache::Entry& e : entries) {
        wire::putU64(bytes, e.first.program);
        wire::putU64(bytes, e.first.input);
        wire::putI32(bytes, e.first.metric);
        wire::putU64(bytes, e.first.version);
        wire::putPrediction(bytes, e.second);
    }
    // Atomic publish, exactly like eval/model_cache: stage under a
    // pid+sequence name, rename into place, clean up on any failure.
    static std::atomic<unsigned long> seq{0};
    std::string tmp = path + util::format(".tmp.%ld.%lu",
                                          static_cast<long>(::getpid()),
                                          seq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "[llm_net] result snapshot: cannot stage %s\n",
                         tmp.c_str());
            return false;
        }
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace net
} // namespace llmulator
