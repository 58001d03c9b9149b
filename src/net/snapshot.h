#ifndef LLMULATOR_NET_SNAPSHOT_H
#define LLMULATOR_NET_SNAPSHOT_H

/**
 * @file
 * On-disk snapshot of the fleet's result caches — the piece that lets a
 * restarted fleet server warm instantly instead of re-running the model
 * for every popular program. FleetServer::stop() writes every shard's
 * serve::ResultCache into one file; the next FleetServer loads it and
 * puts each entry into the shard its program hashes to, so a fleet
 * restarted with a different shard count still warms.
 *
 * ## Format
 *
 *   u32 magic "LMPC"        (0x4C4D5043)
 *   u32 format version      (kSnapshotFormat)
 *   u64 entry count
 *   per entry: u64 program, u64 input, i32 metric, u64 modelVersion,
 *              then the prediction exactly as on the wire (i64 value,
 *              u32+i32* digits, u32+f64* digitProbs, f64 logProb)
 *
 * Entries are written least recently used first (ResultCache::entries),
 * so putting them back in file order leaves the hottest entries at the
 * LRU head: a reload into a smaller cache evicts the coldest ones.
 *
 * saveSnapshot() is atomic (temp file + rename, pid+sequence staging
 * suffix — the model_cache pattern), so a crashed or concurrent writer
 * can never leave a torn file for the next startup to read.
 * loadSnapshot() is paranoid in the other direction: wrong magic or
 * format version loads nothing, truncation keeps every entry decoded
 * before the cut, and entries from a different model version are
 * skipped — each with a one-line stderr warning, never a crash (pinned
 * by test_net).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/result_cache.h"

namespace llmulator {
namespace net {

constexpr uint32_t kSnapshotMagic = 0x4C4D5043; // "LMPC"
/**
 * Bumped whenever served answers change bits under an unchanged (key,
 * model version) pair, so an older file loads nothing instead of
 * replaying stale answers as current. 2: serving moved onto the
 * autograd graph's float sequence.
 */
constexpr uint32_t kSnapshotFormat = 2;

/** What loadSnapshot() found on disk. */
struct Snapshot
{
    bool fileFound = false;  //!< false = clean cold start, no warning
    bool clean = true;       //!< false = header/truncation damage
    size_t staleSkipped = 0; //!< entries from another model version
    //! Accepted entries in file order (least recently used first).
    std::vector<serve::ResultCache::Entry> entries;
};

/** Atomically write `entries`, in order, to `path`. */
bool saveSnapshot(const std::string& path,
                  const std::vector<serve::ResultCache::Entry>& entries);

/**
 * Read the snapshot at `path`, keeping only entries stamped with
 * `modelVersion` (stale weight generations must not answer queries).
 * Corruption — wrong magic or format version, truncated entries —
 * degrades to whatever decoded cleanly, with a warning on stderr.
 */
Snapshot loadSnapshot(const std::string& path, uint64_t modelVersion);

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_SNAPSHOT_H
