#ifndef LLMULATOR_BENCH_BENCH_COMMON_H
#define LLMULATOR_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared CLI handling and machine-readable output for the bench suite.
 *
 * Every bench binary accepts `--quick`, which switches the harness into
 * smoke mode (small synthesized corpus, one training epoch) so the full
 * suite can run in CI. Headline aggregates are additionally emitted as
 * `name,metric,value` CSV lines on stdout (prefix-free, one per line) so
 * result trajectories can be scraped without parsing the pretty tables.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "obs/metrics.h"

namespace llmulator {
namespace bench {

/**
 * Parse bench CLI flags. `--quick` forces harness smoke mode; unknown
 * flags abort with a usage message. Line-buffers stdout so progress is
 * visible when piped into a file or CI log.
 */
inline void
parseArgs(int argc, char** argv)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            harness::forceSmokeMode(true);
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            std::exit(2);
        }
    }
}

/** Emit one scrapeable `name,metric,value` CSV line. */
inline void
csv(const char* name, const char* metric, double value)
{
    std::printf("%s,%s,%.6g\n", name, metric, value);
    std::fflush(stdout);
}

/**
 * Flatten a metrics registry snapshot into the bench CSV stream: one
 * `<benchName>,<instrument>.<metric>,<value>` line per registry row
 * (counters: .count; gauges: .value; histograms: .count/.sum/.mean/
 * .min/.max/.p50/.p95/.p99). `prefix` filters by instrument-name
 * prefix, e.g. "nn." for just the GEMM counters.
 */
inline void
dumpRegistryCsv(const char* benchName, const obs::Registry& reg,
                const std::string& prefix = "")
{
    for (const obs::Registry::Row& row : reg.rows(prefix))
        csv(benchName, (row.name + "." + row.metric).c_str(), row.value);
}

/** Rounds timePairs() runs; odd, so each median is one measured call. */
constexpr int kTimedPairs = 15;

/** Median seconds per call of each side of a paired timing. */
struct PairTiming
{
    double fullS = 0;  //!< median of the full predictions
    double reuseS = 0; //!< median of the prefix-reuse predictions
};

/**
 * Time a full prediction against its prefix-reuse counterpart:
 * kTimedPairs rounds of one full() call then one reuse() call, and the
 * median of each side. Alternating spreads a slow stretch of the host
 * over both sides; the median drops the odd preempted call.
 */
template <typename Full, typename Reuse>
PairTiming
timePairs(Full&& full, Reuse&& reuse)
{
    using Clock = std::chrono::steady_clock;
    auto seconds = [](auto& fn) {
        const auto t0 = Clock::now();
        fn();
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    std::vector<double> fullS, reuseS;
    for (int i = 0; i < kTimedPairs; ++i) {
        fullS.push_back(seconds(full));
        reuseS.push_back(seconds(reuse));
    }
    auto median = [](std::vector<double>& v) {
        std::nth_element(v.begin(), v.begin() + long(v.size() / 2), v.end());
        return v[v.size() / 2];
    };
    return {median(fullS), median(reuseS)};
}

} // namespace bench
} // namespace llmulator

#endif // LLMULATOR_BENCH_BENCH_COMMON_H
