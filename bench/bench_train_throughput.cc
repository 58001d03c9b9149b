/**
 * @file
 * Training-throughput bench for the shared minibatch engine: trains the
 * same cost model on the same corpus at 1/4/8 worker threads and reports
 * samples/sec, epoch time, the 4- and 8-vs-1 speedups, and a
 * bit-identical-loss check across every timed run (the engine's
 * determinism guarantee, measured rather than assumed).
 *
 * One untimed warm-up run goes first, so the first timed thread count
 * does not pay the process's cold start. Each thread count is then
 * timed three times, interleaved 1/4/8, 1/4/8, 1/4/8, and reports the
 * median run.
 *
 * The corpus is pre-encoded once outside the timed region and shared by
 * every run (encodings depend only on the tokenizer, not the weights),
 * so the timer covers exactly the engine — the serial encode cost would
 * otherwise drag every speedup toward 1x by Amdahl's law.
 *
 * CSV lines (name,metric,value):
 *   train_throughput,samples_per_sec_t<T>,<median of 3 runs>
 *   train_throughput,epoch_time_ms_t<T>,<median of 3 runs>
 *   train_throughput,speedup_t4,<median t4 / median t1 samples/sec>
 *   train_throughput,speedup_t8,<median t8 / median t1 samples/sec>
 *   train_throughput,loss_bitmatch,<1|0: every timed run's per-epoch
 *     losses equal the first run's, bit for bit>
 *   train_throughput,sys_time_s,<system CPU seconds of the timed sweep,
 *     from getrusage: allocation churn shows up here as page faults>
 *   train_throughput,peak_rss_mb,<the process's peak resident set after
 *     the timed sweep, from getrusage>
 *   train_throughput,nn.*,<GEMM call/FLOP counters and trainer gauges
 *     from one short instrumented epoch, run AFTER the timed sweep so
 *     the rows above stay free of telemetry overhead>
 *
 * Speedups depend on the machine: on a single-core container all thread
 * counts necessarily measure ~1x; the scaling target (>= 2x at 8
 * threads) is meaningful on multicore hardware such as the CI runners.
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include <sys/resource.h>

#include "bench_common.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "util/string_util.h"

using namespace llmulator;

namespace {

struct RunResult
{
    double samplesPerSec = 0.0;
    double epochMs = 0.0;
    harness::TrainStats stats;
};

/** The process's resource usage so far. */
rusage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

double
seconds(const timeval& tv)
{
    return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
}

RunResult
runAt(int threads, const model::CostModelConfig& mcfg,
      const synth::Dataset& ds,
      const std::vector<model::TrainingEncoding>& encs,
      const harness::TrainConfig& tcfg)
{
    // Fresh model per run: same config seed, so every thread count
    // trains identical weights from an identical starting point. The
    // pre-encoded-corpus overload is the exact production engine path,
    // minus the serial encode cost.
    model::CostModel master(mcfg);
    harness::TrainConfig cfg = tcfg;
    cfg.trainThreads = threads;

    auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.stats = harness::trainCostModelUncached(master, ds, encs, cfg);
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0.0)
        r.samplesPerSec = static_cast<double>(r.stats.samples) / secs;
    r.epochMs = 1e3 * secs / std::max(1, cfg.epochs);
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    bool quick = harness::smokeMode();

    synth::Dataset ds = harness::defaultDataset(harness::defaultSynthConfig());
    model::CostModelConfig mcfg = harness::defaultOursConfig();

    harness::TrainConfig tcfg;
    tcfg.epochs = quick ? 2 : 4;

    // Encode once, outside every timed region (weight-independent).
    model::CostModel proto(mcfg);
    std::vector<model::TrainingEncoding> encs;
    encs.reserve(ds.samples.size());
    for (const auto& s : ds.samples)
        encs.push_back(model::encodeForTraining(
            proto, s.graph, s.hasData ? &s.data : nullptr, s.reasoning));

    std::printf("# train throughput: %zu samples, %d epochs, batch %d%s\n",
                ds.samples.size(), tcfg.epochs, tcfg.batchSize,
                quick ? " (quick)" : "");

    // Untimed warm-up: the first training run in a fresh process is
    // slower, and it would otherwise be charged to t1.
    runAt(1, mcfg, ds, encs, tcfg);

    const int kThreadCounts[] = {1, 4, 8};
    const int kRepeats = 3;
    std::vector<RunResult> runs[3];
    const rusage before = usage();
    for (int rep = 0; rep < kRepeats; ++rep)
        for (int i = 0; i < 3; ++i)
            runs[i].push_back(runAt(kThreadCounts[i], mcfg, ds, encs, tcfg));
    const rusage after = usage();

    // Determinism cross-check: per-epoch mean losses must agree bitwise
    // across every timed run, whatever its thread count.
    const std::vector<double> refLoss = runs[0].front().stats.epochLoss;
    bool bitmatch = true;
    for (const auto& perThreads : runs)
        for (const RunResult& r : perThreads)
            bitmatch &= r.stats.epochLoss == refLoss;

    double medianSps[3];
    for (int i = 0; i < 3; ++i) {
        std::vector<RunResult>& rs = runs[i];
        std::sort(rs.begin(), rs.end(),
                  [](const RunResult& a, const RunResult& b) {
                      return a.samplesPerSec < b.samplesPerSec;
                  });
        const RunResult& med = rs[rs.size() / 2];
        medianSps[i] = med.samplesPerSec;
        int t = kThreadCounts[i];
        bench::csv("train_throughput",
                   util::format("samples_per_sec_t%d", t).c_str(),
                   med.samplesPerSec);
        bench::csv("train_throughput",
                   util::format("epoch_time_ms_t%d", t).c_str(),
                   med.epochMs);
    }

    bench::csv("train_throughput", "speedup_t4",
               medianSps[1] / medianSps[0]);
    bench::csv("train_throughput", "speedup_t8",
               medianSps[2] / medianSps[0]);

    bench::csv("train_throughput", "sys_time_s",
               seconds(after.ru_stime) - seconds(before.ru_stime));
    bench::csv("train_throughput", "peak_rss_mb",
               double(after.ru_maxrss) / 1024.0); // ru_maxrss is in KiB

    bench::csv("train_throughput", "loss_bitmatch", bitmatch ? 1 : 0);
    if (!bitmatch) {
        std::fprintf(stderr,
                     "ERROR: loss trajectories diverged across timed "
                     "runs\n");
        return 1;
    }

    // Instrumented pass, AFTER the timed sweep so the throughput rows
    // above never carry telemetry cost: one short single-threaded epoch
    // with the global metrics gate on, dumping GEMM call/FLOP counters
    // (per kernel per backend) and the trainer step/loss gauges.
    obs::registry().reset();
    obs::setMetricsEnabled(true);
    {
        harness::TrainConfig icfg = tcfg;
        icfg.epochs = 1;
        runAt(1, mcfg, ds, encs, icfg);
    }
    obs::setMetricsEnabled(false);
    bench::dumpRegistryCsv("train_throughput", obs::registry(), "nn.");
    bench::dumpRegistryCsv("train_throughput", obs::registry(), "trainer.");
    return 0;
}
