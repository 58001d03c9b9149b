/**
 * @file
 * Networked fleet front-end tests: the length-prefixed binary protocol
 * (round trips, malformed-payload rejection), the result-cache snapshot
 * (atomic save/load, recency order, corruption and stale-version
 * tolerance), and the FleetServer end to end over real
 * loopback connections — wire predictions bit-identical to the
 * in-process serving path, canonical-hash shard stability (equivalent
 * mutants hit the same shard's cache), BAD_REQUEST for programs that
 * fail to parse or verify, overload answered with an explicit
 * OVERLOADED status under 8 client threads without deadlock (TSan job
 * coverage), warm restart from the snapshot, an oversized frame header
 * closing only its own connection, a half-sent frame and an unread
 * reply dropped at the frame deadline, and closed connections releasing
 * their threads (and,
 * traced, holding no span ring each) while the fleet runs.
 *
 * Like test_serve, every suite runs an *untrained* Tiny model: weight
 * initialization is seeded, so two separately constructed models have
 * identical weights and deterministic predictions — all the serving
 * and transport contracts need.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dfir/builder.h"
#include "dfir/parser.h"
#include "dfir/passes.h"
#include "dfir/printer.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/snapshot.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "synth/generators.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/** A tiny vector-scale kernel parameterized by a bias constant. */
DataflowGraph
makeGraph(const std::string& name, long bias)
{
    Operator op;
    op.name = "scale";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("Y", {v("i")},
                               badd(a("X", {v("i")}), c(bias)))})};
    DataflowGraph g;
    g.name = name;
    g.ops = {op};
    g.calls = {{"scale"}};
    return g;
}

RuntimeData
makeData(long n)
{
    RuntimeData d;
    d.scalars["N"] = n;
    return d;
}

model::CostModelConfig
tinyConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 128;
    return cfg;
}

/** Fresh deterministic model (seeded init, no training needed). */
std::unique_ptr<model::CostModel>
tinyModel()
{
    return std::make_unique<model::CostModel>(tinyConfig());
}

/** Bit-exact prediction comparison (doubles compared as bit patterns). */
void
expectBitEqual(const model::NumericPrediction& a,
               const model::NumericPrediction& b)
{
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.digits, b.digits);
    ASSERT_EQ(a.digitProbs.size(), b.digitProbs.size());
    for (size_t i = 0; i < a.digitProbs.size(); ++i)
        EXPECT_EQ(0, std::memcmp(&a.digitProbs[i], &b.digitProbs[i],
                                 sizeof(double)))
            << "digitProbs[" << i << "] differ bitwise";
    EXPECT_EQ(0, std::memcmp(&a.logProb, &b.logProb, sizeof(double)));
}

model::NumericPrediction
somePrediction(long value)
{
    model::NumericPrediction p;
    p.value = value;
    p.digits = {int(value % 10), 3, 7};
    p.digitProbs = {0.5, 0.25, 0.125};
    p.logProb = -1.25;
    return p;
}

serve::ResultKey
someKey(uint64_t program, uint64_t version = 0)
{
    serve::ResultKey k;
    k.program = program;
    k.input = program * 31 + 7;
    k.metric = int(model::Metric::Cycles);
    k.version = version;
    return k;
}

std::string
tempPath(const char* tag)
{
    return util::format("/tmp/llm_net_%s_%ld.bin", tag,
                        static_cast<long>(::getpid()));
}

/** This process's virtual size in kB (VmSize in /proc/self/status). */
long
vmSizeKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::atol(line.c_str() + 7);
    return 0;
}

/** A plain loopback TCP connection to `port`; -1 on failure. */
int
connectRaw(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Live threads of this process (the entries of /proc/self/task). */
size_t
liveThreads()
{
    size_t n = 0;
    if (DIR* dir = ::opendir("/proc/self/task")) {
        while (const dirent* e = ::readdir(dir))
            n += e->d_name[0] != '.';
        ::closedir(dir);
    }
    return n;
}

} // namespace

// ---------------------------------------------------------------------------
// Protocol

TEST(Protocol, RequestRoundTrip)
{
    net::NetRequest req;
    req.program = dfir::printStatic(makeGraph("rt", 3));
    req.hasData = true;
    req.data.scalars["N"] = 64;
    req.data.scalars["M"] = -9;
    req.data.tensors["X"] = {1.5, -2.25, 1e300, 0.0};
    req.metric = model::Metric::Cycles;

    net::NetRequest out;
    std::string err;
    ASSERT_TRUE(net::decodeRequest(net::encodeRequest(req), out, &err))
        << err;
    EXPECT_EQ(out.program, req.program);
    EXPECT_TRUE(out.hasData);
    EXPECT_EQ(out.data.scalars, req.data.scalars);
    EXPECT_EQ(out.data.tensors, req.data.tensors);
    EXPECT_EQ(out.metric, req.metric);
}

namespace {

/**
 * A request spelled out field by field, independent of encodeRequest():
 * Cycles for "void f() {}" with one scalar (N = -9) and one tensor
 * (X = {1.5}). Version 1 carried a priority byte after the metric;
 * `priority` >= 0 writes one.
 */
std::string
handWrittenRequest(uint16_t version, int priority = -1)
{
    std::string bytes;
    net::wire::putU32(bytes, 0x4C4D5251); // "LMRQ"
    net::wire::putU16(bytes, version);
    net::wire::putU8(bytes, 3);           // metric: Cycles
    if (priority >= 0)
        net::wire::putU8(bytes, uint8_t(priority));
    net::wire::putU8(bytes, 1);           // hasData
    net::wire::putString(bytes, "void f() {}");
    net::wire::putU32(bytes, 1);          // scalars
    net::wire::putString(bytes, "N");
    net::wire::putI64(bytes, -9);
    net::wire::putU32(bytes, 1);          // tensors
    net::wire::putString(bytes, "X");
    net::wire::putU32(bytes, 1);          // elements
    net::wire::putF64(bytes, 1.5);
    return bytes;
}

} // namespace

TEST(Protocol, HandWrittenVersionTwoRequestDecodes)
{
    ASSERT_EQ(int(model::Metric::Cycles), 3);
    const std::string bytes = handWrittenRequest(2);
    net::NetRequest out;
    std::string err;
    ASSERT_TRUE(net::decodeRequest(bytes, out, &err)) << err;
    EXPECT_EQ(out.metric, model::Metric::Cycles);
    EXPECT_TRUE(out.hasData);
    EXPECT_EQ(out.program, "void f() {}");
    EXPECT_EQ(out.data.scalars, (std::map<std::string, long>{{"N", -9}}));
    EXPECT_EQ(out.data.tensors.at("X"), std::vector<double>{1.5});
    EXPECT_EQ(net::encodeRequest(out), bytes);

    // A version 1 request, priority byte and all, is refused at the
    // version field instead of being read one byte off.
    EXPECT_FALSE(net::decodeRequest(handWrittenRequest(1, 1), out, &err));
    EXPECT_EQ(err, "unsupported protocol version");
}

TEST(Protocol, StaticRequestHasNoDataSection)
{
    net::NetRequest req;
    req.program = "void f() {}";
    req.metric = model::Metric::Area;

    net::NetRequest out;
    ASSERT_TRUE(net::decodeRequest(net::encodeRequest(req), out));
    EXPECT_FALSE(out.hasData);
    EXPECT_TRUE(out.data.scalars.empty());
}

TEST(Protocol, ResponseRoundTripIsBitExact)
{
    net::NetResponse resp;
    resp.status = net::Status::Ok;
    resp.cacheHit = true;
    resp.modelVersion = 42;
    resp.prediction = somePrediction(123456);
    resp.prediction.digitProbs = {0.1, 0.2, 0.30000000000000004};
    resp.prediction.logProb = -3.141592653589793;

    net::NetResponse out;
    std::string err;
    ASSERT_TRUE(net::decodeResponse(net::encodeResponse(resp), out, &err))
        << err;
    EXPECT_EQ(out.status, resp.status);
    EXPECT_TRUE(out.cacheHit);
    EXPECT_EQ(out.modelVersion, 42u);
    expectBitEqual(out.prediction, resp.prediction);
    EXPECT_EQ(out.error, "");
}

TEST(Protocol, RejectsMalformedPayloads)
{
    net::NetRequest req;
    req.program = "void f() {}";
    req.hasData = true;
    req.data.scalars["N"] = 8;
    req.data.tensors["X"] = {1.0, 2.0};
    std::string good = net::encodeRequest(req);

    net::NetRequest out;
    std::string err;

    // Every strict prefix must fail cleanly (no crash, no accept).
    for (size_t cut = 0; cut < good.size(); ++cut)
        EXPECT_FALSE(
            net::decodeRequest(good.substr(0, cut), out, &err))
            << "accepted a " << cut << "-byte prefix";

    // Wrong magic.
    std::string bad = good;
    bad[0] = char(bad[0] ^ 0xff);
    EXPECT_FALSE(net::decodeRequest(bad, out, &err));

    // Wrong protocol version.
    bad = good;
    bad[4] = char(99);
    EXPECT_FALSE(net::decodeRequest(bad, out, &err));

    // Trailing garbage is rejected too (payload must parse exactly).
    bad = good + "x";
    EXPECT_FALSE(net::decodeRequest(bad, out, &err));

    // Hostile tensor element count: huge count, no payload behind it.
    std::string hostile;
    net::wire::putU32(hostile, net::kRequestMagic);
    net::wire::putU16(hostile, net::kProtocolVersion);
    net::wire::putU8(hostile, 0);  // metric
    net::wire::putU8(hostile, 1);  // hasData
    net::wire::putString(hostile, "void f() {}");
    net::wire::putU32(hostile, 0); // scalars
    net::wire::putU32(hostile, 1); // one tensor...
    net::wire::putString(hostile, "X");
    net::wire::putU32(hostile, 0x7fffffff); // ...claiming 2^31 elements
    EXPECT_FALSE(net::decodeRequest(hostile, out, &err));

    // Response side: truncation prefixes fail as well.
    net::NetResponse resp;
    resp.status = net::Status::Ok;
    resp.prediction = somePrediction(7);
    std::string goodResp = net::encodeResponse(resp);
    net::NetResponse rout;
    for (size_t cut = 0; cut < goodResp.size(); ++cut)
        EXPECT_FALSE(
            net::decodeResponse(goodResp.substr(0, cut), rout, &err));
}

// A peer that never reads cannot park a writer: once the payload has
// filled both socket buffers, writeFrame gives up at the deadline and
// says so in errno, which a closed peer does not.
TEST(Protocol, WriteFrameGivesUpOnAPeerThatNeverReads)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int sndBuf = 0, rcvBuf = 0;
    socklen_t len = sizeof sndBuf;
    ::getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndBuf, &len);
    len = sizeof rcvBuf;
    ::getsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &rcvBuf, &len);
    const std::string payload(size_t(4) * size_t(sndBuf + rcvBuf), 'x');

    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(net::writeFrame(fds[0], payload));
    EXPECT_EQ(errno, ETIMEDOUT);
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_GE(waited, net::kFrameDeadline);
    EXPECT_LT(waited, net::kFrameDeadline + std::chrono::seconds(1));

    ::close(fds[1]);
    EXPECT_FALSE(net::writeFrame(fds[0], "reply"));
    EXPECT_NE(errno, ETIMEDOUT);
    ::close(fds[0]);
}

// ---------------------------------------------------------------------------
// Result-cache snapshot

namespace {

/** The prediction stored under `key`, or a failed test. */
model::NumericPrediction
findEntry(const std::vector<serve::ResultCache::Entry>& entries,
          const serve::ResultKey& key)
{
    for (const auto& e : entries)
        if (e.first == key)
            return e.second;
    ADD_FAILURE() << "no entry for program " << key.program;
    return {};
}

} // namespace

TEST(PersistentCache, PutGetAndLruEviction)
{
    serve::ResultCache cache(3);
    for (uint64_t i = 0; i < 3; ++i)
        cache.put(someKey(i), somePrediction(long(i)));
    EXPECT_EQ(cache.size(), 3u);

    // Touch key 0 so key 1 is the LRU tail, then overflow.
    model::NumericPrediction out;
    ASSERT_TRUE(cache.get(someKey(0), out));
    EXPECT_EQ(out.value, 0);
    cache.put(someKey(9), somePrediction(9));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.get(someKey(1), out)); // evicted
    EXPECT_TRUE(cache.get(someKey(0), out));
    EXPECT_TRUE(cache.get(someKey(9), out));
}

TEST(PersistentCache, SaveLoadRoundTripIsBitExact)
{
    std::string path = tempPath("roundtrip");
    serve::ResultCache cache(16);
    model::NumericPrediction pred = somePrediction(98765);
    pred.digitProbs = {0.3333333333333333, 1e-300};
    pred.logProb = -2.718281828459045;
    cache.put(someKey(11), pred);
    cache.put(someKey(22), somePrediction(4));
    ASSERT_TRUE(net::saveSnapshot(path, cache.entries()));

    net::Snapshot snap = net::loadSnapshot(path, /*modelVersion=*/0);
    EXPECT_TRUE(snap.fileFound);
    EXPECT_TRUE(snap.clean);
    EXPECT_EQ(snap.entries.size(), 2u);
    EXPECT_EQ(snap.staleSkipped, 0u);
    expectBitEqual(findEntry(snap.entries, someKey(11)), pred);
    std::remove(path.c_str());
}

TEST(PersistentCache, ReloadIntoASmallerCacheKeepsTheMostRecentlyUsed)
{
    std::string path = tempPath("recency");
    serve::ResultCache cache(8);
    for (uint64_t i = 0; i < 4; ++i)
        cache.put(someKey(i), somePrediction(long(i)));
    // Use order, oldest to newest: 2, 0, 3, 1.
    model::NumericPrediction out;
    for (uint64_t i : {2u, 0u, 3u, 1u})
        ASSERT_TRUE(cache.get(someKey(i), out));
    ASSERT_TRUE(net::saveSnapshot(path, cache.entries()));

    serve::ResultCache small(2);
    for (const auto& e : net::loadSnapshot(path, 0).entries)
        small.put(e.first, e.second);
    EXPECT_EQ(small.size(), 2u);
    EXPECT_TRUE(small.get(someKey(3), out));
    EXPECT_TRUE(small.get(someKey(1), out));
    EXPECT_FALSE(small.get(someKey(0), out));
    EXPECT_FALSE(small.get(someKey(2), out));
    std::remove(path.c_str());
}

TEST(PersistentCache, HandWrittenVersionTwoFileLoads)
{
    // The LMPC v2 layout spelled out field by field, independent of
    // saveSnapshot(), so a format drift cannot hide behind a round trip.
    // v1 had the same fields, but its answers came from a forward whose
    // bits differ from today's serving, so a v1 file must load nothing.
    auto fileBytes = [](uint32_t format) {
        std::string bytes;
        net::wire::putU32(bytes, 0x4C4D5043); // "LMPC"
        net::wire::putU32(bytes, format);
        net::wire::putU64(bytes, 1);          // entry count
        net::wire::putU64(bytes, 77);         // program
        net::wire::putU64(bytes, 78);         // input
        net::wire::putI32(bytes, int(model::Metric::Area));
        net::wire::putU64(bytes, 3);          // model version
        net::wire::putI64(bytes, 4242);       // value
        net::wire::putU32(bytes, 2);          // digits
        net::wire::putI32(bytes, 4);
        net::wire::putI32(bytes, 2);
        net::wire::putU32(bytes, 1);          // digit probabilities
        net::wire::putF64(bytes, 0.75);
        net::wire::putF64(bytes, -0.5);       // log-prob
        return bytes;
    };
    auto writeFile = [](const std::string& path, const std::string& bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };
    std::string path = tempPath("v2");
    writeFile(path, fileBytes(2));

    net::Snapshot snap = net::loadSnapshot(path, /*modelVersion=*/3);
    EXPECT_TRUE(snap.clean);
    ASSERT_EQ(snap.entries.size(), 1u);
    const serve::ResultKey& key = snap.entries[0].first;
    EXPECT_EQ(key.program, 77u);
    EXPECT_EQ(key.input, 78u);
    EXPECT_EQ(key.metric, int(model::Metric::Area));
    EXPECT_EQ(key.version, 3u);
    model::NumericPrediction want;
    want.value = 4242;
    want.digits = {4, 2};
    want.digitProbs = {0.75};
    want.logProb = -0.5;
    expectBitEqual(snap.entries[0].second, want);

    writeFile(path, fileBytes(1));
    snap = net::loadSnapshot(path, /*modelVersion=*/3);
    EXPECT_TRUE(snap.fileFound);
    EXPECT_FALSE(snap.clean);
    EXPECT_TRUE(snap.entries.empty());
    std::remove(path.c_str());
}

TEST(PersistentCache, MissingFileIsACleanColdStart)
{
    net::Snapshot snap =
        net::loadSnapshot("/tmp/llm_net_definitely_absent.bin", 0);
    EXPECT_FALSE(snap.fileFound);
    EXPECT_TRUE(snap.clean);
    EXPECT_TRUE(snap.entries.empty());
}

TEST(PersistentCache, StaleModelVersionEntriesAreSkipped)
{
    std::string path = tempPath("stale");
    serve::ResultCache cache(16);
    cache.put(someKey(1, /*version=*/0), somePrediction(1));
    cache.put(someKey(2, /*version=*/5), somePrediction(2));
    cache.put(someKey(3, /*version=*/5), somePrediction(3));
    ASSERT_TRUE(net::saveSnapshot(path, cache.entries()));

    net::Snapshot snap = net::loadSnapshot(path, /*modelVersion=*/5);
    EXPECT_TRUE(snap.clean);
    EXPECT_EQ(snap.entries.size(), 2u);
    EXPECT_EQ(snap.staleSkipped, 1u);
    for (const auto& e : snap.entries)
        EXPECT_EQ(e.first.version, 5u);
    std::remove(path.c_str());
}

TEST(PersistentCache, TruncatedFileKeepsCleanPrefixWithoutCrashing)
{
    std::string path = tempPath("trunc");
    serve::ResultCache cache(16);
    for (uint64_t i = 0; i < 4; ++i)
        cache.put(someKey(i), somePrediction(long(i)));
    ASSERT_TRUE(net::saveSnapshot(path, cache.entries()));

    // Chop the file at several points; every prefix must load without
    // crashing and never report clean.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t(13)}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(cut));
        out.close();
        net::Snapshot snap = net::loadSnapshot(path, 0);
        EXPECT_TRUE(snap.fileFound);
        EXPECT_FALSE(snap.clean) << "cut=" << cut;
        EXPECT_LT(snap.entries.size(), 4u);
    }
    std::remove(path.c_str());
}

TEST(PersistentCache, WrongMagicAndFormatVersionLoadNothing)
{
    std::string path = tempPath("header");

    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a cache file at all";
    }
    net::Snapshot snap = net::loadSnapshot(path, 0);
    EXPECT_TRUE(snap.fileFound);
    EXPECT_FALSE(snap.clean);
    EXPECT_TRUE(snap.entries.empty());

    // Right magic, future format version.
    std::string bytes;
    net::wire::putU32(bytes, net::kSnapshotMagic);
    net::wire::putU32(bytes, net::kSnapshotFormat + 1);
    net::wire::putU64(bytes, 0);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    snap = net::loadSnapshot(path, 0);
    EXPECT_FALSE(snap.clean);
    EXPECT_TRUE(snap.entries.empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FleetServer end to end (loopback TCP)

TEST(FleetServer, WireRoundTripIsBitIdenticalToInProcessServing)
{
    net::FleetConfig cfg;
    cfg.shards = 2;
    cfg.serve.workers = 2;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();
    ASSERT_GT(fleet.port(), 0);

    serve::ServeConfig localCfg;
    localCfg.workers = 2;
    serve::PredictionServer local(tinyModel(), localCfg);

    net::FleetClient client;
    ASSERT_TRUE(client.connectLoopback(fleet.port()));

    for (long bias : {3L, 5L, 11L}) {
        DataflowGraph g = makeGraph(util::format("wire-%ld", bias), bias);
        RuntimeData d = makeData(32 + bias);
        for (int m = 0; m < model::kNumMetrics; ++m) {
            auto metric = static_cast<model::Metric>(m);
            const dfir::RuntimeData* data =
                metric == model::Metric::Cycles ? &d : nullptr;
            net::NetResponse resp;
            ASSERT_TRUE(client.predict(g, data, metric, resp));
            ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
            expectBitEqual(resp.prediction, local.predict(g, data, metric));
        }
    }
    net::FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.ok, 12u);
    EXPECT_EQ(stats.badRequest, 0u);
}

TEST(FleetServer, EquivalentMutantsLandOnTheSameShardCache)
{
    net::FleetConfig cfg;
    cfg.shards = 4;
    cfg.serve.workers = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    DataflowGraph g = makeGraph("shard-base", 7);
    RuntimeData d = makeData(12);
    const uint64_t canon = canonicalHash(g);

    net::FleetClient client;
    ASSERT_TRUE(client.connectLoopback(fleet.port()));
    net::NetResponse first;
    ASSERT_TRUE(client.predict(g, &d, model::Metric::Cycles, first));
    ASSERT_EQ(first.status, net::Status::Ok) << first.error;
    EXPECT_FALSE(first.cacheHit);

    util::Rng rng(2026);
    for (int i = 0; i < 3; ++i) {
        synth::EquivalentMutant mut = synth::equivalentMutant(g, rng);
        ASSERT_EQ(canonicalHash(mut.graph), canon);
        EXPECT_EQ(net::FleetServer::shardOf(canonicalHash(mut.graph), 4),
                  net::FleetServer::shardOf(canon, 4));
        RuntimeData md = remapRuntimeData(d, mut.scalarRenames);
        net::NetResponse resp;
        ASSERT_TRUE(
            client.predict(mut.graph, &md, model::Metric::Cycles, resp));
        ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
        EXPECT_TRUE(resp.cacheHit); // the shard cache answered
        expectBitEqual(resp.prediction, first.prediction);
    }

    // The pin: one model call total — every mutant was answered by the
    // base program's shard-cache entry, proving canonical-hash sharding
    // routed them to the same shard.
    net::FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.shardModelCalls, 1u);
    EXPECT_EQ(stats.shardCacheHits, 3u);
}

TEST(FleetServer, UnparsableProgramAnswersBadRequestAndKeepsConnection)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    net::FleetClient client;
    ASSERT_TRUE(client.connectLoopback(fleet.port()));

    net::NetRequest req;
    req.program = "this is not a dataflow program";
    req.metric = model::Metric::Power;
    net::NetResponse resp;
    ASSERT_TRUE(client.call(req, resp));
    EXPECT_EQ(resp.status, net::Status::BadRequest);
    EXPECT_FALSE(resp.error.empty());

    // The connection survives a BadRequest: a valid query still works.
    DataflowGraph g = makeGraph("after-bad", 2);
    ASSERT_TRUE(client.predict(g, nullptr, model::Metric::Power, resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(fleet.stats().badRequest, 1u);
}

TEST(FleetServer, DeepProgramAnswersBadRequestAndKeepsConnection)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    net::FleetClient client;
    ASSERT_TRUE(client.connectLoopback(fleet.port()));

    // Nested parentheses filling almost a whole frame (4 MiB). The
    // parser refuses them at its nesting limit instead of overflowing
    // the connection thread's stack.
    const std::string parens(net::kMaxFrameBytes / 2 - 64, '(');
    net::NetRequest req;
    req.program = "void f(float A[4]) {\n  A[0] = " + parens + "1" +
                  std::string(parens.size(), ')') + ";\n}\n";
    ASSERT_LT(req.program.size(), net::kMaxFrameBytes);
    req.metric = model::Metric::Power;
    net::NetResponse resp;
    ASSERT_TRUE(client.call(req, resp));
    EXPECT_EQ(resp.status, net::Status::BadRequest);
    EXPECT_NE(resp.error.find("kMaxExprHeight"), std::string::npos)
        << resp.error;

    DataflowGraph g = makeGraph("after-deep", 2);
    ASSERT_TRUE(client.predict(g, nullptr, model::Metric::Power, resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(fleet.stats().badRequest, 1u);
}

// The parse limits also bound every walk after the parser (verify,
// canonicalize, hash, print, the forward's tokenizer): a program at both
// limits is served from a connection thread's stack.
TEST(FleetServer, ProgramAtTheParseLimitsIsServed)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    // An assignment of kMaxExprHeight terms, kMaxStmtDepth deep.
    std::string sum = "N";
    for (int i = 1; i < dfir::kMaxExprHeight; ++i)
        sum += " + N";
    std::string body = "A[0] = " + sum + ";\n";
    for (int i = 1; i < dfir::kMaxStmtDepth; ++i)
        body = "if (N > 0) {\n" + body + "}\n";
    net::NetRequest req;
    req.program = "void f(int N, float A[4]) {\n" + body + "}\n";
    req.hasData = true;
    req.data.scalars["N"] = 3;
    req.metric = model::Metric::Cycles;

    net::FleetClient client;
    ASSERT_TRUE(client.connectLoopback(fleet.port()));
    net::NetResponse resp;
    ASSERT_TRUE(client.call(req, resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
}

TEST(FleetServer, VersionOneRequestAnswersBadRequestAndKeepsConnection)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    // A raw connection: FleetClient only speaks the current version.
    int fd = connectRaw(fleet.port());
    ASSERT_GE(fd, 0);
    auto roundTrip = [fd](const std::string& payload, net::NetResponse& r) {
        std::string reply;
        return net::writeFrame(fd, payload) &&
               net::readFrame(fd, reply) == net::FrameRead::Ok &&
               net::decodeResponse(reply, r);
    };

    net::NetResponse resp;
    ASSERT_TRUE(roundTrip(handWrittenRequest(1, /*priority=*/1), resp));
    EXPECT_EQ(resp.status, net::Status::BadRequest);
    EXPECT_EQ(resp.error, "unsupported protocol version");

    // The same connection then serves a current request.
    net::NetRequest req;
    req.program = dfir::printStatic(makeGraph("after-v1", 3));
    req.metric = model::Metric::Power;
    ASSERT_TRUE(roundTrip(net::encodeRequest(req), resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    ::close(fd);

    net::FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.badRequest, 1u);
    EXPECT_EQ(stats.ok, 1u);
}

TEST(FleetServer, VerifierErrorsAnswerBadRequest)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();
    // Programs that parse but fail verification, with their error's gist.
    const std::vector<std::pair<std::string, std::string>> rejects = {
        {"void f(float A[4]) {\n"
         "  A[0] = 1;\n"
         "}\n"
         "void dataflow() {\n"
         "  f();\n"
         "  nope();\n"
         "}\n",
         "undefined operator 'nope'"},
        {"void f(float A[4]) {\n"
         "  A[j] = 1;\n"
         "}\n"
         "void dataflow() {\n"
         "  f();\n"
         "}\n",
         "scalar 'j' is not a declared parameter"},
        {"void f(float A[4]) {\n"
         "  for (int i = 0; i < 4; i += 1) {\n"
         "    for (int i = 0; i < 4; i += 1) {\n"
         "      A[i] = 1;\n"
         "    }\n"
         "  }\n"
         "}\n"
         "void dataflow() {\n"
         "  f();\n"
         "}\n",
         "loop variable 'i' shadows an enclosing"},
    };
    for (const auto& [text, gist] : rejects) {
        SCOPED_TRACE(text);
        net::NetRequest req;
        req.program = text;
        req.metric = model::Metric::Power;
        net::NetResponse resp = fleet.handle(req);
        EXPECT_EQ(resp.status, net::Status::BadRequest);
        EXPECT_EQ(resp.error.rfind("verify error", 0), 0u) << resp.error;
        EXPECT_NE(resp.error.find(gist), std::string::npos) << resp.error;
    }
    EXPECT_EQ(fleet.stats().shardModelCalls, 0u);

    // Warnings alone are served: a rank-mismatched read is a
    // documented simulator fallback, not an error.
    net::NetRequest warned;
    warned.program = "void f(float A[4][4]) {\n"
                     "  A[0][0] = A[1];\n"
                     "}\n"
                     "void dataflow() {\n"
                     "  f();\n"
                     "}\n";
    warned.metric = model::Metric::Power;
    VerifyResult diags = parseProgram(warned.program).diagnostics;
    ASSERT_TRUE(diags.ok()) << diags.str();
    ASSERT_EQ(diags.warningCount(), 1u);
    net::NetResponse resp = fleet.handle(warned);
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;

    // Over a socket, the connection survives the BadRequest.
    net::FleetClient client;
    ASSERT_TRUE(client.connectLoopback(fleet.port()));
    net::NetRequest req;
    req.program = rejects.front().first;
    req.metric = model::Metric::Power;
    ASSERT_TRUE(client.call(req, resp));
    EXPECT_EQ(resp.status, net::Status::BadRequest);
    EXPECT_NE(resp.error.find(rejects.front().second), std::string::npos)
        << resp.error;
    DataflowGraph g = makeGraph("after-verify-error", 2);
    ASSERT_TRUE(client.predict(g, nullptr, model::Metric::Power, resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    net::FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.badRequest, rejects.size() + 1);
    EXPECT_EQ(stats.ok, 2u);
}

TEST(FleetServer, OverloadAnswersExplicitlyUnderEightClientThreads)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    cfg.serve.workers = 1;
    cfg.serve.queueCapacity = 2;
    cfg.serve.cacheCapacity = 0; // every accepted request costs work
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    constexpr int kClients = 8;
    constexpr int kPerClient = 12;
    std::atomic<uint64_t> ok{0}, overloaded{0}, failed{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            net::FleetClient client;
            if (!client.connectLoopback(fleet.port())) {
                failed.fetch_add(kPerClient);
                return;
            }
            DataflowGraph g = makeGraph("overload", 3);
            for (int i = 0; i < kPerClient; ++i) {
                // Distinct inputs -> every accepted request is a miss.
                RuntimeData d = makeData(1000 + t * 100 + i);
                net::NetResponse resp;
                if (!client.predict(g, &d, model::Metric::Cycles, resp)) {
                    failed.fetch_add(1);
                    continue;
                }
                if (resp.status == net::Status::Ok)
                    ok.fetch_add(1);
                else if (resp.status == net::Status::Overloaded)
                    overloaded.fetch_add(1);
                else
                    failed.fetch_add(1);
            }
        });
    }
    for (auto& t : clients)
        t.join(); // completing at all is the no-deadlock pin

    EXPECT_EQ(ok.load() + overloaded.load() + failed.load(),
              uint64_t(kClients) * kPerClient);
    EXPECT_EQ(failed.load(), 0u);
    EXPECT_GT(ok.load(), 0u);
    // Eight blocking clients against one worker and a two-slot queue
    // must find it full.
    EXPECT_GT(overloaded.load(), 0u);

    // A full queue is the only refusal: each OVERLOADED reply is one
    // shard rejection.
    net::FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.overloaded, overloaded.load());
    EXPECT_EQ(stats.shardRejected, overloaded.load());
}

TEST(FleetServer, PersistentCacheSurvivesRestart)
{
    std::string path = tempPath("restart");
    std::remove(path.c_str());

    DataflowGraph g1 = makeGraph("persist-a", 3);
    DataflowGraph g2 = makeGraph("persist-b", 9);
    RuntimeData d = makeData(24);
    model::NumericPrediction firstPred;

    {
        net::FleetConfig cfg;
        cfg.shards = 2;
        cfg.persistPath = path;
        net::FleetServer fleet(tinyModel(), cfg);
        fleet.start();
        net::FleetClient client;
        ASSERT_TRUE(client.connectLoopback(fleet.port()));
        net::NetResponse resp;
        ASSERT_TRUE(client.predict(g1, &d, model::Metric::Cycles, resp));
        ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
        firstPred = resp.prediction;
        ASSERT_TRUE(client.predict(g2, nullptr, model::Metric::Area, resp));
        ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
        fleet.stop(); // snapshots the shard caches
    }

    // A brand-new fleet (fresh model clone of the same seeded config)
    // must answer the replayed queries from its warmed shard caches
    // without any model work — also with a different shard count, since
    // the load routes every entry by the shard rule.
    for (int shards : {2, 3}) {
        net::FleetConfig cfg;
        cfg.shards = shards;
        cfg.persistPath = path;
        net::FleetServer fleet(tinyModel(), cfg);
        net::FleetStats cold = fleet.stats();
        EXPECT_EQ(cold.persistLoaded, 2u);
        EXPECT_EQ(cold.persistStale, 0u);
        fleet.start();
        net::FleetClient client;
        ASSERT_TRUE(client.connectLoopback(fleet.port()));
        net::NetResponse resp;
        ASSERT_TRUE(client.predict(g1, &d, model::Metric::Cycles, resp));
        ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
        EXPECT_TRUE(resp.cacheHit);
        expectBitEqual(resp.prediction, firstPred);
        ASSERT_TRUE(client.predict(g2, nullptr, model::Metric::Area, resp));
        EXPECT_TRUE(resp.cacheHit);
        net::FleetStats warm = fleet.stats();
        EXPECT_EQ(warm.shardCacheHits, 2u);
        EXPECT_EQ(warm.shardModelCalls, 0u);
    }
    std::remove(path.c_str());
}

TEST(FleetServer, OversizedFrameHeaderClosesOnlyItsOwnConnection)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();
    net::FleetClient bystander;
    ASSERT_TRUE(bystander.connectLoopback(fleet.port()));
    const uint64_t badFramesBefore = fleet.stats().badFrames;

    int fd = connectRaw(fleet.port());
    ASSERT_GE(fd, 0);
    timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    // A header announcing one byte over the bound, and no payload.
    std::string header;
    net::wire::putU32(header, uint32_t(net::kMaxFrameBytes + 1));
    ASSERT_EQ(::send(fd, header.data(), header.size(), MSG_NOSIGNAL),
              ssize_t(header.size()));
    // The server refuses the length before it reads or allocates a
    // payload, and closes: EOF now, not a timeout waiting for bytes.
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    // The other connection is still served.
    net::NetResponse resp;
    ASSERT_TRUE(bystander.predict(makeGraph("bystander", 5), nullptr,
                                  model::Metric::Power, resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(fleet.stats().requests, 1u); // a framing violation is none
    // ...but it is counted, once, in the stats and the registry row.
    EXPECT_EQ(fleet.stats().badFrames, badFramesBefore + 1);
    const obs::Counter* badFrames =
        fleet.telemetry().findCounter("net.bad_frame");
    ASSERT_NE(badFrames, nullptr);
    EXPECT_EQ(badFrames->total(), fleet.stats().badFrames);
}

TEST(FleetServer, ClosedConnectionsReleaseTheirThreads)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    cfg.serve.workers = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();
    const size_t idleThreads = liveThreads();
    ASSERT_GT(idleThreads, 0u);
    DataflowGraph g = makeGraph("reap", 4);
    // Each cycle ends once the server's connection thread has exited,
    // so connection threads never overlap and the allocator never adds
    // an arena (64 MB of address space) for them: what VmSize can still
    // gain is the stacks of exited threads that nobody joined.
    auto connectPredictClose = [&] {
        {
            net::FleetClient client;
            ASSERT_TRUE(client.connectLoopback(fleet.port()));
            net::NetResponse resp;
            ASSERT_TRUE(client.predict(g, nullptr, model::Metric::Power, resp));
            EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (liveThreads() > idleThreads &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    connectPredictClose(); // first thread stack, allocator arena, cache
    const long before = vmSizeKb();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 100; ++i)
        connectPredictClose();
    // An exited thread keeps its stack mapped until it is joined (8 MiB
    // by default), so 100 unjoined ones grow VmSize by ~800 MB. Joined
    // as their connections close, they leave a stack or two at most.
    const long grownMb = (vmSizeKb() - before) / 1024;
    EXPECT_LT(grownMb, 100) << "VmSize grew " << grownMb << " MB";
    EXPECT_EQ(fleet.stats().ok, 101u);
}

TEST(FleetServer, StalledHalfFrameIsDroppedAtTheDeadline)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    cfg.maxConnections = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    int fd = connectRaw(fleet.port());
    ASSERT_GE(fd, 0);
    timeval timeout{8, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    // Two of the four header bytes, then silence: the connection holds
    // the fleet's only slot until the server gives up on the frame.
    const char half[2] = {8, 0};
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_EQ(::send(fd, half, sizeof half, MSG_NOSIGNAL),
              ssize_t(sizeof half));
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0); // EOF, not our own timeout
    const auto waited = std::chrono::steady_clock::now() - sent;
    ::close(fd);
    EXPECT_GE(waited, net::kFrameDeadline);
    EXPECT_LT(waited, net::kFrameDeadline + std::chrono::seconds(3));

    // The slot is free again: the next client is served.
    net::FleetClient later;
    ASSERT_TRUE(later.connectLoopback(fleet.port()));
    net::NetResponse resp;
    ASSERT_TRUE(later.predict(makeGraph("after-stall", 2), nullptr,
                              model::Metric::Power, resp));
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(fleet.stats().badFrames, 1u);
    EXPECT_EQ(fleet.stats().requests, 1u);
}

// A client that pipelines requests and never reads its replies: the
// server answers until the replies fill the socket buffers, then drops
// the connection once a reply has waited out the frame deadline, and
// frees its only connection slot.
TEST(FleetServer, UnreadRepliesAreDroppedAtTheDeadline)
{
    net::FleetConfig cfg;
    cfg.shards = 1;
    cfg.maxConnections = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int smallBuf = 4096; // set before connect: bounds the window
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &smallBuf, sizeof smallBuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(fleet.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    // 100k one-byte frames, each answered with a BadRequest of ~80
    // bytes: more replies than the server's send buffer (at most
    // 4 MiB on Linux) and our window hold.
    std::string frames;
    for (int i = 0; i < 100000; ++i) {
        net::wire::putU32(frames, 1);
        frames.push_back('x');
    }
    // Blocks once the server stops reading; returns when it closes.
    std::thread sender([&] {
        ::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL);
    });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (fleet.stats().badFrames == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(fleet.stats().badFrames, 1u);
    ::shutdown(fd, SHUT_RDWR); // unblocks the sender either way
    sender.join();
    ::close(fd);

    // The slot is free again once the dropped connection deregisters.
    net::NetResponse resp;
    bool served = false;
    for (int attempt = 0; attempt < 100 && !served; ++attempt) {
        net::FleetClient later;
        served = later.connectLoopback(fleet.port()) &&
                 later.predict(makeGraph("after-unread", 3), nullptr,
                               model::Metric::Power, resp);
        if (!served)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(served);
    EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
    EXPECT_EQ(fleet.stats().badFrames, 1u);
}

TEST(FleetServer, TracedConnectionsShareOneSpanRing)
{
    struct TraceOn
    {
        TraceOn() { obs::setTraceEnabled(true); }
        ~TraceOn()
        {
            obs::setTraceEnabled(false);
            obs::clearSpans();
        }
    } traceOn;
    net::FleetConfig cfg;
    cfg.shards = 1;
    cfg.serve.workers = 1;
    net::FleetServer fleet(tinyModel(), cfg);
    fleet.start();
    const size_t idleThreads = liveThreads();
    DataflowGraph g = makeGraph("traced-reap", 4);
    // As in ClosedConnectionsReleaseTheirThreads, but each connection
    // thread records a serve.request span when its cache hit answers.
    auto connectPredictClose = [&] {
        {
            net::FleetClient client;
            ASSERT_TRUE(client.connectLoopback(fleet.port()));
            net::NetResponse resp;
            ASSERT_TRUE(client.predict(g, nullptr, model::Metric::Power, resp));
            EXPECT_EQ(resp.status, net::Status::Ok) << resp.error;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (liveThreads() > idleThreads &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    connectPredictClose(); // first thread stack, arena, cache, span ring
    const long before = vmSizeKb();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 100; ++i)
        connectPredictClose();
    // Every cycle's connection thread records a span; a 640 KiB ring
    // per recording thread would add ~64 MB here. The process ring is
    // reserved once, in the first cycle.
    const long grownMb = (vmSizeKb() - before) / 1024;
    EXPECT_LT(grownMb, 32) << "VmSize grew " << grownMb << " MB";
    EXPECT_EQ(fleet.stats().ok, 101u);
}
