#include "net/fleet_server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dfir/parser.h"
#include "net/snapshot.h"
#include "util/common.h"
#include "util/env.h"

namespace llmulator {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Records its own lifetime, in ms, into a histogram. */
class ScopeTimer
{
  public:
    explicit ScopeTimer(obs::Histogram& h) : h_(h) {}
    ~ScopeTimer() { h_.record(msBetween(t0_, Clock::now())); }
    ScopeTimer(const ScopeTimer&) = delete;
    ScopeTimer& operator=(const ScopeTimer&) = delete;

  private:
    obs::Histogram& h_;
    const Clock::time_point t0_ = Clock::now();
};

/** The first verifier error as "verify error[op]: message"; "" if none. */
std::string
firstVerifyError(const dfir::VerifyResult& v)
{
    for (const dfir::Diagnostic& d : v.diags)
        if (d.severity == dfir::Severity::Error)
            return "verify error" + (d.op.empty() ? "" : "[" + d.op + "]") +
                   ": " + d.message;
    return "";
}

FleetConfig
normalized(FleetConfig cfg)
{
    cfg.shards = std::max(1, cfg.shards);
    cfg.maxConnections = std::max(1, cfg.maxConnections);
    return cfg;
}

} // namespace

FleetConfig
fleetConfigFromEnv(FleetConfig base)
{
    base.port = util::envInt("LLMULATOR_NET_PORT", base.port);
    base.shards = util::envInt("LLMULATOR_NET_SHARDS", base.shards);
    base.maxConnections =
        util::envInt("LLMULATOR_NET_MAX_CONNS", base.maxConnections);
    base.persistPath =
        util::envString("LLMULATOR_NET_CACHE_FILE", base.persistPath);
    return base;
}

FleetServer::FleetServer(std::unique_ptr<model::CostModel> model,
                         const FleetConfig& cfg)
    : cfg_(normalized(cfg)),
      requests_(telemetry_.counter("net.requests")),
      okCount_(telemetry_.counter("net.ok")),
      overloadedCount_(telemetry_.counter("net.overloaded")),
      badRequestCount_(telemetry_.counter("net.bad_request")),
      errorCount_(telemetry_.counter("net.error")),
      badFrameCount_(telemetry_.counter("net.bad_frame")),
      handleMs_(telemetry_.histogram("net.handle_ms"))
{
    LLM_CHECK(model != nullptr, "FleetServer needs a model");
    LLM_CHECK(!cfg_.serve.calibration.enabled,
              "fleet shards must not calibrate: per-shard hot-swaps would "
              "fork the model version the cache snapshot is keyed by");
    modelVersion_ = model->version();
    shards_.reserve(static_cast<size_t>(cfg_.shards));
    for (int i = 1; i < cfg_.shards; ++i)
        shards_.push_back(std::make_unique<serve::PredictionServer>(
            model->clone(), cfg_.serve));
    shards_.push_back(std::make_unique<serve::PredictionServer>(
        std::move(model), cfg_.serve));
    if (!cfg_.persistPath.empty()) {
        Snapshot snap = loadSnapshot(cfg_.persistPath, modelVersion_);
        for (const serve::ResultCache::Entry& e : snap.entries)
            shards_[shardOf(e.first.program, shards_.size())]->cache().put(
                e.first, e.second);
        persistLoaded_ = snap.entries.size();
        persistStale_ = snap.staleSkipped;
    }
}

FleetServer::~FleetServer()
{
    stop();
}

void
FleetServer::start()
{
    if (running_.exchange(true, std::memory_order_acq_rel))
        return;
    LLM_CHECK(!stopped_.load(std::memory_order_acquire),
              "FleetServer cannot restart after stop()");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    LLM_CHECK(listenFd_ >= 0, "FleetServer: socket() failed");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(cfg_.port));
    LLM_CHECK(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0,
              "FleetServer: bind() on loopback failed");
    LLM_CHECK(::listen(listenFd_, 128) == 0,
              "FleetServer: listen() failed");

    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = static_cast<int>(ntohs(addr.sin_port));

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
FleetServer::acceptLoop()
{
    // Poll with a short timeout instead of blocking in accept(), so
    // stop() only needs to flip the flag — no signal or socket trick
    // required to wake this thread portably.
    while (!stopped_.load(std::memory_order_acquire)) {
        reapFinished();
        pollfd pfd{listenFd_, POLLIN, 0};
        int pr = ::poll(&pfd, 1, /*timeout_ms=*/50);
        if (pr <= 0)
            continue;
        int cfd = ::accept(listenFd_, nullptr, nullptr);
        if (cfd < 0)
            continue;
        std::lock_guard<std::mutex> lk(connMu_);
        if (stopped_.load(std::memory_order_acquire) ||
            conns_.size() >= static_cast<size_t>(cfg_.maxConnections)) {
            ::close(cfd); // over the connection budget: refuse at accept
            continue;
        }
        // Registered under connMu_, which the thread takes before it
        // deregisters, so its entry exists by the time it looks.
        conns_.emplace(cfd,
                       std::thread([this, cfd] { connectionLoop(cfd); }));
    }
}

void
FleetServer::reapFinished()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        done.swap(finished_);
    }
    // Joined without connMu_: these threads have handed themselves
    // over and only close their descriptor before they return.
    for (std::thread& t : done)
        t.join();
}

void
FleetServer::connectionLoop(int fd)
{
    std::string payload;
    FrameRead got = FrameRead::Ok;
    while ((got = readFrame(fd, payload)) == FrameRead::Ok) {
        NetRequest req;
        NetResponse resp;
        std::string err;
        if (decodeRequest(payload, req, &err)) {
            resp = handle(req);
        } else {
            // A cleanly framed but undecodable payload gets an explicit
            // answer; only framing violations drop the connection.
            requests_.add(1);
            badRequestCount_.add(1);
            resp.status = Status::BadRequest;
            resp.error = err;
        }
        if (!writeFrame(fd, encodeResponse(resp)))
            break;
    }
    if (got == FrameRead::Oversized || got == FrameRead::Stalled)
        badFrameCount_.add(1);
    {
        // Deregister before close so stop() never shutdown()s a
        // recycled descriptor, and hand this thread over to be joined.
        std::lock_guard<std::mutex> lk(connMu_);
        auto it = conns_.find(fd);
        finished_.push_back(std::move(it->second));
        conns_.erase(it);
        connCv_.notify_all();
    }
    ::close(fd);
}

NetResponse
FleetServer::handle(const NetRequest& req)
{
    const ScopeTimer timer(handleMs_);
    requests_.add(1);
    NetResponse resp;
    resp.modelVersion = modelVersion_;

    dfir::ParseResult parsed = dfir::parseProgram(req.program);
    // A program the verifier rejects would get, and cache, a prediction
    // for malformed IR; warnings mark tolerated fallbacks and are served.
    std::string invalid = parsed.ok ? firstVerifyError(parsed.diagnostics)
                                    : "parse error: " + parsed.error;
    if (!invalid.empty()) {
        badRequestCount_.add(1);
        resp.status = Status::BadRequest;
        resp.error = std::move(invalid);
        return resp;
    }

    // One key derivation picks the shard and keys its result cache, so
    // equivalent programs share a shard and one cache entry; the shard
    // takes the key as is instead of canonicalizing again.
    const dfir::RuntimeData* data = req.hasData ? &req.data : nullptr;
    const serve::ResultKey key =
        serve::makeResultKey(parsed.graph, data, req.metric);
    serve::Admission adm =
        shards_[shardOf(key.program, shards_.size())]->submitIfAdmitted(
            key, parsed.graph, data);
    if (adm.status != serve::AdmitStatus::Accepted) {
        overloadedCount_.add(1);
        resp.status = Status::Overloaded;
        resp.error = "rejected: queue full";
        return resp;
    }

    try {
        resp.prediction = adm.future.get();
    } catch (const std::exception& e) {
        errorCount_.add(1);
        resp.status = Status::Error;
        resp.error = e.what();
        return resp;
    }
    okCount_.add(1);
    resp.status = Status::Ok;
    resp.cacheHit = adm.cacheHit;
    return resp;
}

void
FleetServer::stop()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Unblock every connection read, wait until each has handed its
    // thread over, then join them all. Threads deregister their fd
    // before closing it, so each shutdown() hits a live one.
    {
        std::unique_lock<std::mutex> lk(connMu_);
        for (const auto& conn : conns_)
            ::shutdown(conn.first, SHUT_RDWR);
        connCv_.wait(lk, [this] { return conns_.empty(); });
    }
    reapFinished();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Connections are gone; drain the shards, then snapshot their
    // caches with every completed prediction included.
    for (auto& s : shards_)
        s->stop();
    if (!cfg_.persistPath.empty()) {
        std::vector<serve::ResultCache::Entry> entries;
        for (auto& s : shards_) {
            std::vector<serve::ResultCache::Entry> part = s->cache().entries();
            entries.insert(entries.end(), part.begin(), part.end());
        }
        saveSnapshot(cfg_.persistPath, entries);
    }
}

FleetStats
FleetServer::stats() const
{
    FleetStats s;
    s.requests = requests_.total();
    s.ok = okCount_.total();
    s.overloaded = overloadedCount_.total();
    s.badRequest = badRequestCount_.total();
    s.errors = errorCount_.total();
    s.badFrames = badFrameCount_.total();
    s.persistLoaded = persistLoaded_;
    s.persistStale = persistStale_;
    for (const auto& shard : shards_) {
        serve::ServerStats ss = shard->stats();
        s.shardCacheHits += ss.cacheHits;
        s.shardCacheMisses += ss.cacheMisses;
        s.shardModelCalls += ss.modelCalls;
        s.shardRejected += ss.rejected;
    }
    return s;
}

} // namespace net
} // namespace llmulator
