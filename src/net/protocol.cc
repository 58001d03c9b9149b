#include "net/protocol.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

namespace llmulator {
namespace net {

namespace wire {

namespace {

template <typename T>
void
putLe(std::string& buf, T v)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        buf.push_back(char((static_cast<uint64_t>(v) >> (8 * i)) & 0xff));
}

} // namespace

void
putU8(std::string& buf, uint8_t v)
{
    buf.push_back(char(v));
}

void
putU16(std::string& buf, uint16_t v)
{
    putLe(buf, v);
}

void
putU32(std::string& buf, uint32_t v)
{
    putLe(buf, v);
}

void
putU64(std::string& buf, uint64_t v)
{
    putLe(buf, v);
}

void
putI64(std::string& buf, int64_t v)
{
    putLe(buf, static_cast<uint64_t>(v));
}

void
putI32(std::string& buf, int32_t v)
{
    putLe(buf, static_cast<uint32_t>(v));
}

void
putF64(std::string& buf, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putLe(buf, bits);
}

void
putString(std::string& buf, const std::string& s)
{
    putU32(buf, static_cast<uint32_t>(s.size()));
    buf.append(s);
}

bool
Reader::take(size_t k, const char** out)
{
    if (!ok_ || n_ - off_ < k) {
        ok_ = false;
        return false;
    }
    *out = p_ + off_;
    off_ += k;
    return true;
}

uint8_t
Reader::u8()
{
    const char* p;
    return take(1, &p) ? static_cast<uint8_t>(*p) : 0;
}

uint16_t
Reader::u16()
{
    const char* p;
    if (!take(2, &p))
        return 0;
    uint16_t v = 0;
    for (size_t i = 0; i < 2; ++i)
        v = uint16_t(v | (uint16_t(uint8_t(p[i])) << (8 * i)));
    return v;
}

uint32_t
Reader::u32()
{
    const char* p;
    if (!take(4, &p))
        return 0;
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i)
        v |= uint32_t(uint8_t(p[i])) << (8 * i);
    return v;
}

uint64_t
Reader::u64()
{
    const char* p;
    if (!take(8, &p))
        return 0;
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i)
        v |= uint64_t(uint8_t(p[i])) << (8 * i);
    return v;
}

int64_t
Reader::i64()
{
    return static_cast<int64_t>(u64());
}

int32_t
Reader::i32()
{
    return static_cast<int32_t>(u32());
}

double
Reader::f64()
{
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return ok_ ? v : 0.0;
}

std::string
Reader::str()
{
    uint32_t len = u32();
    const char* p;
    // The length check doubles as the allocation guard: a hostile
    // length larger than the remaining payload fails before resize.
    if (!take(len, &p))
        return std::string();
    return std::string(p, len);
}

void
putPrediction(std::string& buf, const model::NumericPrediction& p)
{
    putI64(buf, p.value);
    putU32(buf, static_cast<uint32_t>(p.digits.size()));
    for (int d : p.digits)
        putI32(buf, d);
    putU32(buf, static_cast<uint32_t>(p.digitProbs.size()));
    for (double pr : p.digitProbs)
        putF64(buf, pr);
    putF64(buf, p.logProb);
}

bool
getPrediction(Reader& r, model::NumericPrediction& p)
{
    p.value = r.i64();
    uint32_t nd = r.u32();
    p.digits.clear();
    for (uint32_t i = 0; r.ok() && i < nd; ++i)
        p.digits.push_back(r.i32());
    uint32_t np = r.u32();
    p.digitProbs.clear();
    for (uint32_t i = 0; r.ok() && i < np; ++i)
        p.digitProbs.push_back(r.f64());
    p.logProb = r.f64();
    return r.ok();
}

} // namespace wire

namespace {

void
fail(std::string* error, const char* what)
{
    if (error)
        *error = what;
}

} // namespace

std::string
encodeRequest(const NetRequest& req)
{
    std::string buf;
    wire::putU32(buf, kRequestMagic);
    wire::putU16(buf, kProtocolVersion);
    wire::putU8(buf, static_cast<uint8_t>(req.metric));
    wire::putU8(buf, req.hasData ? 1 : 0);
    wire::putString(buf, req.program);
    if (req.hasData) {
        wire::putU32(buf, static_cast<uint32_t>(req.data.scalars.size()));
        for (const auto& kv : req.data.scalars) {
            wire::putString(buf, kv.first);
            wire::putI64(buf, kv.second);
        }
        wire::putU32(buf, static_cast<uint32_t>(req.data.tensors.size()));
        for (const auto& kv : req.data.tensors) {
            wire::putString(buf, kv.first);
            wire::putU32(buf, static_cast<uint32_t>(kv.second.size()));
            for (double v : kv.second)
                wire::putF64(buf, v);
        }
    }
    return buf;
}

bool
decodeRequest(const std::string& payload, NetRequest& out, std::string* error)
{
    wire::Reader r(payload);
    if (r.u32() != kRequestMagic) {
        fail(error, "bad request magic");
        return false;
    }
    if (r.u16() != kProtocolVersion) {
        fail(error, "unsupported protocol version");
        return false;
    }
    uint8_t metric = r.u8();
    uint8_t hasData = r.u8();
    if (!r.ok() || metric >= model::kNumMetrics || hasData > 1) {
        fail(error, "malformed request header");
        return false;
    }
    out.metric = static_cast<model::Metric>(metric);
    out.hasData = hasData != 0;
    out.program = r.str();
    out.data = dfir::RuntimeData();
    if (out.hasData) {
        uint32_t ns = r.u32();
        for (uint32_t i = 0; r.ok() && i < ns; ++i) {
            std::string name = r.str();
            out.data.scalars[name] = r.i64();
        }
        uint32_t nt = r.u32();
        for (uint32_t i = 0; r.ok() && i < nt; ++i) {
            std::string name = r.str();
            uint32_t elems = r.u32();
            // Guard the allocation against a hostile element count:
            // each element occupies 8 payload bytes, so `elems` can
            // never exceed what is actually left to read.
            if (r.remaining() / 8 < elems) {
                fail(error, "truncated tensor payload");
                return false;
            }
            std::vector<double>& t = out.data.tensors[name];
            t.reserve(elems);
            for (uint32_t e = 0; r.ok() && e < elems; ++e)
                t.push_back(r.f64());
        }
    }
    if (!r.done()) {
        fail(error, "truncated or oversized request payload");
        return false;
    }
    return true;
}

std::string
encodeResponse(const NetResponse& resp)
{
    std::string buf;
    wire::putU32(buf, kResponseMagic);
    wire::putU16(buf, kProtocolVersion);
    wire::putU8(buf, static_cast<uint8_t>(resp.status));
    wire::putU8(buf, resp.cacheHit ? 1 : 0);
    wire::putU64(buf, resp.modelVersion);
    wire::putPrediction(buf, resp.prediction);
    wire::putString(buf, resp.error);
    return buf;
}

bool
decodeResponse(const std::string& payload, NetResponse& out,
               std::string* error)
{
    wire::Reader r(payload);
    if (r.u32() != kResponseMagic) {
        fail(error, "bad response magic");
        return false;
    }
    if (r.u16() != kProtocolVersion) {
        fail(error, "unsupported protocol version");
        return false;
    }
    uint8_t status = r.u8();
    uint8_t cacheHit = r.u8();
    if (!r.ok() || status > static_cast<uint8_t>(Status::Error) ||
        cacheHit > 1) {
        fail(error, "malformed response header");
        return false;
    }
    out.status = static_cast<Status>(status);
    out.cacheHit = cacheHit != 0;
    out.modelVersion = r.u64();
    if (!wire::getPrediction(r, out.prediction)) {
        fail(error, "truncated prediction");
        return false;
    }
    out.error = r.str();
    if (!r.done()) {
        fail(error, "truncated or oversized response payload");
        return false;
    }
    return true;
}

namespace {

bool
sendAll(int fd, const char* buf, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t k = ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (k == 0)
            return false;
        off += static_cast<size_t>(k);
    }
    return true;
}

/** Receive exactly `n` bytes, polling before each recv so the read
 *  ends by `deadline`. */
FrameRead
recvBy(int fd, char* buf, size_t n,
       std::chrono::steady_clock::time_point deadline)
{
    size_t off = 0;
    while (off < n) {
        const auto left =
            std::chrono::ceil<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            return FrameRead::Stalled;
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, int(left));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return ready == 0 ? FrameRead::Stalled : FrameRead::Closed;
        const ssize_t k = ::recv(fd, buf + off, n - off, 0);
        if (k < 0 && errno == EINTR)
            continue;
        if (k <= 0)
            return FrameRead::Closed; // error or peer closed
        off += static_cast<size_t>(k);
    }
    return FrameRead::Ok;
}

} // namespace

bool
writeFrame(int fd, const std::string& payload)
{
    std::string hdr;
    wire::putU32(hdr, static_cast<uint32_t>(payload.size()));
    return sendAll(fd, hdr.data(), hdr.size()) &&
           (payload.empty() ||
            sendAll(fd, payload.data(), payload.size()));
}

FrameRead
readFrame(int fd, std::string& payload)
{
    // An idle connection may wait as long as it likes for its next
    // frame; once the first byte is in, the rest is due by the deadline.
    char hdr[4];
    ssize_t first = 0;
    while ((first = ::recv(fd, hdr, sizeof hdr, 0)) < 0 && errno == EINTR)
        ;
    if (first <= 0)
        return FrameRead::Closed;
    const auto deadline = std::chrono::steady_clock::now() + kFrameDeadline;
    FrameRead got =
        recvBy(fd, hdr + first, sizeof hdr - size_t(first), deadline);
    if (got != FrameRead::Ok)
        return got;
    wire::Reader r(hdr, sizeof hdr);
    uint32_t len = r.u32();
    if (len > kMaxFrameBytes)
        return FrameRead::Oversized;
    payload.resize(len);
    return recvBy(fd, &payload[0], len, deadline);
}

} // namespace net
} // namespace llmulator
