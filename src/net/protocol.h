#ifndef LLMULATOR_NET_PROTOCOL_H
#define LLMULATOR_NET_PROTOCOL_H

/**
 * @file
 * Length-prefixed binary wire protocol of the fleet front-end.
 *
 * ## Frame layout
 *
 * Every message is one frame: a little-endian `u32` payload length
 * followed by that many payload bytes. Payloads start with a `u32`
 * magic ("LMRQ" requests, "LMRS" responses) and a `u16` protocol
 * version, so a stray peer or a version skew fails decode cleanly
 * instead of mis-parsing.
 *
 * Request payload (after magic + version):
 *
 *   u8  metric        model::Metric
 *   u8  hasData       0/1
 *   str program       u32 length + bytes: dfir::printStatic() text
 *   if hasData:
 *     u32 scalarCount   each: str name, i64 value
 *     u32 tensorCount   each: str name, u32 elems, f64 * elems
 *
 * Response payload (after magic + version):
 *
 *   u8  status        Status below
 *   u8  cacheHit      1 = answered from a shard's result cache
 *   u64 modelVersion  weight generation that produced the prediction
 *   i64 value         NumericPrediction fields; digits MSB-first,
 *   u32 digitCount    probabilities as raw f64 bits so the round trip
 *   i32 * digitCount  is bit-exact
 *   u32 probCount
 *   f64 * probCount
 *   f64 logProb
 *   str error         empty unless status != Ok
 *
 * Programs travel as printStatic() text — parseProgram() is its
 * documented round-trip pair, and the cost model consumes exactly this
 * text, so a served prediction is bit-identical to an in-process one.
 * Runtime data travels structurally (scalars AND tensor payloads; the
 * text grammar only carries scalars). All multi-byte fields are
 * little-endian; f64 is transported as its IEEE-754 bit pattern.
 *
 * decode*() never trusts a length field: every read is bounds-checked
 * against the remaining payload, so truncated or hostile frames fail
 * with an error string instead of over-allocating or crashing.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "dfir/ir.h"
#include "model/numeric_head.h"

// Metric lives in cost_model.h; forward-include the real definition.
#include "model/cost_model.h"

namespace llmulator {
namespace net {

constexpr uint32_t kRequestMagic = 0x4C4D5251;  // "LMRQ" big-endian read
constexpr uint32_t kResponseMagic = 0x4C4D5253; // "LMRS"
//! 2: the request lost version 1's priority byte (after the metric).
constexpr uint16_t kProtocolVersion = 2;
//! Framing guard: readFrame() refuses a longer announced payload.
constexpr size_t kMaxFrameBytes = 4u << 20;
//! Framing guard: once a frame's first byte has arrived, readFrame()
//! waits at most this long for the rest of its header and payload, and
//! writeFrame() waits at most this long for the peer to take a frame.
constexpr std::chrono::milliseconds kFrameDeadline{2000};

/** How one readFrame() call ended. */
enum class FrameRead
{
    Ok,        //!< one whole frame is in the payload
    Closed,    //!< EOF or a socket error
    Oversized, //!< a length prefix over kMaxFrameBytes, refused unread
    Stalled    //!< the frame was not complete within kFrameDeadline
};

/** Response status byte. */
enum class Status : uint8_t
{
    Ok = 0,
    Overloaded = 1, //!< the shard's queue was full (or it was stopping)
    BadRequest = 2, //!< undecodable payload or unparsable program
    Error = 3       //!< server-side failure (e.g. shutting down)
};

/** One prediction request as it travels the wire. */
struct NetRequest
{
    std::string program; //!< dfir::printStatic() text
    dfir::RuntimeData data;
    bool hasData = false;
    model::Metric metric = model::Metric::Power;
};

/** One prediction response as it travels the wire. */
struct NetResponse
{
    Status status = Status::Error;
    bool cacheHit = false; //!< answered from a shard's result cache
    uint64_t modelVersion = 0;
    model::NumericPrediction prediction;
    std::string error; //!< human-readable detail when status != Ok
};

/** Serialize a request into a frame payload (no length prefix). */
std::string encodeRequest(const NetRequest& req);

/** Parse a request payload; false + `error` on malformed input. */
bool decodeRequest(const std::string& payload, NetRequest& out,
                   std::string* error = nullptr);

std::string encodeResponse(const NetResponse& resp);

bool decodeResponse(const std::string& payload, NetResponse& out,
                    std::string* error = nullptr);

/**
 * Frame I/O over a connected socket. writeFrame sends the length prefix
 * and the payload (one send each while the socket buffer has room,
 * SIGPIPE suppressed) and returns false on error, or with errno
 * ETIMEDOUT when the peer has not taken the whole frame within
 * kFrameDeadline. readFrame waits as long as
 * it takes for the first byte of a frame, then reads the whole frame
 * into `payload` within kFrameDeadline, and says why it stopped
 * otherwise: EOF or error, a length prefix over kMaxFrameBytes
 * (refused before any payload is allocated), or a frame still
 * incomplete at the deadline. Either way the caller closes the
 * connection.
 */
bool writeFrame(int fd, const std::string& payload);
FrameRead readFrame(int fd, std::string& payload);

namespace wire {

/** Append little-endian scalars / length-prefixed strings to `buf`. */
void putU8(std::string& buf, uint8_t v);
void putU16(std::string& buf, uint16_t v);
void putU32(std::string& buf, uint32_t v);
void putU64(std::string& buf, uint64_t v);
void putI64(std::string& buf, int64_t v);
void putI32(std::string& buf, int32_t v);
void putF64(std::string& buf, double v);
void putString(std::string& buf, const std::string& s);

/**
 * Bounds-checked little-endian reader over a byte buffer. Every getter
 * sets `ok = false` (and returns 0/"") once the buffer is exhausted;
 * callers check ok once at the end instead of after every field.
 */
class Reader
{
  public:
    Reader(const char* data, size_t size) : p_(data), n_(size) {}
    explicit Reader(const std::string& buf) : Reader(buf.data(), buf.size())
    {
    }

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    int64_t i64();
    int32_t i32();
    double f64();
    std::string str();

    bool ok() const { return ok_; }
    size_t remaining() const { return n_ - off_; }
    //! Fail unless exactly everything was consumed.
    bool done() const { return ok_ && off_ == n_; }

  private:
    bool take(size_t k, const char** out);

    const char* p_;
    size_t n_;
    size_t off_ = 0;
    bool ok_ = true;
};

/**
 * The prediction fields of a response (value, digits, digit
 * probabilities, log-prob; doubles as raw bits), shared with the result
 * snapshot (net/snapshot.h). getPrediction() is bounds-checked like
 * every Reader use: false once the buffer ran out.
 */
void putPrediction(std::string& buf, const model::NumericPrediction& p);
bool getPrediction(Reader& r, model::NumericPrediction& p);

} // namespace wire

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_PROTOCOL_H
