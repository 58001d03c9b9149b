#ifndef LLMULATOR_NET_FLEET_CLIENT_H
#define LLMULATOR_NET_FLEET_CLIENT_H

/**
 * @file
 * Blocking client for the fleet front-end: one TCP connection, one
 * in-flight request at a time (call() is a strict request/response
 * round trip). NOT thread-safe — give each client thread its own
 * FleetClient.
 *
 * predict() is the convenience path: it renders the graph with
 * dfir::printStatic() (the text the server parses back and feeds the
 * model) and ships runtime data structurally, so a wire prediction is
 * bit-identical to calling the in-process server directly (pinned by
 * test_net).
 */

#include <string>

#include "net/protocol.h"

namespace llmulator {
namespace net {

class FleetClient
{
  public:
    FleetClient() = default;
    ~FleetClient();

    FleetClient(const FleetClient&) = delete;
    FleetClient& operator=(const FleetClient&) = delete;

    /** Connect to 127.0.0.1:port. False on refusal/failure. */
    bool connectLoopback(int port);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * One framed round trip. False on transport failure (send/recv
     * error, server gone, undecodable reply) — `resp` is unspecified
     * then. A served error (OVERLOADED, BAD_REQUEST, ERROR) is a
     * successful call with that status in `resp`.
     */
    bool call(const NetRequest& req, NetResponse& resp);

    /** Build the request from a graph + optional data, then call(). */
    bool predict(const dfir::DataflowGraph& g,
                 const dfir::RuntimeData* data, model::Metric metric,
                 NetResponse& resp);

  private:
    int fd_ = -1;
};

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_FLEET_CLIENT_H
