#include "net/fleet_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dfir/printer.h"

namespace llmulator {
namespace net {

FleetClient::~FleetClient()
{
    close();
}

bool
FleetClient::connectLoopback(int port)
{
    close();
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return false;
    }
    fd_ = fd;
    return true;
}

void
FleetClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
FleetClient::call(const NetRequest& req, NetResponse& resp)
{
    if (fd_ < 0)
        return false;
    if (!writeFrame(fd_, encodeRequest(req))) {
        close();
        return false;
    }
    std::string payload;
    if (readFrame(fd_, payload) != FrameRead::Ok) {
        close();
        return false;
    }
    if (!decodeResponse(payload, resp)) {
        close(); // desynchronized stream: do not reuse the connection
        return false;
    }
    return true;
}

bool
FleetClient::predict(const dfir::DataflowGraph& g,
                     const dfir::RuntimeData* data, model::Metric metric,
                     NetResponse& resp)
{
    NetRequest req;
    req.program = dfir::printStatic(g);
    if (data) {
        req.data = *data;
        req.hasData = true;
    }
    req.metric = metric;
    return call(req, resp);
}

} // namespace net
} // namespace llmulator
