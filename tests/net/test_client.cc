/**
 * @file
 * Remote client behaviour tests: reconnect-with-backoff against a
 * server that appears late or restarts, unreachable-endpoint
 * rejection, and the fail-everything-pending contract when the
 * connection drops with requests in flight.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "net/tcp_server.hh"
#include "net/wire.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

/**
 * Binds an ephemeral listener just long enough to learn a port the
 * kernel considers free, then releases it. Mildly racy by nature,
 * which is fine for loopback tests in a private namespace.
 */
uint16_t
reservePort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    ::close(fd);
    return ntohs(addr.sin_port);
}

serve::ServerOptions
lnnOptions()
{
    serve::ServerOptions options;
    options.workloads = {"LNN"};
    options.workers = 2;
    options.factory = serve::serveFactory;
    return options;
}

class NetClient : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }
};

TEST_F(NetClient, UnreachableEndpointRejectsAfterBackoff)
{
    net::ClientOptions options;
    options.port = reservePort(); // Nothing is listening there.
    options.connectAttempts = 3;
    options.backoffInitialSeconds = 0.005;
    options.backoffMaxSeconds = 0.02;
    net::Client client(options);
    serve::Response response = client.call("LNN", 1);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedUnreachable);
    net::ClientStats stats = client.stats();
    EXPECT_GE(stats.connectFailures, 3u);
    EXPECT_EQ(stats.connects, 0u);
    EXPECT_FALSE(client.connected());
}

TEST_F(NetClient, ConnectsOnceTheServerAppears)
{
    uint16_t port = reservePort();
    net::ClientOptions options;
    options.port = port;
    options.connectAttempts = 50;
    options.backoffInitialSeconds = 0.02;
    options.backoffMaxSeconds = 0.05;
    net::Client client(options);

    // The server shows up while the client is already backing off.
    serve::Server server(lnnOptions());
    std::unique_ptr<net::TcpServer> tcp;
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        net::FrameServerOptions listen;
        listen.port = port;
        tcp = std::make_unique<net::TcpServer>(server, listen);
    });
    serve::Response response = client.call("LNN", 1);
    late.join();
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_GE(client.stats().connectFailures, 1u);
    EXPECT_EQ(client.stats().connects, 1u);
}

TEST_F(NetClient, ReconnectsAfterServerRestart)
{
    serve::Server server(lnnOptions());
    auto tcp = std::make_unique<net::TcpServer>(server);
    uint16_t port = tcp->port();

    net::ClientOptions options;
    options.port = port;
    options.connectAttempts = 50;
    options.backoffInitialSeconds = 0.02;
    options.backoffMaxSeconds = 0.05;
    net::Client client(options);
    EXPECT_EQ(client.call("LNN", 1).status,
              serve::RequestStatus::Ok);

    // Take the front end down and bring a new one up on the same
    // port; the same client object must ride through.
    tcp->shutdown();
    tcp.reset();
    net::FrameServerOptions listen;
    listen.port = port;
    tcp = std::make_unique<net::TcpServer>(server, listen);

    // The first call after the restart may race the reader noticing
    // the old connection died (the submit can land on the stale fd
    // and fail); the contract is eventual recovery, so retry.
    serve::Response response;
    for (int attempt = 0; attempt < 10; attempt++) {
        response = client.call("LNN", 2);
        if (response.status == serve::RequestStatus::Ok)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_GE(client.stats().connects, 2u);
    EXPECT_GE(client.stats().disconnects, 1u);
}

TEST_F(NetClient, DroppedConnectionFailsEveryPendingRequest)
{
    // A miniature villain of a server: handshakes politely, swallows
    // requests, then hangs up with everything still in flight.
    int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listener, 0);
    int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);

    std::mutex mu;
    std::condition_variable cv;
    size_t swallowed = 0;
    const size_t kPending = 4;
    std::thread villain([&] {
        int fd = ::accept(listener, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        std::vector<uint8_t> buf;
        size_t requests_seen = 0;
        bool acked = false;
        while (requests_seen < kPending) {
            uint8_t chunk[4096];
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            buf.insert(buf.end(), chunk, chunk + n);
            size_t offset = 0;
            while (true) {
                net::wire::Frame frame;
                auto result = net::wire::tryDecode(
                    buf.data() + offset, buf.size() - offset,
                    &frame);
                if (result.status != net::wire::DecodeStatus::Ok)
                    break;
                offset += result.consumed;
                if (frame.type == net::wire::FrameType::Hello &&
                    !acked) {
                    std::vector<uint8_t> ack;
                    net::wire::encodeHelloAck(
                        net::wire::HelloFrame{}, &ack);
                    ::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
                    acked = true;
                } else if (frame.type ==
                           net::wire::FrameType::Request) {
                    requests_seen++;
                }
            }
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<long>(offset));
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            swallowed = requests_seen;
        }
        // Every request was sent (and therefore registered as
        // pending client-side) before it reached us; slam the door.
        ::close(fd);
    });

    net::ClientOptions options;
    options.port = ntohs(addr.sin_port);
    options.connectAttempts = 3;
    net::Client client(options);

    size_t failed = 0, outstanding = kPending;
    for (size_t i = 0; i < kPending; i++) {
        serve::RequestStatus status = client.submit(
            "LNN", i, [&](const serve::Response &response) {
                std::lock_guard<std::mutex> lock(mu);
                if (response.status == serve::RequestStatus::Failed)
                    failed++;
                if (--outstanding == 0)
                    cv.notify_all();
            });
        ASSERT_EQ(status, serve::RequestStatus::Ok);
    }

    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return outstanding == 0; }));
    EXPECT_EQ(failed, kPending);
    lock.unlock();
    villain.join();
    ::close(listener);
    EXPECT_EQ(swallowed, kPending);
    net::ClientStats stats = client.stats();
    EXPECT_EQ(stats.orphaned, kPending);
    EXPECT_GE(stats.disconnects, 1u);
}

TEST_F(NetClient, CloseIsIdempotentAndReusable)
{
    serve::Server server(lnnOptions());
    net::TcpServer tcp(server);
    net::ClientOptions options;
    options.port = tcp.port();
    net::Client client(options);
    EXPECT_EQ(client.call("LNN", 1).status,
              serve::RequestStatus::Ok);
    client.close();
    client.close(); // Second close must be a no-op.
    // And the client can dial right back in.
    EXPECT_EQ(client.call("LNN", 2).status,
              serve::RequestStatus::Ok);
}

} // namespace
