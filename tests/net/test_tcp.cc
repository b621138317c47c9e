/**
 * @file
 * TCP front end integration tests over real loopback sockets.
 *
 * The headline contract: a score served over the network is
 * byte-identical to the same request run in-process — for all seven
 * paper workloads, with the result cache on and off. Around that,
 * the robustness contract from the wire layer is enforced end to
 * end: a connection that speaks garbage (bad hello, unknown frame,
 * length bombs) is closed cleanly, counted, and never disturbs the
 * sessions next to it.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

/** The seven paper workloads (ISPASS'24 table 1 order). */
const std::vector<std::string> kPaperWorkloads = {
    "LNN", "LTN", "NVSA", "NLM", "VSAIT", "ZeroC", "PrAE"};

serve::ServerOptions
serverOptions(const std::vector<std::string> &workloads,
              bool result_cache = false)
{
    serve::ServerOptions options;
    options.workloads = workloads;
    options.workers = 2;
    options.resultCache = result_cache;
    options.factory = serve::serveFactory;
    return options;
}

net::ClientOptions
clientOptions(uint16_t port)
{
    net::ClientOptions options;
    options.port = port;
    options.connectAttempts = 3;
    options.backoffInitialSeconds = 0.01;
    return options;
}

/** Blocking loopback connect for raw (mis)behaving clients. */
int
rawDial(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

void
rawSend(int fd, const std::vector<uint8_t> &bytes)
{
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
}

/** Reads until EOF (clean close) or a 5 s safety timeout. */
bool
rawDrainUntilClose(int fd)
{
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    while (true) {
        uint8_t chunk[512];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            return true; // Clean FIN.
        if (n < 0)
            return errno == EINTR ? true : false;
    }
}

/** Performs the Hello/HelloAck handshake on a raw socket. */
void
rawHandshake(int fd)
{
    std::vector<uint8_t> hello;
    net::wire::encodeHello(net::wire::HelloFrame{}, &hello);
    rawSend(fd, hello);
    std::vector<uint8_t> buf;
    while (true) {
        uint8_t chunk[64];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0) << "no HelloAck";
        buf.insert(buf.end(), chunk, chunk + n);
        net::wire::Frame frame;
        auto result =
            net::wire::tryDecode(buf.data(), buf.size(), &frame);
        if (result.status == net::wire::DecodeStatus::NeedMore)
            continue;
        ASSERT_EQ(result.status, net::wire::DecodeStatus::Ok);
        ASSERT_EQ(frame.type, net::wire::FrameType::HelloAck);
        return;
    }
}

class NetTcp : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }
};

TEST_F(NetTcp, RemoteScoresAreByteIdenticalToDirectExecution)
{
    const std::vector<uint64_t> seeds = {1, 2, 3};

    // Direct reference: one replica per workload, built at the
    // default model seed, reseeded and run per episode seed.
    serve::ServerOptions reference;
    std::map<std::string, std::map<uint64_t, double>> direct;
    for (const std::string &name : kPaperWorkloads) {
        auto replica = serve::serveFactory(name);
        replica->setUp(reference.modelSeed);
        for (uint64_t seed : seeds) {
            replica->reseedEpisodes(seed);
            direct[name][seed] = replica->run();
        }
    }

    for (bool cached : {false, true}) {
        serve::Server server(
            serverOptions(kPaperWorkloads, cached));
        net::TcpServer tcp(server);
        net::Client client(clientOptions(tcp.port()));
        for (const std::string &name : kPaperWorkloads) {
            for (uint64_t seed : seeds) {
                // With the cache on, the second lap must return the
                // identical bits from the hit path too.
                int laps = cached ? 2 : 1;
                for (int lap = 0; lap < laps; lap++) {
                    serve::Response response =
                        client.call(name, seed);
                    ASSERT_EQ(response.status,
                              serve::RequestStatus::Ok)
                        << name << " seed " << seed;
                    double expected = direct[name][seed];
                    EXPECT_EQ(
                        std::memcmp(&response.score, &expected,
                                    sizeof expected),
                        0)
                        << name << " seed " << seed
                        << (cached ? " (cache on)" : " (cache off)")
                        << ": remote " << response.score
                        << " != direct " << expected;
                }
            }
        }
        client.close();
        tcp.shutdown();
    }
}

TEST_F(NetTcp, PipelinedSubmitsAllCompleteAndAgree)
{
    serve::Server server(serverOptions({"ZeroC"}));
    net::TcpServer tcp(server);
    net::Client client(clientOptions(tcp.port()));

    std::mutex mu;
    std::condition_variable cv;
    std::map<uint64_t, std::vector<double>> scores;
    size_t outstanding = 0;
    const std::vector<uint64_t> seeds = {1, 2, 3, 4};
    for (int lap = 0; lap < 8; lap++) {
        for (uint64_t seed : seeds) {
            {
                std::lock_guard<std::mutex> lock(mu);
                outstanding++;
            }
            serve::RequestStatus status = client.submit(
                "ZeroC", seed,
                [&, seed](const serve::Response &response) {
                    std::lock_guard<std::mutex> lock(mu);
                    EXPECT_EQ(response.status,
                              serve::RequestStatus::Ok);
                    scores[seed].push_back(response.score);
                    if (--outstanding == 0)
                        cv.notify_all();
                });
            ASSERT_EQ(status, serve::RequestStatus::Ok);
        }
    }
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return outstanding == 0; }));
    for (uint64_t seed : seeds) {
        ASSERT_EQ(scores[seed].size(), 8u);
        for (double score : scores[seed])
            EXPECT_EQ(score, scores[seed].front());
    }
}

TEST_F(NetTcp, ExpiredDeadlineIsRejectedByTheServer)
{
    serve::Server server(serverOptions({"LNN"}));
    net::TcpServer tcp(server);
    net::Client client(clientOptions(tcp.port()));
    serve::Response response = client.call(
        "LNN", 1, serve::ServeClock::now() - std::chrono::seconds(1));
    // An expired deadline crosses the wire as the minimum budget
    // (1 us): the server rejects it at admission or, if admission
    // wins the microsecond, expires it in queue. Never Ok.
    EXPECT_TRUE(response.status ==
                    serve::RequestStatus::RejectedDeadline ||
                response.status == serve::RequestStatus::Expired)
        << "status " << static_cast<int>(response.status);
}

TEST_F(NetTcp, UnknownWorkloadIsRejectedOverTheWire)
{
    serve::Server server(serverOptions({"LNN"}));
    net::TcpServer tcp(server);
    net::Client client(clientOptions(tcp.port()));
    serve::Response response = client.call("NoSuchWorkload", 1);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedUnknownWorkload);
}

TEST_F(NetTcp, BadHelloMagicClosesTheConnection)
{
    serve::Server server(serverOptions({"LNN"}));
    net::TcpServer tcp(server);
    int fd = rawDial(tcp.port());
    net::wire::HelloFrame hello;
    hello.magic = 0xdeadbeef;
    std::vector<uint8_t> bytes;
    net::wire::encodeHello(hello, &bytes);
    rawSend(fd, bytes);
    EXPECT_TRUE(rawDrainUntilClose(fd));
    ::close(fd);

    // The rejection was counted, and honest clients still get in.
    for (int i = 0; i < 50; i++) {
        if (server.metrics().netStats().handshakeFailures > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(server.metrics().netStats().handshakeFailures, 1u);
    net::Client client(clientOptions(tcp.port()));
    EXPECT_EQ(client.call("LNN", 1).status,
              serve::RequestStatus::Ok);
}

TEST_F(NetTcp, MalformedFramesCloseCleanlyWithoutKillingTheServer)
{
    serve::Server server(serverOptions({"LNN"}));
    net::TcpServer tcp(server);

    // Each corpus entry opens a fresh connection, handshakes, then
    // speaks a distinct protocol violation. The server must close
    // that connection — and only that connection — every time.
    std::vector<std::vector<uint8_t>> corpus;
    corpus.push_back({0, 0, 0, 0});          // Zero-length frame.
    corpus.push_back({0xff, 0xff, 0xff, 0xff}); // Length bomb.
    corpus.push_back({1, 0, 0, 0, 0x7f});    // Unknown frame type.
    {
        // A second Hello after the handshake is a state violation.
        std::vector<uint8_t> bytes;
        net::wire::encodeHello(net::wire::HelloFrame{}, &bytes);
        corpus.push_back(bytes);
    }
    {
        // A Response frame sent client->server.
        std::vector<uint8_t> bytes;
        net::wire::encodeResponse(net::wire::ResponseFrame{}, &bytes);
        corpus.push_back(bytes);
    }
    {
        // A Request whose name length lies about the body: 32 bytes
        // of fixed fields, then a length field claiming 1023 name
        // bytes where only 6 follow.
        std::vector<uint8_t> bytes = {41, 0, 0, 0, 3};
        for (int i = 0; i < 32; i++)
            bytes.push_back(0);
        bytes.push_back(0xff); // nameLength = 0x3ff...
        bytes.push_back(0x03);
        for (int i = 0; i < 6; i++)
            bytes.push_back('x');
        corpus.push_back(bytes);
    }

    uint64_t violations = 0;
    for (const auto &attack : corpus) {
        int fd = rawDial(tcp.port());
        rawHandshake(fd);
        rawSend(fd, attack);
        EXPECT_TRUE(rawDrainUntilClose(fd))
            << "no clean close for corpus entry " << violations;
        ::close(fd);
        violations++;
    }

    for (int i = 0; i < 100; i++) {
        if (server.metrics().netStats().malformedFrames >=
            violations)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.metrics().netStats().malformedFrames,
              violations);

    // The server shrugged it all off.
    net::Client client(clientOptions(tcp.port()));
    EXPECT_EQ(client.call("LNN", 1).status,
              serve::RequestStatus::Ok);
}

TEST_F(NetTcp, HalfFrameThenDisconnectLeaksNothing)
{
    serve::Server server(serverOptions({"LNN"}));
    net::TcpServer tcp(server);
    int fd = rawDial(tcp.port());
    rawHandshake(fd);
    net::wire::RequestFrame request;
    request.workload = "LNN";
    std::vector<uint8_t> bytes;
    net::wire::encodeRequest(request, &bytes);
    bytes.resize(bytes.size() / 2); // Stop mid-frame.
    rawSend(fd, bytes);
    ::close(fd);

    for (int i = 0; i < 100; i++) {
        if (server.metrics().netStats().connectionsClosed >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(server.metrics().netStats().connectionsClosed, 1u);
    net::Client client(clientOptions(tcp.port()));
    EXPECT_EQ(client.call("LNN", 1).status,
              serve::RequestStatus::Ok);
}

TEST_F(NetTcp, NetCountersAccountForTraffic)
{
    serve::Server server(serverOptions({"LNN"}));
    net::TcpServer tcp(server);
    {
        net::Client client(clientOptions(tcp.port()));
        for (uint64_t seed = 1; seed <= 4; seed++)
            EXPECT_EQ(client.call("LNN", seed).status,
                      serve::RequestStatus::Ok);
        client.close();
    }
    tcp.shutdown();
    serve::NetStats stats = server.metrics().netStats();
    EXPECT_GE(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.connectionsClosed, stats.connectionsAccepted);
    EXPECT_EQ(stats.framesIn, 4u);     // Requests (hello is not
                                       // counted as a work frame).
    EXPECT_GE(stats.framesOut, 5u);    // HelloAck + 4 responses.
    EXPECT_GT(stats.bytesRead, 0u);
    EXPECT_GT(stats.bytesWritten, 0u);
    EXPECT_EQ(stats.malformedFrames, 0u);
}

TEST_F(NetTcp, ShutdownDrainsThenRefusesNewWork)
{
    serve::Server server(serverOptions({"ZeroC"}));
    auto tcp = std::make_unique<net::TcpServer>(server);
    uint16_t port = tcp->port();
    net::Client client(clientOptions(port));
    EXPECT_EQ(client.call("ZeroC", 1).status,
              serve::RequestStatus::Ok);

    tcp->shutdown();
    // The listener is gone and the drained connection was closed:
    // a fresh call must fail as unreachable, not hang.
    net::ClientOptions after = clientOptions(port);
    after.connectAttempts = 2;
    net::Client late(after);
    EXPECT_EQ(late.call("ZeroC", 2).status,
              serve::RequestStatus::RejectedUnreachable);
    tcp.reset();
}

} // namespace
