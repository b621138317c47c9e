/**
 * @file
 * Tail-tolerance tier: delays, deadlines, cancellation and sojourn
 * shedding in the serving runtime, end to end.
 *
 *  - Delay failpoints (`~DELAYus`): the action is a sleep plus "no
 *    fault", the schedule stays a pure function of the spec, and
 *    malformed delay suffixes are rejected at parse time.
 *  - Wire boundaries: relative-deadline encoding at its edge cases,
 *    and the v2 Cancel frame round-trip.
 *  - Cancellation semantics: a canceled queued request answers
 *    Canceled without running, in-process and over the wire.
 *  - Version compatibility: a v1 client handshakes against the v2
 *    server and is served normally.
 *  - Bounded client calls: a connected-but-mute server cannot hang
 *    call() — it synthesizes Expired after deadline plus grace.
 *  - CoDel-style sojourn shedding: a queue that drains slowly sheds
 *    at submit even though it never fills.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
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
#include "util/failpoint.hh"
#include "workloads/register.hh"

#include "../serve/fake_workload.hh"

namespace
{

using namespace nsbench;
namespace fp = nsbench::util::failpoints;

/** Waits for one callback and hands back its response. */
class Waiter
{
  public:
    serve::Callback
    callback()
    {
        return [this](const serve::Response &response) {
            std::lock_guard<std::mutex> lock(mu_);
            response_ = response;
            done_ = true;
            cv_.notify_all();
        };
    }

    /** Blocks (bounded) until the callback fired. */
    serve::Response
    wait(double seconds = 10.0)
    {
        std::unique_lock<std::mutex> lock(mu_);
        EXPECT_TRUE(cv_.wait_for(
            lock, std::chrono::duration<double>(seconds),
            [this] { return done_; }))
            << "callback never fired";
        return response_;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    serve::Response response_;
};

class Tail : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }

    void
    TearDown() override
    {
        fp::reset();
    }
};

// --- Delay failpoints -------------------------------------------------

TEST_F(Tail, DelaySuffixParsesIntoTheSiteSpec)
{
    std::map<std::string, fp::SiteSpec> sites;
    ASSERT_EQ(fp::parse("serve.worker.delay=0.5@9x20s2~1500", &sites),
              "");
    const fp::SiteSpec &spec = sites.at("serve.worker.delay");
    EXPECT_DOUBLE_EQ(spec.probability, 0.5);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_EQ(spec.limit, 20u);
    EXPECT_EQ(spec.skip, 2u);
    EXPECT_EQ(spec.delayUs, 1500u);
}

TEST_F(Tail, MalformedDelaySuffixesAreRejected)
{
    std::map<std::string, fp::SiteSpec> sites;
    // Zero delay is meaningless (it would silently disable the
    // fault action); missing or non-numeric delays are malformed.
    EXPECT_NE(fp::parse("serve.worker.delay=0.5~0", &sites), "");
    EXPECT_NE(fp::parse("serve.worker.delay=0.5~", &sites), "");
    EXPECT_NE(fp::parse("serve.worker.delay=0.5~abc", &sites), "");
    EXPECT_NE(fp::parse("serve.worker.delay=0.5~-5", &sites), "");
}

TEST_F(Tail, FiringDelaySiteSleepsAndReportsNoFault)
{
    ASSERT_EQ(fp::configure("serve.worker.delay=1.0@7~30000"), "");
    auto start = std::chrono::steady_clock::now();
    bool fired = NSBENCH_FAILPOINT(fp::sites::kWorkerDelay);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    // The action is the sleep; the *answer* is "no fault" — the
    // caller proceeds normally, just late.
    EXPECT_FALSE(fired);
    EXPECT_GE(elapsed, 0.025);
    fp::SiteStats stats = fp::stats().at("serve.worker.delay");
    EXPECT_EQ(stats.evaluations, 1u);
    EXPECT_EQ(stats.fires, 1u);
    EXPECT_EQ(stats.delays, 1u);
    EXPECT_EQ(stats.delayedUs, 30000u);
}

TEST_F(Tail, DelayScheduleIsAPureFunctionOfTheSpec)
{
    // Which evaluations sleep is decided by the same seeded stream
    // as fail-action sites: rearming the same spec must reproduce
    // the delay schedule index for index.
    const std::string spec = "serve.worker.delay=0.5@9~200";
    auto schedule = [&] {
        EXPECT_EQ(fp::configure(spec), "");
        std::vector<uint64_t> delays_after;
        for (int i = 0; i < 64; i++) {
            NSBENCH_FAILPOINT(fp::sites::kWorkerDelay);
            delays_after.push_back(
                fp::stats().at("serve.worker.delay").delays);
        }
        return delays_after;
    };
    std::vector<uint64_t> first = schedule();
    std::vector<uint64_t> second = schedule();
    EXPECT_EQ(first, second);
    // And the probability actually bites: some evaluations slept,
    // some did not.
    EXPECT_GT(first.back(), 0u);
    EXPECT_LT(first.back(), 64u);
}

// --- Wire boundaries --------------------------------------------------

TEST_F(Tail, DeadlineEncodingBoundaries)
{
    serve::TimePoint now = serve::ServeClock::now();
    // No deadline -> 0, the wire's "none" sentinel.
    EXPECT_EQ(net::encodeDeadlineUs(serve::noDeadline(), now), 0u);
    // Already expired -> 1, the minimum budget: the request still
    // crosses the wire so the *server* issues the rejection.
    EXPECT_EQ(net::encodeDeadlineUs(
                  now - std::chrono::seconds(5), now),
              1u);
    EXPECT_EQ(net::encodeDeadlineUs(now, now), 1u);
    // In range: microseconds, exactly.
    EXPECT_EQ(net::encodeDeadlineUs(
                  now + std::chrono::milliseconds(250), now),
              250'000u);
    // Beyond the u32 range (~71.6 min) clamps to the maximum budget
    // instead of wrapping into a tiny one.
    EXPECT_EQ(net::encodeDeadlineUs(now + std::chrono::hours(2),
                                    now),
              0xffffffffu);
}

TEST_F(Tail, MaximumDeadlineSurvivesTheWireRoundTrip)
{
    net::wire::RequestFrame request;
    request.id = 7;
    request.workload = "LNN";
    request.deadlineUs = 0xffffffffu;
    std::vector<uint8_t> bytes;
    net::wire::encodeRequest(request, &bytes);
    net::wire::Frame frame;
    auto result =
        net::wire::tryDecode(bytes.data(), bytes.size(), &frame);
    ASSERT_EQ(result.status, net::wire::DecodeStatus::Ok);
    ASSERT_EQ(frame.type, net::wire::FrameType::Request);
    EXPECT_EQ(frame.request.deadlineUs, 0xffffffffu);
}

TEST_F(Tail, CancelFrameRoundTripsOnTheWire)
{
    net::wire::CancelFrame cancel;
    cancel.id = 0x1122334455667788ULL;
    std::vector<uint8_t> bytes;
    net::wire::encodeCancel(cancel, &bytes);

    net::wire::Frame frame;
    auto result =
        net::wire::tryDecode(bytes.data(), bytes.size(), &frame);
    ASSERT_EQ(result.status, net::wire::DecodeStatus::Ok);
    ASSERT_EQ(frame.type, net::wire::FrameType::Cancel);
    EXPECT_EQ(frame.cancel.id, 0x1122334455667788ULL);
    EXPECT_EQ(result.consumed, bytes.size());

    // A truncated Cancel is an incomplete frame, never a crash.
    for (size_t cut = 1; cut < bytes.size(); cut++) {
        net::wire::Frame partial;
        EXPECT_EQ(net::wire::tryDecode(bytes.data(), cut, &partial)
                      .status,
                  net::wire::DecodeStatus::NeedMore)
            << "cut at " << cut;
    }
}

// --- Cancellation semantics -------------------------------------------

serve::ServerOptions
singleWorkerOptions()
{
    serve::ServerOptions options;
    options.workloads = {"LNN"};
    options.workers = 1;
    options.resultCache = false;
    options.factory = serve::serveFactory;
    return options;
}

TEST_F(Tail, WorkerDelaySiteStallsTheServersDispatch)
{
    // The armed site must bite inside the real worker path, so
    // `serve --faults 'serve.worker.delay=...'` makes a genuinely
    // slow server.
    serve::Server server(singleWorkerOptions());
    ASSERT_EQ(fp::configure("serve.worker.delay=1.0@11~50000"), "");
    Waiter waiter;
    auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(server.submit("LNN", 1, waiter.callback()),
              serve::RequestStatus::Ok);
    serve::Response response = waiter.wait();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_GE(elapsed, 0.045);
    fp::SiteStats stats = fp::stats().at("serve.worker.delay");
    EXPECT_GE(stats.delays, 1u);
}

TEST_F(Tail, CanceledQueuedRequestAnswersCanceledWithoutRunning)
{
    serve::Server server(singleWorkerOptions());
    // Token set before the worker can pick the request up: the
    // worker must answer Canceled instead of executing.
    serve::CancelToken token =
        std::make_shared<std::atomic<bool>>(true);
    Waiter canceled;
    ASSERT_EQ(server.submit("LNN", 1, canceled.callback(),
                            serve::noDeadline(), token),
              serve::RequestStatus::Ok);
    EXPECT_EQ(canceled.wait().status,
              serve::RequestStatus::Canceled);
    EXPECT_GE(server.metrics().total().canceled, 1u);

    // Control: an unset token changes nothing.
    serve::CancelToken idle =
        std::make_shared<std::atomic<bool>>(false);
    Waiter normal;
    ASSERT_EQ(server.submit("LNN", 2, normal.callback(),
                            serve::noDeadline(), idle),
              serve::RequestStatus::Ok);
    EXPECT_EQ(normal.wait().status, serve::RequestStatus::Ok);
    server.shutdown();
}

TEST_F(Tail, WireCancelPrunesAQueuedRequest)
{
    // Hold the single worker busy with an injected 400ms sleep, so
    // the second request is reliably still queued when its Cancel
    // frame arrives.
    ASSERT_EQ(fp::configure("serve.worker.run=1.0@3~400000"), "");
    serve::Server server(singleWorkerOptions());
    net::TcpServer tcp(server);
    net::ClientOptions client_options;
    client_options.port = tcp.port();
    net::Client client(client_options);

    Waiter first;
    ASSERT_EQ(client.submit("LNN", 1, first.callback()),
              serve::RequestStatus::Ok);
    // Give the worker time to pick request 1 up and start sleeping.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    Waiter second;
    uint64_t wire_id = 0;
    ASSERT_EQ(client.submit("LNN", 2, second.callback(),
                            serve::noDeadline(), &wire_id),
              serve::RequestStatus::Ok);
    ASSERT_NE(wire_id, 0u);
    client.cancel(wire_id);

    EXPECT_EQ(second.wait().status, serve::RequestStatus::Canceled);
    EXPECT_EQ(first.wait().status, serve::RequestStatus::Ok);
    EXPECT_EQ(client.stats().cancelsSent, 1u);
    EXPECT_GE(server.metrics().total().canceled, 1u);

    client.close();
    tcp.shutdown();
    server.shutdown();
}

// --- Version compatibility --------------------------------------------

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

/** Reads frames until one of the wanted type arrives (10s bound). */
net::wire::Frame
rawReadFrame(int fd, net::wire::FrameType wanted)
{
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::vector<uint8_t> buf;
    while (true) {
        net::wire::Frame frame;
        auto result =
            net::wire::tryDecode(buf.data(), buf.size(), &frame);
        if (result.status == net::wire::DecodeStatus::Ok) {
            buf.erase(buf.begin(), buf.begin() + result.consumed);
            if (frame.type == wanted)
                return frame;
            continue;
        }
        EXPECT_EQ(result.status, net::wire::DecodeStatus::NeedMore);
        uint8_t chunk[512];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        EXPECT_GT(n, 0) << "connection closed or timed out";
        if (n <= 0)
            return frame;
        buf.insert(buf.end(), chunk, chunk + n);
    }
}

TEST_F(Tail, V1ClientHandshakesAndIsServedByTheV2Server)
{
    serve::Server server(singleWorkerOptions());
    net::TcpServer tcp(server);

    int fd = rawDial(tcp.port());
    net::wire::HelloFrame hello;
    hello.version = 1; // A pre-Cancel peer.
    std::vector<uint8_t> bytes;
    net::wire::encodeHello(hello, &bytes);
    rawSend(fd, bytes);

    net::wire::Frame ack =
        rawReadFrame(fd, net::wire::FrameType::HelloAck);
    // The server negotiates down: this connection speaks v1 and
    // will never be sent (or accept) v2 frame types.
    EXPECT_EQ(ack.hello.version, 1u);

    net::wire::RequestFrame request;
    request.id = 1;
    request.workload = "LNN";
    request.episodeSeed = 3;
    bytes.clear();
    net::wire::encodeRequest(request, &bytes);
    rawSend(fd, bytes);
    net::wire::Frame response =
        rawReadFrame(fd, net::wire::FrameType::Response);
    EXPECT_EQ(response.response.id, 1u);
    EXPECT_EQ(response.response.status,
              static_cast<uint8_t>(serve::RequestStatus::Ok));

    ::close(fd);
    tcp.shutdown();
    server.shutdown();
}

// --- Bounded client calls ---------------------------------------------

/** A server that handshakes and then never answers anything. */
class MuteServer
{
  public:
    MuteServer()
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(fd_, 4), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { serveMutely(); });
    }

    ~MuteServer()
    {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        if (thread_.joinable())
            thread_.join();
        if (client_ >= 0)
            ::close(client_);
    }

    uint16_t port() const { return port_; }

  private:
    void
    serveMutely()
    {
        client_ = ::accept(fd_, nullptr, nullptr);
        if (client_ < 0)
            return;
        // Complete the handshake so the client trusts the
        // connection, then read and discard everything: requests go
        // in, nothing ever comes out.
        std::vector<uint8_t> buf;
        timeval tv{10, 0};
        ::setsockopt(client_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof(tv));
        bool acked = false;
        while (true) {
            uint8_t chunk[512];
            ssize_t n = ::recv(client_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return;
            buf.insert(buf.end(), chunk, chunk + n);
            if (!acked) {
                net::wire::Frame frame;
                auto result = net::wire::tryDecode(
                    buf.data(), buf.size(), &frame);
                if (result.status != net::wire::DecodeStatus::Ok)
                    continue;
                buf.erase(buf.begin(),
                          buf.begin() + result.consumed);
                std::vector<uint8_t> ack;
                net::wire::encodeHelloAck(frame.hello, &ack);
                ::send(client_, ack.data(), ack.size(),
                       MSG_NOSIGNAL);
                acked = true;
            }
        }
    }

    int fd_ = -1;
    int client_ = -1;
    uint16_t port_ = 0;
    std::thread thread_;
};

TEST_F(Tail, CallIsBoundedAgainstAMuteServer)
{
    MuteServer mute;
    net::ClientOptions options;
    options.port = mute.port();
    options.callGraceSeconds = 0.2;
    net::Client client(options);

    auto start = std::chrono::steady_clock::now();
    serve::Response response = client.call(
        "LNN", 1,
        serve::ServeClock::now() + std::chrono::milliseconds(100));
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    // Deadline (0.1s) + grace (0.2s): the call must come back with
    // a synthesized Expired instead of hanging on the mute peer.
    EXPECT_EQ(response.status, serve::RequestStatus::Expired);
    EXPECT_LT(elapsed, 5.0);
    EXPECT_EQ(client.stats().callTimeouts, 1u);
    client.close();
}

// --- Sojourn shedding -------------------------------------------------

TEST_F(Tail, SojournGateShedsWhenTheQueueDrainsSlowly)
{
    // Each execution sleeps 60ms; the queue never fills (capacity
    // default) but drains far slower than the 2ms sojourn target —
    // the CoDel-style gate must start shedding at submit. The fake
    // runs in no time of its own, so the injected delay alone sets
    // the drain rate, even under a sanitizer. It is seed-sensitive,
    // so every seed is its own key and queues (a seed-insensitive
    // workload would fold them all onto one single-flight key).
    ASSERT_EQ(fp::configure("serve.worker.run=1.0@5~60000"), "");
    tests::FakeCounters counters;
    serve::ServerOptions options;
    options.workloads = {"Fake"};
    options.workers = 1;
    options.factory = [&counters](const std::string &) {
        return std::make_unique<tests::FakeWorkload>(counters, true);
    };
    options.targetSojournUs = 2000;
    options.sojournGraceUs = 0;
    serve::Server server(options);

    std::atomic<int> callbacks{0};
    int shed = 0, admitted = 0;
    for (uint64_t seed = 0; seed < 24; seed++) {
        serve::RequestStatus status = server.submit(
            "Fake", seed,
            [&callbacks](const serve::Response &) { callbacks++; });
        if (status == serve::RequestStatus::RejectedOverload)
            shed++;
        else if (status == serve::RequestStatus::Ok)
            admitted++;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(shed, 0);
    EXPECT_GT(admitted, 0);
    server.shutdown();
    EXPECT_EQ(callbacks.load(), admitted);
    EXPECT_GE(server.metrics().total().sojournSheds,
              static_cast<uint64_t>(shed));
}

} // namespace
