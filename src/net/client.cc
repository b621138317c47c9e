#include "net/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>

#include "net/translate.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"

namespace nsbench::net
{

namespace
{

using util::warn;
using util::failpoints::sites::kNetBackendConnect;

/** Blocking write of the whole buffer; false on any hard error. */
bool
sendAll(int fd, const uint8_t *data, size_t size)
{
    size_t sent = 0;
    while (sent < size) {
        ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

/** Sets the socket receive timeout (0 seconds clears it). */
void
setRecvTimeout(int fd, double seconds)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

} // namespace

uint32_t
encodeDeadlineUs(serve::TimePoint deadline, serve::TimePoint now)
{
    if (deadline == serve::noDeadline())
        return 0;
    auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(
            deadline - now)
            .count();
    // An already-expired deadline still crosses the wire (as the
    // minimum budget) so the rejection is the server's, matching
    // in-process submit semantics.
    return remaining > 0
               ? static_cast<uint32_t>(
                     std::min<long long>(remaining, 0xffffffffLL))
               : 1;
}

Client::Client(const ClientOptions &options) : options_(options) {}

Client::~Client()
{
    close();
    if (reader_.joinable())
        reader_.join();
    if (retiredReader_.joinable())
        retiredReader_.join();
}

int
Client::dial(uint16_t *ackedVersion)
{
    const std::string host =
        options_.host == "localhost" ? "127.0.0.1" : options_.host;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        warn("net: bad server address '" + options_.host + "'");
        return -1;
    }

    double backoff = options_.backoffInitialSeconds;
    int attempts = std::max(1, options_.connectAttempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
            backoff = std::min(backoff * 2.0,
                               options_.backoffMaxSeconds);
        }

        auto attemptFailed = [this] {
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.connectFailures++;
        };

        if (NSBENCH_FAILPOINT(kNetBackendConnect)) {
            attemptFailed();
            continue;
        }

        int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            attemptFailed();
            continue;
        }
        int rc;
        do {
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr));
        } while (rc < 0 && errno == EINTR);
        if (rc < 0) {
            ::close(fd);
            attemptFailed();
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        // Handshake: Hello out, HelloAck back, bounded by a receive
        // timeout so a wedged server cannot hang the dialer.
        std::vector<uint8_t> hello;
        wire::encodeHello(wire::HelloFrame{}, &hello);
        bool ok = sendAll(fd, hello.data(), hello.size());
        if (ok) {
            setRecvTimeout(fd, options_.handshakeTimeoutSeconds);
            std::vector<uint8_t> buf;
            ok = false;
            while (true) {
                uint8_t chunk[256];
                ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
                if (n <= 0) {
                    if (n < 0 && errno == EINTR)
                        continue;
                    break; // Timeout, EOF or error: attempt fails.
                }
                buf.insert(buf.end(), chunk, chunk + n);
                wire::Frame frame;
                wire::DecodeResult result =
                    wire::tryDecode(buf.data(), buf.size(), &frame);
                if (result.status == wire::DecodeStatus::NeedMore)
                    continue;
                // The server acks the version the connection will
                // speak: any release in [kMinVersion, kVersion] is
                // compatible (new frame types are only sent to peers
                // that acked a version defining them).
                ok = result.status == wire::DecodeStatus::Ok &&
                     frame.type == wire::FrameType::HelloAck &&
                     frame.hello.magic == wire::kMagic &&
                     frame.hello.version >= wire::kMinVersion &&
                     frame.hello.version <= wire::kVersion;
                if (ok && ackedVersion)
                    *ackedVersion = frame.hello.version;
                break;
            }
            if (ok)
                setRecvTimeout(fd, 0.0);
        }
        if (!ok) {
            ::close(fd);
            attemptFailed();
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.connects++;
        }
        return fd;
    }
    return -1;
}

bool
Client::connect()
{
    // connectMu_ (== sendMu_? no: its own) serializes dialers so a
    // burst of submits on a dead connection dials once, not N times.
    // Thread objects reader_/retiredReader_ are only touched here,
    // in close() and in the destructor — never under mu_, so joining
    // cannot deadlock with a reader stuck in disconnect().
    std::lock_guard<std::mutex> dialLock(connectMu_);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ >= 0)
            return true;
    }
    if (retiredReader_.joinable())
        retiredReader_.join();
    if (reader_.joinable()) {
        if (reader_.get_id() == std::this_thread::get_id())
            retiredReader_ = std::move(reader_); // Joined next time.
        else
            reader_.join();
    }
    uint16_t acked = 0;
    int fd = dial(&acked);
    if (fd < 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        fd_ = fd;
        peerVersion_ = acked;
        generation_++;
    }
    reader_ = std::thread([this, fd] { readerLoop(fd); });
    return true;
}

bool
Client::connected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fd_ >= 0;
}

void
Client::close()
{
    std::lock_guard<std::mutex> dialLock(connectMu_);
    int fd;
    {
        std::lock_guard<std::mutex> lock(mu_);
        fd = fd_;
    }
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR); // Wakes the reader; it tears down.
    if (reader_.joinable() &&
        reader_.get_id() != std::this_thread::get_id())
        reader_.join();
}

serve::RequestStatus
Client::submit(const std::string &workload, uint64_t episodeSeed,
               serve::Callback done, serve::TimePoint deadline,
               uint64_t *wireId)
{
    if (wireId)
        *wireId = 0;
    if (!connect())
        return serve::RequestStatus::RejectedUnreachable;

    wire::RequestFrame request;
    request.episodeSeed = episodeSeed;
    request.modelSeed = options_.modelSeed;
    request.workload = workload;
    request.deadlineUs =
        encodeDeadlineUs(deadline, serve::ServeClock::now());

    int fd;
    uint64_t generation;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ < 0)
            return serve::RequestStatus::RejectedUnreachable;
        request.id = nextId_++;
        pending_[request.id] = std::move(done);
        fd = fd_;
        generation = generation_;
    }

    std::vector<uint8_t> encoded;
    wire::encodeRequest(request, &encoded);
    bool sent;
    {
        std::lock_guard<std::mutex> lock(sendMu_);
        sent = sendAll(fd, encoded.data(), encoded.size());
    }
    if (!sent) {
        // Wake the reader so the connection is torn down properly.
        ::shutdown(fd, SHUT_RDWR);
        std::lock_guard<std::mutex> lock(mu_);
        // If the reader already failed the callback (disconnect won
        // the race) the request terminated; report it admitted.
        bool removed = generation == generation_ &&
                       pending_.erase(request.id) > 0;
        return removed ? serve::RequestStatus::RejectedUnreachable
                       : serve::RequestStatus::Ok;
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        stats_.sent++;
    }
    if (wireId)
        *wireId = request.id;
    return serve::RequestStatus::Ok;
}

void
Client::cancel(uint64_t wireId)
{
    if (wireId == 0)
        return;
    int fd;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // A v1 peer never acked the Cancel frame type; sending one
        // would read as garbage and close the connection. The losing
        // request simply runs to completion there.
        if (fd_ < 0 || peerVersion_ < 2 || !pending_.count(wireId))
            return;
        fd = fd_;
    }
    std::vector<uint8_t> encoded;
    wire::encodeCancel(wire::CancelFrame{wireId}, &encoded);
    bool sent;
    {
        std::lock_guard<std::mutex> lock(sendMu_);
        sent = sendAll(fd, encoded.data(), encoded.size());
    }
    if (!sent) {
        ::shutdown(fd, SHUT_RDWR); // Reader tears the connection down.
        return;
    }
    std::lock_guard<std::mutex> lock(statsMu_);
    stats_.cancelsSent++;
}

uint16_t
Client::peerVersion() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fd_ >= 0 ? peerVersion_ : 0;
}

serve::Response
Client::call(const std::string &workload, uint64_t episodeSeed,
             serve::TimePoint deadline)
{
    struct Waiter
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        serve::Response response;
    };
    auto waiter = std::make_shared<Waiter>();
    uint64_t wire_id = 0;
    serve::RequestStatus status = submit(
        workload, episodeSeed,
        [waiter](const serve::Response &response) {
            std::lock_guard<std::mutex> lock(waiter->mu);
            waiter->response = response;
            waiter->done = true;
            waiter->cv.notify_one();
        },
        deadline, &wire_id);
    if (status != serve::RequestStatus::Ok) {
        serve::Response response;
        response.status = status;
        return response;
    }
    std::unique_lock<std::mutex> lock(waiter->mu);
    if (deadline == serve::noDeadline()) {
        // The caller asked for no time limit; honor it.
        waiter->cv.wait(lock, [&] { return waiter->done; });
        return waiter->response;
    }
    serve::TimePoint give_up =
        deadline + std::chrono::duration_cast<
                       serve::ServeClock::duration>(
                       std::chrono::duration<double>(
                           options_.callGraceSeconds));
    if (waiter->cv.wait_until(lock, give_up,
                              [&] { return waiter->done; }))
        return waiter->response;
    lock.unlock();

    // The server blew through the deadline plus grace — likely
    // wedged. Reclaim the callback so the wait can end; if the
    // reader claimed it first, the response is instants away and we
    // wait for it (exactly-once either way).
    bool reclaimed;
    {
        std::lock_guard<std::mutex> clientLock(mu_);
        reclaimed = pending_.erase(wire_id) > 0;
    }
    if (!reclaimed) {
        std::unique_lock<std::mutex> relock(waiter->mu);
        waiter->cv.wait(relock, [&] { return waiter->done; });
        return waiter->response;
    }
    {
        std::lock_guard<std::mutex> statsLock(statsMu_);
        stats_.callTimeouts++;
    }
    serve::Response expired;
    expired.status = serve::RequestStatus::Expired;
    return expired;
}

void
Client::readerLoop(int fd)
{
    std::vector<uint8_t> buf;
    bool alive = true;
    while (alive) {
        uint8_t chunk[4096];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        buf.insert(buf.end(), chunk, chunk + n);

        size_t offset = 0;
        while (offset < buf.size()) {
            wire::Frame frame;
            wire::DecodeResult result = wire::tryDecode(
                buf.data() + offset, buf.size() - offset, &frame);
            if (result.status == wire::DecodeStatus::NeedMore)
                break;
            if (result.status == wire::DecodeStatus::Malformed ||
                frame.type != wire::FrameType::Response) {
                alive = false; // Server spoke nonsense; hang up.
                break;
            }
            offset += result.consumed;

            serve::Callback done;
            {
                std::lock_guard<std::mutex> lock(mu_);
                auto it = pending_.find(frame.response.id);
                if (it != pending_.end()) {
                    done = std::move(it->second);
                    pending_.erase(it);
                }
            }
            if (done) {
                {
                    std::lock_guard<std::mutex> lock(statsMu_);
                    stats_.received++;
                }
                done(toResponse(frame.response));
            }
        }
        if (offset > 0)
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<long>(offset));
    }
    disconnect(fd);
}

void
Client::disconnect(int fd)
{
    std::map<uint64_t, serve::Callback> orphans;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ != fd)
            return; // A newer generation owns the state.
        fd_ = -1;
        orphans.swap(pending_);
    }
    ::close(fd);
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        stats_.disconnects++;
        stats_.orphaned += orphans.size();
    }
    serve::Response failed;
    failed.status = serve::RequestStatus::Failed;
    for (auto &[id, done] : orphans)
        done(failed);
}

ClientStats
Client::stats() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return stats_;
}

} // namespace nsbench::net
