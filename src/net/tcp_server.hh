/**
 * @file
 * Epoll-based TCP front end for the serving runtime.
 *
 * Two layers:
 *
 *  - FrameServer: the transport. One event-loop thread owns a
 *    listening socket, an epoll set and the per-connection state
 *    machines (nonblocking sockets, buffered partial reads/writes,
 *    handshake validation, bounds-checked frame decode). Every
 *    decoded request frame is handed to a caller-supplied handler
 *    together with a Session handle whose respond() is safe to call
 *    from any thread at any later time — serve worker threads
 *    complete requests long after the loop has moved on.
 *
 *  - TcpServer: the binding. Forwards each decoded request into
 *    serve::Server::submit and streams the response frame back from
 *    the server's completion callback. Transport counters (accepted
 *    connections, bytes, frames, malformed input) fold into the
 *    server's ServerMetrics so `nsbench serve` prints one unified
 *    report.
 *
 * FrameServer knows nothing of serve::Server: it takes a handler and
 * an explicit ServerMetrics, so the transport is testable on its own
 * and the binding stays a thin adapter.
 *
 * Threading contract: sockets are read, decoded and closed only on
 * the loop thread. respond() from other threads appends to the
 * connection's write buffer under its mutex and wakes the loop via
 * an eventfd; the loop performs the actual send. A connection that
 * dies with responses still in flight simply drops them — the
 * client sees the close and fails its pending requests itself.
 *
 * Shutdown drains: stop accepting, reject new request frames with
 * RejectedShutdown, wait (bounded) for in-flight requests to respond
 * and write buffers to flush, then close everything.
 */

#ifndef NSBENCH_NET_TCP_SERVER_HH
#define NSBENCH_NET_TCP_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hh"
#include "serve/metrics.hh"
#include "serve/server.hh"

namespace nsbench::net
{

/** Transport knobs for the serve front end. */
struct FrameServerOptions
{
    std::string host = "127.0.0.1"; ///< Bind address (IPv4 dotted).
    uint16_t port = 0;              ///< 0 -> kernel-assigned port.
    int backlog = 128;              ///< listen() backlog.
    /** Shutdown drain bound: how long to wait for in-flight requests
     *  to complete and write buffers to empty before closing. */
    double drainSeconds = 5.0;
};

/**
 * The generic length-prefixed-frame transport: accept loop, epoll
 * event loop, per-connection read/write buffering and wire decode.
 * Construction binds, listens and starts the loop thread; requests
 * are delivered to the handler on the loop thread.
 */
class FrameServer
{
  public:
    class Session;
    using SessionPtr = std::shared_ptr<Session>;

    /**
     * Called on the loop thread for every well-formed request frame
     * on a handshaken connection. Must not block: dispatch to worker
     * threads and call session->respond() when done (immediately is
     * fine too — respond() from the handler itself is supported).
     */
    using Handler =
        std::function<void(const SessionPtr &, const wire::RequestFrame &)>;

    /**
     * Called on the loop thread for every Cancel frame from a v2+
     * client. Advisory: the handler prunes the request if it can and
     * does nothing otherwise; Cancel is never acknowledged. A null
     * handler ignores Cancel frames (they are still well-formed).
     */
    using CancelHandler =
        std::function<void(const SessionPtr &, uint64_t id)>;

    /** One accepted connection; hand out via shared_ptr so worker
     *  callbacks can outlive the socket safely. */
    class Session : public std::enable_shared_from_this<Session>
    {
      public:
        /**
         * Queues @p frame for transmission and wakes the loop.
         * Thread-safe; callable exactly once per delivered request
         * (the in-flight accounting that shutdown's drain waits on
         * is balanced by this call). Responding on a connection that
         * already closed is a silent no-op.
         */
        void respond(const wire::ResponseFrame &frame);

      private:
        friend class FrameServer;

        explicit Session(int fd) : fd_(fd) {}

        int fd_;                       ///< Loop thread only.
        bool handshaken_ = false;      ///< Loop thread only.
        uint16_t version_ = 0;         ///< Negotiated; loop thread only.
        std::vector<uint8_t> in_;      ///< Loop thread only.

        std::mutex mu_;                ///< Guards the fields below.
        bool closed_ = false;          ///< Socket gone; drop output.
        std::vector<uint8_t> out_;     ///< Pending bytes to send.
        size_t outOffset_ = 0;         ///< Sent prefix of out_.
        uint64_t inflight_ = 0;        ///< Delivered, not responded.

        FrameServer *server_ = nullptr;///< For respond() wakeups.
    };

    /**
     * Binds @p options.host:port, starts listening and launches the
     * event-loop thread. Dies (fatal) if the socket setup fails —
     * a front end that cannot bind has nothing to offer.
     */
    FrameServer(const FrameServerOptions &options, Handler handler,
                serve::ServerMetrics &metrics,
                CancelHandler cancelHandler = nullptr);

    /** Drains and joins the loop (idempotent). */
    ~FrameServer();

    FrameServer(const FrameServer &) = delete;
    FrameServer &operator=(const FrameServer &) = delete;

    /** The bound TCP port (resolves port 0 to the kernel's pick). */
    uint16_t port() const { return port_; }

    /**
     * Graceful stop: closes the listener, answers further request
     * frames with RejectedShutdown, waits up to drainSeconds for
     * in-flight requests and queued output, closes all connections
     * and joins the loop thread. Idempotent, callable from any
     * thread except the loop itself.
     */
    void shutdown();

  private:
    void loop();
    void handleAccept();
    void handleReadable(const SessionPtr &session);
    void handleWritable(const SessionPtr &session);
    void handleFrame(const SessionPtr &session, const wire::Frame &frame);
    /** Flushes queued output; returns false if the send failed. */
    bool flushSession(const SessionPtr &session);
    void closeSession(const SessionPtr &session);
    void drainFlushQueue();
    void updateWriteInterest(const SessionPtr &session);
    /** Called by Session::respond() to schedule a flush. */
    void requestFlush(const SessionPtr &session);
    void wake();
    /** True when every session is idle (no inflight, no output). */
    bool drained();

    FrameServerOptions options_;
    Handler handler_;
    CancelHandler cancelHandler_;
    serve::ServerMetrics &metrics_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    uint16_t port_ = 0;

    std::atomic<bool> stopping_{false};

    std::mutex flushMu_;
    std::vector<std::weak_ptr<Session>> flushQueue_;

    /** Loop thread only: fd -> session. */
    std::map<int, SessionPtr> sessions_;

    std::thread loopThread_;
    std::once_flag shutdownOnce_;
};

/**
 * The serving front end: a FrameServer whose handler submits into a
 * serve::Server and responds from its completion callbacks. The
 * server outlives the front end; its metrics absorb the transport
 * counters.
 */
class TcpServer
{
  public:
    explicit TcpServer(serve::Server &server,
                       const FrameServerOptions &options = {});

    /** The bound TCP port. */
    uint16_t port() const { return frames_->port(); }

    /** Graceful drain; idempotent (also runs on destruction). */
    void shutdown() { frames_->shutdown(); }

  private:
    void handle(const FrameServer::SessionPtr &session,
                const wire::RequestFrame &request);
    void handleCancel(const FrameServer::SessionPtr &session,
                      uint64_t id);

    /**
     * In-flight cancel tokens keyed by (session, wire request id).
     * Inserted before submit, erased by the completion callback, so
     * a Cancel frame can find its request without any id-allocation
     * race. Shared with the callbacks: the serve::Server outlives
     * this front end and may complete requests after it is gone.
     */
    struct LiveRequests
    {
        std::mutex mu;
        std::map<std::pair<const void *, uint64_t>,
                 serve::CancelToken>
            tokens;
    };

    serve::Server &server_;
    std::shared_ptr<LiveRequests> live_;
    std::unique_ptr<FrameServer> frames_;
};

} // namespace nsbench::net

#endif // NSBENCH_NET_TCP_SERVER_HH
