/**
 * @file
 * The nsbench serving wire protocol.
 *
 * A versioned, length-prefixed binary framing for driving a
 * serve::Server over a byte stream. Every frame is
 *
 *     u32 bodyLength | u8 frameType | payload...
 *
 * with every integer little-endian on the wire regardless of host
 * order (explicit byte-at-a-time encode/decode, no struct punning).
 * Scores travel as the raw 8-byte IEEE-754 bit pattern of the double,
 * so a remote response is *byte-identical* to the in-process score —
 * the determinism contract survives the network hop.
 *
 * A connection opens with a handshake: the client sends Hello (magic
 * + protocol version), the server answers HelloAck or closes. After
 * the handshake the client sends Request frames and the server
 * answers one Response frame per request, matched by the
 * client-chosen request id; responses may arrive in any order
 * (pipelining).
 *
 * Decoding is defensive by construction: tryDecode() never reads past
 * the buffered bytes, rejects bodies above kMaxBody, and classifies
 * every violation as Malformed — the transport's contract is to close
 * such a connection, never to crash or hang (the `net` test tier
 * feeds a corpus of truncated/oversized/garbage frames to enforce
 * this).
 */

#ifndef NSBENCH_NET_WIRE_HH
#define NSBENCH_NET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nsbench::net::wire
{

/** Handshake magic ("NSBW" little-endian). */
inline constexpr uint32_t kMagic = 0x5742534E;

/** Protocol version this library speaks. Version history:
 *   1 — Hello/HelloAck/Request/Response.
 *   2 — adds Cancel (client -> server, best-effort pruning of an
 *       abandoned queued request).
 * Handshakes accept any version in [kMinVersion, kVersion]; a peer
 * that acked version 1 is never sent Cancel frames. */
inline constexpr uint16_t kVersion = 2;

/** Oldest protocol version still accepted in a handshake. */
inline constexpr uint16_t kMinVersion = 1;

/** Hard upper bound on a frame body; larger lengths are malformed. */
inline constexpr uint32_t kMaxBody = 16 * 1024;

/** Longest accepted workload name on the wire. */
inline constexpr size_t kMaxWorkloadName = 256;

/** Frame discriminator (first body byte). */
enum class FrameType : uint8_t
{
    Hello = 1,    ///< Client -> server handshake open.
    HelloAck = 2, ///< Server -> client handshake accept.
    Request = 3,  ///< Client -> server inference request.
    Response = 4, ///< Server -> client completion record.
    Cancel = 5,   ///< Client -> server: abandon a request (v2+).
};

/** Handshake payload (both directions). */
struct HelloFrame
{
    uint32_t magic = kMagic;
    uint16_t version = kVersion;
};

/** Response flag bits (Response::flags). */
enum ResponseFlags : uint32_t
{
    kFlagCached = 1u << 0,    ///< Served from the result cache.
    kFlagStale = 1u << 1,     ///< Stale-cache fallback after failure.
    kFlagPipelined = 1u << 2, ///< Ran in a stage-pipelined batch.
};

/**
 * One inference request. The model seed is informational — a server
 * builds its replicas once at its own model seed; 0 means "whatever
 * the server was built with". The deadline is *relative*
 * (microseconds from receipt; 0 = none) so the protocol needs no
 * clock synchronization.
 */
struct RequestFrame
{
    uint64_t id = 0;          ///< Client-chosen correlation id.
    uint64_t episodeSeed = 0; ///< Episode-stream seed to evaluate.
    uint64_t modelSeed = 0;   ///< 0 -> server default.
    uint32_t deadlineUs = 0;  ///< Relative deadline; 0 -> none.
    uint32_t flags = 0;       ///< Reserved; must echo as sent.
    std::string workload;     ///< Registered workload name.
};

/**
 * One completion record; mirrors serve::Response. `status` carries
 * the numeric value of serve::RequestStatus.
 */
struct ResponseFrame
{
    uint64_t id = 0;          ///< The request's correlation id.
    uint8_t status = 0;       ///< serve::RequestStatus value.
    uint64_t scoreBits = 0;   ///< Raw IEEE-754 bits of the score.
    double latencySeconds = 0.0;
    double queueSeconds = 0.0;
    double serviceSeconds = 0.0;
    double neuralSeconds = 0.0;
    double symbolicSeconds = 0.0;
    uint32_t batchSize = 0;
    uint32_t shared = 0;
    uint32_t retries = 0;
    uint32_t flags = 0;       ///< ResponseFlags bits.

    /** The score as a double, bit-exact. */
    double score() const;

    /** Stores @p value's bit pattern into scoreBits. */
    void setScore(double value);
};

/**
 * Best-effort abandonment of an earlier Request the client no
 * longer wants. The server may still answer the request —
 * cancellation is advisory, and the Cancel itself is never
 * acknowledged. Protocol version 2+.
 */
struct CancelFrame
{
    uint64_t id = 0; ///< Correlation id of the request to abandon.
};

/** A decoded frame: `type` selects which member is meaningful. */
struct Frame
{
    FrameType type = FrameType::Hello;
    HelloFrame hello;
    RequestFrame request;
    ResponseFrame response;
    CancelFrame cancel;
};

/** Outcome of one tryDecode() attempt. */
enum class DecodeStatus
{
    NeedMore,  ///< Buffer holds a frame prefix; read more bytes.
    Ok,        ///< One frame decoded; `consumed` bytes were used.
    Malformed, ///< Protocol violation; close the connection.
};

/** tryDecode() result: status plus bytes consumed on Ok. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::NeedMore;
    size_t consumed = 0;
};

/** Appends an encoded Hello frame to @p out. */
void encodeHello(const HelloFrame &hello, std::vector<uint8_t> *out);

/** Appends an encoded HelloAck frame to @p out. */
void encodeHelloAck(const HelloFrame &hello,
                    std::vector<uint8_t> *out);

/** Appends an encoded Request frame to @p out. */
void encodeRequest(const RequestFrame &request,
                   std::vector<uint8_t> *out);

/** Appends an encoded Response frame to @p out. */
void encodeResponse(const ResponseFrame &response,
                    std::vector<uint8_t> *out);

/** Appends an encoded Cancel frame to @p out (protocol v2+). */
void encodeCancel(const CancelFrame &cancel,
                  std::vector<uint8_t> *out);

/**
 * Attempts to decode one frame from the front of
 * @p buffer[0..size). On Ok fills @p frame and reports how many
 * bytes the frame occupied; the caller erases them and calls again
 * (a read may have buffered several frames). Never reads past
 * @p size.
 */
DecodeResult tryDecode(const uint8_t *buffer, size_t size,
                       Frame *frame);

} // namespace nsbench::net::wire

#endif // NSBENCH_NET_WIRE_HH
