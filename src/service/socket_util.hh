/**
 * @file
 * Thin POSIX TCP helpers for the service daemon and client: bind and
 * listen on loopback, connect, retrying whole-buffer writes, and a
 * buffered line reader — just enough socket for the line-oriented
 * wire protocol, with errors reported as strings (a daemon must not
 * fatal() on a misbehaving peer).
 */

#ifndef JITSCHED_SERVICE_SOCKET_UTIL_HH
#define JITSCHED_SERVICE_SOCKET_UTIL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace jitsched {

/**
 * Create, bind and listen on a TCP socket.
 * @param address IPv4 dotted quad, e.g. "127.0.0.1"
 * @param port port to bind; 0 picks an ephemeral port
 * @param backlog listen(2) backlog
 * @param error receives a description on failure
 * @return the listening fd, or -1 on failure
 */
int listenTcp(const std::string &address, std::uint16_t port,
              int backlog, std::string *error);

/** Port a bound socket actually landed on (resolves port 0). */
std::uint16_t boundPort(int fd);

/**
 * Connect to a TCP endpoint.
 * @return the connected fd, or -1 on failure
 */
int connectTcp(const std::string &address, std::uint16_t port,
               std::string *error);

/**
 * Connect with a deadline: the socket is put into non-blocking mode,
 * the three-way handshake is awaited with poll(2), and the socket is
 * returned to blocking mode on success.  A peer that silently drops
 * SYNs (a hung or firewalled backend) fails in @p timeout_ms instead
 * of the kernel's minutes-long default.
 *
 * @param timeout_ms connect deadline; < 0 means block indefinitely
 *        (identical to connectTcp)
 * @return the connected fd, or -1 on failure/timeout
 */
int connectTcpTimeout(const std::string &address, std::uint16_t port,
                      int timeout_ms, std::string *error);

/**
 * Arm SO_RCVTIMEO / SO_SNDTIMEO on a connected socket.  A value < 0
 * leaves that direction untouched; 0 disables the timeout.  With a
 * receive timeout armed, LineReader::readLine() returns nullopt on
 * expiry with timedOut() set — how a client tells a hung server from
 * a closed one.
 */
void setIoTimeouts(int fd, int recv_timeout_ms, int send_timeout_ms);

/** Write the whole buffer, retrying on partial writes and EINTR. */
bool writeAll(int fd, std::string_view data);

/** Close an fd, ignoring EINTR; no-op for fd < 0. */
void closeFd(int fd);

/**
 * Buffered reader returning one '\n'-terminated line at a time
 * (terminator stripped, trailing '\r' tolerated).  A final unterminated
 * line before EOF is returned as-is.  Lines are views into the
 * reader's buffer, valid until the next readLine(); the socket is read
 * 64 KiB at a time.
 *
 * Lines are capped at @p max_line_bytes: a peer streaming bytes
 * without ever sending a newline would otherwise grow the buffer
 * without bound.  On overflow readLine() returns nullopt and
 * overflowed() reports why, so the caller can tell a hostile peer
 * from a clean EOF.
 */
class LineReader
{
  public:
    explicit LineReader(int fd,
                        std::size_t max_line_bytes = std::size_t(1)
                                                     << 20)
        : fd_(fd), max_line_(max_line_bytes)
    {
    }

    /**
     * Next line, or nullopt at EOF / read error / oversized line.
     * The view is invalidated by the next call.
     */
    std::optional<std::string_view> readLine();

    /** True once a line exceeded the construction-time cap. */
    bool overflowed() const { return overflowed_; }

    /**
     * True once a read expired against the socket's SO_RCVTIMEO
     * (see setIoTimeouts).  Distinguishes "the peer is hung" from
     * "the peer hung up" after a nullopt readLine().
     */
    bool timedOut() const { return timed_out_; }

  private:
    static constexpr std::size_t kReadChunk = std::size_t(64) << 10;

    int fd_;
    std::size_t max_line_;
    std::string buffer_;
    std::size_t pos_ = 0;
    bool eof_ = false;
    bool overflowed_ = false;
    bool timed_out_ = false;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_SOCKET_UTIL_HH
