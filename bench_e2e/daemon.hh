/**
 * @file
 * A jitschedd child process: spawned fresh per measurement, observed
 * from outside through /proc (CPU time, peak RSS), stopped with
 * SIGTERM so an armed --trace-out is written.
 */

#ifndef JITSCHED_BENCH_E2E_DAEMON_HH
#define JITSCHED_BENCH_E2E_DAEMON_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace jitsched {
namespace e2e {

class Daemon
{
  public:
    /**
     * @param binary path of jitschedd
     * @param args flags beyond `--port 0`
     * @param log_path file the daemon's stdout goes to (the bound
     *        port is read back from it)
     */
    Daemon(std::string binary, std::vector<std::string> args,
           std::string log_path);

    /** Kills and reaps the child if it is still running. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Spawn, wait for the listening line, then for a PONG.
     * @return false with *error set when any step fails or takes
     *         longer than @p timeout_s
     */
    bool start(double timeout_s, std::string *error);

    /**
     * SIGTERM and reap; SIGKILL after @p timeout_s.
     * @return true when the daemon exited 0 on its own
     */
    bool stop(double timeout_s, std::string *error);

    std::uint16_t port() const { return port_; }

    /** utime + stime of the child, in seconds (/proc/<pid>/stat). */
    double cpuSeconds() const;

    /** Peak resident set (VmHWM) of the child, in MiB. */
    double peakRssMb() const;

  private:
    std::string binary_;
    std::vector<std::string> args_;
    std::string log_path_;
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace e2e
} // namespace jitsched

#endif // JITSCHED_BENCH_E2E_DAEMON_HH
