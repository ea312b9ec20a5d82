#include "daemon.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/client.hh"

namespace jitsched {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The port from "jitschedd listening on <addr>:<port>", or 0. */
std::uint16_t
scrapePort(const std::string &log_path)
{
    std::ifstream in(log_path);
    std::string line;
    const std::string tag = "jitschedd listening on ";
    while (std::getline(in, line)) {
        if (line.rfind(tag, 0) != 0)
            continue;
        const auto colon = line.rfind(':');
        if (colon == std::string::npos)
            return 0;
        const long port = std::strtol(line.c_str() + colon + 1,
                                      nullptr, 10);
        return port > 0 && port < 65536
                   ? static_cast<std::uint16_t>(port)
                   : 0;
    }
    return 0;
}

} // anonymous namespace

Daemon::Daemon(std::string binary, std::vector<std::string> args,
               std::string log_path)
    : binary_(std::move(binary)), args_(std::move(args)),
      log_path_(std::move(log_path))
{
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
}

bool
Daemon::start(double timeout_s, std::string *error)
{
    // Everything the child touches is built before fork(): between
    // fork and exec only async-signal-safe calls are allowed.
    std::vector<std::string> argv_s = {binary_, "--port", "0"};
    argv_s.insert(argv_s.end(), args_.begin(), args_.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const int log_fd = ::open(log_path_.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                              0644);
    if (log_fd < 0) {
        *error = "cannot open " + log_path_;
        return false;
    }
    const auto t0 = Clock::now();
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(log_fd);
        *error = "fork failed";
        return false;
    }
    if (pid_ == 0) {
        // A benchmark killed mid-run must not leave its daemon behind.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(log_fd, STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(log_fd);

    while ((port_ = scrapePort(log_path_)) == 0) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            *error = binary_ + " exited before listening";
            return false;
        }
        if (since(t0) > timeout_s) {
            *error = binary_ + " did not report a port in time";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    ClientConfig ccfg;
    ccfg.connectTimeoutMs = 1000;
    ccfg.readTimeoutMs = 1000;
    ccfg.writeTimeoutMs = 1000;
    for (;;) {
        ServiceClient client(ccfg);
        std::string why;
        if (client.connect("127.0.0.1", port_, &why) &&
            client.ping(1, &why))
            return true;
        if (since(t0) > timeout_s) {
            *error = "no PONG from " + binary_ + ": " + why;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

bool
Daemon::stop(double timeout_s, std::string *error)
{
    if (pid_ <= 0)
        return true;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
        if (since(t0) > timeout_s) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
            *error = binary_ + " ignored SIGTERM; killed";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        *error = binary_ + " exited abnormally (status " +
                 std::to_string(status) + ")";
        return false;
    }
    return true;
}

double
Daemon::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Field 2 (comm) may hold spaces; the fields after its closing
    // parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    const auto close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string skip;
    for (int i = 0; i < 11; ++i)
        fields >> skip;
    unsigned long long utime = 0, stime = 0;
    fields >> utime >> stime;
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
Daemon::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            in >> kib;
            return kib / 1024.0;
        }
        in.ignore(1 << 12, '\n');
    }
    return 0.0;
}

} // namespace e2e
} // namespace jitsched
