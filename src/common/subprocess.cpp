#include "common/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/check.hpp"

namespace g10 {
namespace {

ExitStatus decode_status(int raw) {
  ExitStatus status;
  if (WIFEXITED(raw)) {
    status.exited = true;
    status.code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status.signaled = true;
    status.signal_number = WTERMSIG(raw);
  }
  return status;
}

}  // namespace

std::string signal_name(int signal_number) {
  switch (signal_number) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return "signal " + std::to_string(signal_number);
  }
}

std::string ExitStatus::describe() const {
  if (exited) return "exited with code " + std::to_string(code);
  if (signaled) return "killed by " + signal_name(signal_number);
  return "unknown status";
}

// ---------------------------------------------------------------------------
// Pipe
// ---------------------------------------------------------------------------

Pipe::Pipe() {
  int fds[2];
  G10_CHECK_MSG(::pipe2(fds, O_CLOEXEC) == 0,
                "pipe2 failed: " + std::string(std::strerror(errno)));
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

Pipe::~Pipe() {
  close_read();
  close_write();
}

Pipe::Pipe(Pipe&& other) noexcept
    : read_fd_(other.read_fd_), write_fd_(other.write_fd_) {
  other.read_fd_ = -1;
  other.write_fd_ = -1;
}

Pipe& Pipe::operator=(Pipe&& other) noexcept {
  if (this != &other) {
    close_read();
    close_write();
    read_fd_ = other.read_fd_;
    write_fd_ = other.write_fd_;
    other.read_fd_ = -1;
    other.write_fd_ = -1;
  }
  return *this;
}

int Pipe::release_read() {
  const int fd = read_fd_;
  read_fd_ = -1;
  return fd;
}

void Pipe::close_read() {
  if (read_fd_ >= 0) ::close(read_fd_);
  read_fd_ = -1;
}

void Pipe::close_write() {
  if (write_fd_ >= 0) ::close(write_fd_);
  write_fd_ = -1;
}

// ---------------------------------------------------------------------------
// Subprocess
// ---------------------------------------------------------------------------

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const SpawnOptions& options) {
  G10_CHECK_MSG(!argv.empty(), "spawn needs a command");
  // Build the exec vector before fork: only async-signal-safe calls are
  // allowed on the child side.
  std::vector<char*> child_argv;
  child_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    child_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  child_argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  G10_CHECK_MSG(pid >= 0, "fork failed: " + std::string(std::strerror(errno)));

  if (pid == 0) {
    // Child: async-signal-safe territory until exec.
    // Die with the spawning thread. A parent that died before the prctl
    // took effect has already handed the child to a reaper: leave now.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    if (options.new_process_group) ::setpgid(0, 0);
    if (options.limits.address_space_bytes > 0 && !kAddressSanitizer) {
      struct rlimit lim;
      lim.rlim_cur = options.limits.address_space_bytes;
      lim.rlim_max = options.limits.address_space_bytes;
      ::setrlimit(RLIMIT_AS, &lim);
    }
    if (options.limits.cpu_seconds > 0.0) {
      struct rlimit lim;
      lim.rlim_cur =
          static_cast<rlim_t>(std::ceil(options.limits.cpu_seconds));
      lim.rlim_max = lim.rlim_cur + 1;  // SIGKILL backstop past the SIGXCPU
      ::setrlimit(RLIMIT_CPU, &lim);
    }
    for (const auto& [from, to] : options.dup_fds) {
      if (::dup2(from, to) < 0) _exit(127);
    }
    ::execvp(child_argv[0], child_argv.data());
    _exit(127);  // exec failed; 127 is the conventional "command not found"
  }

  Subprocess child;
  child.pid_ = pid;
  child.own_group_ = options.new_process_group;
  // Both sides call setpgid: a kill(-pid) issued immediately after spawn
  // must not race the child's own setpgid and miss the group entirely.
  // EACCES (child already exec'd, so its setpgid won) is fine.
  if (options.new_process_group) ::setpgid(pid, pid);
  return child;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), own_group_(other.own_group_),
      status_(other.status_) {
  other.pid_ = -1;
  other.status_.reset();
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    pid_ = other.pid_;
    own_group_ = other.own_group_;
    status_ = other.status_;
    other.pid_ = -1;
    other.status_.reset();
  }
  return *this;
}

std::optional<ExitStatus> Subprocess::poll() {
  if (status_) return status_;
  if (pid_ <= 0) return std::nullopt;
  int raw = 0;
  const pid_t reaped = ::waitpid(pid_, &raw, WNOHANG);
  if (reaped == pid_) status_ = decode_status(raw);
  return status_;
}

ExitStatus Subprocess::wait() {
  if (status_) return *status_;
  G10_CHECK_MSG(pid_ > 0, "wait on an empty Subprocess");
  int raw = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(pid_, &raw, 0);
  } while (reaped < 0 && errno == EINTR);
  G10_CHECK_MSG(reaped == pid_,
                "waitpid failed: " + std::string(std::strerror(errno)));
  status_ = decode_status(raw);
  return *status_;
}

void Subprocess::wait_exit(double timeout_s) {
  if (status_) return;
  G10_CHECK_MSG(pid_ > 0, "wait_exit on an empty Subprocess");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    siginfo_t info{};
    const int rc = ::waitid(P_PID, static_cast<id_t>(pid_), &info,
                            WEXITED | WNOHANG | WNOWAIT);
    if (rc == 0 && info.si_pid == pid_) return;  // exited, still a zombie
    if (rc < 0 && errno != EINTR) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Subprocess::kill(int sig) const {
  if (pid_ <= 0 || status_.has_value()) return;
  // Negative pid signals the whole process group: a wedged worker cannot
  // shelter grandchildren from the escalation. If the group is gone (or
  // was never formed), fall back to the leader directly.
  if (own_group_ && ::kill(-pid_, sig) == 0) return;
  ::kill(pid_, sig);
}

}  // namespace g10
