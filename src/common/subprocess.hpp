// Child-process spawning for the ensemble supervisor (DESIGN.md §15).
//
// A thin fork/exec wrapper that provides the four things the supervisor
// needs and std::system cannot give: (1) the child runs in its own process
// group, so a SIGKILL reaches every grandchild a wedged worker may have
// leaked (orphan reaping); (2) resource sandboxes — RLIMIT_AS and
// RLIMIT_CPU are installed between fork and exec, so a memory-exploding or
// CPU-spinning child is contained by the kernel, not by cooperative checks;
// (3) fd plumbing — selected parent descriptors are dup2'd to fixed child
// fds (the status/heartbeat pipe), with everything else O_CLOEXEC;
// (4) no orphans — the child sets PR_SET_PDEATHSIG to SIGKILL, so it dies
// when the thread that spawned it does (a kill -9'd supervisor takes its
// workers along), and exits at once if that thread died before the prctl.
//
// fork+exec is used rather than posix_spawn because rlimit installation
// needs a pre-exec hook posix_spawn does not portably offer; the child-side
// code between fork and exec is restricted to async-signal-safe calls
// (prctl/getppid/setpgid/setrlimit/dup2/execvp/_exit), so spawning from a
// process with running threads is safe as long as the caller's own state
// is (the supervisor is single-threaded by design). Spawn from a thread
// that outlives the child: the death signal follows the spawning thread,
// not the process.
//
// Exit classification: ExitStatus splits the waitpid status into
// exited/code vs signaled/signal and renders a stable human-readable
// describe() ("exited with code 3", "killed by SIGSEGV") that the
// supervisor copies into journal records, so signal attribution survives
// into the aggregate report.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace g10 {

/// True in AddressSanitizer builds, whose shadow memory reserves terabytes
/// of address space at startup: no RLIMIT_AS sandbox can hold them.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kAddressSanitizer = true;
#else
inline constexpr bool kAddressSanitizer = false;
#endif
#else
inline constexpr bool kAddressSanitizer = false;
#endif

/// Kernel-enforced sandboxes installed in the child before exec. Zero means
/// "inherit the parent's limit" (no sandbox on that dimension); so does an
/// address-space limit under kAddressSanitizer.
struct SpawnLimits {
  std::uint64_t address_space_bytes = 0;  ///< RLIMIT_AS (hard+soft)
  double cpu_seconds = 0.0;               ///< RLIMIT_CPU (SIGXCPU past soft)
};

struct SpawnOptions {
  /// Put the child in a fresh process group (pgid == child pid), so
  /// Subprocess::kill(sig) can signal the whole tree at once.
  bool new_process_group = true;
  SpawnLimits limits;
  /// dup2(parent_fd, child_fd) pairs applied in the child before exec.
  /// dup2 clears O_CLOEXEC on the target, so a CLOEXEC pipe end can be
  /// handed to exactly one child without leaking into siblings.
  std::vector<std::pair<int, int>> dup_fds;
};

/// Decoded waitpid(2) status.
struct ExitStatus {
  bool exited = false;    ///< normal exit — `code` is valid
  int code = 0;
  bool signaled = false;  ///< killed by a signal — `signal_number` is valid
  int signal_number = 0;

  bool success() const { return exited && code == 0; }
  /// "exited with code 3" / "killed by SIGSEGV" (stable wording — journal
  /// records and tests match on it).
  std::string describe() const;
};

/// "SIGSEGV" for SIGSEGV & co; "signal 63" for numbers without a name.
std::string signal_name(int signal_number);

/// An anonymous pipe, both ends O_CLOEXEC. Closes what it still owns on
/// destruction; release either end to transfer ownership.
class Pipe {
 public:
  Pipe();  ///< throws CheckError on failure
  ~Pipe();

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  Pipe(Pipe&& other) noexcept;
  Pipe& operator=(Pipe&& other) noexcept;

  int read_fd() const { return read_fd_; }
  int write_fd() const { return write_fd_; }
  int release_read();  ///< caller now owns the fd (-1 afterwards)
  void close_read();
  void close_write();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// One spawned child. Movable, not copyable; the destructor does NOT kill
/// or reap a still-running child (the supervisor owns that policy) — it
/// only abandons the handle.
class Subprocess {
 public:
  /// Spawns argv[0] with execvp semantics. Throws CheckError when the
  /// fork/pipe plumbing fails; exec failure inside the child surfaces as
  /// exit code 127 through wait().
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const SpawnOptions& options = {});

  Subprocess() = default;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;

  pid_t pid() const { return pid_; }
  bool valid() const { return pid_ > 0; }
  /// True until the child has been reaped by poll()/wait().
  bool running() const { return pid_ > 0 && !status_.has_value(); }

  /// Non-blocking reap: nullopt while the child is still alive, the final
  /// status (cached; repeat calls are free) once it exited.
  std::optional<ExitStatus> poll();
  /// Blocking reap.
  ExitStatus wait();
  /// Waits up to `timeout_s` for the child to exit, without reaping it:
  /// the exited leader stays a zombie, so its pid and process group id
  /// cannot be reused and kill() still reaches what it left behind.
  void wait_exit(double timeout_s);

  /// Sends `sig` to the child — to its whole process group when it was
  /// spawned with new_process_group (the default). No-op once reaped.
  void kill(int sig) const;

 private:
  pid_t pid_ = -1;
  bool own_group_ = false;
  std::optional<ExitStatus> status_;
};

}  // namespace g10
