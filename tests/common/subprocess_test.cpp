// Exercises the fork/exec spawn wrapper: exit/signal classification,
// process-group kills that reach grandchildren, the death signal that
// takes a child down with its spawner, rlimit sandboxes, and the dup_fds
// plumbing used for the supervisor's status pipe.
#include "common/subprocess.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace g10 {
namespace {

std::vector<std::string> sh(const std::string& script) {
  return {"/bin/sh", "-c", script};
}

TEST(ExitStatusTest, DescribeIsStable) {
  ExitStatus exited;
  exited.exited = true;
  exited.code = 3;
  EXPECT_EQ(exited.describe(), "exited with code 3");
  ExitStatus killed;
  killed.signaled = true;
  killed.signal_number = SIGSEGV;
  EXPECT_EQ(killed.describe(), "killed by SIGSEGV");
}

TEST(SignalNameTest, CommonSignalsAndFallback) {
  EXPECT_EQ(signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(signal_name(SIGKILL), "SIGKILL");
  EXPECT_EQ(signal_name(SIGTERM), "SIGTERM");
  EXPECT_EQ(signal_name(SIGXCPU), "SIGXCPU");
  EXPECT_EQ(signal_name(63), "signal 63");
}

TEST(SubprocessTest, NormalExitCodeIsCaptured) {
  Subprocess child = Subprocess::spawn(sh("exit 7"));
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 7);
  EXPECT_FALSE(status.success());
  EXPECT_FALSE(child.running());
}

TEST(SubprocessTest, SignalDeathIsClassified) {
  Subprocess child = Subprocess::spawn(sh("kill -SEGV $$"));
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.signal_number, SIGSEGV);
  EXPECT_EQ(status.describe(), "killed by SIGSEGV");
}

TEST(SubprocessTest, ExecFailureIs127) {
  Subprocess child = Subprocess::spawn({"/nonexistent/binary"});
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 127);
}

TEST(SubprocessTest, PollIsNonBlockingAndCaches) {
  Subprocess child = Subprocess::spawn(sh("sleep 30"));
  EXPECT_FALSE(child.poll().has_value());
  EXPECT_TRUE(child.running());
  child.kill(SIGKILL);
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.signal_number, SIGKILL);
  // Cached after reaping: repeat polls return the same status.
  const auto again = child.poll();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->signal_number, SIGKILL);
}

TEST(SubprocessTest, GroupKillReachesGrandchildren) {
  // The worker leaks a grandchild that writes to the pipe when it dies;
  // SIGKILL to the group must take the whole tree down, so the pipe read
  // end must reach EOF promptly rather than after the grandchild's 30s nap.
  Pipe pipe;
  SpawnOptions options;
  options.dup_fds.push_back({pipe.write_fd(), 3});
  Subprocess child =
      Subprocess::spawn(sh("sleep 30 >&3 & sleep 30"), options);
  pipe.close_write();
  child.kill(SIGKILL);
  EXPECT_TRUE(child.wait().signaled);
  // EOF on the pipe proves no group member still holds fd 3 open.
  char byte;
  ssize_t n;
  do {
    n = ::read(pipe.read_fd(), &byte, 1);
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0);
}

TEST(SubprocessTest, ChildDiesWithItsSpawner) {
  // A spawner that exits without reaping its child takes the child along.
  // This process becomes the subreaper, so the orphan is reparented here
  // and its death can be read; without the death signal it would sleep
  // its 10 s and exit 0.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  Pipe report;
  const pid_t spawner = ::fork();
  ASSERT_GE(spawner, 0);
  if (spawner == 0) {
    try {
      // The child says it is up only after exec, so the spawner exits
      // after the child's prctl.
      Pipe ready;
      SpawnOptions options;
      options.dup_fds.push_back({ready.write_fd(), 3});
      const pid_t pid =
          Subprocess::spawn(sh("echo >&3; exec sleep 10"), options).pid();
      ready.close_write();
      char byte;
      if (::read(ready.read_fd(), &byte, 1) == 1 &&
          ::write(report.write_fd(), &pid, sizeof pid) == sizeof pid) {
        ::_exit(0);
      }
    } catch (...) {
    }
    ::_exit(1);  // never unwind into gtest from the forked child
  }
  report.close_write();
  pid_t orphan = -1;
  ASSERT_EQ(::read(report.read_fd(), &orphan, sizeof orphan),
            static_cast<ssize_t>(sizeof orphan));
  int raw = 0;
  ASSERT_EQ(::waitpid(spawner, &raw, 0), spawner);
  EXPECT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 0);
  ASSERT_EQ(::waitpid(orphan, &raw, 0), orphan);
  EXPECT_TRUE(WIFSIGNALED(raw) && WTERMSIG(raw) == SIGKILL) << raw;
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
}

TEST(SubprocessTest, DupFdsWiresThePipe) {
  Pipe pipe;
  SpawnOptions options;
  options.dup_fds.push_back({pipe.write_fd(), 3});
  Subprocess child = Subprocess::spawn(sh("echo hello >&3"), options);
  pipe.close_write();
  std::string received;
  char chunk[64];
  ssize_t n;
  while ((n = ::read(pipe.read_fd(), chunk, sizeof(chunk))) > 0) {
    received.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(received, "hello\n");
  EXPECT_TRUE(child.wait().success());
}

TEST(SubprocessTest, AddressSpaceLimitContainsAllocation) {
  if (kAddressSanitizer) {
    GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
  }
  // 64 MiB of address space cannot hold a 256 MiB allocation: dd into a
  // shell variable would be slow, so use head -c into a subshell that
  // tries to slurp it into memory via sh's read of a huge line. Simpler
  // and portable: python isn't guaranteed, so use dd to /dev/null with a
  // huge block size — dd allocates the block buffer up front.
  SpawnOptions options;
  options.limits.address_space_bytes = 64ull * 1024 * 1024;
  Subprocess child = Subprocess::spawn(
      sh("dd if=/dev/zero of=/dev/null bs=256M count=1 2>/dev/null"),
      options);
  const ExitStatus status = child.wait();
  // dd fails to allocate its buffer: nonzero exit (or an abort signal),
  // but never success — the kernel refused the address space.
  EXPECT_FALSE(status.success());
}

TEST(SubprocessTest, CpuLimitKillsASpinner) {
  // Soft RLIMIT_CPU delivers SIGXCPU after ~1s of CPU time; the spinner
  // burns CPU as fast as it can, so this terminates promptly.
  SpawnOptions options;
  options.limits.cpu_seconds = 1.0;
  Subprocess child = Subprocess::spawn(sh("while :; do :; done"), options);
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.signaled);
  EXPECT_TRUE(status.signal_number == SIGXCPU ||
              status.signal_number == SIGKILL)
      << status.describe();
}

TEST(PipeTest, ReleaseTransfersOwnership) {
  int raw;
  {
    Pipe pipe;
    raw = pipe.release_read();
    EXPECT_GE(raw, 0);
  }  // destructor must not close the released fd
  // Still a valid descriptor: write end is closed, so read returns EOF
  // rather than EBADF.
  char byte;
  ssize_t n;
  do {
    n = ::read(raw, &byte, 1);
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0);
  ::close(raw);
}

}  // namespace
}  // namespace g10
