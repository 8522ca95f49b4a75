// Process placement, the ftb_served child process, and the /proc readings
// the benchmark reports (peak RSS, per-thread CPU time, host steal).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Pins the calling thread to `cpus`; throws std::runtime_error on failure.
void pin_thread(const std::vector<int>& cpus);

/// Moves the calling thread to SCHED_IDLE: it runs only when nothing else
/// on its CPU wants to.  Throws std::runtime_error on failure.
void make_thread_idle_class();

/// CPU time of the calling thread in nanoseconds.
std::uint64_t thread_cpu_ns();

/// CPU time of this process and of its reaped children, in nanoseconds.
std::uint64_t process_tree_cpu_ns();

/// Time thread `tid` of process `pid` has run on a CPU, in nanoseconds.
std::uint64_t task_cpu_ns(int pid, int tid);

/// Peak resident set size of `pid` in MiB (VmHWM).
double peak_rss_mb(int pid);

/// Steal ticks of the whole host since boot (/proc/stat).
std::uint64_t host_steal_ticks();

/// Threads of `pid`, other than `except_tid`, allowed on a CPU outside
/// `cpus`, as "tid:allowed-list" strings.
std::vector<std::string> threads_outside(int pid, int except_tid,
                                         const std::vector<int>& cpus);

/// An ftb_served daemon started as a child process.  The whole process
/// starts on `loop_cpu`, so its event-loop thread stays there; the daemon
/// moves its campaign plane to `campaign_cpus` itself.
class ServedProcess {
 public:
  struct Options {
    std::string binary;
    std::string store_dir;
    std::string log_path;  ///< the daemon's stderr
    int loop_cpu = 0;
    std::vector<int> campaign_cpus;
  };

  /// Starts the daemon and returns once it listens (its store is loaded by
  /// then).  Throws std::runtime_error when it does not come up.
  explicit ServedProcess(const Options& options);
  ~ServedProcess();
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  int pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }

  /// SIGTERM (graceful drain), then waits; SIGKILL after 30 s.  True when
  /// the daemon exited 0.  Idempotent.
  bool stop();

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
