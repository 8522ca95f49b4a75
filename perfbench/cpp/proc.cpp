#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return set;
}

/// Parses a kernel CPU list such as "0-1,3".
std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    const std::size_t dash = token.find('-');
    const int lo = std::stoi(token.substr(0, dash));
    const int hi = dash == std::string::npos ? lo : std::stoi(token.substr(dash + 1));
    for (int cpu = lo; cpu <= hi; ++cpu) cpus.push_back(cpu);
  }
  return cpus;
}

std::string status_field(const std::string& path, const std::string& field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      const std::size_t start = line.find_first_not_of(" \t", field.size() + 1);
      return start == std::string::npos ? std::string{} : line.substr(start);
    }
  }
  return {};
}

std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
}

}  // namespace

void pin_thread(const std::vector<int>& cpus) {
  const cpu_set_t set = cpu_set_of(cpus);
  if (CPU_COUNT(&set) == 0 || sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error(std::string("cannot pin thread: ") +
                             std::strerror(errno));
  }
}

void make_thread_idle_class() {
  sched_param param{};
  param.sched_priority = 0;
  if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
    throw std::runtime_error(std::string("cannot enter SCHED_IDLE: ") +
                             std::strerror(errno));
  }
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t process_tree_cpu_ns() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return timeval_ns(self.ru_utime) + timeval_ns(self.ru_stime) +
         timeval_ns(children.ru_utime) + timeval_ns(children.ru_stime);
}

std::uint64_t task_cpu_ns(int pid, int tid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" +
                   std::to_string(tid) + "/schedstat");
  std::uint64_t on_cpu_ns = 0;
  in >> on_cpu_ns;
  return on_cpu_ns;
}

double peak_rss_mb(int pid) {
  const std::string kb =
      status_field("/proc/" + std::to_string(pid) + "/status", "VmHWM");
  return kb.empty() ? 0.0 : std::stod(kb) / 1024.0;
}

std::uint64_t host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
  }
  return field;
}

std::vector<std::string> threads_outside(int pid, int except_tid,
                                         const std::vector<int>& cpus) {
  std::vector<std::string> outside;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(task_dir, ec)) {
    const std::string tid = entry.path().filename().string();
    if (tid == std::to_string(except_tid)) continue;
    const std::string allowed =
        status_field(entry.path().string() + "/status", "Cpus_allowed_list");
    if (allowed.empty()) continue;  // thread exited while we looked
    for (const int cpu : parse_cpu_list(allowed)) {
      if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
        outside.push_back(tid + ":" + allowed);
        break;
      }
    }
  }
  return outside;
}

ServedProcess::ServedProcess(const Options& options) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::string cpus;
  for (const int cpu : options.campaign_cpus) {
    if (!cpus.empty()) cpus += ',';
    cpus += std::to_string(cpu);
  }
  std::vector<std::string> args = {options.binary, "--store-dir",
                                   options.store_dir, "--port", "0"};
  if (!cpus.empty()) {
    args.push_back("--campaign-cpus");
    args.push_back(cpus);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const cpu_set_t loop_set = cpu_set_of({options.loop_cpu});

  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    // Only async-signal-safe calls until exec.
    sched_setaffinity(0, sizeof(loop_set), &loop_set);
    dup2(out[1], STDOUT_FILENO);
    const int err = open(options.log_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = child;
  close(out[1]);
  stdout_fd_ = out[0];

  // The daemon prints "listening on 127.0.0.1:PORT" once its store is
  // loaded and its socket is bound.
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left.count() <= 0 || poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      stop();
      throw std::runtime_error("ftb_served did not start; see " + options.log_path);
    }
    char chunk[256];
    const ssize_t got = read(stdout_fd_, chunk, sizeof(chunk));
    if (got <= 0) {
      stop();
      throw std::runtime_error("ftb_served exited at start; see " + options.log_path);
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    const std::size_t at = buffer.find("listening on 127.0.0.1:");
    const std::size_t eol = at == std::string::npos ? at : buffer.find('\n', at);
    if (eol != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::stoi(buffer.substr(at + 23, eol - at - 23)));
    }
  }
}

ServedProcess::~ServedProcess() { stop(); }

bool ServedProcess::stop() {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
