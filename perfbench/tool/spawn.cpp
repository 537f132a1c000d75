// spawn: runs a command and reports its wall time, CPU time, and peak RSS.
//
//   perfbench_tool spawn --report=FILE -- saad_offline detect ...
//
// The peak RSS of a child from wait4() is not usable here: Linux keeps the
// high-water mark of the image the child had before exec (a copy of the
// parent, for run.py the Python interpreter's ~15-20 MB) in ru_maxrss. So
// the command runs under ptrace, stopped once at exec and once at exit
// (PTRACE_O_TRACEEXIT), and VmHWM is read from /proc/<pid>/status at the exit
// stop, while the exec'd image is still mapped. The child gets SIGKILL if
// spawn dies first. Output and stdin are the child's own.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/ptrace.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

/// VmHWM of `pid` in KiB, or -1.
long vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

}  // namespace

int cmd_spawn(int argc, char** argv, const Args& args) {
  int first = 0;
  for (int i = 2; i < argc; ++i)
    if (std::strcmp(argv[i], "--") == 0) {
      first = i + 1;
      break;
    }
  if (first == 0 || first >= argc) {
    std::fprintf(stderr, "spawn: usage: spawn --report=FILE -- cmd [args]\n");
    return 2;
  }
  const std::string report = args.get("report", "");
  const pid_t parent = getpid();
  const std::int64_t t0 = now_ns();
  const pid_t pid = fork();
  if (pid < 0) return 2;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    ptrace(PTRACE_TRACEME, 0, nullptr, nullptr);
    execvp(argv[first], argv + first);
    _exit(127);
  }
  long hwm_kb = -1;
  int status = 0;
  rusage usage{};
  bool traced = false;
  for (;;) {
    if (wait4(pid, &status, 0, &usage) < 0) return 2;
    if (WIFEXITED(status) || WIFSIGNALED(status)) break;
    if (!WIFSTOPPED(status)) continue;
    const int sig = WSTOPSIG(status);
    const int event = status >> 16;
    if (!traced && sig == SIGTRAP) {  // the stop at exec
      traced = true;
      ptrace(PTRACE_SETOPTIONS, pid, nullptr,
             reinterpret_cast<void*>(PTRACE_O_TRACEEXIT));
      ptrace(PTRACE_CONT, pid, nullptr, nullptr);
    } else if (sig == SIGTRAP && event == PTRACE_EVENT_EXIT) {
      hwm_kb = vm_hwm_kb(pid);
      ptrace(PTRACE_CONT, pid, nullptr, nullptr);
    } else {  // any other signal goes through to the child
      ptrace(PTRACE_CONT, pid, nullptr, reinterpret_cast<void*>(static_cast<long>(sig)));
    }
  }
  // Without ptrace (e.g. a seccomp policy) fall back to wait4's figure.
  if (hwm_kb < 0) hwm_kb = usage.ru_maxrss;
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  JsonOut out;
  out.num("wall_s", wall_s);
  out.num("cpu_s", static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                       static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6);
  out.num("peak_rss_kb", static_cast<double>(hwm_kb));
  out.num("exit_code", code);
  std::FILE* f = std::fopen(report.c_str(), "w");
  if (f == nullptr) return 2;
  std::fprintf(f, "%s\n", out.text().c_str());
  std::fclose(f);
  return code;
}

}  // namespace perfbench
