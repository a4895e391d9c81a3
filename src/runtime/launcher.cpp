#include "runtime/launcher.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EHJA_CHECK_MSG(n > 0, "readlink(/proc/self/exe) failed");
  buf[n] = '\0';
  return std::string(buf);
}

Launcher::~Launcher() {
  for (Worker& w : workers_) {
    if (w.exited) continue;
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
    w.exited = true;
  }
}

void Launcher::spawn_worker(NodeId node, std::uint16_t port) {
  EHJA_CHECK_MSG(find(node) == nullptr, "worker node spawned twice");
  const std::string exe = self_exe_path();
  char node_arg[64];
  char port_arg[64];
  std::snprintf(node_arg, sizeof(node_arg), "--ehja-worker=%d", node);
  std::snprintf(port_arg, sizeof(port_arg), "--ehja-coordinator-port=%u",
                static_cast<unsigned>(port));

  const pid_t pid = ::fork();
  EHJA_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    // Child.  Die with the coordinator rather than leaking; guard against
    // the race where the parent already died before the prctl.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1) _exit(127);
    char* const argv[] = {const_cast<char*>(exe.c_str()), node_arg, port_arg,
                          nullptr};
    ::execv(exe.c_str(), argv);
    std::fprintf(stderr, "ehja worker: execv(%s) failed: %s\n", exe.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  workers_.push_back(Worker{node, pid, false});
}

std::vector<Launcher::Exit> Launcher::reap() {
  std::vector<Exit> exits;
  for (Worker& w : workers_) {
    if (w.exited) continue;
    int status = 0;
    const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
    if (r == w.pid) {
      w.exited = true;
      Exit e;
      e.node = w.node;
      e.pid = w.pid;
      e.status = status;
      e.sigkilled = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
      exits.push_back(e);
    }
  }
  return exits;
}

void Launcher::kill_worker(NodeId node) {
  Worker* w = find(node);
  EHJA_CHECK_MSG(w != nullptr, "kill_worker: unknown node");
  if (w->exited) return;
  ::kill(w->pid, SIGKILL);
}

void Launcher::shutdown_all(double grace_sec) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(grace_sec);
  bool pending = true;
  while (pending) {
    pending = false;
    for (Worker& w : workers_) {
      if (w.exited) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        w.exited = true;
      } else {
        pending = true;
      }
    }
    if (!pending) return;
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (Worker& w : workers_) {
    if (w.exited) continue;
    EHJA_WARN("launcher", "worker for node ", w.node,
              " ignored shutdown; killing");
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
    w.exited = true;
  }
}

Launcher::Worker* Launcher::find(NodeId node) {
  for (Worker& w : workers_) {
    if (w.node == node) return &w;
  }
  return nullptr;
}

}  // namespace ehja
