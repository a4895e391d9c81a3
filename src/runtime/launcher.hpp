// Worker-process launcher for the socket runtime.
//
// The coordinator forks one OS process per remote cluster node by
// re-executing its own binary (/proc/self/exe) in worker mode
// (`--ehja-worker=<node> --ehja-coordinator-port=<port>`; the binary's
// main() hands such invocations to maybe_run_socket_worker() before doing
// anything else).  The launcher owns the pid table and is the single place
// that reaps children, which is how a *real* process death is folded into
// the existing fail-stop model: SocketRuntime turns every unexpected exit
// reported by reap() into the same node-dead state a FaultPlan kill
// produces, so the PR-2 heartbeat detector and RecoveryManager run
// unchanged whether the node died from an injected SIGKILL or a genuine
// crash.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace ehja {

/// Absolute path of the currently executing binary (/proc/self/exe).
std::string self_exe_path();

class Launcher {
 public:
  /// One reaped child.  `status` is the raw waitpid() status; `sigkilled`
  /// decodes the one exit cause the fault plan injects.
  struct Exit {
    NodeId node = -1;
    pid_t pid = -1;
    int status = 0;
    bool sigkilled = false;
  };

  Launcher() = default;
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;
  /// Destruction must not leak children: any still-running worker is
  /// SIGKILLed and reaped.
  ~Launcher();

  /// Fork/exec one worker for `node`, phoning home to the coordinator's
  /// loopback `port`.  The child gets PDEATHSIG=SIGKILL so a crashed
  /// coordinator cannot leak workers.  Aborts on fork/exec failure.
  void spawn_worker(NodeId node, std::uint16_t port);

  /// Non-blocking reap of exited workers (call once per event-loop turn).
  std::vector<Exit> reap();

  /// SIGKILL the worker hosting `node` (fault injection: the time-triggered
  /// FaultPlan path).  No-op if it already exited.
  void kill_worker(NodeId node);

  /// Graceful teardown: give every worker `grace_sec` to exit on its own
  /// (they exit on the wire SHUTDOWN frame), then SIGKILL stragglers; reaps
  /// everything either way.
  void shutdown_all(double grace_sec);

  std::size_t spawned() const { return workers_.size(); }

 private:
  struct Worker {
    NodeId node = -1;
    pid_t pid = -1;
    bool exited = false;
  };

  Worker* find(NodeId node);

  std::vector<Worker> workers_;
};

}  // namespace ehja
