// Real-thread runtime.
//
// Runs the same actor code as SimRuntime on one thread per actor with
// mutex-protected mailboxes.  There is no virtual time and no cost model --
// charge() is a no-op and now() is wall-clock -- so it produces no figures;
// its purpose is to demonstrate that the join protocol contains no hidden
// reliance on the DES's cooperative scheduling: the integration tests run
// every algorithm on both runtimes and require identical join results.
//
// Termination: unlike the DES (which stops when the event queue drains), a
// thread runtime cannot observe global quiescence cheaply, so the protocol's
// natural completion point calls Runtime::request_stop() (the driver's
// scheduler does this when the probe phase finishes).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "runtime/actor.hpp"

namespace ehja {

class ThreadRuntime final : public Runtime {
 public:
  explicit ThreadRuntime(ClusterSpec spec);
  ~ThreadRuntime() override;

  ActorId spawn(NodeId node, std::unique_ptr<Actor> actor) override;
  void send(Actor& from, ActorId to, Message msg) override;
  void defer(Actor& from, Message msg) override;
  void charge(Actor& from, double cpu_seconds) override;
  SimTime actor_now(const Actor& actor) const override;
  void defer_after(Actor& from, Message msg, double delay_sec) override;
  void kill_node(NodeId node) override;
  void schedule_kill(NodeId node, double at) override;
  bool node_alive(NodeId node) const override;
  std::uint32_t kills_executed() const override {
    return kills_executed_.load(std::memory_order_acquire);
  }
  void run() override;
  void request_stop() override;
  const ClusterSpec& cluster() const override { return spec_; }

 private:
  struct Cell {
    std::unique_ptr<Actor> actor;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> mailbox;
    std::thread thread;
  };

  /// One pending timer-thread action (a delayed self-message or a scheduled
  /// kill).  Kept in a sorted min-heap keyed by (when, seq).
  struct TimerTask {
    std::chrono::steady_clock::time_point when;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };

  void actor_main(Cell& cell);
  void start_thread(Cell& cell);
  void join_all();
  void timer_main();
  void enqueue_timer(std::chrono::steady_clock::time_point when,
                     std::function<void()> fn);
  /// Push `msg` into `to`'s mailbox unless `to`'s node is dead (send()'s
  /// tail, and the timer thread's delivery of deferred self-messages).
  void deliver(ActorId to, Message msg);

  ClusterSpec spec_;
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  std::chrono::steady_clock::time_point epoch_;

  /// Fail-stop flags, one per node (fixed size: nodes never appear at
  /// runtime).  A dead node's actor threads exit, and send()/delivery drops
  /// messages touching the node.
  std::unique_ptr<std::atomic<bool>[]> node_dead_;
  std::atomic<std::uint32_t> kills_executed_{0};

  /// Timer thread: fires defer_after() self-messages and scheduled kills.
  /// Started by run(); stopped and joined with the actor threads.
  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::vector<TimerTask> timer_heap_;
  std::uint64_t timer_seq_ = 0;
  std::thread timer_thread_;
};

}  // namespace ehja
