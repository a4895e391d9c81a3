#include "runtime/thread_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/assert.hpp"

namespace ehja {

ThreadRuntime::ThreadRuntime(ClusterSpec spec)
    : spec_(std::move(spec)),
      epoch_(std::chrono::steady_clock::now()),
      node_dead_(new std::atomic<bool>[spec_.node_count()]) {
  for (std::size_t i = 0; i < spec_.node_count(); ++i) {
    node_dead_[i].store(false, std::memory_order_relaxed);
  }
}

ThreadRuntime::~ThreadRuntime() {
  request_stop();
  join_all();
}

ActorId ThreadRuntime::spawn(NodeId node, std::unique_ptr<Actor> actor) {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  Cell* cell = nullptr;
  ActorId id = kInvalidActor;
  {
    std::scoped_lock lock(registry_mutex_);
    id = static_cast<ActorId>(cells_.size());
    actor->bind(this, id, node);
    cells_.push_back(std::make_unique<Cell>());
    cells_.back()->actor = std::move(actor);
    cell = cells_.back().get();
  }
  if (running_.load(std::memory_order_acquire)) {
    start_thread(*cell);
  }
  return id;
}

void ThreadRuntime::start_thread(Cell& cell) {
  cell.thread = std::thread([this, &cell] { actor_main(cell); });
}

void ThreadRuntime::actor_main(Cell& cell) {
  std::atomic<bool>& dead =
      node_dead_[static_cast<std::size_t>(cell.actor->node())];
  if (!dead.load(std::memory_order_acquire)) cell.actor->on_start();
  while (true) {
    Message msg;
    {
      std::unique_lock lock(cell.mutex);
      cell.cv.wait(lock, [this, &cell, &dead] {
        return !cell.mailbox.empty() ||
               stop_.load(std::memory_order_acquire) ||
               dead.load(std::memory_order_acquire);
      });
      // Abrupt stop on node death: the actor never sees another message,
      // mid-protocol state and all.
      if (stop_.load(std::memory_order_acquire) ||
          dead.load(std::memory_order_acquire)) {
        return;
      }
      msg = std::move(cell.mailbox.front());
      cell.mailbox.pop_front();
    }
    cell.actor->on_message(msg);
  }
}

void ThreadRuntime::send(Actor& from, ActorId to, Message msg) {
  // A dead sender's in-progress handler may still reach send(); the message
  // dies with the machine.
  if (node_dead_[static_cast<std::size_t>(from.node())].load(
          std::memory_order_acquire)) {
    return;
  }
  deliver(to, std::move(msg));
}

void ThreadRuntime::deliver(ActorId to, Message msg) {
  Cell* cell = nullptr;
  {
    std::scoped_lock lock(registry_mutex_);
    EHJA_CHECK(to >= 0 && static_cast<std::size_t>(to) < cells_.size());
    cell = cells_[static_cast<std::size_t>(to)].get();
  }
  if (node_dead_[static_cast<std::size_t>(cell->actor->node())].load(
          std::memory_order_acquire)) {
    return;
  }
  {
    std::scoped_lock lock(cell->mutex);
    cell->mailbox.push_back(std::move(msg));
  }
  cell->cv.notify_one();
}

void ThreadRuntime::defer(Actor& from, Message msg) {
  send(from, from.id(), std::move(msg));
}

void ThreadRuntime::charge(Actor& /*from*/, double /*cpu_seconds*/) {
  // Wall-clock runtime: CPU cost is whatever the host actually spends.
}

void ThreadRuntime::defer_after(Actor& from, Message msg, double delay_sec) {
  EHJA_CHECK(delay_sec >= 0.0);
  const ActorId to = from.id();
  const NodeId src = from.node();
  const auto when = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(delay_sec));
  auto shared = std::make_shared<Message>(std::move(msg));
  enqueue_timer(when, [this, to, src, shared] {
    if (node_dead_[static_cast<std::size_t>(src)].load(
            std::memory_order_acquire)) {
      return;
    }
    deliver(to, *shared);
  });
}

void ThreadRuntime::kill_node(NodeId node) {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  if (node_dead_[static_cast<std::size_t>(node)].exchange(
          true, std::memory_order_acq_rel)) {
    return;
  }
  kills_executed_.fetch_add(1, std::memory_order_acq_rel);
  // Wake every actor thread on the node so it observes the death and exits.
  // Same registry -> cell lock order as send(); safe from the timer thread
  // and from an actor killing its own node mid-handler.
  std::vector<Cell*> victims;
  {
    std::scoped_lock lock(registry_mutex_);
    for (auto& cell : cells_) {
      if (cell->actor->node() == node) victims.push_back(cell.get());
    }
  }
  for (Cell* cell : victims) {
    {
      std::scoped_lock m(cell->mutex);
    }
    cell->cv.notify_all();
  }
}

void ThreadRuntime::schedule_kill(NodeId node, double at) {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  EHJA_CHECK(at >= 0.0);
  const auto when =
      epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(at));
  enqueue_timer(when, [this, node] { kill_node(node); });
}

bool ThreadRuntime::node_alive(NodeId node) const {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  return !node_dead_[static_cast<std::size_t>(node)].load(
      std::memory_order_acquire);
}

void ThreadRuntime::enqueue_timer(std::chrono::steady_clock::time_point when,
                                  std::function<void()> fn) {
  {
    std::scoped_lock lock(timer_mutex_);
    timer_heap_.push_back(TimerTask{when, timer_seq_++, std::move(fn)});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                   [](const TimerTask& a, const TimerTask& b) {
                     return std::tie(b.when, b.seq) < std::tie(a.when, a.seq);
                   });
  }
  timer_cv_.notify_all();
}

void ThreadRuntime::timer_main() {
  const auto later_first = [](const TimerTask& a, const TimerTask& b) {
    return std::tie(b.when, b.seq) < std::tie(a.when, a.seq);
  };
  std::unique_lock lock(timer_mutex_);
  while (true) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto due = timer_heap_.front().when;
    if (std::chrono::steady_clock::now() < due) {
      timer_cv_.wait_until(lock, due);
      continue;  // re-evaluate: stop, an earlier task, or now due
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), later_first);
    TimerTask task = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    lock.unlock();
    task.fn();  // takes registry/cell locks; must not hold timer_mutex_
    lock.lock();
  }
}

SimTime ThreadRuntime::actor_now(const Actor& /*actor*/) const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count();
}

void ThreadRuntime::run() {
  timer_thread_ = std::thread([this] { timer_main(); });
  {
    std::scoped_lock lock(registry_mutex_);
    running_.store(true, std::memory_order_release);
    for (auto& cell : cells_) {
      if (!cell->thread.joinable()) start_thread(*cell);
    }
  }
  {
    // Released before joining: a repeat request_stop() from an actor thread
    // takes stop_mutex_, and join_all() may be waiting on that very thread.
    std::unique_lock lock(stop_mutex_);
    stop_cv_.wait(lock,
                  [this] { return stop_.load(std::memory_order_acquire); });
  }
  join_all();
}

void ThreadRuntime::join_all() {
  // The timer thread goes first: once it is joined no further timed
  // deliveries or kills can race the actor joins below.
  if (timer_thread_.joinable()) timer_thread_.join();
  // Join WITHOUT holding registry_mutex_ across the join: the actor thread
  // that called request_stop() still needs that mutex to finish its own
  // notification sweep, so joining it under the lock deadlocks.  Walking by
  // index (re-reading cells_.size() each step) also picks up cells spawned
  // while earlier threads were being joined; once every thread is joined no
  // actor is left to spawn more.
  std::size_t next = 0;
  while (true) {
    Cell* cell = nullptr;
    {
      std::scoped_lock reg(registry_mutex_);
      if (next == cells_.size()) break;
      cell = cells_[next].get();
    }
    {
      std::scoped_lock m(cell->mutex);
    }
    cell->cv.notify_all();
    if (cell->thread.joinable()) cell->thread.join();
    ++next;
  }
}

void ThreadRuntime::request_stop() {
  // Idempotent and registry-lock-free on repeat calls: a second caller may
  // be an actor thread racing run()'s join loop (which holds
  // registry_mutex_), so it must not block on the registry.
  //
  // Each notification acquires (and immediately releases) the waiter's
  // mutex between setting stop_ and notifying: a waiter that evaluated its
  // wait predicate before stop_ was published is guaranteed to be blocked
  // by the time the notify fires, so the wakeup cannot be lost.
  const bool repeat = stop_.exchange(true, std::memory_order_acq_rel);
  {
    std::scoped_lock lock(stop_mutex_);
  }
  stop_cv_.notify_all();
  {
    std::scoped_lock lock(timer_mutex_);
  }
  timer_cv_.notify_all();
  if (repeat) return;
  std::scoped_lock lock(registry_mutex_);
  for (auto& cell : cells_) {
    {
      std::scoped_lock m(cell->mutex);
    }
    cell->cv.notify_all();
  }
}

}  // namespace ehja
