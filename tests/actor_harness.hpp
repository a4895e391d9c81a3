// Test harness: a Runtime that captures sends instead of delivering them.
//
// Lets a test instantiate one actor, feed it hand-crafted messages, and
// assert exactly what it sent where -- protocol-level unit testing without
// the full simulator.  Deliveries are manual: the test pops captured
// messages and routes them (or not -- loss/reorder tests).
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "runtime/actor.hpp"

namespace ehja {

class HarnessRuntime final : public Runtime {
 public:
  explicit HarnessRuntime(ClusterSpec spec) : spec_(std::move(spec)) {}

  struct Sent {
    ActorId from = kInvalidActor;
    ActorId to = kInvalidActor;
    Message msg;
  };

  ActorId spawn(NodeId node, std::unique_ptr<Actor> actor) override {
    const ActorId id = static_cast<ActorId>(actors_.size());
    actor->bind(this, id, node);
    actors_.push_back(std::move(actor));
    spawned_nodes_.push_back(node);
    // on_start is the caller's to trigger (some tests want pre-start mail).
    return id;
  }

  void send(Actor& from, ActorId to, Message msg) override {
    outbox_.push_back(Sent{from.id(), to, std::move(msg)});
  }

  void defer(Actor& from, Message msg) override {
    outbox_.push_back(Sent{from.id(), from.id(), std::move(msg)});
  }

  void charge(Actor& /*from*/, double cpu_seconds) override {
    charged_ += cpu_seconds;
  }

  SimTime actor_now(const Actor& /*actor*/) const override { return now_; }

  /// Timed self-messages land in a *separate* queue so flush_round() cannot
  /// spin forever on a self-rearming heartbeat; tests fire them explicitly
  /// with fire_timers().
  void defer_after(Actor& from, Message msg, double delay_sec) override {
    msg.from = from.id();
    timers_.push_back(Sent{from.id(), from.id(), std::move(msg)});
    last_timer_delay_ = delay_sec;
  }

  void kill_node(NodeId node) override {
    if (dead_nodes_.insert(node).second) ++kills_;
  }
  void schedule_kill(NodeId node, double /*at*/) override { kill_node(node); }
  bool node_alive(NodeId node) const override {
    return dead_nodes_.count(node) == 0;
  }
  std::uint32_t kills_executed() const override { return kills_; }

  void run() override {}
  void request_stop() override { stopped_ = true; }
  const ClusterSpec& cluster() const override { return spec_; }
  Actor& actor(ActorId id) { return *actors_.at(static_cast<std::size_t>(id)); }

  // --- test controls ---
  void start(ActorId id) { actor(id).on_start(); }

  /// Deliver a message directly to an actor's handler.
  void deliver(ActorId to, Message msg) { actor(to).on_message(msg); }

  /// Deliver with a forged sender id.
  void deliver_from(ActorId from, ActorId to, Message msg) {
    msg.from = from;
    actor(to).on_message(msg);
  }

  /// Captured sends, oldest first.
  std::deque<Sent>& outbox() { return outbox_; }

  /// Pop and deliver every queued message whose target exists (one round);
  /// returns how many were delivered.  Self-contained actors reach
  /// quiescence by calling this in a loop.
  std::size_t flush_round() {
    std::deque<Sent> batch;
    batch.swap(outbox_);
    for (Sent& sent : batch) {
      Message msg = std::move(sent.msg);
      msg.from = sent.from;
      actor(sent.to).on_message(msg);
    }
    return batch.size();
  }

  /// Messages in the outbox addressed to `to` (without removing them).
  std::vector<Sent> sent_to(ActorId to) const {
    std::vector<Sent> out;
    for (const Sent& s : outbox_) {
      if (s.to == to) out.push_back(s);
    }
    return out;
  }

  /// Messages in the outbox with tag `tag`.
  template <typename Tag>
  std::vector<Sent> sent_with_tag(Tag tag) const {
    std::vector<Sent> out;
    for (const Sent& s : outbox_) {
      if (s.msg.tag == static_cast<int>(tag)) out.push_back(s);
    }
    return out;
  }

  /// Deliver every queued timed self-message (one batch; messages the
  /// firing handlers re-arm stay queued for the next call).
  std::size_t fire_timers() {
    std::deque<Sent> batch;
    batch.swap(timers_);
    for (Sent& sent : batch) {
      Message msg = std::move(sent.msg);
      msg.from = sent.from;
      actor(sent.to).on_message(msg);
    }
    return batch.size();
  }

  std::deque<Sent>& timers() { return timers_; }
  double last_timer_delay() const { return last_timer_delay_; }

  void advance_time(SimTime dt) { now_ += dt; }
  double charged() const { return charged_; }
  bool stopped() const { return stopped_; }
  NodeId node_of(ActorId id) const {
    return spawned_nodes_.at(static_cast<std::size_t>(id));
  }

 private:
  ClusterSpec spec_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<NodeId> spawned_nodes_;
  std::deque<Sent> outbox_;
  std::deque<Sent> timers_;
  std::set<NodeId> dead_nodes_;
  std::uint32_t kills_ = 0;
  double last_timer_delay_ = 0.0;
  SimTime now_ = 0.0;
  double charged_ = 0.0;
  bool stopped_ = false;
};

}  // namespace ehja
