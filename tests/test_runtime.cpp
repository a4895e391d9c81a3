// Tests for the actor runtimes: virtual-time semantics of the DES runtime
// (busy-time serialization, charge, send costing) and behavioural parity of
// the thread runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/actor.hpp"
#include "runtime/message.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace ehja {
namespace {

constexpr int kPing = 1;
constexpr int kPong = 2;
constexpr int kWork = 3;

ClusterSpec two_nodes() {
  ClusterSpec spec = make_uniform_cluster(2);
  spec.link.bandwidth_bytes_per_sec = 1e6;
  spec.link.latency_sec = 1e-3;
  spec.link.per_message_overhead_bytes = 0.0;
  return spec;
}

// Records the virtual time at which each message was handled.
class Recorder final : public Actor {
 public:
  void on_message(const Message& msg) override {
    times.push_back(now());
    tags.push_back(msg.tag);
    if (work_per_message > 0.0) charge(work_per_message);
  }
  std::vector<SimTime> times;
  std::vector<int> tags;
  double work_per_message = 0.0;
};

// Sends `count` messages of `bytes` each to a target on start.
class Blaster final : public Actor {
 public:
  Blaster(ActorId target, int count, std::size_t bytes)
      : target_(target), count_(count), bytes_(bytes) {}
  void on_start() override {
    for (int i = 0; i < count_; ++i) {
      send(target_, make_signal(kWork, bytes_));
    }
  }
  void on_message(const Message&) override {}

 private:
  ActorId target_;
  int count_;
  std::size_t bytes_;
};

TEST(SimRuntimeTest, MessageArrivalIncludesNetworkCost) {
  SimRuntime rt(two_nodes());
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  const ActorId target = rt.spawn(1, std::move(recorder));
  rt.spawn(0, std::make_unique<Blaster>(target, 1, 1000));
  rt.run();
  ASSERT_EQ(rec->times.size(), 1u);
  // 1000 B at 1 MB/s + 1 ms latency.
  EXPECT_DOUBLE_EQ(rec->times[0], 0.002);
}

TEST(SimRuntimeTest, NodeBusyTimeSerializesHandlers) {
  SimRuntime rt(two_nodes());
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  rec->work_per_message = 0.5;
  const ActorId target = rt.spawn(1, std::move(recorder));
  rt.spawn(0, std::make_unique<Blaster>(target, 3, 1000));
  rt.run();
  ASSERT_EQ(rec->times.size(), 3u);
  // First message arrives at 2 ms and computes 0.5 s; the second arrived at
  // 3 ms but cannot start until 0.502; the third queues behind it.
  EXPECT_DOUBLE_EQ(rec->times[0], 0.002);
  EXPECT_DOUBLE_EQ(rec->times[1], 0.502);
  EXPECT_DOUBLE_EQ(rec->times[2], 1.002);
}

TEST(SimRuntimeTest, ChargeRespectsCpuScale) {
  ClusterSpec spec = two_nodes();
  spec.nodes[1].cpu_scale = 2.0;  // twice as fast
  SimRuntime rt(spec);
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  rec->work_per_message = 1.0;
  const ActorId target = rt.spawn(1, std::move(recorder));
  rt.spawn(0, std::make_unique<Blaster>(target, 2, 100));
  rt.run();
  ASSERT_EQ(rec->times.size(), 2u);
  // 1.0 s of work on a 2x node takes 0.5 virtual seconds.
  EXPECT_NEAR(rec->times[1] - rec->times[0], 0.5, 1e-9);
}

TEST(SimRuntimeTest, PerPairFifoDelivery) {
  SimRuntime rt(two_nodes());
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  const ActorId target = rt.spawn(1, std::move(recorder));

  class Mixed final : public Actor {
   public:
    explicit Mixed(ActorId target) : target_(target) {}
    void on_start() override {
      for (int i = 0; i < 20; ++i) {
        // Alternate large and small messages; order must be preserved.
        send(target_, make_signal(i, i % 2 == 0 ? 50000 : 10));
      }
    }
    void on_message(const Message&) override {}

   private:
    ActorId target_;
  };
  rt.spawn(0, std::make_unique<Mixed>(target));
  rt.run();
  ASSERT_EQ(rec->tags.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rec->tags[static_cast<size_t>(i)], i);
}

// Ping-pong pair used by both runtimes.
class Ponger final : public Actor {
 public:
  void on_message(const Message& msg) override {
    if (msg.tag == kPing) {
      send(msg.from, make_signal(kPong));
    }
  }
};

class Pinger final : public Actor {
 public:
  Pinger(ActorId peer, int rounds, std::atomic<int>& completed)
      : peer_(peer), rounds_(rounds), completed_(&completed) {}
  void on_start() override { send(peer_, make_signal(kPing)); }
  void on_message(const Message& msg) override {
    ASSERT_EQ(msg.tag, kPong);
    completed_->fetch_add(1);
    if (++done_ < rounds_) {
      send(peer_, make_signal(kPing));
    } else {
      rt().request_stop();
    }
  }

 private:
  ActorId peer_;
  int rounds_;
  int done_ = 0;
  std::atomic<int>* completed_;
};

TEST(SimRuntimeTest, PingPongCompletes) {
  SimRuntime rt(two_nodes());
  std::atomic<int> completed{0};
  const ActorId ponger = rt.spawn(1, std::make_unique<Ponger>());
  rt.spawn(0, std::make_unique<Pinger>(ponger, 10, completed));
  rt.run();
  EXPECT_EQ(completed.load(), 10);
}

TEST(ThreadRuntimeTest, PingPongCompletes) {
  ThreadRuntime rt(two_nodes());
  std::atomic<int> completed{0};
  const ActorId ponger = rt.spawn(1, std::make_unique<Ponger>());
  rt.spawn(0, std::make_unique<Pinger>(ponger, 50, completed));
  rt.run();
  EXPECT_EQ(completed.load(), 50);
}

TEST(ThreadRuntimeTest, DynamicSpawnWhileRunning) {
  ThreadRuntime rt(make_uniform_cluster(3));

  class Spawner final : public Actor {
   public:
    explicit Spawner(std::atomic<int>& flag) : flag_(&flag) {}
    void on_start() override { defer(make_signal(kWork)); }
    void on_message(const Message& msg) override {
      if (msg.tag == kWork) {
        // Spawn a ponger at runtime, then ping it.
        const ActorId fresh = rt().spawn(2, std::make_unique<Ponger>());
        send(fresh, make_signal(kPing));
      } else if (msg.tag == kPong) {
        flag_->store(1);
        rt().request_stop();
      }
    }

   private:
    std::atomic<int>* flag_;
  };

  std::atomic<int> flag{0};
  rt.spawn(0, std::make_unique<Spawner>(flag));
  rt.run();
  EXPECT_EQ(flag.load(), 1);
}

// Several actors may see the end condition at once, so request_stop() must
// be callable again from an actor thread that run() is already joining.
TEST(ThreadRuntimeTest, RepeatStopFromAnActorThreadDoesNotDeadlock) {
  ThreadRuntime rt(make_uniform_cluster(1));

  class DoubleStopper final : public Actor {
   public:
    void on_start() override {
      rt().request_stop();
      // Long enough for run() to wake and start joining this thread.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      rt().request_stop();
    }
    void on_message(const Message&) override {}
  };

  rt.spawn(0, std::make_unique<DoubleStopper>());
  rt.run();  // returns only if the second request_stop() did not block
}

TEST(SimRuntimeTest, DeferCarriesNoNetworkCost) {
  SimRuntime rt(two_nodes());

  class Deferrer final : public Actor {
   public:
    void on_start() override { defer(make_signal(kWork, 1'000'000)); }
    void on_message(const Message&) override { when = now(); }
    SimTime when = -1.0;
  };
  auto actor = std::make_unique<Deferrer>();
  Deferrer* raw = actor.get();
  rt.spawn(0, std::move(actor));
  rt.run();
  // A 1 MB payload would cost ~1 s on the wire; defer() must not.
  EXPECT_DOUBLE_EQ(raw->when, 0.0);
}

TEST(SimRuntimeTest, SpawnFromHandlerPaysSetupLatency) {
  SimRuntime rt(two_nodes());

  class Parent final : public Actor {
   public:
    void on_start() override { defer(make_signal(kWork)); }
    void on_message(const Message&) override {
      class Child final : public Actor {
       public:
        void on_start() override { started = now(); }
        void on_message(const Message&) override {}
        SimTime started = -1.0;
      };
      auto child = std::make_unique<Child>();
      child_ptr = child.get();
      rt().spawn(1, std::move(child));
    }
    Actor* child_ptr = nullptr;
  };
  auto parent = std::make_unique<Parent>();
  Parent* raw = parent.get();
  rt.spawn(0, std::move(parent));
  rt.run();
  ASSERT_NE(raw->child_ptr, nullptr);
  EXPECT_GE(rt.now(), SimRuntime::kSpawnLatencySec);
}

TEST(SimRuntimeTest, BlockingSendThrottlesProducer) {
  // A producer blasting large messages must advance its own virtual clock
  // by the NIC serialization of each send (synchronous send semantics) --
  // the flow control that bounds in-flight memory.
  SimRuntime rt(two_nodes());

  class TimedBlaster final : public Actor {
   public:
    explicit TimedBlaster(ActorId target) : target_(target) {}
    void on_start() override {
      for (int i = 0; i < 5; ++i) {
        send(target_, make_signal(kWork, 100'000));  // 0.1 s each at 1 MB/s
      }
      finished_at = now();
    }
    void on_message(const Message&) override {}
    SimTime finished_at = -1.0;

   private:
    ActorId target_;
  };
  const ActorId sink = rt.spawn(1, std::make_unique<Recorder>());
  auto blaster = std::make_unique<TimedBlaster>(sink);
  TimedBlaster* raw = blaster.get();
  rt.spawn(0, std::move(blaster));
  rt.run();
  // Five 0.1 s serializations: the handler's own clock moved past 0.5 s.
  EXPECT_GE(raw->finished_at, 0.5);
}

TEST(SimRuntimeTest, SlowConsumerBackpressuresSender) {
  // The receiver charges heavy CPU per message; with consumer-paced RX
  // admission the sender's sends serialize at the consumer's rate, not the
  // NIC's.
  SimRuntime rt(two_nodes());
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  rec->work_per_message = 1.0;  // 1 s of processing per message
  const ActorId sink = rt.spawn(1, std::move(recorder));
  rt.spawn(0, std::make_unique<Blaster>(sink, 4, 1000));
  rt.run();
  ASSERT_EQ(rec->times.size(), 4u);
  // Message k cannot start before k seconds of consumer work completed
  // (the node's busy chain serializes the handlers in logical time even
  // though the events fire at their arrival instants).
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_GE(rec->times[k], static_cast<double>(k));
  }
}

TEST(SimRuntimeTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimRuntime rt(two_nodes());
    auto recorder = std::make_unique<Recorder>();
    Recorder* rec = recorder.get();
    rec->work_per_message = 0.01;
    const ActorId target = rt.spawn(1, std::move(recorder));
    rt.spawn(0, std::make_unique<Blaster>(target, 25, 777));
    rt.run();
    return rec->times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ehja
