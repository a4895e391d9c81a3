// ehja_run -- command-line front end for the EHJA library.
//
//   ehja_run [options]
//     --algorithm=split|replicated|hybrid|ooc|adaptive|auto
//                  (default hybrid; auto asks the planner up front, paper
//                  ss6 decision rule; adaptive decides split-vs-replicate
//                  per overflow from the cost model)
//     --initial-nodes=N     initial working join nodes        (default 4)
//     --pool=N              join-node pool size               (default 24)
//     --sources=N           data source processes             (default 4)
//     --build=N             build-relation tuples             (default 1e6)
//     --probe=N             probe-relation tuples             (default 1e6)
//     --tuple-bytes=N       tuple size incl. 16 B header      (default 100)
//     --memory-mib=N        per-node hash memory              (default 8)
//     --dist=SPEC           uniform | gaussian:SIGMA | zipf:S:DOMAIN |
//                           smalldomain:DOMAIN               (default uniform)
//     --chunk=N             tuples per transport chunk        (default 10000)
//     --seed=N              RNG seed                          (default 1)
//     --split-variant=requester|pointer                (default requester)
//     --intra-threads=N     worker threads per join process, sharing its
//                           partition table (default 1 = serial data plane)
//     --runtime=sim|thread|socket  execution runtime          (default sim)
//                           sim: discrete-event, virtual time; thread: one
//                           OS thread per node; socket: one OS *process*
//                           per node over loopback TCP
//     --workers=N           alias for --pool, reads naturally with
//                           --runtime=socket (one process per cluster node)
//     --heartbeat-interval=SEC  scheduler ping cadence        (default 0.5)
//     --heartbeat-timeout=SEC   silence before a node is declared dead
//                               (default 5)
//     --detector=timeout|phi    failure-detector flavour      (default timeout)
//     --phi-threshold=X         phi-accrual suspicion threshold (default 8)
//     --phi-window=N            phi inter-arrival sample window (default 32)
//     --standby                 run a standby scheduler (required to survive
//                               scheduler kills)
//     --topology=switched|bus
//     --kill-node=[ROLE:]I@T  kill the process at index I at time T (virtual
//                           seconds), or after its K-th chunk/message with
//                           the form I@Kc; ROLE is join (default), source,
//                           or sched (index ignored; sched:0@Kc dies on its
//                           K-th protocol message); repeatable
//     --net-jitter=SEC      uniform extra per-message delivery delay
//     --net-drop-prob=P     per-message drop-with-redelivery probability
//     --trace-csv=FILE      dump the run trace as CSV
//     --verify              check the result against the serial oracle
//     --quiet / --verbose   log level
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/driver.hpp"
#include "core/planner.hpp"
#include "runtime/socket_runtime.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {

using namespace ehja;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "ehja_run: %s (see the header of tools/ehja_run.cpp)\n",
               message.c_str());
  std::exit(2);
}

bool match_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = "";
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

DistributionSpec parse_dist(const std::string& spec) {
  if (spec == "uniform") return DistributionSpec::Uniform();
  if (spec.rfind("gaussian:", 0) == 0) {
    return DistributionSpec::Gaussian(0.5, std::atof(spec.c_str() + 9));
  }
  if (spec.rfind("zipf:", 0) == 0) {
    const std::string rest = spec.substr(5);
    const auto colon = rest.find(':');
    if (colon == std::string::npos) usage_error("zipf needs zipf:S:DOMAIN");
    return DistributionSpec::Zipf(
        std::atof(rest.substr(0, colon).c_str()),
        std::strtoull(rest.c_str() + colon + 1, nullptr, 10));
  }
  if (spec.rfind("smalldomain:", 0) == 0) {
    return DistributionSpec::SmallDomain(
        std::strtoull(spec.c_str() + 12, nullptr, 10));
  }
  usage_error("unknown --dist " + spec);
}

// "[ROLE:]I@T" (kill the process at index I at virtual time T) or
// "[ROLE:]I@Kc" (kill it at its K-th chunk/message).  ROLE defaults to join;
// "source:0@3c" kills data source 0 before its 3rd chunk, "sched:0@40c"
// kills the scheduler at its 40th protocol message.
KillSpec parse_kill(std::string spec) {
  KillSpec kill;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    const std::string role = spec.substr(0, colon);
    if (role == "join") {
      kill.role = KillRole::kJoin;
    } else if (role == "source") {
      kill.role = KillRole::kSource;
    } else if (role == "sched") {
      kill.role = KillRole::kScheduler;
    } else {
      usage_error("--kill-node role must be join, source or sched");
    }
    spec = spec.substr(colon + 1);
  }
  const auto at = spec.find('@');
  if (at == std::string::npos) usage_error("--kill-node needs I@T or I@Kc");
  kill.pool_index =
      static_cast<std::uint32_t>(std::atoi(spec.substr(0, at).c_str()));
  const std::string trigger = spec.substr(at + 1);
  if (!trigger.empty() && trigger.back() == 'c') {
    kill.after_chunks = std::strtoull(trigger.c_str(), nullptr, 10);
    if (kill.after_chunks == 0) usage_error("--kill-node chunk count must be >= 1");
  } else {
    kill.at_time = std::atof(trigger.c_str());
    if (kill.at_time < 0.0) usage_error("--kill-node time must be >= 0");
  }
  return kill;
}

const char* runtime_name(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim: return "sim";
    case RuntimeKind::kThread: return "thread";
    case RuntimeKind::kSocket: return "socket";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  // The socket runtime re-executes this binary as its per-node workers;
  // such invocations never reach the normal CLI below.
  if (const auto worker_exit = maybe_run_socket_worker(argc, argv)) {
    return *worker_exit;
  }

  EhjaConfig config;
  config.build_rel.tuple_count = 1'000'000;
  config.probe_rel.tuple_count = 1'000'000;
  config.node_hash_memory_bytes = 8 * kMiB;

  bool auto_algorithm = false;
  bool verify = false;
  RuntimeKind runtime = RuntimeKind::kSim;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (match_flag(argv[i], "--algorithm", &value)) {
      if (value == "split") config.algorithm = Algorithm::kSplit;
      else if (value == "replicated") config.algorithm = Algorithm::kReplicate;
      else if (value == "hybrid") config.algorithm = Algorithm::kHybrid;
      else if (value == "ooc") config.algorithm = Algorithm::kOutOfCore;
      else if (value == "adaptive") config.algorithm = Algorithm::kAdaptive;
      else if (value == "auto") auto_algorithm = true;
      else usage_error("unknown --algorithm " + value);
    } else if (match_flag(argv[i], "--initial-nodes", &value)) {
      config.initial_join_nodes = static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (match_flag(argv[i], "--pool", &value)) {
      config.join_pool_nodes = static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (match_flag(argv[i], "--sources", &value)) {
      config.data_sources = static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (match_flag(argv[i], "--build", &value)) {
      config.build_rel.tuple_count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (match_flag(argv[i], "--probe", &value)) {
      config.probe_rel.tuple_count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (match_flag(argv[i], "--tuple-bytes", &value)) {
      const auto bytes = static_cast<std::uint32_t>(std::atoi(value.c_str()));
      config.build_rel.schema = Schema{bytes};
      config.probe_rel.schema = Schema{bytes};
    } else if (match_flag(argv[i], "--memory-mib", &value)) {
      config.node_hash_memory_bytes =
          std::strtoull(value.c_str(), nullptr, 10) * kMiB;
    } else if (match_flag(argv[i], "--dist", &value)) {
      config.build_rel.dist = parse_dist(value);
      config.probe_rel.dist = config.build_rel.dist;
    } else if (match_flag(argv[i], "--chunk", &value)) {
      config.chunk_tuples = static_cast<std::uint32_t>(std::atoi(value.c_str()));
      config.generation_slice_tuples = config.chunk_tuples;
    } else if (match_flag(argv[i], "--seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (match_flag(argv[i], "--split-variant", &value)) {
      if (value == "requester") config.split_variant = SplitVariant::kRequesterMidpoint;
      else if (value == "pointer") config.split_variant = SplitVariant::kLinearPointer;
      else usage_error("unknown --split-variant " + value);
    } else if (match_flag(argv[i], "--intra-threads", &value)) {
      const long threads = std::atol(value.c_str());
      if (threads < 1) usage_error("--intra-threads must be >= 1");
      config.intra_threads = static_cast<std::uint32_t>(threads);
    } else if (match_flag(argv[i], "--runtime", &value)) {
      if (value == "sim") runtime = RuntimeKind::kSim;
      else if (value == "thread") runtime = RuntimeKind::kThread;
      else if (value == "socket") runtime = RuntimeKind::kSocket;
      else usage_error("unknown --runtime '" + value +
                       "' (valid backends: sim, thread, socket)");
    } else if (match_flag(argv[i], "--workers", &value)) {
      config.join_pool_nodes = static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (match_flag(argv[i], "--heartbeat-interval", &value)) {
      config.ft.heartbeat_interval_sec = std::atof(value.c_str());
      if (config.ft.heartbeat_interval_sec <= 0.0) {
        usage_error("--heartbeat-interval must be > 0");
      }
    } else if (match_flag(argv[i], "--heartbeat-timeout", &value)) {
      config.ft.heartbeat_timeout_sec = std::atof(value.c_str());
      if (config.ft.heartbeat_timeout_sec <= 0.0) {
        usage_error("--heartbeat-timeout must be > 0");
      }
    } else if (match_flag(argv[i], "--detector", &value)) {
      if (value == "timeout") config.ft.detector = DetectorKind::kTimeout;
      else if (value == "phi") config.ft.detector = DetectorKind::kPhiAccrual;
      else usage_error("unknown --detector '" + value + "' (timeout, phi)");
    } else if (match_flag(argv[i], "--phi-threshold", &value)) {
      config.ft.phi_threshold = std::atof(value.c_str());
      if (config.ft.phi_threshold <= 0.0) {
        usage_error("--phi-threshold must be > 0");
      }
    } else if (match_flag(argv[i], "--phi-window", &value)) {
      const long window = std::atol(value.c_str());
      if (window < 1) {
        usage_error("--phi-window must be >= 1 sample");
      }
      config.ft.phi_window = static_cast<std::uint32_t>(window);
    } else if (match_flag(argv[i], "--standby", &value)) {
      config.ft.standby_scheduler = true;
    } else if (match_flag(argv[i], "--topology", &value)) {
      if (value == "switched") config.link.topology = Topology::kSwitched;
      else if (value == "bus") config.link.topology = Topology::kSharedBus;
      else usage_error("unknown --topology " + value);
    } else if (match_flag(argv[i], "--kill-node", &value)) {
      config.faults.kills.push_back(parse_kill(value));
    } else if (match_flag(argv[i], "--net-jitter", &value)) {
      config.link.fault_jitter_sec = std::atof(value.c_str());
    } else if (match_flag(argv[i], "--net-drop-prob", &value)) {
      config.link.fault_drop_prob = std::atof(value.c_str());
    } else if (match_flag(argv[i], "--trace-csv", &value)) {
      trace_path = value;
    } else if (match_flag(argv[i], "--verify", &value)) {
      verify = true;
    } else if (match_flag(argv[i], "--quiet", &value)) {
      set_log_level(LogLevel::kError);
    } else if (match_flag(argv[i], "--verbose", &value)) {
      set_log_level(LogLevel::kInfo);
    } else {
      usage_error(std::string("unknown option ") + argv[i]);
    }
  }

  // Reject nonsense before any process is forked or memory reserved: the
  // same checks EhjaConfig::validate() would abort on, surfaced as a usage
  // error instead.
  if (runtime == RuntimeKind::kSocket && config.join_pool_nodes == 0) {
    usage_error(
        "--runtime=socket needs at least one worker process (--workers/--pool"
        " >= 1)");
  }
  if (const auto err = config.validate_or_error()) {
    usage_error(*err);
  }

  if (auto_algorithm) {
    PlannerInputs inputs;
    inputs.build_tuples = config.build_rel.tuple_count;
    inputs.probe_tuples = config.probe_rel.tuple_count;
    const PlannerDecision decision = choose_algorithm(config, inputs);
    config.algorithm = decision.algorithm;
    std::printf("planner: %s -- %s\n", algorithm_name(decision.algorithm),
                decision.rationale.c_str());
  }

  TraceSink sink;
  if (!trace_path.empty()) config.trace = &sink;

  std::printf("runtime: %s | seed %llu\n", runtime_name(runtime),
              static_cast<unsigned long long>(config.seed));
  std::printf("config: %s\n", config.to_string().c_str());
  const RunResult result = run_ehja(config, runtime);
  const RunMetrics& m = result.metrics;

  // Sim time is modeled; the thread and socket runtimes stamp wall seconds
  // since the runtime started.
  std::printf("\n-- timeline (%s seconds) --\n",
              runtime == RuntimeKind::kSim ? "virtual" : "wall");
  std::printf("build %.3f | reshuffle %.3f | probe %.3f | finish %.3f | "
              "total %.3f\n",
              m.build_time(), m.reshuffle_time(), m.probe_time(),
              m.finish_time(), m.total_time());
  std::printf("-- expansion --\n");
  std::printf("nodes %u -> %u (%u recruited)%s | split time %.3f s | "
              "handoff time %.3f s\n",
              m.initial_join_nodes, m.final_join_nodes, m.expansions,
              m.pool_exhausted ? " [pool exhausted]" : "", m.split_time,
              m.expand_time);
  if (config.algorithm == Algorithm::kAdaptive) {
    std::printf("adaptive choices: %u splits, %u replicas\n",
                m.adaptive_splits, m.adaptive_replicas);
  }
  std::uint64_t spilled_build = 0;
  std::uint64_t spilled_probe = 0;
  std::uint64_t spilled_partitions = 0;
  for (const NodeMetrics& node : m.nodes) {
    spilled_build += node.spilled_build_tuples;
    spilled_probe += node.spilled_probe_tuples;
    spilled_partitions += node.spilled_partitions;
  }
  std::printf("-- spill --\n");
  std::printf("%llu build + %llu probe tuples in %llu sub-partitions\n",
              static_cast<unsigned long long>(spilled_build),
              static_cast<unsigned long long>(spilled_probe),
              static_cast<unsigned long long>(spilled_partitions));
  std::printf("-- communication --\n");
  std::printf("source chunks: %llu build, %llu probe | node-to-node: %llu\n",
              static_cast<unsigned long long>(m.source_build_chunks),
              static_cast<unsigned long long>(m.source_probe_chunks),
              static_cast<unsigned long long>(m.extra_build_chunks));
  const RunningStats load = summarize(m.load_chunks(config.chunk_tuples));
  std::printf("-- load balance (chunks per node) --\n");
  std::printf("min %.1f | avg %.1f | max %.1f | imbalance %.2f\n", load.min(),
              load.mean(), load.max(), load.imbalance());
  if (config.recovery_enabled()) {
    std::printf("-- failures --\n");
    std::printf("injected %u | detected %u (mean latency %.3f s) | "
                "recoveries %u (%.3f s total) | replayed %llu R + %llu S\n",
                m.failures_injected, m.failures_detected,
                m.failures_detected > 0
                    ? m.detection_latency_total / m.failures_detected
                    : 0.0,
                m.recoveries, m.recovery_time_total,
                static_cast<unsigned long long>(m.replayed_build_tuples),
                static_cast<unsigned long long>(m.replayed_probe_tuples));
  }
  std::printf("-- output --\n");
  std::printf("%llu matches, checksum %016llx\n",
              static_cast<unsigned long long>(result.join().matches),
              static_cast<unsigned long long>(result.join().checksum));

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    sink.write_csv(out);
    std::printf("trace: %zu events -> %s\n", sink.size(), trace_path.c_str());
  }

  if (verify) {
    const JoinResult oracle = reference_join(config);
    const bool ok = result.join() == oracle;
    std::printf("verify: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
