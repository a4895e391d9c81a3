// Skew explorer: which expansion strategy should a query planner pick?
//
// Sweeps the join-attribute distribution from uniform through increasingly
// extreme Gaussian range-skew (plus a Zipf value-skew case), runs all three
// EHJAs on each, and prints a planner-style recommendation -- reproducing
// the paper's decision rule: "the replication-based algorithm should be
// preferred ... if the distribution of the join attribute values is highly
// skewed ... otherwise the split-based algorithm achieves better
// performance; the hybrid algorithm generally performs close to the better
// of the two."
//
// The last column runs the adaptive policy (core/expansion_policy), which
// makes that choice per overflow from the cost model instead of per run.
// Its comparison is greedy: a split's one-time migration vs a replica's
// recurring probe broadcast *for this overflow*.  Under extreme range skew
// that undervalues replication -- the hot range re-overflows after every
// split, and the model does not anticipate the repeat business -- so
// expect adaptive to track split there while the per-run rule says
// replicate (bench_adaptive_strategy has the regimes where it wins).
//
// Fault flags (same syntax as ehja_run) apply to every swept run, so the
// ranking can be re-examined under injected failures:
//   --kill-node=[ROLE:]I@T | [ROLE:]I@Kc   kill a process at time T / after
//                             K chunks; ROLE is join (default), source, or
//                             sched (needs --standby)
//   --detector=timeout|phi    failure-detector flavour
//   --phi-threshold=X         phi-accrual suspicion threshold
//   --standby                 run a standby scheduler
//   --net-jitter=SEC          uniform extra per-message delivery delay
//   --net-drop-prob=P         per-message drop-with-redelivery probability
//   --intra-threads=N         worker threads per join process, sharing its
//                             partition table (default 1)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "util/units.hpp"

namespace {

struct FaultFlags {
  ehja::FaultPlan faults;
  ehja::FaultToleranceConfig ft;
  double net_jitter_sec = 0.0;
  double net_drop_prob = 0.0;
  std::uint32_t intra_threads = 1;
};

struct Outcome {
  ehja::Algorithm algorithm;
  double total = 0.0;
  double max_load_chunks = 0.0;
};

Outcome run_one(ehja::Algorithm algorithm, const ehja::DistributionSpec& dist,
                const FaultFlags& flags) {
  using namespace ehja;
  EhjaConfig config;
  config.algorithm = algorithm;
  config.initial_join_nodes = 4;
  config.join_pool_nodes = 24;
  config.data_sources = 4;
  config.build_rel.tuple_count = 1'000'000;
  config.probe_rel.tuple_count = 1'000'000;
  config.build_rel.dist = dist;
  config.probe_rel.dist = dist;
  config.node_hash_memory_bytes = 8 * kMiB;
  config.faults = flags.faults;
  config.ft = flags.ft;
  config.link.fault_jitter_sec = flags.net_jitter_sec;
  config.link.fault_drop_prob = flags.net_drop_prob;
  config.intra_threads = flags.intra_threads;
  const RunResult result = run_ehja(config);
  Outcome outcome;
  outcome.algorithm = algorithm;
  outcome.total = result.metrics.total_time();
  for (const double load : result.metrics.load_chunks(config.chunk_tuples)) {
    outcome.max_load_chunks = std::max(outcome.max_load_chunks, load);
  }
  return outcome;
}

bool match_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

FaultFlags parse_fault_flags(int argc, char** argv) {
  FaultFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (match_flag(argv[i], "--kill-node", &value)) {
      ehja::KillSpec kill;
      if (const auto colon = value.find(':'); colon != std::string::npos) {
        const std::string role = value.substr(0, colon);
        if (role == "join") kill.role = ehja::KillRole::kJoin;
        else if (role == "source") kill.role = ehja::KillRole::kSource;
        else if (role == "sched") kill.role = ehja::KillRole::kScheduler;
        else {
          std::fprintf(stderr, "skew_explorer: unknown kill role %s\n",
                       role.c_str());
          std::exit(2);
        }
        value = value.substr(colon + 1);
      }
      const auto at = value.find('@');
      kill.pool_index =
          static_cast<std::uint32_t>(std::atoi(value.substr(0, at).c_str()));
      const std::string trigger =
          at == std::string::npos ? "" : value.substr(at + 1);
      if (!trigger.empty() && trigger.back() == 'c') {
        kill.after_chunks = std::strtoull(trigger.c_str(), nullptr, 10);
      } else {
        kill.at_time = std::atof(trigger.c_str());
      }
      flags.faults.kills.push_back(kill);
    } else if (match_flag(argv[i], "--detector", &value)) {
      if (value == "timeout") flags.ft.detector = ehja::DetectorKind::kTimeout;
      else if (value == "phi") {
        flags.ft.detector = ehja::DetectorKind::kPhiAccrual;
      } else {
        std::fprintf(stderr, "skew_explorer: unknown detector %s\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (match_flag(argv[i], "--phi-threshold", &value)) {
      flags.ft.phi_threshold = std::atof(value.c_str());
    } else if (match_flag(argv[i], "--net-jitter", &value)) {
      flags.net_jitter_sec = std::atof(value.c_str());
    } else if (match_flag(argv[i], "--net-drop-prob", &value)) {
      flags.net_drop_prob = std::atof(value.c_str());
    } else if (match_flag(argv[i], "--intra-threads", &value)) {
      const long threads = std::atol(value.c_str());
      if (threads < 1) {
        std::fprintf(stderr, "skew_explorer: --intra-threads must be >= 1\n");
        std::exit(2);
      }
      flags.intra_threads = static_cast<std::uint32_t>(threads);
    } else if (std::strcmp(argv[i], "--standby") == 0) {
      flags.ft.standby_scheduler = true;
    } else {
      std::fprintf(stderr, "skew_explorer: unknown option %s\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ehja;
  const FaultFlags fault_flags = parse_fault_flags(argc, argv);
  struct Case {
    const char* label;
    DistributionSpec dist;
  };
  const Case cases[] = {
      {"uniform", DistributionSpec::Uniform()},
      {"gaussian sigma=1e-2", DistributionSpec::Gaussian(0.5, 1e-2)},
      {"gaussian sigma=1e-3", DistributionSpec::Gaussian(0.5, 1e-3)},
      {"gaussian sigma=1e-4", DistributionSpec::Gaussian(0.5, 1e-4)},
      {"zipf s=1.1", DistributionSpec::Zipf(1.1, 1 << 16)},
  };

  std::printf("%-22s %12s %12s %12s %12s   %s\n", "distribution",
              "replicated(s)", "split(s)", "hybrid(s)", "adaptive(s)",
              "recommendation");
  for (const Case& c : cases) {
    std::vector<Outcome> outcomes;
    for (const Algorithm algorithm :
         {Algorithm::kReplicate, Algorithm::kSplit, Algorithm::kHybrid}) {
      outcomes.push_back(run_one(algorithm, c.dist, fault_flags));
    }
    const Outcome adaptive = run_one(Algorithm::kAdaptive, c.dist, fault_flags);
    const Outcome* best = &outcomes[0];
    for (const Outcome& o : outcomes) {
      if (o.total < best->total) best = &o;
    }
    // The planner's rule of thumb: hybrid unless another strategy wins by a
    // clear margin (>10%).
    const char* pick = algorithm_name(Algorithm::kHybrid);
    for (const Outcome& o : outcomes) {
      if (o.algorithm != Algorithm::kHybrid &&
          o.total * 1.10 < outcomes[2].total) {
        pick = algorithm_name(best->algorithm);
      }
    }
    std::printf("%-22s %12.2f %12.2f %12.2f %12.2f   use %s\n", c.label,
                outcomes[0].total, outcomes[1].total, outcomes[2].total,
                adaptive.total, pick);
  }
  std::printf("\n(max-load imbalance under the last distribution: "
              "see bench_fig12_13_load_balance for the full series)\n");
  return 0;
}
