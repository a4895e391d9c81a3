// Ablation A2: sensitivity of the headline ranking (Fig. 2 at J=4) to the
// hardware model and design knobs the paper could not vary:
//   * network bandwidth (100 Mb/s vs 1 Gb/s -- the paper's future work on
//     "different network configurations"),
//   * chunk size,
//   * node-pick policy for recruiting join nodes.
#include <cstdio>

#include "bench_common.hpp"

namespace {

void run_case(const char* label, ehja::EhjaConfig base) {
  using namespace ehja;
  using namespace ehja::bench;
  std::printf("  -- %s --\n", label);
  for (const Algorithm algorithm : kFigureAlgorithms) {
    EhjaConfig config = base;
    config.algorithm = algorithm;
    const RunResult result = run(config);
    std::printf("     %-12s total=%8.2fs build=%7.2fs extra=%6llu chunks\n",
                algorithm_name(algorithm), result.metrics.total_time(),
                result.metrics.build_time(),
                static_cast<unsigned long long>(
                    result.metrics.extra_build_chunks));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ehja;
  using namespace ehja::bench;
  const double scale = scale_from_args(argc, argv, 0.5);
  std::printf("== bench_ablation_sensitivity (scale=%.3g) ==\n", scale);

  run_case("baseline: gigabit-class fabric, 10k chunks, largest-memory pick",
           paper_config(scale));

  {
    EhjaConfig config = paper_config(scale);
    config.link.bandwidth_bytes_per_sec *= 10.0;  // ~1 Gb/s
    run_case("10x network bandwidth (~1 Gb/s)", config);
  }
  {
    EhjaConfig config = paper_config(scale);
    config.chunk_tuples = 1'000;
    config.generation_slice_tuples = 1'000;
    run_case("small chunks (1k tuples)", config);
  }
  {
    EhjaConfig config = paper_config(scale);
    config.chunk_tuples = 50'000;
    config.generation_slice_tuples = 50'000;
    run_case("large chunks (50k tuples)", config);
  }
  {
    EhjaConfig config = paper_config(scale);
    config.pick_policy = NodePickPolicy::kFirstAvailable;
    run_case("first-available node pick policy", config);
  }
  {
    // DESIGN.md ss"Resolved ambiguities" #1: the paper's ss4.2.1 Litwin
    // split-pointer variant vs the ss1 requester-directed default, under
    // uniform and under extreme skew.
    EhjaConfig config = paper_config(scale);
    config.split_variant = SplitVariant::kLinearPointer;
    run_case("split variant: linear pointer (uniform)", config);
    config.build_rel.dist = DistributionSpec::Gaussian(0.5, 1e-4);
    config.probe_rel.dist = config.build_rel.dist;
    run_case("split variant: linear pointer (sigma=1e-4)", config);
    config.split_variant = SplitVariant::kRequesterMidpoint;
    run_case("split variant: requester midpoint (sigma=1e-4)", config);
  }
  {
    // Extension: histogram-balanced initial partitioning under skew --
    // how much expansion does a skew-aware start avoid?
    EhjaConfig config = paper_config(scale);
    config.build_rel.dist = DistributionSpec::Gaussian(0.5, 1e-3);
    config.probe_rel.dist = config.build_rel.dist;
    run_case("skew sigma=1e-3, equal-width initial ranges", config);
    config.balanced_initial_partition = true;
    run_case("skew sigma=1e-3, histogram-balanced initial ranges", config);
  }
  {
    EhjaConfig config = paper_config(scale);
    config.disk.write_bytes_per_sec *= 4.0;
    config.disk.read_bytes_per_sec *= 4.0;
    run_case("4x faster disks (OOC-favourable)", config);
  }
  {
    // Paper ss6 future work: "the effect of different network
    // configurations" -- a hub/shared-bus fabric where all transfers
    // serialize on one collision domain.
    EhjaConfig config = paper_config(scale);
    config.link.topology = Topology::kSharedBus;
    run_case("shared-bus fabric (one collision domain)", config);
  }
  return 0;
}
