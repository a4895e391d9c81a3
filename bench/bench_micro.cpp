// google-benchmark microbenchmarks of the substrate hot paths: hash-table
// insert/probe, linear-hash addressing, workload sampling, DES event
// throughput, the reshuffle planner's greedy sweep.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/reshuffle.hpp"
#include "hash/hash_family.hpp"
#include "hash/local_hash_table.hpp"
#include "join/serial_join.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/distribution.hpp"
#include "workload/generator.hpp"

namespace {

using namespace ehja;

void BM_HashTableInsert(benchmark::State& state) {
  SplitMix64 rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    LocalHashTable table(Schema{100}, PosRange{0, kPositionCount});
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      table.insert(Tuple{static_cast<std::uint64_t>(i), rng.next_u64()});
    }
    benchmark::DoNotOptimize(table.footprint_bytes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashTableInsert)->Arg(100000);

void BM_HashTableProbe(benchmark::State& state) {
  SplitMix64 rng(2);
  LocalHashTable table(Schema{100}, PosRange{0, kPositionCount});
  for (int i = 0; i < state.range(0); ++i) {
    table.insert(Tuple{static_cast<std::uint64_t>(i), rng.next_u64()});
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < state.range(0); ++i) {
      sink += table.probe(Tuple{0, rng.next_u64()}).comparisons;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashTableProbe)->Arg(100000);

void BM_LinearHashAddressing(benchmark::State& state) {
  LinearHashMap lh(4);
  for (int i = 0; i < 18; ++i) lh.split_next();
  SplitMix64 rng(3);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += lh.bucket_index_of(rng.next_below(kPositionCount));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_LinearHashAddressing);

void BM_SampleUniform(benchmark::State& state) {
  SplitMix64 rng(4);
  const auto spec = DistributionSpec::Uniform();
  std::uint64_t sink = 0;
  for (auto _ : state) sink += sample_key(spec, rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SampleUniform);

void BM_SampleGaussian(benchmark::State& state) {
  SplitMix64 rng(5);
  const auto spec = DistributionSpec::Gaussian(0.5, 1e-4);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += sample_key(spec, rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SampleGaussian);

void BM_SampleZipf(benchmark::State& state) {
  SplitMix64 rng(6);
  const auto spec = DistributionSpec::Zipf(1.1, 1 << 20);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += sample_key(spec, rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SampleZipf);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < state.range(0)) sim.schedule_after(1e-6, chain);
    };
    sim.schedule_at(0.0, chain);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(10000);

// Plans a 16-member set over the whole position range holding `range(0)`
// evenly spaced occupied positions: the sweep costs what is occupied.
void BM_ReshufflePlan(benchmark::State& state) {
  SplitMix64 rng(7);
  const auto cells = static_cast<std::uint64_t>(state.range(0));
  PositionHistogram hist(0, kPositionCount);
  for (std::uint64_t c = 0; c < cells; ++c) {
    hist.push(c * (kPositionCount / cells), 1 + rng.next_below(1000));
  }
  std::vector<ActorId> members(16);
  std::iota(members.begin(), members.end(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_reshuffle(hist, members));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReshufflePlan)->Arg(4096)->Arg(1 << 20);

void BM_SerialJoin(benchmark::State& state) {
  RelationSpec r_spec{RelTag::kR, 50000, Schema{100},
                      DistributionSpec::SmallDomain(10000), nullptr};
  RelationSpec s_spec{RelTag::kS, 50000, Schema{100},
                      DistributionSpec::SmallDomain(10000), nullptr};
  const Relation r = materialize(r_spec, 1, 1);
  const Relation s = materialize(s_spec, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial_hash_join(r, s));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SerialJoin);

}  // namespace

BENCHMARK_MAIN();
