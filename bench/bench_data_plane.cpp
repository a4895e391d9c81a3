// Data-plane throughput baseline: scalar vs batched build and probe.
//
// Measures real (wall-clock) tuples/sec through LocalHashTable -- the
// tuple-at-a-time insert()/probe() calls against the columnar
// insert_batch()/probe_batch() path -- on a uniform and a skewed key
// workload, plus the end-to-end simulated join per algorithm (wall-clock of
// the whole actor pipeline, which now moves columnar batches end to end).
// Results go to a JSON file (default BENCH_data_plane.json) so the perf
// trajectory is tracked in-repo; CI runs `--smoke` on a small workload and
// fails the job when the batched path regresses below scalar (exit 1).
// `host_cores` is recorded because absolute tuples/sec only compare on
// like hosts (tools/check_bench.py skips them across core counts).
// Intra-node thread scaling is measured by perfbench's
// hash.intra_build_speedup, not here.
//
// Usage: bench_data_plane [--smoke] [--out=PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "hash/local_hash_table.hpp"
#include "relation/tuple_batch.hpp"
#include "util/rng.hpp"

namespace ehja {
namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Tuples pre-chunked both ways: rows for the scalar path, columns for the
/// batched path, sliced like the transport would (chunk_tuples per chunk).
struct Workload {
  std::vector<Tuple> rows;
  std::vector<TupleBatch> chunks;
};

Workload make_workload(std::uint64_t tuples, std::uint64_t chunk_tuples,
                       bool skewed, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Workload w;
  w.rows.reserve(tuples);
  for (std::uint64_t i = 0; i < tuples; ++i) {
    std::uint64_t key;
    if (!skewed) {
      key = rng.next_u64();
    } else {
      // Triangular position distribution (mean of two uniforms): the
      // center positions carry long chains, like the paper's Gaussian
      // skew, while low key bits keep join attributes distinct.
      const std::uint64_t a = rng.next_u64() >> (64 - kPositionBits);
      const std::uint64_t b = rng.next_u64() >> (64 - kPositionBits);
      const std::uint64_t pos = (a + b) / 2;
      key = (pos << (64 - kPositionBits)) | (rng.next_u64() & 0xffffffffull);
    }
    w.rows.push_back(Tuple{i, key});
  }
  for (std::uint64_t off = 0; off < tuples; off += chunk_tuples) {
    const std::uint64_t n = std::min(chunk_tuples, tuples - off);
    TupleBatch batch;
    batch.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      batch.push_back(w.rows[off + i]);
    }
    w.chunks.push_back(std::move(batch));
  }
  return w;
}

struct Throughput {
  double scalar_tps = 0;
  double batched_tps = 0;
  double speedup() const { return scalar_tps > 0 ? batched_tps / scalar_tps : 0; }
};

/// Median-of-`reps` wall time of two bodies, interleaved rep by rep.  On
/// shared vCPUs, steal time drifts over seconds: interleaving makes both
/// modes sample the same windows, and the median (unlike best-of) is not
/// dominated by whichever mode caught the one steal-free window.
template <typename Reset, typename BodyA, typename BodyB>
std::pair<double, double> median_seconds_interleaved(int reps, Reset reset,
                                                     BodyA a, BodyB b) {
  std::vector<double> times_a, times_b;
  for (int r = 0; r < reps; ++r) {
    {
      auto state = reset();
      const double t0 = now_sec();
      a(state);
      times_a.push_back(now_sec() - t0);
    }
    {
      auto state = reset();
      const double t0 = now_sec();
      b(state);
      times_b.push_back(now_sec() - t0);
    }
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(times_a), median(times_b)};
}

Throughput bench_build(const Workload& w, int reps) {
  const Schema schema;
  const PosRange range{0, kPositionCount};
  const double n = static_cast<double>(w.rows.size());
  const auto [scalar, batched] = median_seconds_interleaved(
      reps, [&] { return LocalHashTable(schema, range); },
      [&](LocalHashTable& table) {
        for (const Tuple& t : w.rows) table.insert(t);
      },
      [&](LocalHashTable& table) {
        for (const TupleBatch& chunk : w.chunks) table.insert_batch(chunk);
      });
  Throughput out;
  out.scalar_tps = n / scalar;
  out.batched_tps = n / batched;
  return out;
}

Throughput bench_probe(const Workload& build, const Workload& probe,
                       int reps) {
  const Schema schema;
  const PosRange range{0, kPositionCount};
  LocalHashTable table(schema, range);
  for (const TupleBatch& chunk : build.chunks) table.insert_batch(chunk);
  const double n = static_cast<double>(probe.rows.size());
  // Warm the lazy index outside the timed region (both paths share it).
  (void)table.probe(probe.rows.front());

  std::uint64_t scalar_matches = 0, batched_matches = 0;
  std::uint64_t scalar_checksum = 0, batched_checksum = 0;
  const auto [scalar, batched] = median_seconds_interleaved(
      reps, [] { return 0; },
      [&](int) {
        std::uint64_t matches = 0, checksum = 0;
        for (const Tuple& t : probe.rows) {
          const auto r = table.probe(t);
          matches += r.matches;
          checksum += r.checksum_delta;
        }
        scalar_matches = matches;
        scalar_checksum = checksum;
      },
      [&](int) {
        std::uint64_t matches = 0, checksum = 0;
        for (const TupleBatch& chunk : probe.chunks) {
          const auto r = table.probe_batch(chunk);
          matches += r.matches;
          checksum += r.checksum_delta;
        }
        batched_matches = matches;
        batched_checksum = checksum;
      });
  Throughput out;
  if (scalar_matches != batched_matches ||
      scalar_checksum != batched_checksum) {
    std::cerr << "FATAL: scalar/batched probe results diverged\n";
    std::exit(2);
  }
  out.scalar_tps = n / scalar;
  out.batched_tps = n / batched;
  return out;
}

struct EndToEnd {
  std::string name;
  double wall_sec = 0;
  double tuples_per_sec = 0;
  std::uint64_t matches = 0;
};

EndToEnd bench_end_to_end(Algorithm algorithm, double scale) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.build_rel.tuple_count =
      static_cast<std::uint64_t>(10e6 * scale);
  config.probe_rel.tuple_count = config.build_rel.tuple_count;
  config.node_hash_memory_bytes =
      static_cast<std::uint64_t>(80.0 * 1024 * 1024 * scale);
  const double t0 = now_sec();
  const RunResult run = run_ehja(config, RuntimeKind::kSim);
  EndToEnd e;
  e.wall_sec = now_sec() - t0;
  e.tuples_per_sec =
      static_cast<double>(config.build_rel.tuple_count +
                          config.probe_rel.tuple_count) /
      e.wall_sec;
  e.matches = run.join().matches;
  return e;
}

void write_throughput(std::ostream& os, const char* key, const Throughput& t,
                      bool last) {
  os << "    \"" << key << "\": {\"scalar_tps\": " << std::llround(t.scalar_tps)
     << ", \"batched_tps\": " << std::llround(t.batched_tps)
     << ", \"speedup\": " << t.speedup() << "}" << (last ? "\n" : ",\n");
}

}  // namespace
}  // namespace ehja

int main(int argc, char** argv) {
  using namespace ehja;
  bool smoke = false;
  std::string out_path = "BENCH_data_plane.json";
  std::uint64_t tuples_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--tuples=", 9) == 0)
      tuples_override = std::strtoull(argv[i] + 9, nullptr, 10);
  }
  // 1M build rows over the 1M-slot position space matches a per-node build
  // at the repo's default memory budgets; the smoke size just keeps CI fast.
  const std::uint64_t tuples =
      tuples_override ? tuples_override : (smoke ? 400'000 : 1'000'000);
  const std::uint64_t chunk_tuples = 10'000;
  const int reps = smoke ? 5 : 9;
  const double e2e_scale = smoke ? 0.01 : 0.02;

  const Workload uniform = make_workload(tuples, chunk_tuples, false, 1);
  const Workload uniform_probe = make_workload(tuples, chunk_tuples, false, 2);
  const Workload skewed = make_workload(tuples, chunk_tuples, true, 3);
  const Workload skewed_probe = make_workload(tuples, chunk_tuples, true, 4);

  const Throughput ub = bench_build(uniform, reps);
  const Throughput up = bench_probe(uniform, uniform_probe, reps);
  const Throughput sb = bench_build(skewed, reps);
  const Throughput sp = bench_probe(skewed, skewed_probe, reps);
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"data_plane\",\n";
  os << "  \"tuples\": " << tuples << ",\n  \"chunk_tuples\": " << chunk_tuples
     << ",\n  \"reps\": " << reps << ",\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"host_cores\": " << host_cores << ",\n";
  os << "  \"uniform\": {\n";
  write_throughput(os, "build", ub, false);
  write_throughput(os, "probe", up, true);
  os << "  },\n  \"skewed\": {\n";
  write_throughput(os, "build", sb, false);
  write_throughput(os, "probe", sp, true);
  os << "  },\n  \"end_to_end\": {\n";
  constexpr Algorithm kAll[] = {Algorithm::kSplit, Algorithm::kReplicate,
                                Algorithm::kHybrid, Algorithm::kOutOfCore,
                                Algorithm::kAdaptive};
  for (std::size_t i = 0; i < std::size(kAll); ++i) {
    const EndToEnd e = bench_end_to_end(kAll[i], e2e_scale);
    os << "    \"" << algorithm_name(kAll[i]) << "\": {\"wall_sec\": "
       << e.wall_sec << ", \"tuples_per_sec\": " << std::llround(e.tuples_per_sec)
       << "}" << (i + 1 < std::size(kAll) ? ",\n" : "\n");
  }
  os << "  }\n}\n";
  os.close();

  std::cout << "uniform build: scalar " << std::llround(ub.scalar_tps)
            << " t/s, batched " << std::llround(ub.batched_tps)
            << " t/s (x" << ub.speedup() << ")\n";
  std::cout << "uniform probe: scalar " << std::llround(up.scalar_tps)
            << " t/s, batched " << std::llround(up.batched_tps)
            << " t/s (x" << up.speedup() << ")\n";
  std::cout << "skewed  build: scalar " << std::llround(sb.scalar_tps)
            << " t/s, batched " << std::llround(sb.batched_tps)
            << " t/s (x" << sb.speedup() << ")\n";
  std::cout << "skewed  probe: scalar " << std::llround(sp.scalar_tps)
            << " t/s, batched " << std::llround(sp.batched_tps)
            << " t/s (x" << sp.speedup() << ")\n";
  std::cout << "wrote " << out_path << "\n";

  // CI gate: the batched path must not regress below tuple-at-a-time.
  if (ub.speedup() < 1.0 || up.speedup() < 1.0) {
    std::cerr << "FAIL: batched throughput below scalar\n";
    return 1;
  }
  return 0;
}
