// The benchmark's four fixed simulated experiments.
//
// Each repetition builds the experiment (timed as set-up), runs it to
// completion (timed as the run phase), and returns the simulated outputs
// the golden check compares plus the deterministic per-layer counts. With
// a Tracer, the stack is built with the timing decorators and the run also
// leaves span aggregates in the tracer.

#ifndef PERFBENCH_SRC_EXPERIMENTS_H_
#define PERFBENCH_SRC_EXPERIMENTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"

namespace perfbench {

struct RepOptions {
  std::string workload;
  uint64_t seed = 0;
  // Multiplies the simulated length of the run phase; 1 is the benchmark.
  double scale = 1.0;
  // mt256_sharded only: run the unsharded single-loop twin instead.
  bool flat_twin = false;
};

struct RepResult {
  // One entry per timed construction (see Timed in experiments.cc).
  std::vector<double> setup_s;
  double run_s = 0.0;
  double cpu_s = 0.0;
  // Canonical text of the simulated outputs: fingerprints, latency
  // percentiles, completions, upgrade pauses. Identical bytes mean the
  // simulation made identical decisions.
  std::string outputs;
  // Deterministic per-layer counts (events, cascades, calls, ...) and the
  // host-time profile the simulator keeps itself (*_ns, sharded engine).
  std::map<std::string, double> counts;
};

bool IsWorkload(const std::string& name);
// Host threads the workload's simulation uses (shard threads on mt256).
int WorkloadThreads(const std::string& name);

// Runs one repetition. `tracer` may be null (untraced run).
RepResult RunRep(const RepOptions& opts, Tracer* tracer);

// Heap allocations made by the process so far (global operator new count).
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_EXPERIMENTS_H_
