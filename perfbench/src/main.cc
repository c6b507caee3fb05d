// perfbench_runner: runs one workload of the benchmark for a wall-clock
// budget and prints one JSON object with every repetition's raw timings,
// simulated outputs and per-layer counts. perfbench/run.py builds this
// binary, checks the outputs against the goldens and reduces the
// repetitions to the benchmark's metrics.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scale <x>] [--trace-out <path>] [--min-reps <n>]
//
// --trace 0 repeats the untraced experiment. --trace 1 alternates untraced
// and traced repetitions (plus the unsharded twin on mt256_sharded), so
// the tracing overhead is measured under the same host conditions, and
// writes the traced spans to --trace-out.

#include <cpuid.h>
#include <malloc.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/decorators.h"
#include "perfbench/src/experiments.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
  int min_reps = 3;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <x>] [--trace-out <path>] "
               "[--min-reps <n>]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, nullptr);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--min-reps") {
      a.min_reps = std::atoi(v);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !IsWorkload(a.workload)) {
    Usage("unknown or missing --workload");
  }
  if (!(a.scale > 0.0) || !(a.seconds >= 0.0)) {
    Usage("--scale must be > 0 and --seconds >= 0");
  }
  return a;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Peak resident set of this process in MB: the kernel's high-water mark for
// this address space. getrusage's ru_maxrss would also count the parent's
// resident set at fork time, which exec carries over.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// CPU brand string from cpuid.
std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
    return "unknown";
  }
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx =
      std::min(v.size() - 1, static_cast<size_t>(pct / 100.0 * (v.size() - 1) + 0.5));
  return v[idx];
}

std::string CostJson(const SpanCost& c) {
  return "[" + Num(c.self_ns) + ", " + Num(c.parent_ns) + "]";
}

std::string RepJson(const char* mode, const RepResult& r, const Tracer* tracer,
                    const LayerCosts& costs = {}) {
  std::string out = "{\"mode\": " + Quoted(mode) + ", \"setup_s\": [";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    out += (i ? ", " : "") + Num(r.setup_s[i]);
  }
  out += "], \"run_s\": " + Num(r.run_s) + ", \"cpu_s\": " + Num(r.cpu_s) +
         ", \"outputs\": " + Quoted(r.outputs) + ", \"counts\": {";
  bool first = true;
  for (const auto& [name, value] : r.counts) {
    out += (first ? "" : ", ") + Quoted(name) + ": " + Num(value);
    first = false;
  }
  out += "}";
  if (tracer != nullptr) {
    out += ", \"spans\": {";
    first = true;
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      for (int cb = 0; cb < kCbCount; ++cb) {
        const SpanAgg& a = tracer->agg(static_cast<Layer>(l), static_cast<Cb>(cb));
        if (a.calls == 0) {
          continue;
        }
        out += (first ? "" : ", ") +
               Quoted(std::string(LayerName(static_cast<Layer>(l))) + "." +
                      CbName(static_cast<Cb>(cb))) +
               ": [" + Num(static_cast<double>(a.calls)) + ", " +
               Num(static_cast<double>(a.total_ns)) + ", " +
               Num(static_cast<double>(a.child_ns)) + ", " +
               Num(static_cast<double>(a.children)) + "]";
        first = false;
      }
    }
    const std::vector<double>& slices = tracer->slice_ns_per_event();
    out += "}, \"top_spans\": {";
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      out += (l ? ", " : "") + Quoted(LayerName(static_cast<Layer>(l))) + ": " +
             Num(static_cast<double>(tracer->top_spans(static_cast<Layer>(l))));
    }
    out += "}, \"top_ns\": " + Num(static_cast<double>(tracer->top_ns())) +
           ", \"slices\": " + Num(static_cast<double>(slices.size())) +
           ", \"slice_p50\": " + Num(Percentile(slices, 50.0)) +
           ", \"slice_p99\": " + Num(Percentile(slices, 99.0)) +
           ", \"span_cost\": {\"enoki\": " + CostJson(costs.shim) +
           ", \"sched\": " + CostJson(costs.sched) +
           ", \"enoki_write\": " + CostJson(costs.write) + "}";
  }
  return out + "}";
}

// The per-(layer, callback) aggregates of the last traced repetition and
// its bounded sample of raw spans with parent links, for offline
// inspection.
void WriteTrace(const std::string& path, const Args& args, const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": %s, \"seed\": %" PRIu64 ", \"aggregates\": [\n",
               Quoted(args.workload).c_str(), args.seed);
  bool first = true;
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    for (int cb = 0; cb < kCbCount; ++cb) {
      const SpanAgg& a = tracer.agg(static_cast<Layer>(l), static_cast<Cb>(cb));
      if (a.calls == 0) {
        continue;
      }
      std::fprintf(f,
                   "%s  {\"layer\": \"%s\", \"cb\": \"%s\", \"calls\": %" PRIu64
                   ", \"total_ns\": %" PRIu64 ", \"child_ns\": %" PRIu64 "}",
                   first ? "" : ",\n", LayerName(static_cast<Layer>(l)),
                   CbName(static_cast<Cb>(cb)), a.calls, a.total_ns, a.child_ns);
      first = false;
    }
  }
  std::fprintf(f, "\n], \"spans\": [\n");
  const std::vector<RawSpan>& sample = tracer.sample();
  for (size_t i = 0; i < sample.size(); ++i) {
    const RawSpan& s = sample[i];
    std::fprintf(f,
                 "  {\"id\": %u, \"parent\": %u, \"layer\": \"%s\", \"cb\": \"%s\", "
                 "\"start_ns\": %" PRIu64 ", \"dur_ns\": %" PRIu64 "}%s\n",
                 s.id, s.parent, LayerName(s.layer), CbName(s.cb), s.start_ns, s.dur_ns,
                 i + 1 < sample.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  // Keep glibc's heap in one state for the whole run: blocks from 8 MiB up
  // (the record ring) are always mmapped and unmapped when freed; smaller
  // ones come from a heap that never hands pages back. Left dynamic, the
  // thresholds shift part-way through a run, and whether a construction
  // re-faults its pages (set-up time x10) would depend on the repetitions
  // before it; with every block on the heap, a freed record ring could stay
  // resident next to its successor (peak RSS x1.7).
  mallopt(M_MMAP_THRESHOLD, 8 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  RepOptions opts;
  opts.workload = args.workload;
  opts.seed = args.seed;
  opts.scale = args.scale;

  std::vector<std::string> reps;

  // One untimed repetition first: page in the code and let the allocator
  // reach its steady state. Its outputs are still checked.
  reps.push_back(RepJson("warmup", RunRep(opts, nullptr), nullptr));

  Tracer tracer;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  for (int i = 0; i < args.min_reps || elapsed() < args.seconds; ++i) {
    reps.push_back(RepJson("plain", RunRep(opts, nullptr), nullptr));
    if (!args.trace) {
      continue;
    }
    if (args.workload == "mt256_sharded") {
      // The sharded engine owns its classes: the traced repetition is the
      // plain one (profile counters only) and the flat twin adds speedup.
      RepOptions flat = opts;
      flat.flat_twin = true;
      reps.push_back(RepJson("flat", RunRep(flat, nullptr), nullptr));
    } else {
      // Calibrated next to each traced repetition: the span cost moves with
      // the host's load as much as the run does.
      const LayerCosts costs = CalibrateSpanCosts();
      reps.push_back(RepJson("traced", RunRep(opts, &tracer), &tracer, costs));
    }
  }
  if (args.trace && !args.trace_out.empty() && args.workload != "mt256_sharded") {
    WriteTrace(args.trace_out, args, tracer);
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const bool aslr = (personality(0xffffffff) & ADDR_NO_RANDOMIZE) == 0;

  std::string out = "{\"workload\": " + Quoted(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) + ", \"scale\": " +
                    Num(args.scale) + ", \"host\": {\"nproc\": " + std::to_string(nproc) +
                    ", \"compiler\": " + Quoted(PERFBENCH_COMPILER) +
                    ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE) +
                    ", \"cpu_model\": " + Quoted(CpuModel()) +
                    ", \"shard_threads\": " + std::to_string(WorkloadThreads(args.workload)) +
                    ", \"aslr\": " + (aslr ? "true" : "false") +
                    "}, \"peak_rss_mb\": " +
                    Num(PeakRssMb()) + ", \"reps\": [";
  for (size_t i = 0; i < reps.size(); ++i) {
    out += (i ? ",\n  " : "\n  ") + reps[i];
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
