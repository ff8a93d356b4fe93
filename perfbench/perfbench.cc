// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <stream_rpc|conn_churn|file_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--ops <n>] [--spans <file>]
//
// One run repeats a fixed, seeded piece of work: set up the stack, run the
// warm-up ops, then run the measured ops. It repeats until --seconds of host
// CPU have been spent in measured phases (at least once). Every repetition
// replays the same virtual run, so the virtual metrics repeat exactly, and
// the run fails if they do not. Host metrics are read on the process CPU
// clock: setup_s is the median over set-ups (adding set-up-only passes until
// there are at least kMinSetups of them and they took kSetupCpuS in total).
// host_ops_per_cpu_s is taken from blocks of consecutive measured ops (a
// 64th of the window each): each block's least CPU time over the run's
// repetitions, summed over the window.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced repetitions and prints the per-layer metrics, taken from the last
// traced repetition's spans and counters, plus the tracing overhead. --ops
// overrides the measured op count (the determinism test runs small).
// --spans writes the traced repetition's spans as CSV.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed and no op failed.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/kernel/fault_plane.h"

namespace perfbench {
namespace {

constexpr int kMaxReps = 64;
// setup_s is the median of at least kMinSetups set-ups that took at least
// kSetupCpuS of CPU together; runs whose measured repetitions give less add
// set-up-only passes. The budget gives cheap set-ups many samples.
constexpr size_t kMinSetups = 7;
constexpr double kSetupCpuS = 3.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <stream_rpc|conn_churn|file_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--ops <n>] [--spans <file>]\n",
               why);
  std::exit(2);
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_seconds = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed" && ParseU64(v, &n)) {
      o.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds >= 0) || o.seconds > 600) {
        Usage("--seconds wants a number in [0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
      o.trace = v[0] == '1';
    } else if (flag == "--ops" && ParseU64(v, &n) && n > 0) {
      o.ops = n;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      Usage(("bad argument " + flag + " " + v).c_str());
    }
  }
  if (o.workload.empty() || !have_seconds) {
    Usage("--workload and --seconds are required");
  }
  return o;
}

// --- Build and environment ---------------------------------------------------

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

// The Kernel constructor arms the fault plane from SYNTHESIS_FAULTS, which
// the repository's fault-injection test tier and some benches set. The
// benchmark measures the fault-free system, so the variable goes before any
// kernel is built, and every kernel is checked to have come up disarmed.
void ClearFaultEnvironment() {
  unsetenv("SYNTHESIS_FAULTS");
  if (std::getenv("SYNTHESIS_FAULTS") != nullptr) {
    std::fprintf(stderr, "perfbench: could not clear SYNTHESIS_FAULTS\n");
    std::exit(2);
  }
}

bool FaultPlaneDisarmed(synthesis::Kernel& k) {
  for (uint32_t s = 0; s < static_cast<uint32_t>(synthesis::FaultSite::kNumSites); s++) {
    if (k.faults().Armed(static_cast<synthesis::FaultSite>(s))) {
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Statistics ----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Tail {
  double pct = 50;
  double value = 0;
  size_t beyond = 0;
};

// The highest standard percentile that still has at least ten samples
// beyond it.
Tail TailOf(const std::vector<double>& sorted) {
  Tail t;
  for (double pct : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t n = sorted.size();
    const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) {
      t.pct = pct;
      t.value = Percentile(sorted, pct);
      t.beyond = n - rank;
      return t;
    }
  }
  t.value = sorted.empty() ? 0 : sorted.back();
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- One repetition ------------------------------------------------------------

struct Rep {
  bool traced = false;
  double setup_cpu_s = 0;
  double measure_cpu_s = 0;
  uint64_t block_ops = 0;
  std::vector<double> block_cpu_s;  // host CPU of each block of block_ops measured ops
  bool disarmed = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t warmup_failed = 0;
  std::string error;
  uint64_t ok_ops = 0;         // measured ops that succeeded
  std::vector<double> lat_us;  // their latencies, completion order
  Counters begin;
  Counters end;
};

Rep RunRep(const WorkloadSpec& spec, const Options& o, bool traced, Tracer& tracer) {
  Rep r;
  r.traced = traced;
  const double t0 = CpuNow();
  std::unique_ptr<Workload> w = MakeWorkload(spec, o.seed, o.ops, tracer);
  w->Setup();
  const double t1 = CpuNow();
  OpRecorder& rec = w->recorder();
  if (traced) {
    tracer.Start();
  }
  w->Measure();
  tracer.Stop();
  const double t2 = CpuNow();
  r.setup_cpu_s = t1 - t0;
  r.measure_cpu_s = t2 - t1;
  r.block_ops = rec.block_ops();
  r.block_cpu_s = rec.block_cpu_s();
  r.disarmed = FaultPlaneDisarmed(w->kernel());
  r.attempted = rec.attempted();
  r.failed = rec.failed();
  r.warmup_failed = rec.warmup_failed();
  r.error = rec.first_error();
  if (!rec.done() && r.failed == 0 && r.warmup_failed == 0) {
    r.failed = 1;
    r.error = "measured window never completed";
  }
  r.lat_us = rec.latencies_us();
  r.ok_ops = r.lat_us.size();
  r.begin = rec.begin();
  r.end = rec.end();
  return r;
}

// Everything virtual a repetition produced; identical across repetitions of
// one seed, traced or not.
bool SameVirtualRun(const Rep& a, const Rep& b) {
  return a.lat_us == b.lat_us && std::memcmp(&a.begin, &b.begin, sizeof(Counters)) == 0 &&
         std::memcmp(&a.end, &b.end, sizeof(Counters)) == 0;
}

// Appends `r` to `into` after checking it against `first` (null for the
// first repetition). Only the first repetition keeps its latency samples, so
// peak memory does not grow with the number of repetitions.
void Keep(Rep r, std::vector<Rep>& into, const Rep* first, std::vector<std::string>& errors) {
  if (first != nullptr) {
    if (r.failed + r.warmup_failed + first->failed + first->warmup_failed == 0 &&
        !SameVirtualRun(r, *first)) {
      errors.push_back(std::string("a ") + (r.traced ? "traced" : "untraced") +
                       " repetition diverged from the first in virtual time");
    }
    std::vector<double>().swap(r.lat_us);
  }
  into.push_back(std::move(r));
}

// --- Metrics ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Host CPU seconds of one set-up with nothing measured after it.
double SetupOnly(const WorkloadSpec& spec, const Options& o, Tracer& tracer) {
  const double t0 = CpuNow();
  std::unique_ptr<Workload> w = MakeWorkload(spec, o.seed, o.ops, tracer);
  w->Setup();
  return CpuNow() - t0;
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps, const std::vector<double>& setup,
                             double rss_mb, const WorkloadSpec& spec) {
  // Block i runs the same ops in every repetition. Interference from other
  // tenants only ever adds CPU time, so a block's cost is the least time it
  // took in any repetition, and the rate is the ops of all blocks over the
  // sum of those least times.
  std::vector<double> least_cpu_s = reps.front().block_cpu_s;
  for (const Rep& r : reps) {
    for (size_t i = 0; i < least_cpu_s.size() && i < r.block_cpu_s.size(); i++) {
      least_cpu_s[i] = std::min(least_cpu_s[i], r.block_cpu_s[i]);
    }
  }
  double least_sum_s = 0;
  for (double t : least_cpu_s) {
    least_sum_s += t;
  }
  const double window_ops = static_cast<double>(reps.front().block_ops * least_cpu_s.size());
  const Rep& v = reps.front();
  const double ops = static_cast<double>(v.lat_us.size());
  std::vector<double> sorted = v.lat_us;
  std::sort(sorted.begin(), sorted.end());
  const Tail tail = TailOf(sorted);
  std::printf("  %s: tail = p%g over %zu samples (%zu beyond it)\n", spec.name, tail.pct,
              sorted.size(), tail.beyond);
  const double virt_s = (v.end.virt_us - v.begin.virt_us) / 1e6;
  return {
      {"setup_s", Median(setup), "s"},
      {"host_ops_per_cpu_s", Ratio(window_ops, least_sum_s), "op/s"},
      {"host_rss_mb", rss_mb, "MB"},
      {"virt_ops_per_s", Ratio(ops, virt_s), "op/s"},
      {"virt_op_us_p50", Percentile(sorted, 50), "us"},
      {"virt_op_us_tail", tail.value, "us"},
      {"virt_instr_per_op", Ratio(static_cast<double>(v.end.instr - v.begin.instr), ops), "instr"},
      {"virt_code_kb", static_cast<double>(v.end.code_bytes) / 1024.0, "KB"},
  };
}

// Per-call span statistics of one traced repetition.
class SpanStats {
 public:
  explicit SpanStats(const std::vector<Tracer::Span>& spans) : spans_(spans) {}

  // Median host microseconds / virtual microseconds per call of `name`.
  double HostUs(const char* name) const { return Median(Collect(name, true)); }
  double VirtUs(const char* name) const { return Median(Collect(name, false)); }

  // Median over ops of the summed cost of every `a` and `b` call of one op
  // (a Listen+Connect pair, a Close pair).
  double PairPerOp(const char* a, const char* b, bool host) const {
    std::map<uint64_t, double> per_op;
    for (const Tracer::Span& s : spans_) {
      if (std::strcmp(s.name, a) == 0 || std::strcmp(s.name, b) == 0) {
        per_op[s.op] += host ? s.cpu1 - s.cpu0 : s.virt1_us - s.virt0_us;
      }
    }
    std::vector<double> v;
    for (const auto& [op, cost] : per_op) {
      v.push_back(cost);
    }
    return Median(v);
  }

  // Totals over top-level spans of `name`.
  double TopCpu(const char* name) const {
    double t = 0;
    for (const Tracer::Span& s : spans_) {
      if (s.parent < 0 && std::strcmp(s.name, name) == 0) {
        t += s.cpu1 - s.cpu0;
      }
    }
    return t;
  }
  uint64_t TopInstr(const char* name) const {
    uint64_t t = 0;
    for (const Tracer::Span& s : spans_) {
      if (s.parent < 0 && std::strcmp(s.name, name) == 0) {
        t += s.instr;
      }
    }
    return t;
  }
  size_t Count(const char* name) const {
    size_t n = 0;
    for (const Tracer::Span& s : spans_) {
      n += std::strcmp(s.name, name) == 0 ? 1 : 0;
    }
    return n;
  }

 private:
  std::vector<double> Collect(const char* name, bool host) const {
    std::vector<double> v;
    for (const Tracer::Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        v.push_back(host ? (s.cpu1 - s.cpu0) * 1e6 : s.virt1_us - s.virt0_us);
      }
    }
    return v;
  }

  const std::vector<Tracer::Span>& spans_;
};

std::vector<Metric> PerLayer(const Rep& t, const std::vector<Tracer::Span>& spans,
                             double overhead_pct) {
  const SpanStats sp(spans);
  const Counters& a = t.begin;
  const Counters& b = t.end;
  const double ops = static_cast<double>(t.ok_ops);
  // Without RX coalescing every frame is its own RX interrupt.
  const double rx_batches = b.rx_batches > a.rx_batches
                                ? static_cast<double>(b.rx_batches - a.rx_batches)
                                : static_cast<double>(b.rx_frames - a.rx_frames);
  auto per_op = [&](uint64_t Counters::*f) {
    return Ratio(static_cast<double>(b.*f - a.*f), ops);
  };
  auto delta = [&](uint64_t Counters::*f) { return static_cast<double>(b.*f - a.*f); };
  const double run_cpu = sp.TopCpu("kernel.run");
  const size_t adapt_calls = sp.Count("kernel.adapt");
  return {
      {"machine.host_ns_per_instr",
       Ratio(run_cpu * 1e9, static_cast<double>(sp.TopInstr("kernel.run"))), "ns/instr"},
      {"machine.mem_refs_per_op", per_op(&Counters::mem_refs), "refs/op"},
      {"machine.cycles_per_instr", Ratio(delta(&Counters::cycles), delta(&Counters::instr)),
       "cycles/instr"},
      {"machine.code_high_water_kb", static_cast<double>(b.code_high_water) / 1024.0, "KB"},
      {"kernel.run.host_share", Ratio(run_cpu, t.measure_cpu_s), "ratio"},
      {"kernel.ctx_switches_per_op", per_op(&Counters::ctx_switches), "count/op"},
      {"kernel.interrupts_per_op", per_op(&Counters::interrupts), "count/op"},
      {"kernel.adapt.host_ms_per_call",
       Ratio(sp.TopCpu("kernel.adapt") * 1e3, static_cast<double>(adapt_calls)), "ms"},
      {"kernel.alloc_kb_in_use", static_cast<double>(b.alloc_bytes) / 1024.0, "KB"},
      {"kernel.installs_refused", delta(&Counters::installs_refused), "count"},
      {"synth.promotions", delta(&Counters::promotions), "count"},
      {"synth.demotions", delta(&Counters::demotions), "count"},
      {"synth.evictions", delta(&Counters::evictions), "count"},
      {"synth.refusals", delta(&Counters::refusals), "count"},
      {"synth.live_handles", static_cast<double>(b.live_handles), "count"},
      {"net.open.host_ms", sp.PairPerOp("net.listen", "net.connect", true) * 1e3, "ms"},
      {"net.open.virt_us", sp.PairPerOp("net.listen", "net.connect", false), "us"},
      {"net.close.host_ms", sp.PairPerOp("net.close", "net.close", true) * 1e3, "ms"},
      {"net.close.virt_us", sp.PairPerOp("net.close", "net.close", false), "us"},
      {"net.send.host_us", sp.HostUs("net.send"), "us"},
      {"net.recv.host_us", sp.HostUs("net.recv"), "us"},
      {"net.send.virt_us", sp.VirtUs("net.send"), "us"},
      {"net.recv.virt_us", sp.VirtUs("net.recv"), "us"},
      {"net.rx_frames_per_op", per_op(&Counters::rx_frames), "frames/op"},
      {"net.tx_frames_per_op", per_op(&Counters::tx_frames), "frames/op"},
      {"net.rx_frames_per_batch",
       Ratio(delta(&Counters::rx_frames), rx_batches), "frames/batch"},
      {"net.stream.retransmits_per_op", per_op(&Counters::retransmits), "count/op"},
      {"net.stream.timeouts_per_op", per_op(&Counters::timeouts), "count/op"},
      {"net.stream.useful_seg_ratio",
       Ratio(delta(&Counters::accepted_segs),
             delta(&Counters::accepted_segs) + delta(&Counters::ooo_segs)),
       "ratio"},
      {"net.drops", delta(&Counters::drops), "count"},
      {"net.demux.flows", static_cast<double>(b.demux_flows), "count"},
      {"unix.open.virt_us", sp.VirtUs("unix.open"), "us"},
      {"unix.read.virt_us", sp.VirtUs("unix.read"), "us"},
      {"unix.write.virt_us", sp.VirtUs("unix.write"), "us"},
      {"unix.fsync.virt_us", sp.VirtUs("unix.fsync"), "us"},
      {"unix.read.host_us", sp.HostUs("unix.read"), "us"},
      {"unix.write.host_us", sp.HostUs("unix.write"), "us"},
      {"unix.fsync.host_us", sp.HostUs("unix.fsync"), "us"},
      {"fs.bcache.miss_ratio",
       Ratio(delta(&Counters::bcache_misses), delta(&Counters::blocks_requested)), "ratio"},
      {"fs.bcache.read_ahead_wait_ratio",
       Ratio(delta(&Counters::read_ahead_waits), delta(&Counters::read_ahead_issued)), "ratio"},
      {"fs.bcache.flushes_per_op", per_op(&Counters::bcache_flushes), "count/op"},
      {"fs.bcache.evictions_per_op", per_op(&Counters::bcache_evictions), "count/op"},
      {"fs.journal.commits_per_op", per_op(&Counters::journal_commits), "count/op"},
      {"fs.disk.requests_per_op", per_op(&Counters::disk_requests), "count/op"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

int Main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(o.workload);
  if (spec == nullptr) {
    Usage(("unknown workload " + o.workload).c_str());
  }
  ClearFaultEnvironment();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", spec->name,
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("perfbench: build=%s flags='%s' host clock=CLOCK_PROCESS_CPUTIME_ID "
              "virtual clock=Machine cycles\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  if (SanitizedBuild() || !OptimizedBuild()) {
    std::printf("perfbench: WARNING: %s build; host metrics are not comparable\n",
                SanitizedBuild() ? "sanitizer" : "unoptimized");
  }

  // Repetitions: untraced only, or untraced/traced pairs in trace mode.
  Tracer tracer;
  std::vector<Rep> plain, traced;
  std::vector<std::string> errors;
  double measured_s = 0;
  // Peak RSS through the end of the first repetition. Later repetitions
  // replay the same work; a peak read after them would mostly measure how
  // the allocator reuses the memory earlier ones freed.
  double rss_mb = 0;
  const int step = o.trace ? 2 : 1;
  for (int i = 0; i < kMaxReps; i += step) {
    if (i > 0 && measured_s >= o.seconds) {
      break;
    }
    Keep(RunRep(*spec, o, false, tracer), plain, plain.empty() ? nullptr : &plain.front(),
         errors);
    if (plain.size() == 1) {
      rss_mb = PeakRssMb();
    }
    measured_s += plain.back().measure_cpu_s;
    if (o.trace) {
      Keep(RunRep(*spec, o, true, tracer), traced, &plain.front(), errors);
      measured_s += traced.back().measure_cpu_s;
    }
    const Rep& last = o.trace ? traced.back() : plain.back();
    if (plain.back().failed + plain.back().warmup_failed + last.failed + last.warmup_failed != 0) {
      break;  // a failing run is reported, not repeated
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const std::vector<Rep>* set : {&plain, &traced}) {
    for (const Rep& r : *set) {
      attempted += r.attempted;
      failed += r.failed + r.warmup_failed;
      if (!r.error.empty() && (r.failed != 0 || r.warmup_failed != 0)) {
        errors.push_back(r.error);
      }
      if (!r.disarmed) {
        errors.push_back("a kernel came up with its fault plane armed");
      }
    }
  }
  const bool correct = errors.empty() && failed == 0;
  std::printf("perfbench: %zu repetitions, %llu ops attempted, %llu failed\n",
              plain.size() + traced.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& e : errors) {
    std::printf("perfbench: FAILED: %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    std::vector<double> setup;
    double setup_cpu_s = 0;
    for (const Rep& r : plain) {
      setup.push_back(r.setup_cpu_s);
      setup_cpu_s += r.setup_cpu_s;
    }
    while (correct && (setup.size() < kMinSetups || setup_cpu_s < kSetupCpuS)) {
      setup.push_back(SetupOnly(*spec, o, tracer));
      setup_cpu_s += setup.back();
    }
    metrics = EndToEnd(plain, setup, rss_mb, *spec);
  } else {
    std::vector<double> plain_cost, traced_cost;
    for (const Rep& r : plain) {
      plain_cost.push_back(r.measure_cpu_s);
    }
    for (const Rep& r : traced) {
      traced_cost.push_back(r.measure_cpu_s);
    }
    const double overhead = (Ratio(Median(traced_cost), Median(plain_cost)) - 1.0) * 100.0;
    // The tracer still holds the last traced repetition's spans.
    metrics = PerLayer(traced.back(), tracer.spans(), overhead);
  }
  if (o.trace && !o.spans_path.empty()) {
    if (!tracer.WriteCsv(o.spans_path)) {
      std::printf("perfbench: could not write spans to %s\n", o.spans_path.c_str());
    } else {
      std::printf("perfbench: %zu spans written to %s\n", tracer.spans().size(),
                  o.spans_path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
