// The benchmark's three workloads, each a closed loop driven from one host
// thread. All simulated concurrency lives inside the simulator.
//
//   stream_rpc   back-to-back RPCs over 16 established StreamLayer pairs on a
//                4-NIC pool, with the §6.3 adaptation sweep on a fixed
//                virtual cadence. Op = one RPC.
//   conn_churn   Listen + Connect a fresh pair next to a few hundred idle
//                background pairs, one small RPC, Close both, drain.
//                Op = one cycle.
//   file_mix     UnixEmulator read/write/fsync (and an occasional close +
//                open) over the journaled write-behind buffer cache.
//                Op = one call (a positioned read or write counts its Lseek
//                as part of the op).
//
// Every input is drawn from the seed, per op, so the same seed replays the
// same virtual run byte for byte.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/kernel/kernel.h"

namespace perfbench {

// Raw counters read through the layers' public accessors at one edge of the
// measured window. Fields a workload's stack lacks stay 0.
struct Counters {
  // machine
  double virt_us = 0;
  uint64_t instr = 0;
  uint64_t mem_refs = 0;
  uint64_t cycles = 0;
  uint64_t code_bytes = 0;
  uint64_t code_high_water = 0;
  // kernel
  uint64_t ctx_switches = 0;
  uint64_t interrupts = 0;
  uint64_t installs_refused = 0;
  uint64_t alloc_bytes = 0;
  // synth
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t evictions = 0;
  uint64_t refusals = 0;
  uint64_t live_handles = 0;
  // net
  uint64_t rx_frames = 0;
  uint64_t tx_frames = 0;
  uint64_t rx_batches = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t accepted_segs = 0;
  uint64_t ooo_segs = 0;
  uint64_t drops = 0;
  uint64_t demux_flows = 0;
  // fs
  uint64_t blocks_requested = 0;
  uint64_t bcache_misses = 0;
  uint64_t read_ahead_issued = 0;
  uint64_t read_ahead_waits = 0;  // demand reads that waited on an in-flight read-ahead
  uint64_t bcache_flushes = 0;
  uint64_t bcache_evictions = 0;
  uint64_t journal_commits = 0;
  uint64_t disk_requests = 0;
};

// Counts op completions. The first `warmup` completions belong to set-up;
// the next `measured` form the measured window. The window's edges are the
// completions of op warmup-1 and op warmup+measured-1, where the workload's
// counters are snapshotted, so every virtual number covers exactly the
// measured ops no matter how the host slices its driving loop.
class OpRecorder {
 public:
  OpRecorder(uint64_t warmup, uint64_t measured)
      : warmup_(warmup),
        measured_(measured),
        block_ops_(std::max<uint64_t>(1, measured / kBlocksPerWindow)) {}

  void set_snapshot(std::function<Counters()> snap) { snap_ = std::move(snap); }

  // One op finished; `ok` false marks a failed op (error return, refused
  // connection or failed output check), with `why` kept for the report.
  void Complete(double latency_us, bool ok, const char* why = nullptr);
  // Ops that can never complete (the simulation went idle under them).
  void Stalled(uint64_t in_flight, const char* why);

  bool warmed() const { return completed_ >= warmup_; }
  bool done() const { return completed_ >= warmup_ + measured_; }
  uint64_t completed() const { return completed_; }

  // Measured window only.
  const std::vector<double>& latencies_us() const { return lat_us_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Failures before the window (warm-up); any makes the run incorrect.
  uint64_t warmup_failed() const { return warmup_failed_; }
  const std::string& first_error() const { return first_error_; }
  const Counters& begin() const { return begin_; }
  const Counters& end() const { return end_; }
  uint64_t block_ops() const { return block_ops_; }
  // Host CPU seconds of each complete block, in order.
  const std::vector<double>& block_cpu_s() const { return block_cpu_s_; }

 private:
  // The measured window is cut into blocks of consecutive ops, and the host
  // CPU each block took is recorded. Block i runs the same ops in every
  // repetition, so its times can be compared across repetitions.
  static constexpr uint64_t kBlocksPerWindow = 64;

  void NoteError(const char* why);

  uint64_t warmup_;
  uint64_t measured_;
  uint64_t block_ops_;
  double block_start_cpu_s_ = 0;
  std::vector<double> block_cpu_s_;
  std::function<Counters()> snap_;
  uint64_t completed_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t warmup_failed_ = 0;
  std::vector<double> lat_us_;
  std::string first_error_;
  Counters begin_;
  Counters end_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Boots the stack (kernel, devices, connections, files) and runs the
  // warm-up ops: everything before the first measured op.
  virtual void Setup() = 0;
  // Runs ops until the measured window is complete or the run stalls.
  virtual void Measure() = 0;
  virtual synthesis::Kernel& kernel() = 0;
  OpRecorder& recorder() { return rec_; }

 protected:
  Workload(uint64_t warmup, uint64_t measured) : rec_(warmup, measured) {}
  OpRecorder rec_;
};

struct WorkloadSpec {
  const char* name;
  uint64_t warmup_ops;
  uint64_t measured_ops;  // per repetition
  std::unique_ptr<Workload> (*make)(uint64_t seed, uint64_t warmup, uint64_t measured,
                                    Tracer& tracer);
};
const WorkloadSpec* FindWorkload(const std::string& name);

// `measured_ops` overrides the spec's count (0 keeps it).
std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec, uint64_t seed,
                                       uint64_t measured_ops, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
