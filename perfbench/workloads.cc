#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/io/crash_harness.h"
#include "src/io/io_system.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/unix/emulator.h"

namespace perfbench {

using synthesis::Addr;
using synthesis::ConnId;
using synthesis::Kernel;
using synthesis::kBadConn;
using synthesis::kIoWouldBlock;
using synthesis::StepStatus;
using synthesis::StreamLayer;

void OpRecorder::NoteError(const char* why) {
  if (first_error_.empty()) {
    first_error_ = why != nullptr ? why : "op failed";
  }
}

void OpRecorder::Complete(double latency_us, bool ok, const char* why) {
  const uint64_t idx = completed_++;
  if (!ok) {
    NoteError(why);
  }
  if (idx < warmup_) {
    warmup_failed_ += ok ? 0 : 1;
  } else if (idx < warmup_ + measured_) {
    attempted_++;
    if (ok) {
      lat_us_.push_back(latency_us);
    } else {
      failed_++;
    }
  }
  if (idx + 1 == warmup_ && snap_) {
    begin_ = snap_();
  }
  if (idx + 1 == warmup_) {
    block_start_cpu_s_ = CpuNow();
  } else if (idx >= warmup_ && idx < warmup_ + measured_ &&
             (idx + 1 - warmup_) % block_ops_ == 0) {
    const double now = CpuNow();
    block_cpu_s_.push_back(now - block_start_cpu_s_);
    block_start_cpu_s_ = now;
  }
  if (idx + 1 == warmup_ + measured_ && snap_) {
    end_ = snap_();
  }
}

void OpRecorder::Stalled(uint64_t in_flight, const char* why) {
  NoteError(why);
  if (!warmed()) {
    warmup_failed_ += in_flight;
  } else {
    attempted_ += in_flight;
    failed_ += in_flight;
  }
}

namespace {

// --- Seeded inputs -----------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// A small counter-based generator. Each op draws from its own key (seed,
// stream, index), so what an op does never depends on how ops interleave.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream, uint64_t index)
      : state_(Mix(Mix(seed) ^ Mix(stream * 0x100000001B3ull) ^ index)) {}
  uint64_t Next() { return Mix(state_++); }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

// The byte at offset `i` of the payload tagged `tag`: every RPC request and
// response, and every file write, carries a pattern the reader can check.
uint8_t PatternByte(uint32_t tag, uint32_t i) {
  uint32_t x = tag * 2654435761u ^ (i + 1) * 0x9E3779B1u;
  x ^= x >> 15;
  x *= 0x2C1B3C6Du;
  return static_cast<uint8_t>(x >> 24);
}

void FillPattern(std::vector<uint8_t>& out, uint32_t from, uint32_t tag) {
  for (uint32_t i = from; i < out.size(); i++) {
    out[i] = PatternByte(tag, i);
  }
}

void Put32(std::vector<uint8_t>& b, uint32_t off, uint32_t v) {
  std::memcpy(b.data() + off, &v, 4);
}

uint32_t Get32(const std::vector<uint8_t>& b, uint32_t off) {
  uint32_t v = 0;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}

void KernelCounters(Kernel& k, Counters& c) {
  const synthesis::Machine& m = k.machine();
  c.virt_us = m.NowMicros();
  c.instr = m.instructions();
  c.mem_refs = m.mem_refs();
  c.cycles = m.cycles();
  c.code_bytes = k.code().code_bytes();
  c.code_high_water = k.code().high_water_bytes();
  c.ctx_switches = k.context_switches();
  c.interrupts = k.interrupts_dispatched();
  c.installs_refused = k.installs_refused();
  c.alloc_bytes = k.allocator().bytes_in_use();
  c.promotions = k.spec().promotions();
  c.demotions = k.spec().demotions();
  c.evictions = k.spec().evictions();
  c.refusals = k.spec().refusals();
  c.live_handles = k.spec().live_handles();
}

// --- RPC over a stream pair --------------------------------------------------

// Request wire format: [rpc id][request length][response length][pattern].
constexpr uint32_t kRpcHdr = 12;
constexpr uint32_t kMaxReq = 64;
constexpr uint32_t kMaxResp = 2048;

struct RpcShape {
  uint32_t req = 0;
  uint32_t resp = 0;
};

// Sizes are drawn per request, never per connection: a per-connection draw
// lets one unlucky pair dominate a seed's latency distribution.
RpcShape DrawRpc(uint64_t seed, uint32_t pair, uint64_t n, uint32_t multi_seg_pct) {
  Rng r(seed, 0x5250u + pair, n);
  RpcShape s;
  s.req = 16 + r.Below(kMaxReq - 16 + 1);
  if (r.Below(100) < multi_seg_pct) {
    s.resp = 1024 + r.Below(kMaxResp - 1024 + 1);  // several segments
  } else {
    s.resp = 16 + r.Below(256 - 16 + 1);  // one segment
  }
  return s;
}

// One client/server connection pair and the two threads that use it. A
// thread whose budget is 0 parks on its wait queue until the host grants
// more (conn_churn hands out one RPC per cycle; stream_rpc never runs out).
struct RpcSlot {
  static constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();

  uint64_t seed = 0;
  uint32_t pair = 0;
  uint32_t pairs = 1;  // rpc id = n * pairs + pair
  uint32_t multi_seg_pct = 0;
  ConnId cli = kBadConn;
  ConnId srv = kBadConn;
  uint64_t cli_budget = kUnlimited;
  uint64_t srv_budget = kUnlimited;
  synthesis::WaitQueue cli_wq;
  synthesis::WaitQueue srv_wq;
  uint64_t failures = 0;
  const char* error = nullptr;

  void Fail(const char* why) {
    failures++;
    if (error == nullptr) {
      error = why;
    }
  }
};

void Spend(uint64_t& budget) {
  if (budget != RpcSlot::kUnlimited) {
    budget--;
  }
}

class RpcClient : public synthesis::UserProgram {
 public:
  // `rec` (may be null) gets one completion per RPC.
  RpcClient(StreamLayer& st, RpcSlot& slot, Tracer& tracer, OpRecorder* rec, Addr req_buf,
            Addr resp_buf)
      : st_(st), slot_(slot), tracer_(tracer), rec_(rec), req_buf_(req_buf),
        resp_buf_(resp_buf) {}

  StepStatus Step(synthesis::ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (phase_ == Phase::kIssue) {
      if (slot_.cli_budget == 0) {
        k.BlockCurrentOn(slot_.cli_wq);
        return StepStatus::kBlocked;
      }
      shape_ = DrawRpc(slot_.seed, slot_.pair, n_, slot_.multi_seg_pct);
      id_ = static_cast<uint32_t>(n_ * slot_.pairs + slot_.pair);
      std::vector<uint8_t> req(shape_.req);
      Put32(req, 0, id_);
      Put32(req, 4, shape_.req);
      Put32(req, 8, shape_.resp);
      FillPattern(req, kRpcHdr, 2 * id_);
      k.machine().memory().WriteBytes(req_buf_, req.data(), req.size());
      t0_us_ = k.NowUs();
      done_ = 0;
      phase_ = Phase::kSend;
    }
    if (phase_ == Phase::kSend) {
      const int32_t n = tracer_.Call("net.send", id_, [&] {
        return st_.Send(slot_.cli, req_buf_ + done_, shape_.req - done_);
      });
      if (n == kIoWouldBlock) {
        return StepStatus::kBlocked;
      }
      if (n <= 0) {
        return Finish(k, false, "client send failed");
      }
      done_ += static_cast<uint32_t>(n);
      if (done_ == shape_.req) {
        done_ = 0;
        phase_ = Phase::kRecv;
      }
      return StepStatus::kYield;
    }
    const int32_t n = tracer_.Call("net.recv", id_, [&] {
      return st_.Recv(slot_.cli, resp_buf_ + done_, shape_.resp - done_);
    });
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n <= 0) {
      return Finish(k, false, "client recv failed");
    }
    done_ += static_cast<uint32_t>(n);
    if (done_ < shape_.resp) {
      return StepStatus::kYield;
    }
    std::vector<uint8_t> got(shape_.resp), want(shape_.resp);
    k.machine().memory().ReadBytes(resp_buf_, got.data(), got.size());
    FillPattern(want, 0, 2 * id_ + 1);
    return Finish(k, got == want, "response bytes differ from the request's pattern");
  }

 private:
  enum class Phase { kIssue, kSend, kRecv };

  StepStatus Finish(Kernel& k, bool ok, const char* why) {
    if (!ok) {
      slot_.Fail(why);
    }
    if (rec_ != nullptr) {
      rec_->Complete(k.NowUs() - t0_us_, ok, why);
    }
    Spend(slot_.cli_budget);
    n_++;
    phase_ = Phase::kIssue;
    // A failed connection cannot carry the next RPC.
    return ok ? StepStatus::kYield : StepStatus::kDone;
  }

  StreamLayer& st_;
  RpcSlot& slot_;
  Tracer& tracer_;
  OpRecorder* rec_;
  Addr req_buf_;
  Addr resp_buf_;
  Phase phase_ = Phase::kIssue;
  uint64_t n_ = 0;
  uint32_t id_ = 0;
  RpcShape shape_;
  uint32_t done_ = 0;
  double t0_us_ = 0;
};

class RpcServer : public synthesis::UserProgram {
 public:
  // A server failure leaves its client's RPC hanging: `rec` (may be null)
  // counts it as an op that never completes.
  RpcServer(StreamLayer& st, RpcSlot& slot, Tracer& tracer, OpRecorder* rec, Addr req_buf,
            Addr resp_buf)
      : st_(st), slot_(slot), tracer_(tracer), rec_(rec), req_buf_(req_buf),
        resp_buf_(resp_buf) {}

  StepStatus Step(synthesis::ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (phase_ == Phase::kRecv) {
      if (slot_.srv_budget == 0) {
        k.BlockCurrentOn(slot_.srv_wq);
        return StepStatus::kBlocked;
      }
      // Requests arrive in order, so the server knows which id comes next.
      const uint32_t id = static_cast<uint32_t>(n_ * slot_.pairs + slot_.pair);
      const uint32_t want = got_ < kRpcHdr ? kRpcHdr : req_len_;
      const int32_t n = tracer_.Call("net.recv", id, [&] {
        return st_.Recv(slot_.srv, req_buf_ + got_, want - got_);
      });
      if (n == kIoWouldBlock) {
        return StepStatus::kBlocked;
      }
      if (n <= 0) {
        return Fail("server recv failed");
      }
      got_ += static_cast<uint32_t>(n);
      if (got_ == kRpcHdr) {
        std::vector<uint8_t> hdr(kRpcHdr);
        k.machine().memory().ReadBytes(req_buf_, hdr.data(), kRpcHdr);
        req_len_ = Get32(hdr, 4);
        resp_len_ = Get32(hdr, 8);
        if (Get32(hdr, 0) != id || req_len_ < 16 || req_len_ > kMaxReq || resp_len_ == 0 ||
            resp_len_ > kMaxResp) {
          return Fail("malformed or out-of-order request header");
        }
      }
      if (got_ < kRpcHdr || got_ < req_len_) {
        return StepStatus::kYield;
      }
      std::vector<uint8_t> req(req_len_), expect(req_len_);
      k.machine().memory().ReadBytes(req_buf_, req.data(), req.size());
      FillPattern(expect, kRpcHdr, 2 * id);
      if (!std::equal(req.begin() + kRpcHdr, req.end(), expect.begin() + kRpcHdr)) {
        return Fail("request bytes differ from their pattern");
      }
      std::vector<uint8_t> resp(resp_len_);
      FillPattern(resp, 0, 2 * id + 1);
      k.machine().memory().WriteBytes(resp_buf_, resp.data(), resp.size());
      id_ = id;
      sent_ = 0;
      phase_ = Phase::kReply;
    }
    const int32_t n = tracer_.Call("net.send", id_, [&] {
      return st_.Send(slot_.srv, resp_buf_ + sent_, resp_len_ - sent_);
    });
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n <= 0) {
      return Fail("server send failed");
    }
    sent_ += static_cast<uint32_t>(n);
    if (sent_ == resp_len_) {
      Spend(slot_.srv_budget);
      n_++;
      got_ = 0;
      phase_ = Phase::kRecv;
    }
    return StepStatus::kYield;
  }

 private:
  enum class Phase { kRecv, kReply };

  StepStatus Fail(const char* why) {
    slot_.Fail(why);
    if (rec_ != nullptr) {
      rec_->Stalled(1, why);
    }
    return StepStatus::kDone;
  }

  StreamLayer& st_;
  RpcSlot& slot_;
  Tracer& tracer_;
  OpRecorder* rec_;
  Addr req_buf_;
  Addr resp_buf_;
  Phase phase_ = Phase::kRecv;
  uint64_t n_ = 0;
  uint32_t id_ = 0;
  uint32_t got_ = 0;
  uint32_t req_len_ = 0;
  uint32_t resp_len_ = 0;
  uint32_t sent_ = 0;
};

// Kernel + I/O system + NIC pool + stream layer: the network workloads'
// stack, in boot order.
struct NetStack {
  NetStack(const Kernel::Config& kc, const synthesis::NicPoolConfig& pc)
      : kernel(kc), io(kernel, nullptr), pool(kernel, pc), st(kernel, io, pool) {}

  Kernel kernel;
  synthesis::IoSystem io;
  synthesis::NicPool pool;
  StreamLayer st;
};

// Layer counters common to both network workloads. Segment accounting comes
// from the caller (it knows which connections carry the workload).
Counters NetCounters(NetStack& s) {
  Counters c;
  KernelCounters(s.kernel, c);
  const synthesis::NicPool::AggregateStats agg = s.pool.Aggregate();
  c.rx_frames = s.pool.rx_gauge().events();
  c.tx_frames = agg.tx_completed;
  c.drops = agg.rx_overruns + agg.ring_drops + s.st.tx_full_drops_gauge().events();
  for (uint32_t i = 0; i < s.pool.size(); i++) {
    c.rx_batches += s.pool.nic(i).rx_batch_dispatches();
    c.demux_flows += s.pool.nic(i).demux().flow_count();
  }
  c.retransmits = s.st.retransmit_gauge().events();
  c.timeouts = s.st.timeout_gauge().events();
  return c;
}

void AddSegStats(const StreamLayer& st, ConnId conn, uint64_t& accepted, uint64_t& ooo) {
  const synthesis::StreamStats s = st.Stats(conn);
  accepted += s.accepted_segments;
  ooo += s.out_of_order;
}

// Allocates `n` bytes of simulated memory; set-up cannot continue without it.
Addr MustAllocate(Kernel& k, uint32_t n) {
  const Addr a = k.allocator().Allocate(n);
  if (a == 0) {
    std::fprintf(stderr, "perfbench: simulated allocation of %u bytes failed\n", n);
    std::exit(1);
  }
  return a;
}

// --- stream_rpc --------------------------------------------------------------

constexpr uint32_t kRpcPairs = 16;
constexpr uint32_t kRpcNics = 4;
constexpr uint16_t kRpcPortBase = 1000;
constexpr uint32_t kRpcMultiSegPct = 15;
// The §6.3 monitor loop: one adaptation sweep per this much virtual time,
// with the machine trace buffer feeding it.
constexpr double kAdaptEveryUs = 10'000.0;
// Scheduling slices per Kernel::Run call while the host drives the loop.
constexpr uint64_t kSlicesPerRun = 64;

class StreamRpc : public Workload {
 public:
  StreamRpc(uint64_t seed, uint64_t warmup, uint64_t measured, Tracer& tracer)
      : Workload(warmup, measured), seed_(seed), tracer_(tracer) {}

  Kernel& kernel() override { return net_->kernel; }

  void Setup() override {
    // Default NIC configuration: one interrupt per frame, no coalescing.
    synthesis::NicPoolConfig pc;
    pc.initial_nics = kRpcNics;
    net_ = std::make_unique<NetStack>(Kernel::Config(), pc);
    Kernel& k = net_->kernel;
    tracer_.Attach(&k.machine());
    StreamLayer& st = net_->st;
    for (uint32_t i = 0; i < kRpcPairs; i++) {
      auto& slot = slots_.emplace_back(std::make_unique<RpcSlot>());
      slot->seed = seed_;
      slot->pair = i;
      slot->pairs = kRpcPairs;
      slot->multi_seg_pct = kRpcMultiSegPct;
      slot->srv = st.Listen(static_cast<uint16_t>(kRpcPortBase + i));
      slot->cli = st.Connect(static_cast<uint16_t>(kRpcPortBase + i));
      if (slot->srv == kBadConn || slot->cli == kBadConn) {
        rec_.Stalled(1, "stream_rpc: connection set-up refused");
        return;
      }
    }
    k.Run();
    for (auto& slot : slots_) {
      if (st.StateOf(slot->srv) != synthesis::CcbLayout::kEstablished ||
          st.StateOf(slot->cli) != synthesis::CcbLayout::kEstablished) {
        rec_.Stalled(1, "stream_rpc: a pair never established");
        return;
      }
      Addr buf = MustAllocate(k, 2 * (kMaxReq + kMaxResp));
      k.CreateThread(std::make_unique<RpcClient>(st, *slot, tracer_, &rec_, buf,
                                                 buf + kMaxReq));
      k.CreateThread(std::make_unique<RpcServer>(st, *slot, tracer_, &rec_,
                                                 buf + kMaxReq + kMaxResp,
                                                 buf + 2 * kMaxReq + kMaxResp));
    }
    rec_.set_snapshot([this] { return Snapshot(); });
    k.machine().set_tracing(true);
    Drive([this] { return rec_.warmed(); });
  }

  void Measure() override {
    Drive([this] { return rec_.done(); });
  }

 private:
  template <typename Pred>
  void Drive(Pred until) {
    Kernel& k = net_->kernel;
    while (!until() && rec_.warmup_failed() == 0 && failures() == 0) {
      const uint64_t slices =
          tracer_.Call("kernel.run", 0, [&] { return k.Run(kSlicesPerRun); });
      if (k.NowUs() >= next_adapt_us_) {
        tracer_.Call("kernel.adapt", 0, [&] { return k.AdaptNow(); });
        next_adapt_us_ = (static_cast<uint64_t>(k.NowUs() / kAdaptEveryUs) + 1) * kAdaptEveryUs;
      }
      if (slices == 0) {
        rec_.Stalled(kRpcPairs, "stream_rpc: the kernel went idle with RPCs in flight");
        return;
      }
    }
  }

  uint64_t failures() const {
    uint64_t n = 0;
    for (const auto& slot : slots_) {
      n += slot->failures;
    }
    return n;
  }

  Counters Snapshot() {
    Counters c = NetCounters(*net_);
    for (const auto& slot : slots_) {
      AddSegStats(net_->st, slot->cli, c.accepted_segs, c.ooo_segs);
      AddSegStats(net_->st, slot->srv, c.accepted_segs, c.ooo_segs);
    }
    return c;
  }

  uint64_t seed_;
  Tracer& tracer_;
  // Declared before net_: the kernel's threads park on the slots' queues,
  // so the slots must outlive it.
  std::vector<std::unique_ptr<RpcSlot>> slots_;
  std::unique_ptr<NetStack> net_;
  double next_adapt_us_ = kAdaptEveryUs;
};

// --- conn_churn --------------------------------------------------------------

constexpr uint32_t kChurnBackground = 192;
constexpr uint32_t kChurnNics = 2;
constexpr uint16_t kChurnBgPortBase = 2000;
constexpr uint16_t kChurnPortBase = 6000;
constexpr uint32_t kChurnPorts = 16;
// Pairs established per drain while the background set comes up.
constexpr uint32_t kChurnWave = 64;
// Occupancy audit cadence, in cycles.
constexpr uint32_t kAuditEvery = 16;

class ConnChurn : public Workload {
 public:
  ConnChurn(uint64_t seed, uint64_t warmup, uint64_t measured, Tracer& tracer)
      : Workload(warmup, measured), seed_(seed), tracer_(tracer) {}

  Kernel& kernel() override { return net_->kernel; }

  void Setup() override {
    Kernel::Config kc;
    kc.memory_bytes = 16 * 1024 * 1024;
    synthesis::NicPoolConfig pc;
    pc.initial_nics = kChurnNics;
    net_ = std::make_unique<NetStack>(kc, pc);
    Kernel& k = net_->kernel;
    tracer_.Attach(&k.machine());
    StreamLayer& st = net_->st;
    cfg_.ring_bytes = 1024;  // keep hundreds of idle rings lean
    for (uint32_t i = 0; i < kChurnBackground; i++) {
      const uint16_t port = static_cast<uint16_t>(kChurnBgPortBase + i);
      const ConnId srv = st.Listen(port, cfg_);
      const ConnId cli = st.Connect(port, cfg_);
      if (srv == kBadConn || cli == kBadConn) {
        rec_.Stalled(1, "conn_churn: background set-up refused");
        return;
      }
      background_.push_back(srv);
      background_.push_back(cli);
      if ((i + 1) % kChurnWave == 0) {
        k.Run();
      }
    }
    k.Run();
    for (ConnId c : background_) {
      if (st.StateOf(c) != synthesis::CcbLayout::kEstablished) {
        rec_.Stalled(1, "conn_churn: a background pair never established");
        return;
      }
    }
    slot_.seed = seed_;
    slot_.cli_budget = 0;
    slot_.srv_budget = 0;
    Addr buf = MustAllocate(k, 2 * (kMaxReq + kMaxResp));
    k.CreateThread(std::make_unique<RpcClient>(st, slot_, tracer_, nullptr, buf,
                                               buf + kMaxReq));
    k.CreateThread(std::make_unique<RpcServer>(st, slot_, tracer_, nullptr,
                                               buf + kMaxReq + kMaxResp,
                                               buf + 2 * kMaxReq + kMaxResp));
    k.Run();  // both threads park on their slots
    rec_.set_snapshot([this] { return Snapshot(); });
    // The occupancy baseline is taken before the first cycle, so warm-up
    // cycles are audited too.
    k.DrainRetiredBlocks();
    baseline_ = Occupancy();
    while (!rec_.warmed() && rec_.warmup_failed() == 0) {
      Cycle();
    }
  }

  void Measure() override {
    while (!rec_.done() && rec_.failed() == 0 && rec_.warmup_failed() == 0) {
      Cycle();
    }
  }

 private:
  struct Occ {
    size_t blocks = 0;
    uint32_t bytes = 0;
    uint32_t allocs = 0;
    bool operator==(const Occ&) const = default;
  };

  Occ Occupancy() {
    Kernel& k = net_->kernel;
    return {k.code().live_block_count(), k.allocator().bytes_in_use(),
            k.allocator().allocation_count()};
  }

  // One op: open a fresh pair, one RPC, close both, drain.
  void Cycle() {
    Kernel& k = net_->kernel;
    StreamLayer& st = net_->st;
    const uint64_t op = cycle_++;
    const double t0 = k.NowUs();
    const uint16_t port = static_cast<uint16_t>(kChurnPortBase + op % kChurnPorts);
    slot_.srv = tracer_.Call("net.listen", op, [&] { return st.Listen(port, cfg_); });
    slot_.cli = tracer_.Call("net.connect", op, [&] { return st.Connect(port, cfg_); });
    if (slot_.srv == kBadConn || slot_.cli == kBadConn) {
      rec_.Complete(0, false, "conn_churn: Listen/Connect refused");
      return;
    }
    slot_.cli_budget = 1;
    slot_.srv_budget = 1;
    k.UnblockOne(slot_.cli_wq);
    k.UnblockOne(slot_.srv_wq);
    tracer_.Call("kernel.run", op, [&] { return k.Run(); });
    if (slot_.failures != 0 || slot_.cli_budget != 0 || slot_.srv_budget != 0) {
      rec_.Complete(0, false,
                    slot_.error != nullptr ? slot_.error : "conn_churn: RPC never completed");
      return;
    }
    const bool closed =
        tracer_.Call("net.close", op, [&] { return st.Close(slot_.cli); }) &&
        tracer_.Call("net.close", op, [&] { return st.Close(slot_.srv); });
    tracer_.Call("kernel.run", op, [&] { return k.Run(); });
    if (!closed || st.StateOf(slot_.cli) != synthesis::CcbLayout::kDone ||
        st.StateOf(slot_.srv) != synthesis::CcbLayout::kDone) {
      rec_.Complete(0, false, "conn_churn: pair did not close cleanly");
      return;
    }
    AddSegStats(st, slot_.cli, accepted_, ooo_);
    AddSegStats(st, slot_.srv, accepted_, ooo_);
    bool ok = true;
    if ((op + 1) % kAuditEvery == 0) {
      // As table12's churn phase: every cycle's blocks, CCBs and rings must
      // have come back.
      k.DrainRetiredBlocks();
      ok = Occupancy() == baseline_;
    }
    rec_.Complete(k.NowUs() - t0, ok,
                  "conn_churn: code-store or allocator occupancy drifted from baseline");
  }

  Counters Snapshot() {
    Counters c = NetCounters(*net_);
    c.accepted_segs = accepted_;
    c.ooo_segs = ooo_;
    return c;
  }

  uint64_t seed_;
  Tracer& tracer_;
  RpcSlot slot_;  // outlives net_: its threads park on the slot's queues
  std::unique_ptr<NetStack> net_;
  synthesis::StreamConfig cfg_;
  std::vector<ConnId> background_;
  Occ baseline_;
  uint64_t cycle_ = 0;
  uint64_t accepted_ = 0;
  uint64_t ooo_ = 0;
};

// --- file_mix ----------------------------------------------------------------

constexpr uint32_t kFiles = 4;
constexpr uint32_t kBlockBytes = 512;
constexpr uint32_t kFileBlocks = 32;
constexpr uint32_t kFileBytes = kFileBlocks * kBlockBytes;
// 64 entries against 4 x 32 blocks: the working set is twice the cache.
constexpr uint32_t kCacheEntries = 64;

class FileMix : public Workload {
 public:
  FileMix(uint64_t seed, uint64_t warmup, uint64_t measured, Tracer& tracer)
      : Workload(warmup, measured), seed_(seed), tracer_(tracer) {}

  Kernel& kernel() override { return stack_->kernel; }

  void Setup() override {
    synthesis::CrashStackConfig cfg;
    cfg.disk.sectors = 16384;
    cfg.bcache.entries = kCacheEntries;
    cfg.bcache.block_bytes = kBlockBytes;
    cfg.bcache.flush_period_us = 20'000;
    cfg.bcache.flush_batch = 8;
    cfg.bcache.read_ahead = 4;
    stack_ = std::make_unique<synthesis::CrashStack>(cfg);
    Kernel& k = stack_->kernel;
    tracer_.Attach(&k.machine());
    emu_ = std::make_unique<synthesis::UnixEmulator>(k, stack_->io, &stack_->fs);
    buf_ = MustAllocate(k, kBlockBytes);
    for (uint32_t f = 0; f < kFiles; f++) {
      std::vector<uint8_t>& shadow = shadow_.emplace_back(kFileBytes);
      FillPattern(shadow, 0, 0xF000u + f);
      if (stack_->fs.CreateFile(Path(f), shadow, kFileBytes) == 0) {
        rec_.Stalled(1, "file_mix: CreateFile failed");
        return;
      }
      fds_.push_back(emu_->Open(Path(f)));
      if (fds_.back() < 0) {
        rec_.Stalled(1, "file_mix: Open failed");
        return;
      }
      next_block_.push_back(0);
    }
    rec_.set_snapshot([this] { return Snapshot(); });
    while (!rec_.warmed() && rec_.warmup_failed() == 0) {
      Op();
    }
  }

  void Measure() override {
    while (!rec_.done() && rec_.failed() == 0 && rec_.warmup_failed() == 0) {
      Op();
    }
  }

 private:
  static std::string Path(uint32_t f) { return "/mix" + std::to_string(f); }

  // One call: ~57% positioned read, 30% positioned write, 10% fsync and 3%
  // close (the next op reopens that file, so per-fd path synthesis runs).
  // Half the accesses continue sequentially from the file's last block, so
  // read-ahead has something to do; lengths vary so hits differ in cost.
  void Op() {
    Kernel& k = stack_->kernel;
    synthesis::UnixEmulator& emu = *emu_;
    const uint64_t op = op_++;
    const double t0 = k.NowUs();
    if (closed_file_ >= 0) {
      const uint32_t f = static_cast<uint32_t>(closed_file_);
      closed_file_ = -1;
      fds_[f] = tracer_.Call("unix.open", op, [&] { return emu.Open(Path(f)); });
      rec_.Complete(k.NowUs() - t0, fds_[f] >= 0, "file_mix: reopen failed");
      return;
    }
    Rng r(seed_, 0xF11Eu, op);
    const uint32_t roll = r.Below(100);
    const uint32_t f = r.Below(kFiles);
    const int fd = fds_[f];
    if (roll >= 97) {
      closed_file_ = static_cast<int>(f);
      const int rc = tracer_.Call("unix.close", op, [&] { return emu.Close(fd); });
      rec_.Complete(k.NowUs() - t0, rc == 0, "file_mix: close failed");
      return;
    }
    if (roll >= 87) {
      const int rc = tracer_.Call("unix.fsync", op, [&] { return emu.Fsync(fd); });
      rec_.Complete(k.NowUs() - t0, rc == 0, "file_mix: fsync failed");
      return;
    }
    const uint32_t block = r.Below(2) == 0 ? next_block_[f] : r.Below(kFileBlocks);
    next_block_[f] = (block + 1) % kFileBlocks;
    const uint32_t off = block * kBlockBytes;
    const uint32_t len = 32 + r.Below(kBlockBytes - 32 + 1);
    blocks_requested_++;
    const int32_t pos = tracer_.Call("unix.lseek", op, [&] {
      return emu.Lseek(fd, static_cast<int32_t>(off));
    });
    if (pos != static_cast<int32_t>(off)) {
      rec_.Complete(0, false, "file_mix: lseek failed");
      return;
    }
    std::vector<uint8_t>& shadow = shadow_[f];
    if (roll < 57) {
      const int32_t n = tracer_.Call("unix.read", op, [&] { return emu.Read(fd, buf_, len); });
      std::vector<uint8_t> got(len);
      if (n == static_cast<int32_t>(len)) {
        k.machine().memory().ReadBytes(buf_, got.data(), len);
      }
      const bool ok = n == static_cast<int32_t>(len) &&
                      std::equal(got.begin(), got.end(), shadow.begin() + off);
      rec_.Complete(k.NowUs() - t0, ok, "file_mix: read differs from the last bytes written");
      return;
    }
    std::vector<uint8_t> data(len);
    for (uint8_t& b : data) {
      b = static_cast<uint8_t>(r.Next());
    }
    k.machine().memory().WriteBytes(buf_, data.data(), len);
    const int32_t n = tracer_.Call("unix.write", op, [&] { return emu.Write(fd, buf_, len); });
    if (n == static_cast<int32_t>(len)) {
      std::copy(data.begin(), data.end(), shadow.begin() + off);
    }
    rec_.Complete(k.NowUs() - t0, n == static_cast<int32_t>(len), "file_mix: short write");
  }

  Counters Snapshot() {
    Counters c;
    KernelCounters(stack_->kernel, c);
    const synthesis::Bcache& bc = stack_->bcache;
    c.blocks_requested = blocks_requested_;
    c.bcache_misses = bc.misses();
    c.read_ahead_issued = bc.read_ahead_issued();
    c.read_ahead_waits = bc.read_ahead_hits();
    c.bcache_flushes = bc.flushes();
    c.bcache_evictions = bc.evictions();
    c.journal_commits = stack_->journal.committed_batches();
    c.disk_requests = stack_->disk.requests_completed();
    return c;
  }

  uint64_t seed_;
  Tracer& tracer_;
  std::unique_ptr<synthesis::CrashStack> stack_;
  std::unique_ptr<synthesis::UnixEmulator> emu_;
  Addr buf_ = 0;
  std::vector<std::vector<uint8_t>> shadow_;
  std::vector<int> fds_;
  std::vector<uint32_t> next_block_;
  int closed_file_ = -1;
  uint64_t op_ = 0;
  uint64_t blocks_requested_ = 0;
};

template <typename W>
std::unique_ptr<Workload> Make(uint64_t seed, uint64_t warmup, uint64_t measured,
                               Tracer& tracer) {
  return std::make_unique<W>(seed, warmup, measured, tracer);
}

// Measured op counts are sized so one repetition takes a few host seconds
// and the p50 and tail are steady from seed to seed.
const WorkloadSpec kWorkloads[] = {
    {"stream_rpc", 2000, 16000, Make<StreamRpc>},
    {"conn_churn", 16, 512, Make<ConnChurn>},
    {"file_mix", 5000, 60000, Make<FileMix>},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : kWorkloads) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec, uint64_t seed,
                                       uint64_t measured_ops, Tracer& tracer) {
  return spec.make(seed, spec.warmup_ops, measured_ops != 0 ? measured_ops : spec.measured_ops,
                   tracer);
}

}  // namespace perfbench
