// Packet demultiplexing, generic and synthesized (§2.2, §2.3, §5).
//
// The demux decides, per received frame, which open flow (destination port)
// the packet belongs to, verifies the checksum, and deposits
// [len.lo len.hi src.lo src.hi payload...] into the flow's byte ring. Two
// implementations of the same contract coexist:
//
//  * The GENERIC demux is the traditional layered path: it walks a flow table
//    in memory, calls a shared checksum routine, and delivers through a
//    general single-byte ring put — one procedure call per byte, the general
//    Q_put of Figure 1. This is the measured baseline.
//
//  * The SYNTHESIZED demux is a per-NIC dispatch head, synthesized once, in
//    front of per-flow deliver routines. The flow table is an executable data
//    structure, like the ready queue and the TTE vectors — data that control
//    flow jumps through: the head hashes the destination port into an
//    open-addressed table of {port, deliver BlockId} cells and tail-jumps
//    (kJmpInd) to the matching deliver, or to a shared miss routine returning
//    -2. The table base and mask are folded into the head as immediates
//    (Factoring Invariants). Opening or re-pointing a flow writes one cell;
//    closing one also shifts back any colliding cells behind it. The head is
//    never re-emitted, so binding costs the same at 8 flows as at 1,000.
//    Each datagram flow's deliver is synthesized once, at bind: ring
//    constants folded into a bulk insert that publishes the producer index
//    once, the checksum inlined (Collapsing Layers), and, for flows
//    declaring a fixed datagram size, checksum and copy loops unrolled with
//    the length folded to an immediate. Custom flows (the stream layer)
//    bring their own deliver.
//
// Demux contract (both routines): a1 = frame base. Returns d0 = 1 delivered,
// 0 rejected (checksum / malformed length / ring full; counters in simulated
// memory record which), -2 no matching flow. d2 = matched destination port
// whenever d0 != -2.
#ifndef SRC_NET_DEMUX_H_
#define SRC_NET_DEMUX_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/frame.h"

namespace synthesis {

// Generic flow-table entry layout (the table the interpreted demux walks),
// relative to the entry base. Custom flows (the stream layer) carry their own
// handler block and a context pointer the generic handler dereferences.
struct FlowEntryLayout {
  static constexpr uint32_t kPort = 0;
  static constexpr uint32_t kRing = 4;
  static constexpr uint32_t kCtr = 8;
  static constexpr uint32_t kFixed = 12;
  static constexpr uint32_t kHandler = 16;  // BlockId of the generic deliver
  static constexpr uint32_t kCtx = 20;      // handler context (e.g. a CCB)
  static constexpr uint32_t kBytes = 24;
};

class DemuxSynthesizer {
 public:
  // Sized for the C10K scenario: a pool of 8 NICs hash-shards ~4k connection
  // flows to ~512 per demux, so each flow table carries comfortable headroom
  // (the generic table is 4 + kMaxFlows * FlowEntryLayout::kBytes ≈ 25 KB
  // and the head's cell table kHeadCells * kCellBytes = 16 KB of simulated
  // memory per NIC).
  static constexpr uint32_t kMaxFlows = 1024;
  // The head's open-addressed table: twice kMaxFlows cells keeps the load
  // factor at or under one half, so linear probes stay short.
  static constexpr uint32_t kHeadCells = 2 * kMaxFlows;
  // Cell layout: the port word, then the deliver BlockId word. An empty cell
  // holds kEmptyPort (no 16-bit port equals it) and the miss routine.
  static constexpr uint32_t kCellBytes = 8;
  static constexpr uint32_t kEmptyPort = 0xFFFFFFFFu;
  // Per-frame path length of the head: 11 instructions when the port sits in
  // its home cell (ProbeLength 1), plus kProbeInstructions for every further
  // cell the linear probe examines. The deliver's own instructions come on
  // top.
  static constexpr uint32_t kProbeInstructions = 8;
  // Fixed-size flows up to this many payload bytes get fully unrolled
  // checksum and copy code.
  static constexpr uint32_t kUnrollLimit = 64;

  explicit DemuxSynthesizer(Kernel& kernel);
  ~DemuxSynthesizer();

  // Opens a flow for `port` delivering into the ring at `ring_base`
  // (a RingLayout ring). `fixed_len` > 0 declares every datagram of the flow
  // to be exactly that many payload bytes — an invariant the synthesizer
  // folds. Returns false when the port is taken or the table is full.
  bool AddFlow(uint16_t port, Addr ring_base, uint32_t fixed_len = 0);
  // Opens a flow whose per-packet processing is caller-supplied: the
  // synthesized chain jumps to `synth_deliver` (a per-flow specialized block,
  // a1 = frame) and the generic walk calls `generic_deliver` (a shared
  // interpreted block, a1 = frame, a2 = flow entry, a4 = ring, d5 = validated
  // length) with `ctx` available in the entry. The stream layer uses this to
  // install its per-connection segment processors.
  bool AddFlowCustom(uint16_t port, Addr ring_base, Addr ctx,
                     BlockId synth_deliver, BlockId generic_deliver);
  // Swaps a custom flow's synthesized deliver (connection state changed —
  // e.g. establishment folds the now-known peer): one cell write. Refused
  // for datagram flows, whose deliver the demux owns.
  bool SetFlowDeliver(uint16_t port, BlockId synth_deliver);
  // Closes a flow: backward-shift deletion in the head (no tombstones) and a
  // swap-with-last removal from the generic table.
  bool RemoveFlow(uint16_t port);
  bool HasFlow(uint16_t port) const;
  size_t flow_count() const { return flows_.size(); }

  // The head's hash: the port's home cell. Shifts and XOR only — a multiply
  // costs 28 cycles — and deliberately not the pool steering's
  // (p ^ p >> 8) & (n - 1) bits, which every port on one NIC shares.
  static constexpr uint32_t kHashShift = 5;
  static uint32_t HomeCell(uint32_t port) {
    return (port ^ (port >> kHashShift)) & (kHeadCells - 1);
  }
  // Cells the head examines to find a bound `port` (1 = its home cell);
  // 0 when the port is not bound.
  uint32_t ProbeLength(uint16_t port) const;

  // Building blocks and counter addresses custom deliver routines share with
  // the demux (so generic/synthesized paths bump identical counters).
  BlockId csum_block() const { return csum_; }
  // The shared layered delivery the generic walk calls for datagram flows
  // (a valid `generic_deliver` for AddFlowCustom).
  BlockId deliver_generic_block() const { return deliver_gen_; }
  Addr ctr_malformed_addr() const;
  Addr ctr_csum_addr() const;

  // The two interchangeable demux routines. Flow changes rewrite tables in
  // memory; neither routine is re-emitted.
  BlockId generic_demux() const { return generic_; }
  BlockId synthesized_demux() const { return synthesized_; }

  // The head's specialization handle (registered with the kernel's
  // Specializer, non-evictable infrastructure). A refused install leaves the
  // NIC on the generic walk, which reads the same flows from its own table,
  // until the adaptation sweep retries it.
  SpecId head_spec() const { return head_spec_; }
  // Invoked whenever the active head changes hands (refusal fallback, the
  // sweep's retry, an explicit demotion), so the owning device can repoint
  // its demux cell. The hook must be cheap and idempotent.
  void SetSwapHook(std::function<void()> hook) { swap_hook_ = std::move(hook); }

  // Counters, bumped by the demux micro-code in simulated memory.
  uint64_t csum_rejects() const;
  uint64_t malformed() const;
  uint64_t ring_drops() const;
  uint64_t delivered_total() const;
  uint64_t delivered(uint16_t port) const;
  void ResetCounters();

  // Stats of the head's synthesis.
  const SynthesisStats& head_stats() const { return head_stats_; }

 private:
  struct Flow {
    uint16_t port = 0;
    Addr ring = 0;
    Addr ctr = 0;  // per-flow delivered counter word
    Addr ctx = 0;  // custom-flow context (e.g. stream CCB), 0 for datagram
    uint32_t fixed_len = 0;
    BlockId handler = kInvalidBlock;  // generic-walk deliver routine
    BlockId deliver = kInvalidBlock;  // synthesized per-flow deliver
    bool owns_deliver = false;  // demux-emitted (AddFlow) vs caller-owned
  };

  const Flow* Find(uint16_t port) const;
  void Insert(Flow f);  // appends to both tables
  Addr CellAddr(uint32_t cell) const { return htab_ + cell * kCellBytes; }
  uint32_t CellOf(uint16_t port) const;  // the port's cell; kHeadCells if absent
  void WriteCell(uint32_t cell, uint32_t port, BlockId deliver);
  void WriteEntry(size_t i);  // generic-table entry i from flows_[i]
  BlockId BuildHead();        // emit callback for the head's handle
  BlockId SynthesizeDeliver(const Flow& f) const;

  Kernel& kernel_;
  Addr ftab_ = 0;  // count word + kMaxFlows entries of FlowEntryLayout::kBytes
  Addr htab_ = 0;  // kHeadCells cells of kCellBytes: the head's table
  Addr ctrs_ = 0;  // csum_rejects / malformed / ring_drops / delivered_total
  BlockId csum_ = kInvalidBlock;        // shared checksum verify routine
  BlockId put1_ = kInvalidBlock;        // generic one-byte ring put
  BlockId deliver_gen_ = kInvalidBlock; // generic layered delivery
  BlockId miss_ = kInvalidBlock;        // empty cells' deliver: d0 = -2
  BlockId generic_ = kInvalidBlock;
  BlockId synthesized_ = kInvalidBlock;
  SpecId head_spec_ = kBadSpec;
  std::function<void()> swap_hook_;
  std::vector<Flow> flows_;  // in generic-table order
  std::unordered_map<uint16_t, size_t> index_;  // port -> flows_ position
  SynthesisStats head_stats_;
};

}  // namespace synthesis

#endif  // SRC_NET_DEMUX_H_
