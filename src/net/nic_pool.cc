#include "src/net/nic_pool.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/machine/assembler.h"
#include "src/net/frame.h"

namespace synthesis {

namespace {
// NIC index tag in the high half of an interrupt payload; the low half stays
// the device-local descriptor slot the per-NIC entry code expects.
constexpr uint32_t kTagShift = 16;
constexpr int32_t kSlotMask = 0xFFFF;
}  // namespace

NicPool::NicPool(Kernel& kernel, NicPoolConfig config)
    : kernel_(kernel), config_(config) {
  assert(config_.initial_nics >= 1 && config_.initial_nics <= kMaxNics);
  // Inverted or degenerate watermarks make the armor either never engage or
  // never disengage — a bad config is a hard construction error, not a
  // debug-build assert (matching the ring/cache geometry checks).
  if (config_.shed_high_watermark <= config_.shed_low_watermark ||
      config_.shed_low_watermark == 0) {
    std::fprintf(stderr,
                 "NicPool: shed watermarks must satisfy high > low > 0 "
                 "(shed_high_watermark=%u shed_low_watermark=%u)\n",
                 config_.shed_high_watermark, config_.shed_low_watermark);
    std::abort();
  }
  if (config_.admission_control &&
      config_.shed_data_watermark <= config_.shed_high_watermark) {
    std::fprintf(stderr,
                 "NicPool: shed_data_watermark must exceed "
                 "shed_high_watermark (shed_data_watermark=%u "
                 "shed_high_watermark=%u)\n",
                 config_.shed_data_watermark, config_.shed_high_watermark);
    std::abort();
  }
  desc_ = kernel_.allocator().Allocate(kDescBytes);
  rx_dispatch_cell_ = kernel_.allocator().Allocate(4);
  tx_dispatch_cell_ = kernel_.allocator().Allocate(4);
  steer_cell_ = kernel_.allocator().Allocate(4);
  shed_ctr_ = kernel_.allocator().Allocate(4);
  assert(desc_ != 0 && rx_dispatch_cell_ != 0 && tx_dispatch_cell_ != 0 &&
         steer_cell_ != 0 && shed_ctr_ != 0 &&
         "kernel memory exhausted bringing up the NIC pool");
  Memory& mem = kernel_.machine().memory();
  mem.Write32(shed_ctr_, 0);
  if (config_.admission_control) {
    shed_data_ctr_ = kernel_.allocator().Allocate(4);
    shed_level_word_ = kernel_.allocator().Allocate(4);
    shed_bitmap_ = kernel_.allocator().Allocate(kShedBitmapBytes);
    shed_mask_tab_ = kernel_.allocator().Allocate(32 * 4);
    assert(shed_data_ctr_ != 0 && shed_level_word_ != 0 &&
           shed_bitmap_ != 0 && shed_mask_tab_ != 0 &&
           "kernel memory exhausted bringing up the admission filter");
    mem.Write32(shed_data_ctr_, 0);
    mem.Write32(shed_level_word_, 0);
    for (uint32_t w = 0; w < kShedBitmapBytes / 4; w++) {
      mem.Write32(shed_bitmap_ + 4 * w, 0);
    }
    for (uint32_t i = 0; i < 32; i++) {
      mem.Write32(shed_mask_tab_ + 4 * i, 1u << i);
    }
  }

  for (uint32_t i = 0; i < config_.initial_nics; i++) {
    AppendNic();
  }
  WriteDescriptor();

  // The steering template's verbatim tier is installed exactly once: it
  // reloads the pool geometry (NIC count, cell table, pin table) from the
  // descriptor on every packet, so any later AddNic or pin change is already
  // covered — the defining property (and cost) of the layered path. The "po2"
  // selector is bound to 0: only the subtract loop is valid for every N.
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  steer_generic_ = kernel_.SynthesizeInstall(SteeringTemplate(),
                                             Bindings().Set("po2", 0), nullptr,
                                             "pool_steer_gen", nullptr,
                                             &verbatim);
  if (config_.admission_control) {
    generic_shed_ = kernel_.SynthesizeInstall(ShedTemplate(), Bindings(),
                                              nullptr, "pool_shed_gen",
                                              nullptr, &verbatim);
  }

  // One shim per vector, installed once: TTEs snapshot their vectors at
  // thread-creation time, so the re-emittable dispatch chain must sit behind
  // a cell the shim jumps through, not in the vector itself.
  Asm rs("pool_rx_shim");
  rs.LoadA32(kD7, static_cast<int32_t>(rx_dispatch_cell_));
  rs.JmpInd(kD7);
  BlockId rx_shim = kernel_.SynthesizeInstall(rs.Build(), Bindings(), nullptr,
                                              "pool_rx_shim", nullptr,
                                              &verbatim);
  kernel_.SetDefaultVector(Vector::kNetRx, rx_shim);
  Asm ts("pool_tx_shim");
  ts.LoadA32(kD7, static_cast<int32_t>(tx_dispatch_cell_));
  ts.JmpInd(kD7);
  BlockId tx_shim = kernel_.SynthesizeInstall(ts.Build(), Bindings(), nullptr,
                                              "pool_tx_shim", nullptr,
                                              &verbatim);
  kernel_.SetDefaultVector(Vector::kNetTx, tx_shim);

  EmitSteering();
  EmitDispatch();
  RegisterShedFilter();
  ApplySteering();
}

NicPool::~NicPool() {
  // The emit/install callbacks capture `this`; the handles must not outlive
  // the pool.
  kernel_.spec().Retire(steer_spec_);
  kernel_.spec().Retire(rx_dispatch_spec_);
  kernel_.spec().Retire(tx_dispatch_spec_);
  kernel_.spec().Retire(shed_spec_);
}

void NicPool::AppendNic() {
  NicConfig nc = config_.nic;
  nc.irq_tag = static_cast<uint32_t>(nics_.size()) << kTagShift;
  nc.install_vectors = false;
  nics_.push_back(std::make_unique<NicDevice>(kernel_, nc));
  nics_.back()->SetSharedRxGauge(&rx_gauge_);
  nics_.back()->SetAdmissionHook([this](uint32_t depth) { NoteRxDepth(depth); });
  if (tx_drain_hook_) {
    nics_.back()->SetTxDrainHook(tx_drain_hook_);
  }
}

void NicPool::SetTxDrainHook(std::function<void()> hook) {
  tx_drain_hook_ = std::move(hook);
  for (auto& n : nics_) {
    n->SetTxDrainHook(tx_drain_hook_);
  }
}

uint32_t NicPool::SteerOf(uint16_t port) const {
  uint32_t h = (static_cast<uint32_t>(port) ^ (port >> 8)) & 255u;
  return h % static_cast<uint32_t>(nics_.size());
}

uint32_t NicPool::PinSteerOf(uint16_t port, uint16_t peer) const {
  // Both halves of the connection 5-tuple feed the placement, so many
  // connections to one well-known port spread across the pool.
  uint32_t h = static_cast<uint32_t>(port) * 31u + peer;
  h = (h ^ (h >> 8)) & 255u;
  return h % static_cast<uint32_t>(nics_.size());
}

const NicPool::Binding* NicPool::Find(uint16_t port) const {
  auto it = by_port_.find(port);
  return it == by_port_.end() ? nullptr : &it->second->second;
}

uint32_t NicPool::OwnerOf(uint16_t port) const {
  const Binding* b = Find(port);
  return b != nullptr ? b->owner : SteerOf(port);
}

uint32_t NicPool::RouteOf(uint16_t dst_port, uint16_t src_port) const {
  // Host twin of the emitted routing: the pin stage matches (dst, src)
  // exactly; anything else falls through to the dst hash.
  const Binding* b = Find(dst_port);
  if (b != nullptr && (!b->pinned || b->spec.pin_peer == src_port)) {
    return b->owner;
  }
  return SteerOf(dst_port);
}

void NicPool::WriteDescriptor() {
  Memory& mem = kernel_.machine().memory();
  mem.Write32(desc_, size());
  for (uint32_t i = 0; i < kMaxNics; i++) {
    mem.Write32(desc_ + 4 + 4 * i,
                i < size() ? nics_[i]->inner_cell_addr() : 0);
  }
  uint32_t pins = 0;
  for (const auto& [port, b] : bindings_) {
    if (!b.pinned || pins >= kMaxPins) {
      continue;
    }
    Addr e = desc_ + kPinBaseOff + pins * kPinEntryBytes;
    mem.Write32(e + 0, port);
    mem.Write32(e + 4, b.spec.pin_peer);
    mem.Write32(e + 8, nics_[b.owner]->inner_cell_addr());
    mem.Write32(e + 12, 0);
    pins++;
  }
  mem.Write32(desc_ + kPinCountOff, pins);
  kernel_.machine().Charge(8 + 4 * (kMaxNics + 4 * pins), 2,
                           1 + kMaxNics + 4 * pins);
}

// Pool steering, written once (a1 = frame; d0/d2 come back from the demux it
// tail-jumps into). Register-indirect over the descriptor: the pin count and
// N load through a2, the pin and cell tables are indexed off their bases.
// Verbatim, every frame reloads the geometry (the kGeneric tier). With the
// descriptor invariant, the Synthesizer folds N, the pin count and the cell
// table base (the kSpecialized tier): no pins drops the whole pin walk, and
// the "po2" selector hole, bound to 1 when N is a power of two, reduces the
// hash with one mask instead of the subtract loop.
CodeTemplate NicPool::SteeringTemplate() const {
  const int32_t pin_tab = static_cast<int32_t>(desc_ + kPinBaseOff);
  Asm a("pool_steer");
  a.Load32(kD0, kA1, FrameLayout::kDstPort);
  a.MoveI(kA2, static_cast<int32_t>(desc_));
  // Pin-table walk: a (dst, src) match routes through the pinned owner's
  // inner cell. Entries are 16 B = 4 words; LoadIdx32 scales the index by 4,
  // so the cursor d3 advances in word units.
  a.Load32(kD6, kA2, static_cast<int32_t>(kPinCountOff));
  a.Tst(kD6);
  a.Beq("hash");
  a.Load32(kD1, kA1, FrameLayout::kSrcPort);
  a.MoveI(kD3, 0);
  a.Label("pin");
  a.LoadIdx32(kD7, kD3, pin_tab);
  a.Cmp(kD0, kD7);
  a.Bne("pnext");
  a.Lea(kD4, kD3, 1);
  a.LoadIdx32(kD7, kD4, pin_tab);
  a.Cmp(kD1, kD7);
  a.Bne("pnext");
  a.Lea(kD4, kD3, 2);
  a.LoadIdx32(kD7, kD4, pin_tab);
  a.Move(kA2, kD7);
  a.Load32(kD7, kA2, 0);  // the pinned NIC's current demux
  a.JmpInd(kD7);
  a.Label("pnext");
  a.AddI(kD3, 4);
  a.SubI(kD6, 1);
  a.Tst(kD6);
  a.Bne("pin");
  // Hash stage: the dst-port hash reduced mod N (no divider).
  a.Label("hash");
  a.Move(kD7, kD0);
  a.LsrI(kD7, 8);
  a.Xor(kD0, kD7);
  a.Load32(kD6, kA2, 0);  // live NIC count
  a.MoveI(kD5, Asm::Sym("po2"));
  a.Tst(kD5);
  a.Beq("mod");
  a.SubI(kD6, 1);
  a.And(kD0, kD6);
  a.Bra("cell");
  a.Label("mod");
  a.AndI(kD0, 255);
  a.Label("sub");
  a.Cmp(kD0, kD6);
  a.Blt("cell");
  a.Sub(kD0, kD6);
  a.Bra("sub");
  // Tail-jump through the owning NIC's inner cell: the demux returns straight
  // to the RX entry, no extra frame (Collapsing Layers).
  a.Label("cell");
  a.LoadIdx32(kD7, kD0, static_cast<int32_t>(desc_ + 4));
  a.Move(kA2, kD7);
  a.Load32(kD7, kA2, 0);  // the owning NIC's current demux
  a.JmpInd(kD7);
  return a.Build();
}

void NicPool::EmitSteering() {
  if (steer_spec_ == kBadSpec) {
    SpecDesc sd;
    sd.name = "pool_steer";
    sd.generic = steer_generic_;
    sd.adaptive = false;   // re-folded on geometry/pin change, not on heat
    sd.evictable = false;  // one pool-wide block; eviction fodder lives below
    sd.emit = [this](SpecTier) { return BuildSteering(); };
    // On refusal the Specializer fell back to the verbatim tier; the
    // displaced block retires deferred, after the cells are repointed.
    sd.install = [this](BlockId blk, SpecTier, bool) {
      steer_active_ = blk;
      ApplySteering();
    };
    steer_spec_ = kernel_.spec().Register(std::move(sd));
    steer_active_ = kernel_.spec().ActiveOf(steer_spec_);
    return;
  }
  kernel_.spec().Reemit(steer_spec_);
}

BlockId NicPool::BuildSteering() {
  steer_gen_++;
  const uint32_t n = size();
  const std::string name = "pool_steer_syn#" + std::to_string(steer_gen_);
  InvariantMemory inv(kernel_.machine().memory());
  inv.AddRange(AddrRange{desc_, desc_ + kDescBytes});
  SynthesisOptions opts = kernel_.config().synthesis;
  // The demux behind the inner cell reads the frame in a1.
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2) | (1u << kA1);
  return kernel_.SynthesizeInstall(
      SteeringTemplate(), Bindings().Set("po2", (n & (n - 1)) == 0 ? 1 : 0),
      &inv, name, nullptr, &opts);
}

void NicPool::EmitDispatch() {
  if (rx_dispatch_spec_ == kBadSpec) {
    // The dispatch chains have no generic twin: a refused re-emit keeps the
    // previous chain — stale (it misses the newest NIC) but safe; the
    // adaptation sweep retries while the handle stays degraded.
    SpecDesc rd;
    rd.name = "pool_rx_dispatch";
    rd.adaptive = false;
    rd.evictable = false;
    rd.emit = [this](SpecTier) { return BuildRxDispatch(); };
    rd.install = [this](BlockId blk, SpecTier, bool refused) {
      InstallRxDispatch(blk, refused);
    };
    rx_dispatch_spec_ = kernel_.spec().Register(std::move(rd));
    rx_dispatch_ = kernel_.spec().ActiveOf(rx_dispatch_spec_);
    if (rx_dispatch_ != kInvalidBlock) {
      kernel_.machine().memory().Write32(rx_dispatch_cell_,
                                         static_cast<uint32_t>(rx_dispatch_));
    }
    SpecDesc td;
    td.name = "pool_tx_dispatch";
    td.adaptive = false;
    td.evictable = false;
    td.emit = [this](SpecTier) { return BuildTxDispatch(); };
    td.install = [this](BlockId blk, SpecTier, bool refused) {
      InstallTxDispatch(blk, refused);
    };
    tx_dispatch_spec_ = kernel_.spec().Register(std::move(td));
    tx_dispatch_ = kernel_.spec().ActiveOf(tx_dispatch_spec_);
    if (tx_dispatch_ != kInvalidBlock) {
      kernel_.machine().memory().Write32(tx_dispatch_cell_,
                                         static_cast<uint32_t>(tx_dispatch_));
    }
    return;
  }
  kernel_.spec().Reemit(rx_dispatch_spec_);
  kernel_.spec().Reemit(tx_dispatch_spec_);
}

BlockId NicPool::BuildRxDispatch() {
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  const std::string name = "pool_rx_dispatch#" + std::to_string(++dispatch_gen_);
  // d1 = tagged payload. High half selects the NIC, low half is the slot the
  // per-NIC entry expects in d1.
  Asm rx(name);
  rx.Move(kD6, kD1);
  rx.LsrI(kD6, kTagShift);
  rx.AndI(kD1, kSlotMask);
  for (uint32_t i = 0; i < size(); i++) {
    const std::string next = "n" + std::to_string(i);
    rx.CmpI(kD6, static_cast<int32_t>(i));
    rx.Bne(next);
    rx.Jsr(static_cast<int32_t>(nics_[i]->rx_entry()));
    rx.Rts();
    rx.Label(next);
  }
  rx.Rts();  // unknown tag: drop on the floor
  return kernel_.SynthesizeInstall(rx.Build(), Bindings(), nullptr, name,
                                   nullptr, &verbatim);
}

BlockId NicPool::BuildTxDispatch() {
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  const std::string name = "pool_tx_dispatch#" + std::to_string(++dispatch_gen_);
  Asm tx(name);
  tx.Move(kD6, kD1);
  tx.LsrI(kD6, kTagShift);
  tx.AndI(kD1, kSlotMask);
  for (uint32_t i = 0; i < size(); i++) {
    const std::string next = "n" + std::to_string(i);
    tx.CmpI(kD6, static_cast<int32_t>(i));
    tx.Bne(next);
    tx.Jsr(static_cast<int32_t>(nics_[i]->tx_entry()));
    tx.Rts();
    tx.Label(next);
  }
  tx.Rts();
  return kernel_.SynthesizeInstall(tx.Build(), Bindings(), nullptr, name,
                                   nullptr, &verbatim);
}

void NicPool::InstallRxDispatch(BlockId blk, bool refused) {
  if (refused) {
    return;  // the previous chain stays in the cell
  }
  rx_dispatch_ = blk;
  kernel_.machine().memory().Write32(rx_dispatch_cell_,
                                     static_cast<uint32_t>(blk));
}

void NicPool::InstallTxDispatch(BlockId blk, bool refused) {
  if (refused) {
    return;
  }
  tx_dispatch_ = blk;
  kernel_.machine().memory().Write32(tx_dispatch_cell_,
                                     static_cast<uint32_t>(blk));
}

// The early-drop filter, written once (a1 = frame). Membership is the
// bound-port bitmap: d0 = dst port, the bit mask comes from a 32-entry table
// (the ISA has no variable shift). An unknown port bumps the shed counter
// and returns the demux no-match verdict. A bound port reads the level word:
// below 2 it passes; at 2 a header-only segment (pure ack) or one whose
// flags carry SYN/FIN/RST is control plane and passes, while bulk data bumps
// the data counter and drops. Passing frames tail-jump through the steering
// cell, so steering re-emission never touches the filter. Verbatim this is
// the kGeneric tier; with the level word invariant the level test folds and
// the class test is compiled in or out (the kSpecialized tier).
CodeTemplate NicPool::ShedTemplate() const {
  Asm a("pool_shed");
  a.Load32(kD0, kA1, FrameLayout::kDstPort);
  a.Move(kD1, kD0);
  a.LsrI(kD1, 5);
  a.LoadIdx32(kD3, kD1, static_cast<int32_t>(shed_bitmap_));
  a.Move(kD4, kD0);
  a.AndI(kD4, 31);
  a.LoadIdx32(kD4, kD4, static_cast<int32_t>(shed_mask_tab_));
  a.And(kD3, kD4);
  a.Tst(kD3);
  a.Bne("bound");
  a.LoadA32(kD1, static_cast<int32_t>(shed_ctr_));
  a.AddI(kD1, 1);
  a.StoreA32(static_cast<int32_t>(shed_ctr_), kD1);
  a.MoveI(kD0, -2);  // same contract as a demux no-match
  a.Rts();
  a.Label("bound");
  a.LoadA32(kD3, static_cast<int32_t>(shed_level_word_));
  a.CmpI(kD3, 2);
  a.Blt("pass");
  a.Load32(kD3, kA1, FrameLayout::kLength);
  a.CmpI(kD3, static_cast<int32_t>(kShedCtrlMaxBytes));
  a.Bls("pass");
  a.Load32(kD3, kA1, FrameLayout::kPayload + kShedCtrlFlagsOff);
  a.AndI(kD3, static_cast<int32_t>(kShedCtrlFlagsMask));
  a.Tst(kD3);
  a.Bne("pass");
  a.LoadA32(kD1, static_cast<int32_t>(shed_data_ctr_));
  a.AddI(kD1, 1);
  a.StoreA32(static_cast<int32_t>(shed_data_ctr_), kD1);
  a.MoveI(kD0, -2);
  a.Rts();
  a.Label("pass");
  a.LoadA32(kD7, static_cast<int32_t>(steer_cell_));
  a.JmpInd(kD7);
  return a.Build();
}

void NicPool::RegisterShedFilter() {
  if (!config_.admission_control) {
    return;
  }
  SpecDesc sd;
  sd.name = "pool_shed";
  sd.generic = generic_shed_;
  sd.adaptive = false;   // re-folded on a level change, not on heat
  sd.evictable = false;  // the armor must not be an eviction victim
  sd.emit = [this](SpecTier) { return BuildShedFilter(); };
  sd.install = [this](BlockId blk, SpecTier tier, bool) {
    InstallShedFilter(blk, tier);
  };
  shed_spec_ = kernel_.spec().Register(std::move(sd));
  InstallShedFilter(kernel_.spec().ActiveOf(shed_spec_),
                    kernel_.spec().TierOf(shed_spec_));
}

BlockId NicPool::BuildShedFilter() {
  shed_gen_++;
  const std::string name = "pool_shed#" + std::to_string(shed_gen_);
  InvariantMemory inv(kernel_.machine().memory());
  inv.AddRange(AddrRange{shed_level_word_, shed_level_word_ + 4});
  SynthesisOptions opts = kernel_.config().synthesis;
  // Steering behind the cell reads the frame in a1.
  opts.live_out |= (1u << kD0) | (1u << kD1) | (1u << kD2) | (1u << kA1);
  return kernel_.SynthesizeInstall(ShedTemplate(), Bindings(), &inv, name,
                                   nullptr, &opts);
}

void NicPool::InstallShedFilter(BlockId blk, SpecTier tier) {
  // A refusal lands here with the verbatim tier, which reads the level word
  // and the bitmap per frame: shedding carries on through it. A specialized
  // block is installed right after it was emitted, so the level word it
  // folded is still shed_level_.
  shed_filter_ = blk;
  shed_folded_data_ = tier != SpecTier::kGeneric && shed_level_ >= 2;
  if (shedding_) {
    ApplySteering();  // repoint the cells before the displaced block drains
  }
}

void NicPool::WriteShedBit(uint16_t port, bool on) {
  if (!config_.admission_control) {
    return;
  }
  Memory& mem = kernel_.machine().memory();
  Addr w = shed_bitmap_ + (static_cast<uint32_t>(port) >> 5) * 4;
  uint32_t v = static_cast<uint32_t>(mem.Read32(w));
  uint32_t m = 1u << (port & 31);
  mem.Write32(w, on ? (v | m) : (v & ~m));
  kernel_.machine().Charge(6, 1, 1);
}

void NicPool::WriteShedLevel() {
  if (shed_level_word_ != 0) {
    kernel_.machine().memory().Write32(shed_level_word_, shed_level_);
  }
}

void NicPool::MirrorShedCounters() {
  // Mirror the filter's drop counters (32-bit sim words) into the gauges
  // with wrapping uint32_t deltas, so sustained overload can't skew them.
  Memory& mem = kernel_.machine().memory();
  uint32_t dropped = static_cast<uint32_t>(mem.Read32(shed_ctr_));
  shed_gauge_.CountN(dropped - shed_seen_);
  shed_seen_ = dropped;
  if (shed_data_ctr_ != 0) {
    uint32_t data = static_cast<uint32_t>(mem.Read32(shed_data_ctr_));
    shed_data_gauge_.CountN(data - shed_data_seen_);
    shed_data_seen_ = data;
  }
}

void NicPool::EnterShedLevel(uint32_t lvl) {
  const uint32_t prev = shed_level_;
  shed_level_ = lvl;
  WriteShedLevel();
  // The specialized filter folds the level word, so a level it did not fold
  // re-emits it: escalation changes the code, not a flag. A degraded handle
  // (its last emit was refused) retries here; a handle demoted to the
  // verbatim tier reads the word and re-emits nothing.
  if (kernel_.spec().DegradedOf(shed_spec_) ||
      shed_folded_data_ != (lvl >= 2)) {
    kernel_.spec().Reemit(shed_spec_);
  }
  if (shed_filter_ == kInvalidBlock) {
    shed_level_ = 0;  // can't shed without a filter; serve the full path
    shedding_ = false;
    WriteShedLevel();
    return;
  }
  shedding_ = true;
  if (prev == 0) {
    shed_engages_++;
  }
  if (lvl == 2) {
    shed_escalations_++;
  }
  ApplySteering();
}

void NicPool::ApplySteering() {
  // The steering cell always tracks the active steering block, so the shed
  // filter's pass path follows re-emissions without being re-emitted itself.
  kernel_.machine().memory().Write32(steer_cell_,
                                     static_cast<uint32_t>(active_steering()));
  BlockId outer = (shedding_ && shed_filter_ != kInvalidBlock)
                      ? shed_filter_
                      : active_steering();
  for (auto& nic : nics_) {
    nic->SetDemuxOverride(outer);
  }
}

void NicPool::NoteRxDepth(uint32_t depth) {
  if (!config_.admission_control) {
    return;
  }
  MirrorShedCounters();

  // Escalation ladder: level 1 (unknown-port drop) engages at the high
  // watermark; level 2 (bulk data sheds too, control stays admissible) at the
  // data watermark. De-escalation skips straight to level 0 — a pool drained
  // below the low watermark doesn't need either filter.
  if (shed_level_ == 0 && depth >= config_.shed_high_watermark) {
    EnterShedLevel(1);
  }
  if (shed_level_ == 1 && depth >= config_.shed_data_watermark) {
    EnterShedLevel(2);
  }
  if (shed_level_ == 0 || depth > config_.shed_low_watermark) {
    return;
  }
  // Hysteresis: swap the full path back only when the whole pool has drained.
  for (auto& nic : nics_) {
    if (nic->rx_inflight() > config_.shed_low_watermark) {
      return;
    }
  }
  shed_level_ = 0;
  shedding_ = false;
  WriteShedLevel();
  ApplySteering();
}

bool NicPool::AddNic() {
  if (size() >= kMaxNics) {
    return false;
  }
  AppendNic();
  // Rebind flows whose hash or pin placement moved. The flow's processors
  // (the stream layer's CCB-absolute segment code) are NIC-agnostic and move
  // by reference; the affected NICs' demux tables just move a cell each.
  for (auto& [port, b] : bindings_) {
    uint32_t owner =
        b.pinned ? PinSteerOf(port, b.spec.pin_peer) : SteerOf(port);
    if (owner == b.owner) {
      continue;
    }
    bool ok = nics_[b.owner]->UnbindFlow(port) && BindOn(owner, b.spec);
    assert(ok);
    (void)ok;
    b.owner = owner;
  }
  WriteDescriptor();  // after migration: pin entries name their new owners
  EmitSteering();
  EmitDispatch();
  ApplySteering();
  return true;
}

bool NicPool::BindOn(uint32_t idx, const FlowSpec& spec) {
  return nics_[idx]->BindFlow(spec);
}

bool NicPool::BindFlow(FlowSpec spec) {
  Binding b;
  // A full pin table degrades to hash placement — correct, just unbalanced.
  b.pinned = spec.pin && CanPin();
  spec.pin = b.pinned;
  b.owner =
      b.pinned ? PinSteerOf(spec.port, spec.pin_peer) : SteerOf(spec.port);
  b.spec = std::move(spec);
  if (!BindOn(b.owner, b.spec)) {
    return false;
  }
  uint16_t port = b.spec.port;
  bool pinned = b.pinned;
  by_port_[port] = bindings_.emplace(bindings_.end(), port, std::move(b));
  if (pinned) {
    pinned_++;
    WriteDescriptor();
    EmitSteering();
  }
  WriteShedBit(port, true);
  ApplySteering();
  return true;
}

bool NicPool::RebindFlow(uint16_t port, BlockId synth_deliver) {
  auto it = by_port_.find(port);
  if (it == by_port_.end()) {
    return false;
  }
  Binding& b = it->second->second;
  b.spec.synth_deliver = synth_deliver;  // so a future migration rebinds it
  return nics_[b.owner]->RebindFlow(port, synth_deliver);
}

bool NicPool::UnbindFlow(uint16_t port) {
  auto it = by_port_.find(port);
  if (it == by_port_.end()) {
    return false;
  }
  const bool was_pinned = it->second->second.pinned;
  const bool ok = nics_[it->second->second.owner]->UnbindFlow(port);
  bindings_.erase(it->second);
  by_port_.erase(it);
  if (was_pinned) {
    pinned_--;
    WriteDescriptor();
    EmitSteering();
  }
  WriteShedBit(port, false);
  ApplySteering();
  return ok;
}

bool NicPool::HasFlow(uint16_t port) const { return by_port_.count(port) != 0; }

bool NicPool::Transmit(uint16_t dst_port, uint16_t src_port,
                       const uint8_t* payload, uint32_t n) {
  return nic(RouteOf(dst_port, src_port)).Transmit(dst_port, src_port,
                                                   payload, n);
}

bool NicPool::TransmitV(uint16_t dst_port, uint16_t src_port,
                        const SendSpan* spans, uint32_t nspans) {
  return nic(RouteOf(dst_port, src_port)).TransmitV(dst_port, src_port,
                                                    spans, nspans);
}

void NicPool::InjectRaw(uint32_t dst_port, uint32_t src_port,
                        const uint8_t* payload, uint32_t n, uint32_t checksum,
                        uint32_t length_field) {
  nic(RouteOf(static_cast<uint16_t>(dst_port), static_cast<uint16_t>(src_port)))
      .InjectRaw(dst_port, src_port, payload, n, checksum, length_field);
}

NicPool::AggregateStats NicPool::Aggregate() {
  AggregateStats s;
  for (auto& nic : nics_) {
    s.delivered += nic->demux().delivered_total();
    s.tx_completed += nic->tx_completed();
    s.rx_overruns += nic->rx_overruns();
    s.csum_rejects += nic->demux().csum_rejects();
    s.malformed += nic->demux().malformed();
    s.ring_drops += nic->demux().ring_drops();
    s.wire_drops += nic->wire_drop_gauge().events();
    s.tx_spurious += nic->tx_spurious_gauge().events();
  }
  // Fold any not-yet-mirrored filter drops into the gauges first.
  MirrorShedCounters();
  s.early_sheds = shed_gauge_.events();
  s.data_sheds = shed_data_gauge_.events();
  return s;
}

}  // namespace synthesis
