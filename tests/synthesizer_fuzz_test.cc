// Differential fuzzing of the synthesizer: random templates are specialized
// and must compute exactly what the unoptimized (verbatim) program computes,
// for every binding and invariant-memory configuration tried. This is the
// synthesizer's strongest correctness guarantee: whatever the optimizer does
// — folding, inlining, branch elimination, DCE, peephole — semantics are
// preserved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/fs/bcache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/io/channel.h"
#include "src/io/crash_harness.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/kernel/user_program.h"
#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"
#include "src/net/demux.h"
#include "src/net/frame.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/synth/synthesizer.h"

namespace synthesis {
namespace {

constexpr size_t kMem = 256 * 1024;
constexpr Addr kDataBase = 0x2000;   // readable/writable playground
constexpr Addr kInvBase = 0x4000;    // declared invariant
constexpr uint32_t kInvWords = 32;

// Generates a random straight-line-with-forward-branches template that only
// touches [kDataBase, kDataBase+4K) and reads [kInvBase, +128). It ends in an
// rts, or — one time in three when `tail` is a block — in a tail jump to
// `tail`, which then returns for it.
CodeTemplate RandomTemplate(std::mt19937& rng, int length, int id,
                            BlockId tail = kInvalidBlock) {
  Asm a("fuzz" + std::to_string(id));
  std::uniform_int_distribution<int> op_pick(0, 11);
  std::uniform_int_distribution<int> reg_pick(0, 5);       // d0-d5
  std::uniform_int_distribution<int> imm_pick(-64, 64);
  std::uniform_int_distribution<int> word_pick(0, 31);
  int pending_label = 0;
  std::vector<std::string> labels;
  for (int i = 0; i < length; i++) {
    uint8_t rd = static_cast<uint8_t>(reg_pick(rng));
    uint8_t rs = static_cast<uint8_t>(reg_pick(rng));
    switch (op_pick(rng)) {
      case 0:
        a.MoveI(rd, imm_pick(rng));
        break;
      case 1:
        a.Move(rd, rs);
        break;
      case 2:
        a.AddI(rd, imm_pick(rng));
        break;
      case 3:
        a.Add(rd, rs);
        break;
      case 4:
        a.Sub(rd, rs);
        break;
      case 5:
        a.AndI(rd, imm_pick(rng) | 0xFF);
        break;
      case 6:
        a.LsrI(rd, word_pick(rng) % 8);
        break;
      case 7:  // read from the invariant region
        a.LoadA32(rd, static_cast<int32_t>(kInvBase + 4 * word_pick(rng)));
        break;
      case 8:  // read/write the mutable playground
        a.LoadA32(rd, static_cast<int32_t>(kDataBase + 4 * word_pick(rng)));
        break;
      case 9:
        a.StoreA32(static_cast<int32_t>(kDataBase + 4 * word_pick(rng)), rs);
        break;
      case 10: {  // forward conditional branch over the next few instructions
        std::string label = "L" + std::to_string(id) + "_" + std::to_string(i);
        a.Tst(rd);
        switch (word_pick(rng) % 3) {
          case 0:
            a.Beq(label);
            break;
          case 1:
            a.Bne(label);
            break;
          default:
            a.Blt(label);
            break;
        }
        labels.push_back(label);
        pending_label = 2 + word_pick(rng) % 3;
        break;
      }
      default:
        a.CmpI(rd, imm_pick(rng));
        break;
    }
    if (pending_label > 0 && --pending_label == 0 && !labels.empty()) {
      a.Label(labels.back());
      labels.pop_back();
    }
  }
  for (const std::string& l : labels) {
    a.Label(l);  // resolve any branch still dangling at the end
  }
  if (tail != kInvalidBlock && rng() % 3 == 0) {
    a.MoveI(kD7, tail);
    a.JmpInd(kD7);
  } else {
    a.Rts();
  }
  return a.Build();
}

class SynthesizerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SynthesizerFuzz, SpecializedEqualsVerbatim) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 17);
  Machine m(kMem, MachineConfig::SunEmulation());
  CodeStore store;
  Synthesizer synth(store);
  Executor exec(m, store);

  // Fill the invariant region with random constants (fixed per test case).
  for (uint32_t w = 0; w < kInvWords; w++) {
    m.memory().Write32(kInvBase + 4 * w, rng());
  }
  InvariantMemory inv(m.memory());
  inv.AddRange(AddrRange{kInvBase, kInvBase + 4 * kInvWords});

  SynthesisOptions full;
  full.live_out = 0x3F | (1u << 15);  // d0-d5 results + sp

  // A tail-jump target that reads live_out registers (and only those): the
  // specializer must keep every write it depends on, and may drop the rest.
  Asm tail("fuzz_tail");
  tail.Add(kD0, kD1);
  tail.Xor(kD2, kD3);
  tail.StoreA32(static_cast<int32_t>(kDataBase + 4 * 63), kD4);
  tail.Rts();
  const BlockId tail_id = store.Install(tail.Build().block);

  for (int round = 0; round < 16; round++) {
    CodeTemplate tmpl =
        RandomTemplate(rng, 24, GetParam() * 100 + round, tail_id);
    CodeBlock verbatim = synth.Specialize(tmpl, Bindings(), nullptr,
                                          SynthesisOptions::Disabled(), nullptr,
                                          "v" + std::to_string(round));
    CodeBlock fast = synth.Specialize(tmpl, Bindings(), &inv, full, nullptr,
                                      "f" + std::to_string(round));
    BlockId vid = store.Install(verbatim);
    BlockId fid = store.Install(fast);

    // Randomize initial registers (d6/d7 too, so a tail jump whose register
    // write was deleted cannot reuse a stale target) and the mutable
    // playground identically for both executions; compare registers d0-d5
    // and the playground after.
    std::vector<uint32_t> seed_regs(8);
    std::vector<uint32_t> seed_mem(64);
    for (auto& v : seed_regs) {
      v = rng();
    }
    for (auto& v : seed_mem) {
      v = rng();
    }
    auto run = [&](BlockId blk, std::vector<uint32_t>* regs_out,
                   std::vector<uint32_t>* mem_out) {
      for (int r = 0; r < 8; r++) {
        m.set_reg(static_cast<uint8_t>(r), seed_regs[static_cast<size_t>(r)]);
      }
      for (uint32_t w = 0; w < 64; w++) {
        m.memory().Write32(kDataBase + 4 * w, seed_mem[w]);
      }
      RunResult rr = exec.Call(blk, 100'000);
      ASSERT_EQ(rr.outcome, RunOutcome::kReturned);
      for (int r = 0; r < 6; r++) {
        regs_out->push_back(m.reg(static_cast<uint8_t>(r)));
      }
      for (uint32_t w = 0; w < 64; w++) {
        mem_out->push_back(m.memory().Read32(kDataBase + 4 * w));
      }
    };
    std::vector<uint32_t> vregs, vmem, fregs, fmem;
    run(vid, &vregs, &vmem);
    run(fid, &fregs, &fmem);
    ASSERT_EQ(vregs, fregs) << "register divergence in round " << round;
    ASSERT_EQ(vmem, fmem) << "memory divergence in round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizerFuzz, ::testing::Range(1, 13));

// --- Demux template fuzzing ---------------------------------------------------
//
// Random flow sets (ports, ring sizes, fixed-length declarations) drive the
// demux synthesizer; random — frequently malformed — packets are then run
// through BOTH the generic and the synthesized demux. The specializer must
// never crash, every emitted block must be well-formed (branches inside the
// block, calls to valid blocks), and the two demux implementations must agree
// on every packet's fate.

// Scans a block: branch targets in range, static call targets valid.
void ExpectWellFormed(Kernel& k, BlockId id) {
  ASSERT_TRUE(k.code().Valid(id));
  const CodeBlock& blk = k.code().Get(id);
  for (const Instr& in : blk.code) {
    if (IsBranch(in.op)) {
      ASSERT_GE(in.imm, 0) << "branch before block start in " << blk.name;
      ASSERT_LT(static_cast<size_t>(in.imm), blk.code.size())
          << "branch past block end in " << blk.name;
    }
    if (in.op == Opcode::kJsr) {
      ASSERT_TRUE(k.code().Valid(static_cast<BlockId>(in.imm)))
          << "dangling call in " << blk.name;
    }
  }
}

class DemuxFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DemuxFuzz, RandomFlowsAndMalformedPacketsNeverBreakTheDemux) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2246822519u + 3);
  Kernel k;
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);

  // Random flow set: unique ports, power-of-two ring sizes, a mix of
  // flexible and fixed-length flows (some beyond the unroll limit).
  std::uniform_int_distribution<uint32_t> port_pick(1, 65535);
  std::uniform_int_distribution<uint32_t> capexp_pick(6, 12);
  std::uniform_int_distribution<uint32_t> fixed_pick(0, 96);
  std::vector<uint16_t> ports;
  std::vector<std::shared_ptr<RingHost>> rings;
  uint32_t flows = 1 + rng() % 8;
  while (ports.size() < flows) {
    uint16_t port = static_cast<uint16_t>(port_pick(rng));
    if (demux.HasFlow(port)) {
      continue;
    }
    auto ring = io.MakeRing(1u << capexp_pick(rng));
    ASSERT_TRUE(demux.AddFlow(port, ring->base, fixed_pick(rng)));
    ports.push_back(port);
    rings.push_back(std::move(ring));
  }
  ExpectWellFormed(k, demux.generic_demux());
  ExpectWellFormed(k, demux.synthesized_demux());

  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  Memory& mem = k.machine().memory();
  for (int round = 0; round < 48; round++) {
    // Random packet: half the time aimed at a bound port; length fields
    // range from valid through hostile (huge / wrapping); checksums are
    // correct, near-miss, or random garbage.
    uint32_t dst =
        rng() % 2 == 0 ? ports[rng() % ports.size()] : port_pick(rng);
    uint32_t declared = rng() % 4 == 0 ? rng() : rng() % 128;
    uint32_t actual = declared <= FrameLayout::kMaxPayload
                          ? declared
                          : rng() % FrameLayout::kMaxPayload;
    std::vector<uint8_t> payload(actual);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng());
    }
    uint32_t src = port_pick(rng);
    uint32_t csum = FrameChecksum(dst, src, payload.data(), actual);
    if (declared != actual) {
      csum = rng();  // the declared length never matches anyway
    } else if (rng() % 3 == 0) {
      csum += 1 + rng() % 5;
    } else if (rng() % 7 == 0) {
      csum = rng();
    }
    mem.Write32(frame + FrameLayout::kDstPort, dst);
    mem.Write32(frame + FrameLayout::kSrcPort, src);
    mem.Write32(frame + FrameLayout::kLength, declared);
    mem.Write32(frame + FrameLayout::kChecksum, csum);
    if (actual > 0) {
      mem.WriteBytes(frame + FrameLayout::kPayload, payload.data(), actual);
    }

    // Run generic and synthesized from identical ring state and compare.
    uint32_t verdicts[2];
    uint32_t matched[2] = {0, 0};
    for (int pass = 0; pass < 2; pass++) {
      for (const auto& ring : rings) {
        // Empty every flow ring so both passes see identical space.
        mem.Write32(ring->base + RingLayout::kHead, 0);
        mem.Write32(ring->base + RingLayout::kTail, 0);
      }
      k.machine().set_reg(kA1, frame);
      k.machine().set_reg(kD0, 0xDEAD);
      RunResult rr = k.kexec().Call(pass == 0 ? demux.generic_demux()
                                              : demux.synthesized_demux());
      ASSERT_EQ(rr.outcome, RunOutcome::kReturned)
          << "demux crashed on round " << round;
      verdicts[pass] = k.machine().reg(kD0);
      matched[pass] = k.machine().reg(kD2);
    }
    EXPECT_EQ(verdicts[0], verdicts[1])
        << "generic and synthesized disagree on round " << round;
    if (verdicts[0] == verdicts[1] &&
        verdicts[0] != static_cast<uint32_t>(-2)) {
      EXPECT_EQ(matched[0], matched[1])
          << "matched-port divergence on round " << round;
    }
  }
  // Tear half the flows down and verify the resynthesized chain again.
  for (size_t i = 0; i < ports.size(); i += 2) {
    ASSERT_TRUE(demux.RemoveFlow(ports[i]));
  }
  ExpectWellFormed(k, demux.generic_demux());
  ExpectWellFormed(k, demux.synthesized_demux());
}

// Random bind / unbind / rebind interleavings over ports chosen to collide in
// the dispatch head's cell table (including a cluster that wraps past its
// last cell), with every step diffing the head against the generic walk on
// the verdict, the matched port, ring bytes and all counters. Custom flows
// alternate their deliver between the generic walk itself and a trampoline
// that calls it and leaves a marker in d6, so a rebind that patched the wrong
// cell shows up. The run ends by filling the table to kMaxFlows.
TEST_P(DemuxFuzz, CollidingBindUnbindRebindHeadMatchesGenericWalk) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 17);
  Kernel k;
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);
  Memory& mem = k.machine().memory();
  constexpr uint32_t kCells = DemuxSynthesizer::kHeadCells;

  // Candidate ports: everything homing in three 4-cell windows, one of them
  // straddling the wrap from the last cell back to cell 0.
  const uint32_t anchors[3] = {kCells - 2, static_cast<uint32_t>(rng() % kCells),
                               static_cast<uint32_t>(rng() % kCells)};
  std::vector<uint16_t> candidates;
  for (uint32_t p = 1; p < 65536; p++) {
    const uint32_t home = DemuxSynthesizer::HomeCell(p);
    for (uint32_t a : anchors) {
      if (((home - a) & (kCells - 1)) < 4) {
        candidates.push_back(static_cast<uint16_t>(p));
        break;
      }
    }
  }
  ASSERT_GT(candidates.size(), 64u);

  std::vector<std::shared_ptr<RingHost>> rings;
  for (uint32_t capexp : {6u, 8u, 10u}) {
    rings.push_back(io.MakeRing(1u << capexp));
  }
  constexpr uint32_t kMarker = 0x7A11;
  Asm tr("fuzz_trampoline");
  tr.Jsr(static_cast<int32_t>(demux.generic_demux()));
  tr.MoveI(kD6, static_cast<int32_t>(kMarker));
  tr.Rts();
  SynthesisOptions verbatim = SynthesisOptions::Disabled();
  const BlockId trampoline = k.SynthesizeInstall(
      tr.Build(), Bindings(), nullptr, "fuzz_trampoline", nullptr, &verbatim);
  ASSERT_NE(trampoline, kInvalidBlock);

  struct Bound {
    bool custom = false;
    BlockId deliver = kInvalidBlock;  // custom flows: generic walk or trampoline
  };
  std::map<uint16_t, Bound> bound;
  std::vector<uint16_t> removed;
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  std::uniform_int_distribution<uint32_t> port_pick(1, 65535);

  auto counters = [&](std::vector<uint32_t>* out) {
    out->assign({static_cast<uint32_t>(demux.csum_rejects()),
                 static_cast<uint32_t>(demux.malformed()),
                 static_cast<uint32_t>(demux.ring_drops()),
                 static_cast<uint32_t>(demux.delivered_total())});
    for (const auto& [p, b] : bound) {
      out->push_back(static_cast<uint32_t>(demux.delivered(p)));
    }
  };
  // Runs one frame through both routines from identical (emptied) rings and
  // compares everything observable.
  auto diff_frame = [&](uint32_t dst, const std::string& what) {
    uint32_t len = rng() % 4 == 0 ? rng() % 96 : rng() % 24;
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng());
    }
    const uint32_t src = port_pick(rng);
    uint32_t csum = FrameChecksum(dst, src, payload.data(), len);
    if (rng() % 6 == 0) {
      csum += 1;
    }
    uint32_t declared = rng() % 10 == 0 ? FrameLayout::kMaxPayload + 1 : len;
    mem.Write32(frame + FrameLayout::kDstPort, dst);
    mem.Write32(frame + FrameLayout::kSrcPort, src);
    mem.Write32(frame + FrameLayout::kLength, declared);
    mem.Write32(frame + FrameLayout::kChecksum, csum);
    if (len > 0) {
      mem.WriteBytes(frame + FrameLayout::kPayload, payload.data(), len);
    }
    uint32_t d0[2], d2[2], d6[2];
    std::vector<uint32_t> delta[2];
    std::vector<uint8_t> bytes[2];
    for (int pass = 0; pass < 2; pass++) {
      for (const auto& ring : rings) {
        mem.Write32(ring->base + RingLayout::kHead, 0);
        mem.Write32(ring->base + RingLayout::kTail, 0);
        const uint32_t cap = mem.Read32(ring->base + RingLayout::kMask) + 1;
        for (uint32_t off = 0; off < cap; off++) {
          mem.Write8(ring->base + RingLayout::kBuf + off, 0);
        }
      }
      std::vector<uint32_t> before;
      counters(&before);
      k.machine().set_reg(kA1, frame);
      k.machine().set_reg(kD0, 0xDEAD);
      k.machine().set_reg(kD6, 0);
      RunResult rr = k.kexec().Call(pass == 0 ? demux.generic_demux()
                                              : demux.synthesized_demux());
      ASSERT_EQ(rr.outcome, RunOutcome::kReturned) << what;
      d0[pass] = k.machine().reg(kD0);
      d2[pass] = k.machine().reg(kD2);
      d6[pass] = k.machine().reg(kD6);
      counters(&delta[pass]);
      for (size_t i = 0; i < before.size(); i++) {
        delta[pass][i] -= before[i];
      }
      for (const auto& ring : rings) {
        bytes[pass].push_back(
            static_cast<uint8_t>(mem.Read32(ring->base + RingLayout::kHead)));
        const uint32_t cap = mem.Read32(ring->base + RingLayout::kMask) + 1;
        for (uint32_t off = 0; off < cap; off++) {
          bytes[pass].push_back(mem.Read8(ring->base + RingLayout::kBuf + off));
        }
      }
    }
    EXPECT_EQ(d0[0], d0[1]) << "verdict: " << what;
    if (d0[0] != static_cast<uint32_t>(-2)) {
      EXPECT_EQ(d2[0], d2[1]) << "matched port: " << what;
    }
    EXPECT_EQ(delta[0], delta[1]) << "counters: " << what;
    EXPECT_EQ(bytes[0], bytes[1]) << "ring bytes: " << what;
    auto it = dst <= 0xFFFF ? bound.find(static_cast<uint16_t>(dst)) : bound.end();
    if (it == bound.end()) {
      EXPECT_EQ(d0[1], static_cast<uint32_t>(-2)) << "miss: " << what;
    } else if (it->second.custom && d0[1] != 0) {
      // Accepted or refused past the port match: the cell's deliver ran.
      EXPECT_EQ(d6[1] == kMarker, it->second.deliver == trampoline)
          << "rebind reached the wrong deliver: " << what;
    }
  };

  for (int step = 0; step < 160; step++) {
    const uint32_t op = rng() % 8;
    if (op < 4 || bound.empty()) {
      const uint16_t port = candidates[rng() % candidates.size()];
      if (bound.count(port) != 0) {
        continue;
      }
      auto& ring = rings[rng() % rings.size()];
      Bound b;
      b.custom = rng() % 2 == 0;
      if (b.custom) {
        b.deliver = rng() % 2 == 0 ? trampoline : demux.generic_demux();
        ASSERT_TRUE(demux.AddFlowCustom(port, ring->base, 0, b.deliver,
                                        demux.deliver_generic_block()));
      } else {
        ASSERT_TRUE(demux.AddFlow(port, ring->base, rng() % 3 == 0 ? 8 : 0));
        EXPECT_FALSE(demux.SetFlowDeliver(port, trampoline))
            << "a datagram flow's deliver belongs to the demux";
      }
      bound[port] = b;
      diff_frame(port, "bind " + std::to_string(port));
    } else if (op < 6) {
      auto it = std::next(bound.begin(), static_cast<long>(rng() % bound.size()));
      const uint16_t port = it->first;
      ASSERT_TRUE(demux.RemoveFlow(port));
      bound.erase(it);
      removed.push_back(port);
      diff_frame(port, "just removed " + std::to_string(port));
    } else {
      std::vector<uint16_t> custom;
      for (const auto& [p, b] : bound) {
        if (b.custom) {
          custom.push_back(p);
        }
      }
      if (custom.empty()) {
        continue;
      }
      const uint16_t port = custom[rng() % custom.size()];
      Bound& b = bound[port];
      b.deliver = b.deliver == trampoline ? demux.generic_demux() : trampoline;
      ASSERT_TRUE(demux.SetFlowDeliver(port, b.deliver));
      diff_frame(port, "rebind " + std::to_string(port));
    }
    // Every bound port stays findable through its probe; a random other
    // port, bound or not, diffs too.
    for (const auto& [p, b] : bound) {
      ASSERT_GT(demux.ProbeLength(p), 0u) << "lost port " << p;
    }
    const uint16_t other = candidates[rng() % candidates.size()];
    diff_frame(other, "colliding " + std::to_string(other));
    if (!removed.empty()) {
      const uint16_t gone = removed[rng() % removed.size()];
      diff_frame(gone, "removed earlier " + std::to_string(gone));
    }
  }
  EXPECT_EQ(demux.flow_count(), bound.size());
  ExpectWellFormed(k, demux.synthesized_demux());

  // Fill to kMaxFlows: the table's load factor peaks at one half.
  uint16_t next = 1;
  while (demux.flow_count() < DemuxSynthesizer::kMaxFlows) {
    if (bound.count(next) == 0) {
      ASSERT_TRUE(demux.AddFlowCustom(next, rings[0]->base, 0,
                                      demux.generic_demux(),
                                      demux.deliver_generic_block()));
      bound[next] = Bound{true, demux.generic_demux()};
    }
    next++;
  }
  uint16_t spare = next;
  while (bound.count(spare) != 0) {
    spare++;
  }
  EXPECT_FALSE(demux.AddFlowCustom(spare, rings[0]->base, 0,
                                   demux.generic_demux(),
                                   demux.deliver_generic_block()))
      << "the table is full";
  for (int i = 0; i < 24; i++) {
    auto it = std::next(bound.begin(), static_cast<long>(rng() % bound.size()));
    diff_frame(it->first, "full table, bound " + std::to_string(it->first));
    diff_frame(port_pick(rng), "full table, random port");
  }
  diff_frame(spare, "full table, never bound");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemuxFuzz, ::testing::Range(1, 9));

// --- Stream segment-processor fuzzing ----------------------------------------
//
// A real connection is established, then random — frequently malformed —
// segments are run through every tier of the one segment-processor template
// from identical CCB/ring snapshots: the shared generic processor (behind the
// generic demux walk), the connection's kSpecialized processor, and its kHot
// processor (reached through the Specializer) with the word-wide copy. All
// three must agree on the verdict and on every observable side effect: CCB
// fields, event bits, ring producer state, the whole ring buffer, and the
// shared demux counters. Ring heads are chosen so the payload run ends
// before the ring edge, exactly on it (head + len == size), or past it.

class StreamFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StreamFuzz, GenericAndSynthesizedProcessorsAgreeOnRandomSegments) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 101);
  Kernel k;
  IoSystem io(k, nullptr);
  NicPool pool(k, NicPoolConfig());
  NicDevice& nic = pool.nic(0);
  StreamLayer st(k, io, pool);

  // Establish a server connection against a hand-rolled peer on port 91.
  ConnId srv = st.Listen(90);
  ASSERT_NE(srv, kBadConn);
  Memory& mem = k.machine().memory();
  {
    std::vector<uint8_t> p(StreamSeg::kHdrBytes, 0);
    uint32_t syn = StreamSeg::kFlagSyn;
    std::memcpy(p.data() + StreamSeg::kFlags, &syn, 4);
    nic.InjectRaw(90, 91, p.data(), StreamSeg::kHdrBytes,
                  FrameChecksum(90, 91, p.data(), StreamSeg::kHdrBytes),
                  StreamSeg::kHdrBytes);
    uint32_t one = 1, ackf = StreamSeg::kFlagAck;
    std::memcpy(p.data() + StreamSeg::kSeq, &one, 4);
    std::memcpy(p.data() + StreamSeg::kAck, &one, 4);
    std::memcpy(p.data() + StreamSeg::kFlags, &ackf, 4);
    nic.InjectRaw(90, 91, p.data(), StreamSeg::kHdrBytes,
                  FrameChecksum(90, 91, p.data(), StreamSeg::kHdrBytes),
                  StreamSeg::kHdrBytes);
  }
  k.Run();
  ASSERT_EQ(st.StateOf(srv), CcbLayout::kEstablished);
  ExpectWellFormed(k, st.generic_processor());
  ExpectWellFormed(k, st.SynthDeliverOf(srv));
  const SpecId spec = st.SpecOf(srv);
  ASSERT_EQ(k.spec().TierOf(spec), SpecTier::kSpecialized);

  const Addr ccb = st.CcbOf(srv);
  auto ring = st.RingOf(srv);
  const uint32_t ring_cap = ring->capacity;
  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);

  auto capture = [&](std::vector<uint32_t>* out) {
    out->clear();
    for (uint32_t off = 0; off < CcbLayout::kBytes; off += 4) {
      out->push_back(mem.Read32(ccb + off));
    }
    out->push_back(mem.Read32(ring->base + RingLayout::kHead));
    out->push_back(mem.Read32(ring->base + RingLayout::kTail));
    for (uint32_t off = 0; off < ring_cap; off += 4) {
      out->push_back(mem.Read32(ring->base + RingLayout::kBuf + off));
    }
    out->push_back(mem.Read32(nic.demux().ctr_malformed_addr()));
    out->push_back(mem.Read32(nic.demux().ctr_csum_addr()));
  };
  auto restore = [&](const std::vector<uint32_t>& snap) {
    uint32_t idx = 0;
    for (uint32_t off = 0; off < CcbLayout::kBytes; off += 4) {
      mem.Write32(ccb + off, snap[idx++]);
    }
    mem.Write32(ring->base + RingLayout::kHead, snap[idx++]);
    mem.Write32(ring->base + RingLayout::kTail, snap[idx++]);
    for (uint32_t off = 0; off < ring_cap; off += 4) {
      mem.Write32(ring->base + RingLayout::kBuf + off, snap[idx++]);
    }
    mem.Write32(nic.demux().ctr_malformed_addr(), snap[idx++]);
    mem.Write32(nic.demux().ctr_csum_addr(), snap[idx++]);
  };

  // Runs one segment through all three tiers from the current CCB state with
  // the ring head at `head` and `space` bytes free; returns whether the
  // payload was accepted into the ring (and so took a copy loop).
  auto diff_tiers = [&](const std::string& what, const std::vector<uint8_t>& p,
                        uint32_t plen, uint32_t src, bool corrupt,
                        uint32_t head, uint32_t space) {
    mem.Write32(ccb + CcbLayout::kEvents, 0);
    mem.Write32(ring->base + RingLayout::kHead, head);
    mem.Write32(ring->base + RingLayout::kTail,
                (head + space + 1) & (ring_cap - 1));
    std::vector<uint32_t> before;
    capture(&before);
    std::vector<uint32_t> got[3];
    uint32_t d0[3] = {0, 0, 0};
    for (int pass = 0; pass < 3; pass++) {
      if (pass == 2) {
        // The hot tier is the same template with the contiguity hint bound.
        EXPECT_TRUE(k.spec().Promote(spec, SpecTier::kHot)) << what;
        ExpectWellFormed(k, st.SynthDeliverOf(srv));
      }
      restore(before);  // every pass starts from the identical snapshot
      WriteFrame(mem, frame, 90, src, p.data(), plen);
      if (corrupt) {
        mem.Write32(frame + FrameLayout::kChecksum,
                    mem.Read32(frame + FrameLayout::kChecksum) + 1);
      }
      k.machine().set_reg(kA1, frame);
      k.machine().set_reg(kD0, 0xDEAD);
      RunResult rr = k.kexec().Call(pass == 0 ? nic.demux().generic_demux()
                                              : nic.demux().synthesized_demux());
      EXPECT_EQ(rr.outcome, RunOutcome::kReturned)
          << "segment processor crashed on " << what << " pass " << pass;
      d0[pass] = k.machine().reg(kD0);
      capture(&got[pass]);
    }
    EXPECT_TRUE(k.spec().Demote(spec, SpecTier::kSpecialized)) << what;
    for (int pass = 1; pass < 3; pass++) {
      EXPECT_EQ(d0[0], d0[pass])
          << "verdict divergence on " << what << " pass " << pass;
      EXPECT_EQ(got[0], got[pass])
          << "CCB/ring/counter divergence on " << what << " pass " << pass;
    }
    return (got[0][CcbLayout::kEvents / 4] & CcbLayout::kEvData) != 0;
  };
  // Accepted payload runs that end before the ring edge, on it, past it.
  uint32_t edge_hits[3] = {0, 0, 0};
  auto note_edge = [&](uint32_t head, uint32_t dlen) {
    const uint32_t end = head + dlen;
    edge_hits[end < ring_cap ? 0 : end == ring_cap ? 1 : 2]++;
  };

  for (int round = 0; round < 64; round++) {
    // Random but shared starting state: sequence variables, connection state,
    // and a ring that is sometimes nearly full.
    uint32_t una = 2 + rng() % 8;
    uint32_t nxt = una + rng() % 512;
    uint32_t rnxt = 1 + rng() % 1024;
    uint32_t state = 2 + rng() % 3;  // syn-sent / established / fin-sent
    uint32_t space = rng() % 4 == 0 ? rng() % 9 : ring_cap - 1;
    mem.Write32(ccb + CcbLayout::kState, state);
    mem.Write32(ccb + CcbLayout::kSndUna, una);
    mem.Write32(ccb + CcbLayout::kSndNxt, nxt);
    mem.Write32(ccb + CcbLayout::kRcvNxt, rnxt);
    mem.Write32(ccb + CcbLayout::kDupAcks, rng() % 3);
    mem.Write32(ccb + CcbLayout::kOoo, rng() % 5);
    mem.Write32(ccb + CcbLayout::kAccepted, rng() % 5);

    // Random segment: seq/ack clustered around the interesting boundaries,
    // flags mixed, sources mostly-right, checksums mostly-right, lengths
    // valid through runt and oversized.
    auto r32 = [&] { return static_cast<uint32_t>(rng()); };
    uint32_t seq_menu[] = {rnxt, rnxt + 1 + r32() % 64, rnxt - 1, r32()};
    uint32_t ack_menu[] = {una, una + 1 + r32() % (nxt - una + 2),
                           nxt, nxt + 1 + r32() % 16, r32()};
    uint32_t seq = seq_menu[rng() % 4];
    uint32_t ack = ack_menu[rng() % 5];
    uint32_t flags = StreamSeg::kFlagAck;
    if (rng() % 4 == 0) {
      flags |= 1u << (rng() % 4);  // SYN/ACK/FIN/RST
    }
    uint32_t dlen = rng() % 3 == 0 ? 0 : rng() % 64;
    uint32_t src = rng() % 5 == 0 ? 77 : 91;
    std::vector<uint8_t> p(StreamSeg::kHdrBytes + dlen);
    std::memcpy(p.data() + StreamSeg::kSeq, &seq, 4);
    std::memcpy(p.data() + StreamSeg::kAck, &ack, 4);
    std::memcpy(p.data() + StreamSeg::kFlags, &flags, 4);
    for (uint32_t i = 0; i < dlen; i++) {
      p[StreamSeg::kHdrBytes + i] = static_cast<uint8_t>(rng());
    }
    uint32_t plen = static_cast<uint32_t>(p.size());
    if (rng() % 8 == 0) {
      plen = rng() % StreamSeg::kHdrBytes;  // runt
    }
    // The producer head: the payload run ends before the ring edge, exactly
    // on it (head + len == size wraps the published head to 0), or past it
    // (the copy wraps mid-run).
    uint32_t head_menu[] = {r32() % (ring_cap / 2), ring_cap - dlen,
                            ring_cap - dlen + 1 + r32() % 3,
                            ring_cap - dlen - 1 - r32() % 8};
    const uint32_t head = head_menu[rng() % 4] & (ring_cap - 1);
    // Corrupt the checksum on a deterministic schedule.
    const bool corrupt = (round * 2654435761u) % 8 == 0;
    if (diff_tiers("round " + std::to_string(round), p, plen, src, corrupt,
                   head, space)) {
      note_edge(head, dlen);
    }
  }

  // Directed rounds: an in-order segment the processors must accept, of
  // every length class the word copy splits differently (whole words plus a
  // 0-3 byte tail), on every side of the ring edge.
  mem.Write32(ccb + CcbLayout::kState, CcbLayout::kEstablished);
  for (uint32_t dlen : {1u, 3u, 4u, 7u, 8u, 13u, 32u, 63u}) {
    for (uint32_t side = 0; side < (dlen > 1 ? 3u : 2u); side++) {
      const uint32_t rnxt = 1 + rng() % 1024;
      const uint32_t una = mem.Read32(ccb + CcbLayout::kSndUna);
      mem.Write32(ccb + CcbLayout::kRcvNxt, rnxt);
      std::vector<uint8_t> p(StreamSeg::kHdrBytes + dlen);
      const uint32_t ackf = StreamSeg::kFlagAck;
      std::memcpy(p.data() + StreamSeg::kSeq, &rnxt, 4);
      std::memcpy(p.data() + StreamSeg::kAck, &una, 4);
      std::memcpy(p.data() + StreamSeg::kFlags, &ackf, 4);
      for (uint32_t i = 0; i < dlen; i++) {
        p[StreamSeg::kHdrBytes + i] = static_cast<uint8_t>(rng());
      }
      // Where the run ends: 1-5 bytes before the edge, exactly on it, or
      // 1..dlen-1 bytes past it (the copy wraps mid-run).
      const uint32_t end = side == 0   ? ring_cap - 1 - rng() % 5
                           : side == 1 ? ring_cap
                                       : ring_cap + 1 + rng() % (dlen - 1);
      const uint32_t head = end - dlen;
      const std::string what = "directed len " + std::to_string(dlen) +
                               " side " + std::to_string(side);
      EXPECT_TRUE(diff_tiers(what, p, static_cast<uint32_t>(p.size()), 91,
                             false, head, ring_cap - 1))
          << what << ": the segment must be accepted";
      note_edge(head, dlen);
    }
  }
  EXPECT_GT(edge_hits[0], 0u);
  EXPECT_GT(edge_hits[1], 0u);
  EXPECT_GT(edge_hits[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Range(1, 7));

// --- Fault-schedule fuzzing ---------------------------------------------------
//
// Random wire fault mixes drive a complete transfer; every run must end in a
// bounded number of steps with either a fully delivered stream or a graceful
// connection failure — never a wedged ring or a hung kernel.

class PumpSender : public UserProgram {
 public:
  PumpSender(StreamLayer& st, ConnId conn, const std::string& data, bool* err)
      : st_(st), conn_(conn), data_(data), err_(err) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(128);
    }
    if (off_ >= data_.size()) {
      st_.Close(conn_);
      return StepStatus::kDone;
    }
    uint32_t take =
        std::min<uint32_t>(128, static_cast<uint32_t>(data_.size() - off_));
    k.machine().memory().WriteBytes(buf_, data_.data() + off_, take);
    int32_t n = st_.Send(conn_, buf_, take);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n == kIoError) {
      *err_ = true;
      return StepStatus::kDone;
    }
    off_ += static_cast<uint32_t>(n);
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  std::string data_;
  bool* err_;
  Addr buf_ = 0;
  size_t off_ = 0;
};

class PumpReceiver : public UserProgram {
 public:
  PumpReceiver(StreamLayer& st, ConnId conn, std::string* out)
      : st_(st), conn_(conn), out_(out) {}
  StepStatus Step(ThreadEnv& env) override {
    Kernel& k = env.kernel;
    if (buf_ == 0) {
      buf_ = k.allocator().Allocate(128);
    }
    int32_t n = st_.Recv(conn_, buf_, 128);
    if (n == kIoWouldBlock) {
      return StepStatus::kBlocked;
    }
    if (n <= 0) {
      if (n == 0) {
        st_.Close(conn_);
      }
      return StepStatus::kDone;
    }
    char tmp[128];
    k.machine().memory().ReadBytes(buf_, tmp, static_cast<size_t>(n));
    out_->append(tmp, static_cast<size_t>(n));
    k.machine().Charge(40, 10, 0);
    return StepStatus::kYield;
  }

 private:
  StreamLayer& st_;
  ConnId conn_;
  std::string* out_;
  Addr buf_ = 0;
};

class StreamFaultScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StreamFaultScheduleFuzz, EveryFaultMixEndsDeliveredOrGracefullyFailed) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2246822519u + 77);
  for (int round = 0; round < 4; round++) {
    NicConfig cfg;
    cfg.drop_rate = (rng() % 35) / 100.0;
    cfg.reorder_rate = (rng() % 30) / 100.0;
    cfg.duplicate_rate = (rng() % 25) / 100.0;
    cfg.burst_loss_rate = (rng() % 8) / 100.0;
    cfg.burst_len = 2 + rng() % 3;
    cfg.fault_seed = rng();
    Kernel k;
    IoSystem io(k, nullptr);
    NicPoolConfig pc;
    pc.nic = cfg;
    NicPool pool(k, pc);
    if (rng() % 2 != 0) {
      k.spec().Demote(pool.nic(0).demux().head_spec(), SpecTier::kGeneric);
    }
    StreamLayer st(k, io, pool);
    StreamConfig scfg;
    scfg.rto_base_us = 3000;
    scfg.max_retries = 12;
    ConnId srv = st.Listen(80, scfg);
    ConnId cli = st.Connect(80, scfg);
    std::string pattern;
    for (int i = 0; i < 600; i++) {
      pattern.push_back(static_cast<char>('!' + (i * 11) % 90));
    }
    std::string delivered;
    bool send_err = false;
    k.CreateThread(std::make_unique<PumpSender>(st, cli, pattern, &send_err));
    k.CreateThread(std::make_unique<PumpReceiver>(st, srv, &delivered));
    k.Run(80'000'000);
    uint32_t cs = st.StateOf(cli);
    ASSERT_TRUE(cs == CcbLayout::kDone || cs == CcbLayout::kFailed)
        << "round " << round << ": connection wedged in state " << cs;
    EXPECT_EQ(delivered, pattern.substr(0, delivered.size()))
        << "round " << round << ": corrupted or misordered delivery";
    if (cs == CcbLayout::kDone) {
      EXPECT_EQ(delivered, pattern) << "round " << round;
    } else {
      EXPECT_GE(st.failed_gauge().events(), 1u) << "round " << round;
    }
    ExpectWellFormed(k, st.generic_processor());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFaultScheduleFuzz, ::testing::Range(1, 7));

// --- Adaptation-schedule fuzzing ---------------------------------------------
//
// Differential: a transfer under a random adaptation schedule (seeded promote
// / demote / sweep / byte-cap flips fired between run slices) must deliver
// the byte-identical stream a schedule-free run delivers. Tier changes are
// pure performance decisions; any observable difference is a bug.

class AdaptFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AdaptFuzz, RandomTierScheduleNeverChangesDeliveredBytes) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 991);
  std::string pattern;
  for (int i = 0; i < 1200; i++) {
    pattern.push_back(static_cast<char>('!' + (i * 11) % 90));
  }

  auto run = [&](bool adapt_schedule) {
    Kernel::Config kc;
    kc.adapt.promote_hits = 4 + rng() % 32;
    kc.adapt.demote_windows = 1 + rng() % 4;
    Kernel k(kc);
    IoSystem io(k, nullptr);
    NicPoolConfig pc;
    pc.initial_nics = 1;
    NicPool pool(k, pc);
    StreamLayer st(k, io, pool);
    ConnId srv = st.Listen(80);
    ConnId cli = st.Connect(80);
    std::string delivered;
    bool send_err = false;
    k.CreateThread(std::make_unique<PumpSender>(st, cli, pattern, &send_err));
    k.CreateThread(std::make_unique<PumpReceiver>(st, srv, &delivered));
    for (int round = 0; round < 3000 && st.StateOf(cli) != CcbLayout::kDone;
         round++) {
      k.Run(20 + rng() % 80);
      if (!adapt_schedule) {
        continue;
      }
      SpecId targets[2] = {st.SpecOf(srv), st.SpecOf(cli)};
      SpecId s = targets[rng() % 2];
      switch (rng() % 6) {
        case 0:
          k.spec().Promote(s, SpecTier::kHot);
          break;
        case 1:
          k.spec().Promote(s, SpecTier::kSpecialized);
          break;
        case 2:
          k.spec().Demote(s, SpecTier::kGeneric);
          break;
        case 3:
          k.code().SetByteCap(rng() % 2 == 0 ? 8 * 1024 : 0);
          k.AdaptNow();
          break;
        default:
          k.AdaptNow();
          break;
      }
    }
    k.Run(20'000'000);
    EXPECT_FALSE(send_err);
    EXPECT_EQ(st.StateOf(cli), CcbLayout::kDone) << "adaptation wedged a "
                                                    "clean-wire transfer";
    return delivered;
  };

  // The rng draws differ between the two runs by construction (the reference
  // run draws only slice sizes) — the DELIVERED BYTES are what must match.
  std::string adapted = run(/*adapt_schedule=*/true);
  std::string reference = run(/*adapt_schedule=*/false);
  EXPECT_EQ(adapted, pattern);
  EXPECT_EQ(reference, pattern);
  EXPECT_EQ(adapted, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptFuzz, ::testing::Range(1, 6));

// --- Fault-plane replay fuzzing -----------------------------------------------
//
// The fault plane's core guarantee: the injection schedule is a pure function
// of the seed and the workload. Two runs of the same transfer under the same
// plane seed must produce a byte-identical injection log AND end in the same
// gauge state — any nondeterminism anywhere in the kernel (an unseeded rng, a
// host-pointer-ordered container on a decision path) breaks this loudly.

struct ReplayResult {
  std::string log;     // FaultPlane::SerializeLog()
  std::string gauges;  // fingerprint of every counter the run touched
  std::string delivered;
  uint32_t client_state = 0;
};

ReplayResult RunUnderFaultPlane(uint32_t plane_seed) {
  Kernel::Config kc;
  kc.fault_seed = plane_seed;
  Kernel k(kc);
  // Probability triggers on the wire sites (seed-dependent), a deterministic
  // every-Nth on the alarm path (guarantees a non-empty log), and a spurious
  // interrupt burst for good measure.
  FaultTrigger drop;
  drop.probability = 0.10;
  FaultTrigger dup;
  dup.probability = 0.06;
  FaultTrigger late;
  late.every_nth = 3;
  FaultTrigger burst;
  burst.probability = 0.05;
  k.faults().Arm(FaultSite::kWireDrop, drop);
  k.faults().Arm(FaultSite::kWireDup, dup);
  k.faults().Arm(FaultSite::kAlarmLate, late);
  k.faults().Arm(FaultSite::kIrqBurst, burst);

  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 2;
  pc.admission_control = true;
  pc.shed_high_watermark = 8;
  pc.shed_low_watermark = 2;
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  StreamConfig scfg;
  scfg.rto_base_us = 3000;
  scfg.max_retries = 12;
  scfg.pin_to_nic = true;
  ConnId srv = st.Listen(80, scfg);
  ConnId cli = st.Connect(80, scfg);
  std::string pattern;
  for (int i = 0; i < 600; i++) {
    pattern.push_back(static_cast<char>('!' + (i * 11) % 90));
  }
  ReplayResult r;
  bool send_err = false;
  k.CreateThread(std::make_unique<PumpSender>(st, cli, pattern, &send_err));
  k.CreateThread(std::make_unique<PumpReceiver>(st, srv, &r.delivered));
  k.Run(80'000'000);
  r.client_state = st.StateOf(cli);
  r.log = k.faults().SerializeLog();
  NicPool::AggregateStats agg = pool.Aggregate();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "del=%llu tx=%llu ovr=%llu csum=%llu mal=%llu ring=%llu wire=%llu "
      "shed=%llu rtx=%llu to=%llu dup=%llu ooo=%llu fail=%llu open=%llu "
      "fires=%llu",
      static_cast<unsigned long long>(agg.delivered),
      static_cast<unsigned long long>(agg.tx_completed),
      static_cast<unsigned long long>(agg.rx_overruns),
      static_cast<unsigned long long>(agg.csum_rejects),
      static_cast<unsigned long long>(agg.malformed),
      static_cast<unsigned long long>(agg.ring_drops),
      static_cast<unsigned long long>(agg.wire_drops),
      static_cast<unsigned long long>(agg.early_sheds),
      static_cast<unsigned long long>(st.retransmit_gauge().events()),
      static_cast<unsigned long long>(st.timeout_gauge().events()),
      static_cast<unsigned long long>(st.dup_ack_gauge().events()),
      static_cast<unsigned long long>(st.ooo_gauge().events()),
      static_cast<unsigned long long>(st.failed_gauge().events()),
      static_cast<unsigned long long>(st.open_fail_gauge().events()),
      static_cast<unsigned long long>(k.faults().total_fires()));
  r.gauges = buf;
  return r;
}

class FaultScheduleReplayFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultScheduleReplayFuzz, SameSeedReplaysLogAndGaugesByteIdentically) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 2654435761u + 13;
  ReplayResult a = RunUnderFaultPlane(seed);
  ReplayResult b = RunUnderFaultPlane(seed);
  EXPECT_FALSE(a.log.empty()) << "the every-Nth alarm trigger must have fired";
  EXPECT_EQ(a.log, b.log) << "same seed, same workload: the injection log "
                             "must replay byte-identically";
  EXPECT_EQ(a.gauges, b.gauges) << "and so must the final gauge state";
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.client_state, b.client_state);
  ASSERT_TRUE(a.client_state == CcbLayout::kDone ||
              a.client_state == CcbLayout::kFailed)
      << "wedged under injected faults in state " << a.client_state;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleReplayFuzz, ::testing::Range(1, 6));

// --- Buffer-cache differential fuzz -----------------------------------------
// The synthesized per-fd cached read/write paths (map probe, meta update,
// unrolled block copy, miss protocol) against the interpreted layered path:
// the same random schedule of reads, writes, and seeks over a tiny cache
// (constant eviction, read-ahead racing the schedule) must produce identical
// return values, identical bytes, and an identical final file image.

class BcacheStack {
 public:
  explicit BcacheStack(bool synthesized) : k_(MakeCfg(synthesized)), disk_(k_),
      sched_(disk_), fs_(k_, disk_, sched_), bc_(k_, disk_, sched_, MakeBc()),
      io_(k_, &fs_) {
    fs_.AttachBcache(&bc_);
    buf_ = k_.allocator().Allocate(kFuzzCap + 4096);  // Image() reads kFuzzCap
    file_ = fs_.CreateFile("/fuzz", {}, kFuzzCap);
    ch_ = io_.Open("/fuzz");
  }

  static Kernel::Config MakeCfg(bool synthesized) {
    Kernel::Config c;
    if (!synthesized) {
      c.synthesis = SynthesisOptions::Disabled();
    }
    return c;
  }
  static BcacheConfig MakeBc() {
    BcacheConfig c;
    c.entries = 8;             // tiny: the schedule constantly evicts
    c.read_ahead = 3;          // prefetch races the random accesses
    c.flush_period_us = 5'000; // flusher interleaves with the schedule
    c.flush_batch = 2;
    return c;
  }

  int32_t Write(uint32_t pos, const std::string& data) {
    Seek(pos);
    k_.machine().memory().WriteBytes(buf_, data.data(), data.size());
    return io_.Write(ch_, buf_, static_cast<uint32_t>(data.size()));
  }
  int32_t Read(uint32_t pos, uint32_t n, std::string* out) {
    Seek(pos);
    int32_t r = io_.Read(ch_, buf_, n);
    if (r > 0) {
      out->resize(static_cast<size_t>(r));
      k_.machine().memory().ReadBytes(buf_, out->data(),
                                      static_cast<uint32_t>(r));
    } else {
      out->clear();
    }
    return r;
  }
  void Fsync() { io_.Fsync(ch_); }
  void Settle() {
    DiskScheduler::DriveUntil(k_, [&] { return bc_.dirty_blocks() == 0; });
  }
  std::string Image() {
    std::string img;
    const int32_t n = Read(0, kFuzzCap, &img);
    return n >= 0 ? img : "<error>";
  }
  bool Ready() const { return file_ != 0 && ch_ != kBadChannel; }
  Bcache& bc() { return bc_; }
  uint32_t Size() { return fs_.SizeOf(file_); }

  static constexpr uint32_t kFuzzCap = 24 * 512;  // 3x the cache size

 private:
  void Seek(uint32_t pos) {
    k_.machine().memory().Write32(io_.RecordOf(ch_) + ChannelLayout::kPosition,
                                  pos);
  }

  Kernel k_;
  DiskDevice disk_;
  DiskScheduler sched_;
  FileSystem fs_;
  Bcache bc_;
  IoSystem io_;
  Addr buf_ = 0;
  uint32_t file_ = 0;
  ChannelId ch_ = kBadChannel;
};

class BcacheFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BcacheFuzz, CachedPathsMatchLayeredInterpreterExactly) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) * 2654435761u + 101);
  BcacheStack synth(/*synthesized=*/true);
  BcacheStack generic(/*synthesized=*/false);
  ASSERT_TRUE(synth.Ready());
  ASSERT_TRUE(generic.Ready());

  std::string model(BcacheStack::kFuzzCap, '\0');
  uint32_t model_size = 0;
  for (int op = 0; op < 250; ++op) {
    const uint32_t pos = rng() % BcacheStack::kFuzzCap;
    const uint32_t n = 1 + rng() % 2000;  // spans up to ~4 cache blocks
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // write a random span
        std::string data(n, '\0');
        for (auto& b : data) {
          b = static_cast<char>(rng() % 256);
        }
        const int32_t rs = synth.Write(pos, data);
        const int32_t rg = generic.Write(pos, data);
        ASSERT_EQ(rs, rg) << "write @" << pos << "+" << n << " op " << op;
        if (rs > 0) {
          model.replace(pos, static_cast<size_t>(rs), data, 0,
                        static_cast<size_t>(rs));
          model_size = std::max(model_size, pos + static_cast<uint32_t>(rs));
        }
        break;
      }
      case 7:  // occasionally force write-back / drain the flusher
        if (rng() % 2 == 0) {
          synth.Fsync();
          generic.Fsync();
        } else {
          synth.Settle();
          generic.Settle();
        }
        break;
      default: {  // read a random span
        std::string bs, bg;
        const int32_t rs = synth.Read(pos, n, &bs);
        const int32_t rg = generic.Read(pos, n, &bg);
        ASSERT_EQ(rs, rg) << "read @" << pos << "+" << n << " op " << op;
        ASSERT_EQ(bs, model.substr(pos, bs.size()))
            << "synth read bytes @" << pos << "+" << n << " op " << op;
        ASSERT_EQ(bg, model.substr(pos, bg.size()))
            << "generic read bytes @" << pos << "+" << n << " op " << op;
        break;
      }
    }
    ASSERT_LE(synth.bc().resident_blocks(), BcacheStack::MakeBc().entries);
    ASSERT_EQ(synth.Size(), model_size) << "synth size diverged at op " << op;
    ASSERT_EQ(generic.Size(), model_size)
        << "generic size diverged at op " << op;
  }

  for (auto [name, img] :
       {std::pair<const char*, std::string>{"synth", synth.Image()},
        {"generic", generic.Image()}}) {
    ASSERT_EQ(img.size(), model_size) << name << " final size diverged";
    size_t diff = 0;
    while (diff < img.size() && img[diff] == model[diff]) {
      diff++;
    }
    EXPECT_EQ(diff, img.size())
        << name << " final image diverged from the op model at byte " << diff
        << " (block " << diff / 512 << ")";
  }
  EXPECT_GT(synth.bc().evictions(), 0u)
      << "the tiny cache must have churned for this fuzz to mean anything";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcacheFuzz, ::testing::Range(1, 9));

// --- Crash-replay fuzz -------------------------------------------------------
// Power failure composed with lost and late disk completions over a random
// write/fsync schedule: the same seed must reproduce the same injection log
// byte-for-byte and the same surviving platter image, and when the power did
// fail, the remounted file system must audit clean with every byte fsynced
// before the crash intact.

struct CrashRunResult {
  std::string log;        // the injection log (byte-comparable)
  std::string image_sig;  // surviving platter image, hex-folded
  bool crashed = false;
  bool mount_ok = true;
  bool audit_clean = true;
  bool fsynced_survived = true;
};

CrashRunResult RunCrashSchedule(uint32_t seed) {
  CrashStackConfig cfg;
  cfg.disk.sectors = 8192;
  cfg.bcache.entries = 8;  // tiny: constant eviction write-back
  cfg.bcache.flush_period_us = 8'000;
  cfg.bcache.flush_batch = 4;
  cfg.bcache.read_ahead = 3;
  cfg.journal.sectors = 64;
  cfg.kernel.fault_seed = seed;
  CrashHarness h(cfg);

  FaultPlane& f = h.stack().kernel.faults();
  FaultTrigger power;
  power.probability = 0.01;
  f.Arm(FaultSite::kPowerFail, power);
  FaultTrigger lost;
  lost.probability = 0.005;
  f.Arm(FaultSite::kDiskLost, lost);
  FaultTrigger late;
  late.probability = 0.005;
  f.Arm(FaultSite::kDiskLate, late);

  constexpr uint32_t kCap = 16 * 512;
  CrashStack& s = h.stack();
  Addr buf = s.kernel.allocator().Allocate(kCap + 4096);
  EXPECT_NE(s.fs.CreateFile("/cf", {}, kCap), 0u);
  ChannelId ch = s.io.Open("/cf");
  EXPECT_NE(ch, kBadChannel);

  std::vector<uint8_t> fsynced(kCap, 0);  // bytes at the last completed fsync
  std::vector<uint8_t> latest(kCap, 0);   // bytes as last written
  // Per-byte values written since that fsync: any of them may have been
  // pushed home by the flusher before the power failed.
  std::vector<std::vector<uint8_t>> extra(kCap);
  uint32_t fsynced_size = 0, size = 0;

  std::mt19937 rng(seed * 2654435761u + 977);
  for (int op = 0; op < 150 && !h.Crashed(); ++op) {
    const uint32_t kind = rng() % 8;
    if (kind < 5) {
      const uint32_t pos = rng() % (kCap - 600);
      const uint32_t len = 32 + rng() % 560;
      std::string data(len, '\0');
      for (uint32_t i = 0; i < len; ++i) {
        data[i] = static_cast<char>('0' + (rng() % 75));
      }
      s.kernel.machine().memory().Write32(
          s.io.RecordOf(ch) + ChannelLayout::kPosition, pos);
      s.kernel.machine().memory().WriteBytes(buf, data.data(), len);
      const int32_t w = s.io.Write(ch, buf, len);
      for (int32_t i = 0; i < w; ++i) {
        latest[pos + i] = static_cast<uint8_t>(data[static_cast<size_t>(i)]);
        extra[pos + i].push_back(latest[pos + i]);
      }
      if (w > 0) size = std::max(size, pos + static_cast<uint32_t>(w));
    } else if (kind < 7) {
      s.io.Fsync(ch);
      if (!h.Crashed()) {
        fsynced = latest;
        for (auto& e : extra) e.clear();
        fsynced_size = size;
      }
    } else {
      DiskScheduler::DriveUntil(
          s.kernel, [&] { return s.bcache.dirty_blocks() == 0; });
    }
  }

  CrashRunResult r;
  r.crashed = h.Crashed();
  r.log = s.kernel.faults().SerializeLog();
  const std::vector<uint8_t>& img =
      r.crashed ? s.disk.crash_image() : s.disk.backing();
  uint32_t sig = 0;
  for (uint8_t b : img) sig = sig * 1000003u + b;
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x-%zu", sig, img.size());
  r.image_sig = hex;

  if (r.crashed) {
    FileSystem::MountReport rep = h.Reboot();
    r.mount_ok = rep.ok;
    r.audit_clean = rep.audit_clean;
    CrashStack& ns = h.stack();
    ns.kernel.faults().DisarmAll();
    uint32_t id = 0;
    if (!ns.fs.names().Lookup("/cf", &id) || ns.fs.SizeOf(id) < fsynced_size) {
      r.fsynced_survived = false;
      return r;
    }
    Addr nbuf = ns.kernel.allocator().Allocate(kCap + 4096);
    ChannelId nch = ns.io.Open("/cf");
    const uint32_t nsize = ns.fs.SizeOf(id);
    if (nch == kBadChannel ||
        ns.io.Read(nch, nbuf, kCap) != static_cast<int32_t>(nsize)) {
      r.fsynced_survived = false;
      return r;
    }
    std::vector<uint8_t> got(nsize);
    if (nsize > 0) {  // data() of an empty vector is null; memcpy rejects it
      ns.kernel.machine().memory().ReadBytes(nbuf, got.data(), nsize);
    }
    for (uint32_t i = 0; i < fsynced_size; ++i) {
      // A surviving byte is the fsynced value or any value written to it
      // after that fsync (the flusher may have pushed it home pre-crash).
      if (got[i] != fsynced[i] &&
          std::find(extra[i].begin(), extra[i].end(), got[i]) ==
              extra[i].end()) {
        r.fsynced_survived = false;
        break;
      }
    }
  }
  return r;
}

class CrashFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CrashFuzz, SameSeedCrashReplaysByteIdenticallyAndRecovers) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 48271u + 31;
  CrashRunResult a = RunCrashSchedule(seed);
  CrashRunResult b = RunCrashSchedule(seed);
  EXPECT_EQ(a.log, b.log) << "same seed: the injection log must replay "
                             "byte-identically";
  EXPECT_EQ(a.image_sig, b.image_sig)
      << "and the surviving platter image must be byte-stable";
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_TRUE(a.mount_ok) << "remount failed after the crash";
  EXPECT_TRUE(a.audit_clean) << "the auditor found damage after replay";
  EXPECT_TRUE(a.fsynced_survived) << "a pre-crash fsynced byte was lost";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzz, ::testing::Range(1, 10));

}  // namespace
}  // namespace synthesis
