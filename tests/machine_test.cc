// Unit tests for the Quamachine simulator: assembler, executor semantics,
// cost accounting, memory protection, and the execution trace.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/disasm.h"
#include "src/machine/executor.h"
#include "src/machine/machine.h"
#include "src/machine/trace_monitor.h"

namespace synthesis {
namespace {

constexpr size_t kMem = 64 * 1024;

class MachineTest : public ::testing::Test {
 protected:
  Machine m_{kMem, MachineConfig::SunEmulation()};
  CodeStore store_;
  Executor exec_{m_, store_};
};

TEST_F(MachineTest, MoveAndArithmetic) {
  Asm a("arith");
  a.MoveI(kD0, 10).MoveI(kD1, 32).Add(kD0, kD1).SubI(kD0, 2).MulI(kD0, 3).Rts();
  BlockId id = store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(id);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 120u);
  EXPECT_EQ(r.instructions, 6u);
}

TEST_F(MachineTest, LogicalOps) {
  Asm a("logic");
  a.MoveI(kD0, 0xF0).MoveI(kD1, 0x0F).Or(kD0, kD1).AndI(kD0, 0x3C).Xor(kD0, kD0);
  a.MoveI(kD2, 1).LslI(kD2, 4).LsrI(kD2, 2).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 0u);
  EXPECT_EQ(m_.reg(kD2), 4u);
}

TEST_F(MachineTest, LoadStoreWidths) {
  Asm a("mem");
  a.MoveI(kA0, 0x100);
  a.MoveI(kD0, 0x12345678);
  a.Store32(kA0, kD0, 0);
  a.Load8(kD1, kA0, 0);
  a.Load16(kD2, kA0, 0);
  a.Load32(kD3, kA0, 0);
  a.Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD1), 0x78u);
  EXPECT_EQ(m_.reg(kD2), 0x5678u);
  EXPECT_EQ(m_.reg(kD3), 0x12345678u);
}

TEST_F(MachineTest, PushPop) {
  Asm a("stack");
  a.MoveI(kA7, 0x1000).MoveI(kD0, 7).Push(kD0).MoveI(kD0, 0).Pop(kD1).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD1), 7u);
  EXPECT_EQ(m_.reg(kA7), 0x1000u);
}

TEST_F(MachineTest, ConditionalBranchLoop) {
  // Sum 1..5 with a loop.
  Asm a("loop");
  a.MoveI(kD0, 0).MoveI(kD1, 5);
  a.Label("top");
  a.Tst(kD1).Beq("done");
  a.Add(kD0, kD1).SubI(kD1, 1).Bra("top");
  a.Label("done");
  a.Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 15u);
}

TEST_F(MachineTest, SignedVsUnsignedBranches) {
  // -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
  Asm a("cmp");
  a.MoveI(kD0, -1).CmpI(kD0, 1);
  a.Blt("signed_lt");
  a.MoveI(kD2, 0).Rts();
  a.Label("signed_lt");
  a.MoveI(kD2, 1);
  a.CmpI(kD0, 1).Bhi("unsigned_hi");
  a.Rts();
  a.Label("unsigned_hi");
  a.AddI(kD2, 10).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD2), 11u);
}

TEST_F(MachineTest, JsrRtsNesting) {
  Asm callee("callee");
  callee.AddI(kD0, 5).Rts();
  BlockId cid = store_.Install(callee.BuildBlock());

  Asm caller("caller");
  caller.MoveI(kD0, 1).Jsr(cid).Jsr(cid).Rts();
  BlockId top = store_.Install(caller.BuildBlock());
  RunResult r = exec_.Call(top);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 11u);
}

TEST_F(MachineTest, IndirectCallThroughMemory) {
  // Executable data structure: block id stored in memory, called indirectly.
  Asm callee("inc");
  callee.AddI(kD0, 1).Rts();
  BlockId cid = store_.Install(callee.BuildBlock());
  m_.memory().Write32(0x200, static_cast<uint32_t>(cid));

  Asm caller("dispatch");
  caller.MoveI(kA0, 0x200).Load32(kD7, kA0, 0).JsrInd(kD7).Rts();
  BlockId top = store_.Install(caller.BuildBlock());
  m_.set_reg(kD0, 41);
  exec_.Call(top);
  EXPECT_EQ(m_.reg(kD0), 42u);
}

TEST_F(MachineTest, JmpIndTailTransfer) {
  Asm next("next");
  next.MoveI(kD3, 99).Halt();
  BlockId nid = store_.Install(next.BuildBlock());

  Asm first("first");
  first.MoveI(kD7, nid).JmpInd(kD7);
  BlockId fid = store_.Install(first.BuildBlock());
  RunResult r = exec_.Call(fid);
  EXPECT_EQ(r.outcome, RunOutcome::kHalted);
  EXPECT_EQ(m_.reg(kD3), 99u);
}

TEST_F(MachineTest, CasSuccessAndFailure) {
  m_.memory().Write32(0x300, 5);
  Asm a("cas");
  a.MoveI(kA0, 0x300).MoveI(kD0, 5).MoveI(kD1, 9).Cas(kD1, kA0, 0);
  a.Bne("failed");
  a.MoveI(kD2, 1).Rts();
  a.Label("failed");
  a.MoveI(kD2, 0).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD2), 1u);
  EXPECT_EQ(m_.memory().Read32(0x300), 9u);

  // Second attempt with a stale expected value fails and loads the current
  // value into d0 (68020 semantics).
  exec_.Call(1);
  EXPECT_EQ(m_.reg(kD2), 0u);
  EXPECT_EQ(m_.reg(kD0), 9u);
  EXPECT_EQ(m_.memory().Read32(0x300), 9u);
}

TEST_F(MachineTest, MovemRoundTrip) {
  Asm save("save");
  save.MoveI(kA0, 0x400).MovemSave(kA0, 16).Rts();
  Asm clobber("clobber");
  for (uint8_t r = 0; r < 8; r++) {
    clobber.MoveI(r, 0);
  }
  clobber.Rts();
  Asm load("load");
  load.MoveI(kA0, 0x400).MovemLoad(kA0, 8).Rts();
  BlockId s = store_.Install(save.BuildBlock());
  BlockId c = store_.Install(clobber.BuildBlock());
  BlockId l = store_.Install(load.BuildBlock());

  for (uint8_t r = 0; r < 8; r++) {
    m_.set_reg(r, 100u + r);
  }
  exec_.Call(s);
  exec_.Call(c);
  EXPECT_EQ(m_.reg(kD5), 0u);
  exec_.Call(l);
  for (uint8_t r = 0; r < 8; r++) {
    EXPECT_EQ(m_.reg(r), 100u + r);
  }
}

TEST_F(MachineTest, TrapHandlerContinue) {
  int seen = -1;
  exec_.SetTrapHandler([&](int vec, Machine& m) {
    seen = vec;
    m.set_reg(kD0, 77);
    return TrapAction::kContinue;
  });
  Asm a("trap");
  a.Trap(42).AddI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(m_.reg(kD0), 78u);
}

TEST_F(MachineTest, TrapBlockAndResumeRetriesTrap) {
  int calls = 0;
  exec_.SetTrapHandler([&](int vec, Machine&) {
    calls++;
    return calls < 3 ? TrapAction::kBlock : TrapAction::kContinue;
  });
  Asm a("block");
  a.MoveI(kD0, 5).Trap(1).AddI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());

  exec_.Start(1);
  RunResult r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kBlocked);
  EXPECT_EQ(r.trap_vector, 1);
  r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kBlocked);
  r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(m_.reg(kD0), 6u);
}

TEST_F(MachineTest, BlockingTrapWhoseHandlerReplacedItsBlockReportsItsVector) {
  // Resynthesis from a trap handler may replace the running block; the
  // executor must not read the trap instruction through the old code.
  Asm a("old");
  a.Trap(42).Rts();
  const BlockId id = store_.Install(a.BuildBlock());
  exec_.SetTrapHandler([&](int, Machine&) {
    Asm b("new");
    b.Trap(43).AddI(kD0, 1).AddI(kD0, 1).Rts();
    store_.Replace(id, b.BuildBlock());
    return TrapAction::kBlock;
  });
  exec_.Start(id);
  RunResult r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kBlocked);
  EXPECT_EQ(r.trap_vector, 42);
}

TEST_F(MachineTest, BusErrorOnOutOfRange) {
  Asm a("bad");
  a.MoveI(kA0, static_cast<int32_t>(kMem)).Load32(kD0, kA0, 100).Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault, FaultKind::kBusError);
}

TEST_F(MachineTest, QuaspaceProtectionFaultsInUserMode) {
  // User mode with a filter: touching outside the quaspace bus-faults (§2.1).
  m_.set_supervisor(false);
  m_.address_filter().Allow(AddrRange{0x1000, 0x2000});
  Asm a("prot");
  a.MoveI(kA0, 0x1800).Store32(kA0, kD0, 0).MoveI(kA0, 0x2800).Store32(kA0, kD0, 0);
  a.Rts();
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault_addr, 0x2800u);
  // Supervisor state sees everything.
  m_.set_supervisor(true);
  r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
}

TEST_F(MachineTest, StepLimitSuspendsAndResumesMidBlock) {
  Asm a("work");
  for (int i = 0; i < 10; i++) {
    a.AddI(kD0, 1);
  }
  a.Rts();
  store_.Install(a.BuildBlock());
  exec_.Start(1);
  RunResult r = exec_.Run(2);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  EXPECT_EQ(m_.reg(kD0), 2u);
  r = exec_.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 10u);
}

TEST_F(MachineTest, StepLimitIsResumable) {
  Asm a("spin");
  a.Label("top").AddI(kD0, 1).Bra("top");
  store_.Install(a.BuildBlock());
  exec_.Start(1);
  RunResult r = exec_.Run(100);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  r = exec_.Run(100);
  EXPECT_EQ(r.outcome, RunOutcome::kStepLimit);
  EXPECT_EQ(r.instructions, 100u);
}

TEST_F(MachineTest, CycleAccountingAndClock) {
  Asm a("cost");
  a.MoveI(kD0, 1).Rts();  // movei 4 cycles; rts 8 + 1 memref * 3 = 11
  store_.Install(a.BuildBlock());
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.cycles, 15u);
  EXPECT_EQ(r.mem_refs, 1u);
  // 15 cycles at 16 MHz is 0.9375 microseconds.
  EXPECT_DOUBLE_EQ(m_.NowMicros(), 15.0 / 16.0);
}

TEST_F(MachineTest, NativeClockIsFaster) {
  Machine fast(kMem, MachineConfig::NativeQuamachine());
  CodeStore cs;
  Executor ex(fast, cs);
  Asm a("cost");
  a.MoveI(kD0, 1).Rts();
  cs.Install(a.BuildBlock());
  ex.Call(1);
  // 0 wait states: rts pays 8 + 2 = 10; total 14 cycles at 50 MHz.
  EXPECT_DOUBLE_EQ(fast.NowMicros(), 14.0 / 50.0);
}

TEST_F(MachineTest, TraceRecordsExecution) {
  m_.set_tracing(true);
  Asm a("traced");
  a.MoveI(kD0, 1).AddI(kD0, 2).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  ASSERT_EQ(m_.trace().size(), 3u);
  EXPECT_EQ(m_.trace()[0].instr.op, Opcode::kMoveI);
  EXPECT_EQ(m_.trace()[2].instr.op, Opcode::kRts);
}

TEST_F(MachineTest, StopwatchMeasuresDeltas) {
  Asm a("w");
  a.MoveI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  Stopwatch sw(m_);
  exec_.Call(1);
  EXPECT_EQ(sw.instructions(), 2u);
  EXPECT_EQ(sw.cycles(), 15u);
}

TEST_F(MachineTest, DisassemblerFormats) {
  Asm a("d");
  a.MoveI(kD0, 5).Load32(kD1, kA0, 8).Store32(kA1, kD1, 12).Cas(kD2, kA0, 0).Rts();
  CodeBlock b = a.BuildBlock();
  std::string text = Disassemble(b);
  EXPECT_NE(text.find("movei"), std::string::npos);
  EXPECT_NE(text.find("d1, 8(a0)"), std::string::npos);
  EXPECT_NE(text.find("12(a1), d1"), std::string::npos);
  EXPECT_NE(text.find("cas"), std::string::npos);
}

TEST_F(MachineTest, CodeStoreReplaceAndFind) {
  Asm a("orig");
  a.MoveI(kD0, 1).Rts();
  BlockId id = store_.Install(a.BuildBlock());
  EXPECT_EQ(store_.Find("orig"), id);

  Asm b("orig");
  b.MoveI(kD0, 2).Rts();
  store_.Replace(id, b.BuildBlock());
  exec_.Call(id);
  EXPECT_EQ(m_.reg(kD0), 2u);
  EXPECT_EQ(store_.block_count(), 1u);
}

TEST_F(MachineTest, FallOffEndActsAsReturn) {
  Asm callee("fall");
  callee.MoveI(kD0, 3);  // no rts
  BlockId cid = store_.Install(callee.BuildBlock());
  Asm caller("c");
  caller.Jsr(cid).AddI(kD0, 1).Rts();
  BlockId top = store_.Install(caller.BuildBlock());
  RunResult r = exec_.Call(top);
  EXPECT_EQ(r.outcome, RunOutcome::kReturned);
  EXPECT_EQ(m_.reg(kD0), 4u);
}

// --- The clock is exact wherever host code can read it ----------------------
// The executor batches its charges and flushes them before each trap handler
// and on every exit; these tests pin the counters at each of those points.

// A one-instruction block for `op` whose operands keep it from faulting:
// every register holds kScratch (a valid address), block operands name
// `empty` (an empty block, which returns at once), branches target the end.
constexpr uint32_t kScratch = 0x1000;

Instr OneInstr(Opcode op, int32_t imm, BlockId empty) {
  Instr in{op, kA1, kA0, 8};
  switch (op) {
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32:
    case Opcode::kStoreA8:
    case Opcode::kStoreA16:
    case Opcode::kStoreA32:
    case Opcode::kLoadIdx32:
    case Opcode::kStoreIdx32:
    case Opcode::kCasA:
      in.imm = 0x2000;
      break;
    case Opcode::kJsr:
      in.imm = empty;
      break;
    case Opcode::kJsrInd:
    case Opcode::kJmpInd:
      in.rs = kD1;  // holds `empty`
      break;
    case Opcode::kMovemSave:
    case Opcode::kMovemLoad:
    case Opcode::kCharge:
      in.imm = imm;
      break;
    default:
      if (IsBranch(op)) {
        in.imm = 1;  // both outcomes land on the end of the block
      }
      break;
  }
  return in;
}

// Whether a branch is taken when the compared pair orders as `order` (-1
// less, 0 equal, 1 greater; signed and unsigned agree on the small values
// the test compares).
bool TakenOn(Opcode op, int order) {
  switch (op) {
    case Opcode::kBeq:
      return order == 0;
    case Opcode::kBne:
      return order != 0;
    case Opcode::kBlt:
      return order < 0;
    case Opcode::kBge:
      return order >= 0;
    case Opcode::kBgt:
    case Opcode::kBhi:
      return order > 0;
    case Opcode::kBle:
    case Opcode::kBls:
      return order <= 0;
    default:
      return true;  // kBra
  }
}

TEST(MachineClockTest, EveryOpcodeChargesItsCostModelPrice) {
  for (MachineConfig config :
       {MachineConfig::SunEmulation(), MachineConfig::NativeQuamachine()}) {
    for (int o = 0; o < static_cast<int>(Opcode::kNumOpcodes); o++) {
      const Opcode op = static_cast<Opcode>(o);
      std::vector<int32_t> imms = {0};
      if (op == Opcode::kMovemSave || op == Opcode::kMovemLoad) {
        imms = {0, 1, 7, 16, 20};
      } else if (op == Opcode::kCharge) {
        imms = {0, 1, 37, 1000};
      }
      // Orderings of the compared pair: -1 less, 0 equal, 1 greater.
      const std::vector<int> orders =
          IsConditionalBranch(op) ? std::vector<int>{-1, 0, 1} : std::vector<int>{0};
      for (int32_t imm : imms) {
        for (int order : orders) {
          Machine m(kMem, config);
          CodeStore store;
          Executor exec(m, store);
          exec.SetTrapHandler([](int, Machine&) { return TrapAction::kContinue; });
          const BlockId empty = store.Install(CodeBlock{"empty", {}});
          const Instr in = OneInstr(op, imm, empty);
          const BlockId id = store.Install(CodeBlock{"one", {in}});
          for (uint8_t r = 0; r < kNumRegisters; r++) {
            m.set_reg(r, kScratch);
          }
          m.set_reg(kD1, static_cast<uint32_t>(empty));
          m.SetCc(1, static_cast<uint32_t>(1 - order));  // lhs <=> rhs is `order`
          const bool taken = TakenOn(op, order);

          Stopwatch sw(m);
          RunResult r = exec.Call(id);
          SCOPED_TRACE(testing::Message() << OpcodeName(op) << " imm=" << imm
                                          << " order=" << order
                                          << " mhz=" << config.clock_mhz);
          ASSERT_NE(r.outcome, RunOutcome::kFault);
          EXPECT_EQ(r.instructions, 1u);
          EXPECT_EQ(r.cycles, m.cost_model().Cycles(in, taken));
          EXPECT_EQ(r.mem_refs, CostModel::MemRefs(in));
          EXPECT_EQ(sw.instructions(), r.instructions);
          EXPECT_EQ(sw.cycles(), r.cycles);
          EXPECT_EQ(sw.mem_refs(), r.mem_refs);
        }
      }
    }
  }
}

// The calibrated price of every opcode at imm 0, pinned so that rebuilding
// the cost table cannot move a virtual number: cycles on SunEmulation (branch
// not taken, taken), on NativeQuamachine (not taken, taken), and references.
TEST(MachineClockTest, CostTableMatchesTheCalibratedModel) {
  struct Row {
    Opcode op;
    uint32_t sun, sun_taken, native, native_taken, refs;
  };
  const Row rows[] = {
      {Opcode::kNop, 2, 2, 2, 2, 0},
      {Opcode::kMoveI, 4, 4, 4, 4, 0},
      {Opcode::kMove, 2, 2, 2, 2, 0},
      {Opcode::kLea, 4, 4, 4, 4, 0},
      {Opcode::kLoad8, 7, 7, 6, 6, 1},
      {Opcode::kLoad16, 7, 7, 6, 6, 1},
      {Opcode::kLoad32, 7, 7, 6, 6, 1},
      {Opcode::kStore8, 7, 7, 6, 6, 1},
      {Opcode::kStore16, 7, 7, 6, 6, 1},
      {Opcode::kStore32, 7, 7, 6, 6, 1},
      {Opcode::kLoadA8, 7, 7, 6, 6, 1},
      {Opcode::kLoadA16, 7, 7, 6, 6, 1},
      {Opcode::kLoadA32, 7, 7, 6, 6, 1},
      {Opcode::kStoreA8, 7, 7, 6, 6, 1},
      {Opcode::kStoreA16, 7, 7, 6, 6, 1},
      {Opcode::kStoreA32, 7, 7, 6, 6, 1},
      {Opcode::kLoadIdx32, 9, 9, 8, 8, 1},
      {Opcode::kStoreIdx32, 9, 9, 8, 8, 1},
      {Opcode::kPush, 7, 7, 6, 6, 1},
      {Opcode::kPop, 7, 7, 6, 6, 1},
      {Opcode::kAdd, 2, 2, 2, 2, 0},
      {Opcode::kAddI, 4, 4, 4, 4, 0},
      {Opcode::kSub, 2, 2, 2, 2, 0},
      {Opcode::kSubI, 4, 4, 4, 4, 0},
      {Opcode::kMulI, 28, 28, 28, 28, 0},
      {Opcode::kAnd, 2, 2, 2, 2, 0},
      {Opcode::kAndI, 4, 4, 4, 4, 0},
      {Opcode::kOr, 2, 2, 2, 2, 0},
      {Opcode::kOrI, 4, 4, 4, 4, 0},
      {Opcode::kXor, 2, 2, 2, 2, 0},
      {Opcode::kLslI, 4, 4, 4, 4, 0},
      {Opcode::kLsrI, 4, 4, 4, 4, 0},
      {Opcode::kCmp, 2, 2, 2, 2, 0},
      {Opcode::kCmpI, 4, 4, 4, 4, 0},
      {Opcode::kTst, 2, 2, 2, 2, 0},
      {Opcode::kBra, 6, 6, 6, 6, 0},
      {Opcode::kBeq, 4, 6, 4, 6, 0},
      {Opcode::kBne, 4, 6, 4, 6, 0},
      {Opcode::kBlt, 4, 6, 4, 6, 0},
      {Opcode::kBge, 4, 6, 4, 6, 0},
      {Opcode::kBgt, 4, 6, 4, 6, 0},
      {Opcode::kBle, 4, 6, 4, 6, 0},
      {Opcode::kBhi, 4, 6, 4, 6, 0},
      {Opcode::kBls, 4, 6, 4, 6, 0},
      {Opcode::kJsr, 11, 11, 10, 10, 1},
      {Opcode::kJsrInd, 13, 13, 12, 12, 1},
      {Opcode::kJmpInd, 6, 6, 6, 6, 0},
      {Opcode::kRts, 11, 11, 10, 10, 1},
      {Opcode::kCas, 18, 18, 16, 16, 2},
      {Opcode::kCasA, 18, 18, 16, 16, 2},
      {Opcode::kTrap, 32, 32, 28, 28, 4},
      {Opcode::kMovemSave, 4, 4, 4, 4, 0},
      {Opcode::kMovemLoad, 4, 4, 4, 4, 0},
      {Opcode::kSetVbr, 8, 8, 8, 8, 0},
      {Opcode::kCharge, 0, 0, 0, 0, 0},
      {Opcode::kHalt, 2, 2, 2, 2, 0},
  };
  ASSERT_EQ(std::size(rows), static_cast<size_t>(Opcode::kNumOpcodes));
  const CostModel sun(MachineConfig::SunEmulation());
  const CostModel native(MachineConfig::NativeQuamachine());
  for (const Row& row : rows) {
    const Instr in{row.op, 0, 0, 0};
    SCOPED_TRACE(OpcodeName(row.op));
    EXPECT_EQ(sun.Cycles(in, false), row.sun);
    EXPECT_EQ(sun.Cycles(in, true), row.sun_taken);
    EXPECT_EQ(native.Cycles(in, false), row.native);
    EXPECT_EQ(native.Cycles(in, true), row.native_taken);
    EXPECT_EQ(CostModel::MemRefs(in), row.refs);
  }
  // The imm-scaled terms: MOVEM pays 1 cycle of sequencing plus one memory
  // reference per register; kCharge charges imm cycles outright.
  for (Opcode op : {Opcode::kMovemSave, Opcode::kMovemLoad}) {
    EXPECT_EQ(sun.Cycles(Instr{op, 0, 0, 16}, false), 68u);
    EXPECT_EQ(native.Cycles(Instr{op, 0, 0, 16}, false), 52u);
    EXPECT_EQ(sun.Cycles(Instr{op, 0, 0, 1000}, false), 4004u);
    EXPECT_EQ(CostModel::MemRefs(Instr{op, 0, 0, 16}), 16u);
  }
  EXPECT_EQ(sun.Cycles(Instr{Opcode::kCharge, 0, 0, 1000}, true), 1000u);
  EXPECT_EQ(native.Cycles(Instr{Opcode::kCharge, 0, 0, 37}, false), 37u);
  EXPECT_EQ(CostModel::MemRefs(Instr{Opcode::kCharge, 0, 0, 37}), 0u);
}

TEST_F(MachineTest, InvalidOpcodeChargesNothing) {
  Stopwatch sw(m_);
  store_.Install(CodeBlock{"bad", {Instr{Opcode::kNumOpcodes, 0, 0, 0}}});
  RunResult r = exec_.Call(1);
  EXPECT_EQ(r.outcome, RunOutcome::kFault);
  EXPECT_EQ(r.fault, FaultKind::kBadOpcode);
  EXPECT_EQ(r.instructions, 0u);
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(sw.cycles(), 0u);
}

// The counters a trap handler reads.
struct Seen {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t mem_refs = 0;
};

Seen CountersOf(const Machine& m) { return Seen{m.cycles(), m.instructions(), m.mem_refs()}; }

// The cost of code[0..n), every branch taken (the blocks below have none).
Seen CostOf(const CostModel& cm, const CodeBlock& b, size_t n) {
  Seen s;
  for (size_t i = 0; i < n; i++) {
    s.cycles += cm.Cycles(b.code[i], true);
    s.mem_refs += CostModel::MemRefs(b.code[i]);
    s.instructions++;
  }
  return s;
}

TEST_F(MachineTest, TrapHandlerSeesEveryEarlierInstructionAndTheTrap) {
  Asm inner_asm("inner");
  inner_asm.MoveI(kD2, 3).MovemSave(kA0, 4).Trap(2).AddI(kD2, 1).Rts();
  const CodeBlock inner = inner_asm.BuildBlock();
  const BlockId inner_id = store_.Install(inner);

  Asm outer_asm("outer");
  outer_asm.MoveI(kA0, 0x800).Load32(kD0, kA0, 0).Push(kD0).Charge(13).Trap(1);
  outer_asm.AddI(kD0, 1).Rts();
  const CodeBlock outer = outer_asm.BuildBlock();
  const BlockId outer_id = store_.Install(outer);
  m_.set_reg(kA7, 0x1000);

  // Vector 1 reads the clock, then runs `inner` nested (as Procedure
  // Chaining does), whose vector-2 trap reads it again.
  std::map<int, Seen> seen;
  exec_.SetTrapHandler([&](int vec, Machine& m) {
    seen[vec] = CountersOf(m);
    if (vec == 1) {
      EXPECT_EQ(exec_.Call(inner_id).outcome, RunOutcome::kReturned);
    }
    return TrapAction::kContinue;
  });

  const Seen start = CountersOf(m_);
  RunResult r = exec_.Call(outer_id);
  ASSERT_EQ(r.outcome, RunOutcome::kReturned);
  const CostModel& cm = m_.cost_model();

  const Seen at1 = CostOf(cm, outer, 5);  // through the trap
  EXPECT_EQ(seen[1].cycles - start.cycles, at1.cycles);
  EXPECT_EQ(seen[1].instructions - start.instructions, at1.instructions);
  EXPECT_EQ(seen[1].mem_refs - start.mem_refs, at1.mem_refs);

  const Seen in2 = CostOf(cm, inner, 3);
  EXPECT_EQ(seen[2].cycles - start.cycles, at1.cycles + in2.cycles);
  EXPECT_EQ(seen[2].instructions - start.instructions, at1.instructions + in2.instructions);
  EXPECT_EQ(seen[2].mem_refs - start.mem_refs, at1.mem_refs + in2.mem_refs);

  // The outer RunResult counts its own instructions; the machine counts both.
  const Seen all_outer = CostOf(cm, outer, outer.size());
  const Seen all_inner = CostOf(cm, inner, inner.size());
  EXPECT_EQ(r.instructions, all_outer.instructions);
  EXPECT_EQ(r.cycles, all_outer.cycles);
  EXPECT_EQ(r.mem_refs, all_outer.mem_refs);
  EXPECT_EQ(m_.cycles() - start.cycles, all_outer.cycles + all_inner.cycles);
  EXPECT_EQ(m_.instructions() - start.instructions,
            all_outer.instructions + all_inner.instructions);
  EXPECT_EQ(m_.mem_refs() - start.mem_refs, all_outer.mem_refs + all_inner.mem_refs);
}

TEST_F(MachineTest, FaultAfterNInstructionsChargesExactlyN) {
  for (int n = 0; n < 6; n++) {
    Asm a("fault" + std::to_string(n));
    for (int i = 0; i < n; i++) {
      a.MoveI(kD0, i).Charge(i);
    }
    a.MoveI(kA0, static_cast<int32_t>(kMem)).Load32(kD1, kA0, 0).Rts();
    const CodeBlock b = a.BuildBlock();
    const BlockId id = store_.Install(b);
    Stopwatch sw(m_);
    RunResult r = exec_.Call(id);
    ASSERT_EQ(r.outcome, RunOutcome::kFault);
    ASSERT_EQ(r.fault, FaultKind::kBusError);
    // Everything before the faulting load, which itself is not charged.
    const Seen want = CostOf(m_.cost_model(), b, b.size() - 2);
    EXPECT_EQ(r.instructions, want.instructions);
    EXPECT_EQ(r.cycles, want.cycles);
    EXPECT_EQ(r.mem_refs, want.mem_refs);
    EXPECT_EQ(sw.instructions(), want.instructions);
    EXPECT_EQ(sw.cycles(), want.cycles);
    EXPECT_EQ(sw.mem_refs(), want.mem_refs);
  }
  // A call through an invalid block id faults uncharged as well.
  Asm bad("badjsr");
  bad.MoveI(kD0, 1).Jsr(999).Rts();
  const CodeBlock b = bad.BuildBlock();
  const BlockId id = store_.Install(b);
  Stopwatch sw(m_);
  RunResult r = exec_.Call(id);
  EXPECT_EQ(r.fault, FaultKind::kBadBlock);
  EXPECT_EQ(sw.cycles(), CostOf(m_.cost_model(), b, 1).cycles);
  EXPECT_EQ(r.instructions, 1u);
}

// A program with a loop, calls, an indirect tail jump, memory traffic, MOVEM
// and continuing traps: enough variety for step-limit splits to land
// everywhere.
BlockId InstallMixedProgram(CodeStore& store) {
  Asm leaf("leaf");
  leaf.AddI(kD3, 1).Push(kD3).Pop(kD4).Rts();
  const BlockId leaf_id = store.Install(leaf.BuildBlock());
  Asm tail("tail");
  tail.MovemSave(kA0, 6).MovemLoad(kA0, 6).Trap(7).Rts();
  const BlockId tail_id = store.Install(tail.BuildBlock());
  Asm top("mixed");
  top.MoveI(kA0, 0x800).MoveI(kA7, 0x1000).MoveI(kD1, 0);
  top.Label("loop");
  top.Jsr(leaf_id).Store32(kA0, kD1, 64).Cas(kD2, kA0, 64).Charge(5).Trap(7);
  top.AddI(kD1, 1).CmpI(kD1, 9).Blt("loop");
  top.MoveI(kD7, tail_id).JmpInd(kD7);
  return store.Install(top.BuildBlock());
}

TEST(MachineClockTest, StepLimitedRunsSumToTheUninterruptedRun) {
  auto make = [](CodeStore& store, Executor& exec) {
    exec.SetTrapHandler([](int, Machine&) { return TrapAction::kContinue; });
    return InstallMixedProgram(store);
  };
  Machine whole(kMem, MachineConfig::SunEmulation());
  CodeStore whole_store;
  Executor whole_exec(whole, whole_store);
  const BlockId whole_id = make(whole_store, whole_exec);
  RunResult ref = whole_exec.Call(whole_id);
  ASSERT_EQ(ref.outcome, RunOutcome::kReturned);
  ASSERT_GT(ref.instructions, 100u);

  for (uint64_t seed = 1; seed <= 20; seed++) {
    Machine m(kMem, MachineConfig::SunEmulation());
    CodeStore store;
    Executor exec(m, store);
    const BlockId id = make(store, exec);
    exec.Start(id);
    RunResult sum;
    uint64_t rng = seed;
    int slices = 0;
    for (;;) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t steps = 1 + (rng >> 33) % (2 * seed + 1);
      RunResult r = exec.Run(steps);
      EXPECT_LE(r.instructions, steps);
      sum.instructions += r.instructions;
      sum.cycles += r.cycles;
      sum.mem_refs += r.mem_refs;
      slices++;
      // A resume that lost its place would never finish.
      ASSERT_LE(sum.instructions, ref.instructions) << "seed " << seed;
      if (r.outcome != RunOutcome::kStepLimit) {
        EXPECT_EQ(r.outcome, RunOutcome::kReturned);
        break;
      }
      EXPECT_EQ(r.instructions, steps);
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << slices << " slices");
    EXPECT_EQ(sum.instructions, ref.instructions);
    EXPECT_EQ(sum.cycles, ref.cycles);
    EXPECT_EQ(sum.mem_refs, ref.mem_refs);
    EXPECT_EQ(m.cycles(), whole.cycles());
    EXPECT_EQ(m.instructions(), whole.instructions());
    EXPECT_EQ(m.mem_refs(), whole.mem_refs());
    for (uint8_t reg = 0; reg < kNumRegisters; reg++) {
      EXPECT_EQ(m.reg(reg), whole.reg(reg));
    }
  }
}

// --- The trace ring -----------------------------------------------------------

TEST_F(MachineTest, TraceRingHoldsTheLastCapacityInstructionsInOrder) {
  constexpr size_t kCap = TraceRing::kCapacity;
  for (size_t extra : {size_t{0}, size_t{1}, size_t{777}, kCap + 5}) {
    Machine m(kMem, MachineConfig::SunEmulation());
    CodeStore store;
    Executor exec(m, store);
    m.set_tracing(true);
    Asm a("long");
    const size_t total = kCap + extra;  // including the final rts
    for (size_t i = 0; i + 1 < total; i++) {
      a.MoveI(kD0, static_cast<int32_t>(i));
    }
    a.Rts();
    const CodeBlock b = a.BuildBlock();
    const BlockId id = store.Install(b);
    ASSERT_EQ(exec.Call(id).instructions, total);

    const TraceRing& t = m.trace();
    ASSERT_EQ(t.size(), kCap);
    for (size_t j = 0; j < kCap; j++) {
      const size_t pc = extra + j;
      ASSERT_EQ(t[j].block, id);
      ASSERT_EQ(t[j].pc, pc);
      ASSERT_EQ(t[j].instr, b.code[pc]);
    }

    m.ClearTrace();
    EXPECT_TRUE(m.trace().empty());
    Asm s("short");
    s.MoveI(kD1, 5).AddI(kD1, 1).Rts();
    const BlockId sid = store.Install(s.BuildBlock());
    exec.Call(sid);
    ASSERT_EQ(m.trace().size(), 3u);
    EXPECT_EQ(m.trace()[0].block, sid);
    EXPECT_EQ(m.trace()[0].pc, 0u);
    EXPECT_EQ(m.trace()[2].instr.op, Opcode::kRts);
  }
}

TEST(MachineTraceTest, ProfileMatchesABruteForceCountOverTheSameWindow) {
  // Reference: single-step the same program and log every position, then
  // count the last kCapacity per block.
  auto run = [](Machine& m, CodeStore& store, Executor& exec, bool single_step,
                std::vector<std::pair<BlockId, uint32_t>>* log) {
    exec.SetTrapHandler([](int, Machine&) { return TrapAction::kContinue; });
    const BlockId top = InstallMixedProgram(store);
    Asm driver("driver");
    driver.MoveI(kD6, 0).Label("again").Jsr(top).AddI(kD6, 1).CmpI(kD6, 40);
    driver.Blt("again").Rts();
    const BlockId id = store.Install(driver.BuildBlock());
    exec.Start(id);
    for (;;) {
      if (single_step) {
        log->emplace_back(exec.current_block(), exec.current_pc());
        ASSERT_LT(log->size(), 100'000u) << "the program finishes in far fewer steps";
      }
      RunResult r = exec.Run(single_step ? 1 : Executor::kDefaultMaxSteps);
      if (r.outcome != RunOutcome::kStepLimit) {
        ASSERT_EQ(r.outcome, RunOutcome::kReturned);
        break;
      }
    }
  };
  Machine m(kMem, MachineConfig::SunEmulation());
  CodeStore store;
  Executor exec(m, store);
  m.set_tracing(true);
  run(m, store, exec, false, nullptr);

  Machine ref(kMem, MachineConfig::SunEmulation());
  CodeStore ref_store;
  Executor ref_exec(ref, ref_store);
  std::vector<std::pair<BlockId, uint32_t>> log;
  run(ref, ref_store, ref_exec, true, &log);
  // The program never falls off a block's end, so each Run(1) executed
  // exactly the logged instruction.
  for (const auto& [block, pc] : log) {
    ASSERT_LT(pc, ref_store.Get(block).code.size());
  }
  ASSERT_GT(log.size(), TraceRing::kCapacity);
  ASSERT_EQ(m.trace().size(), TraceRing::kCapacity);

  std::map<BlockId, std::pair<uint64_t, uint64_t>> want;  // instrs, cycles
  const CostModel& cm = m.cost_model();
  for (size_t i = log.size() - TraceRing::kCapacity; i < log.size(); i++) {
    const auto [block, pc] = log[i];
    auto& w = want[block];
    w.first++;
    w.second += cm.Cycles(ref_store.Get(block).code[pc], true);
  }
  TraceMonitor monitor(m, store);
  const std::vector<TraceMonitor::BlockProfile> prof = monitor.Profile();
  ASSERT_EQ(prof.size(), want.size());
  for (const TraceMonitor::BlockProfile& p : prof) {
    ASSERT_TRUE(want.count(p.block)) << p.name;
    EXPECT_EQ(p.instructions, want[p.block].first) << p.name;
    EXPECT_EQ(p.cycles, want[p.block].second) << p.name;
  }
}

TEST_F(MachineTest, TracingSwitchedInATrapHandlerAppliesFromTheNextInstruction) {
  exec_.SetTrapHandler([](int vec, Machine& m) {
    m.set_tracing(vec == 1);
    return TrapAction::kContinue;
  });
  Asm a("toggle");
  a.MoveI(kD0, 1).Trap(1).AddI(kD0, 2).AddI(kD0, 3).Trap(2).AddI(kD0, 4).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  // Recorded: the two adds and the trap that switched tracing off.
  ASSERT_EQ(m_.trace().size(), 3u);
  EXPECT_EQ(m_.trace()[0].pc, 2u);
  EXPECT_EQ(m_.trace()[1].pc, 3u);
  EXPECT_EQ(m_.trace()[2].instr.op, Opcode::kTrap);
}

TEST_F(MachineTest, UntracedMachineAllocatesNoRing) {
  Asm a("w");
  a.MoveI(kD0, 1).Rts();
  store_.Install(a.BuildBlock());
  exec_.Call(1);
  EXPECT_FALSE(m_.trace().allocated());
  EXPECT_TRUE(m_.trace().empty());
  m_.set_tracing(true);
  EXPECT_TRUE(m_.trace().allocated());
  exec_.Call(1);
  EXPECT_EQ(m_.trace().size(), 2u);
}

}  // namespace
}  // namespace synthesis
