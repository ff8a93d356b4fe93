#include "src/machine/executor.h"

namespace synthesis {

namespace {

bool EvalBranch(Opcode op, uint32_t lhs, uint32_t rhs) {
  int32_t sl = static_cast<int32_t>(lhs);
  int32_t sr = static_cast<int32_t>(rhs);
  switch (op) {
    case Opcode::kBeq:
      return lhs == rhs;
    case Opcode::kBne:
      return lhs != rhs;
    case Opcode::kBlt:
      return sl < sr;
    case Opcode::kBge:
      return sl >= sr;
    case Opcode::kBgt:
      return sl > sr;
    case Opcode::kBle:
      return sl <= sr;
    case Opcode::kBhi:
      return lhs > rhs;
    case Opcode::kBls:
      return lhs <= rhs;
    default:
      return true;  // kBra
  }
}

}  // namespace

RunResult Executor::Call(BlockId entry, uint64_t max_steps) {
  if (!active_) {
    Start(entry);
    return Run(max_steps);
  }
  // Nested call: a trap handler running mid-Call re-enters the executor
  // (Procedure Chaining enqueues through the synthesized MP-SC put at
  // interrupt level, which is itself VM code). The outer session's position
  // is saved and restored around the nested run. A nested call must run to
  // completion — it cannot suspend (there is no saved session to resume
  // into); callers treat any non-kReturned outcome as failure.
  std::vector<Frame> frames = std::move(frames_);
  const BlockId block = block_;
  const uint32_t pc = pc_;
  Start(entry);
  RunResult r = Run(max_steps);
  frames_ = std::move(frames);
  block_ = block;
  pc_ = pc;
  active_ = true;
  return r;
}

void Executor::Start(BlockId entry) {
  frames_.clear();
  block_ = entry;
  pc_ = 0;
  active_ = true;
}

RunResult Executor::Run(uint64_t max_steps) {
  RunResult r;
  if (!active_ || !store_.Valid(block_)) {
    r.fault = FaultKind::kBadBlock;
    return Finish(r, RunOutcome::kFault);
  }

  // The position and the current block's code live in locals; flush() stores
  // the position back for Resume() and for a nested Call's save/restore.
  BlockId block = kInvalidBlock;
  uint32_t pc = 0;
  const Instr* code = nullptr;
  size_t code_len = 0;
  auto enter = [&](BlockId b, uint32_t at) {
    const CodeBlock& blk = store_.Get(b);
    block = b;
    pc = at;
    code = blk.code.data();
    code_len = blk.code.size();
  };
  enter(block_, pc_);
  const CostModel& cost = machine_.cost_model();
  // Tracing can change only while host code runs: re-read after each trap.
  bool tracing = machine_.tracing();

  // Running totals of this Run. `r` holds the part already charged to the
  // Machine; flush() charges the rest. It runs before every trap handler and
  // on every exit, the only points where host code can read the clock.
  uint64_t steps = 0;
  uint64_t cycles = 0;
  uint64_t refs = 0;
  auto flush = [&] {
    block_ = block;
    pc_ = pc;
    machine_.Charge(cycles - r.cycles, steps - r.instructions, refs - r.mem_refs);
    r.instructions = steps;
    r.cycles = cycles;
    r.mem_refs = refs;
  };
  auto charge = [&](const Instr& in) {
    const OpCost& c = cost.Cost(in.op);
    steps++;
    cycles += c.cycles;
    refs += c.refs;
  };
  // kMovemSave, kMovemLoad and kCharge add imm-scaled terms, computed in
  // 32 bits as CostModel::Cycles/MemRefs do.
  auto charge_imm = [&](const Instr& in) {
    const OpCost& c = cost.Cost(in.op);
    const uint32_t n = static_cast<uint32_t>(in.imm);
    steps++;
    cycles += c.cycles + n * c.imm_cycles;
    refs += c.refs + n * c.imm_refs;
  };
  auto finish = [&](RunOutcome outcome) {
    flush();
    return Finish(r, outcome);
  };

  auto fault = [&](FaultKind kind, Addr addr = 0) {
    r.fault = kind;
    r.fault_addr = addr;
    return finish(RunOutcome::kFault);
  };

  while (steps < max_steps) {
    if (pc >= code_len) {
      // Falling off the end of a block behaves like kRts (implicit return).
      if (frames_.empty()) {
        return finish(RunOutcome::kReturned);
      }
      enter(frames_.back().block, frames_.back().pc);
      frames_.pop_back();
      continue;
    }

    const Instr& in = code[pc];
    if (tracing) {
      machine_.Record(block, pc, in);
    }
    uint32_t next_pc = pc + 1;

    switch (in.op) {
      case Opcode::kNop:
        charge(in);
        break;
      case Opcode::kCharge:
        charge_imm(in);
        break;

      case Opcode::kMoveI:
        machine_.set_reg(in.rd, static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kMove:
        machine_.set_reg(in.rd, machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kLea:
        machine_.set_reg(in.rd, machine_.reg(in.rs) + static_cast<uint32_t>(in.imm));
        charge(in);
        break;

      case Opcode::kLoad8:
      case Opcode::kLoad16:
      case Opcode::kLoad32: {
        Addr addr = machine_.reg(in.rs) + static_cast<uint32_t>(in.imm);
        size_t len = in.op == Opcode::kLoad8 ? 1 : in.op == Opcode::kLoad16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = in.op == Opcode::kLoad8    ? machine_.memory().Read8(addr)
                     : in.op == Opcode::kLoad16 ? machine_.memory().Read16(addr)
                                                : machine_.memory().Read32(addr);
        machine_.set_reg(in.rd, v);
        charge(in);
        break;
      }
      case Opcode::kStore8:
      case Opcode::kStore16:
      case Opcode::kStore32: {
        Addr addr = machine_.reg(in.rd) + static_cast<uint32_t>(in.imm);
        size_t len = in.op == Opcode::kStore8 ? 1 : in.op == Opcode::kStore16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = machine_.reg(in.rs);
        if (in.op == Opcode::kStore8) {
          machine_.memory().Write8(addr, static_cast<uint8_t>(v));
        } else if (in.op == Opcode::kStore16) {
          machine_.memory().Write16(addr, static_cast<uint16_t>(v));
        } else {
          machine_.memory().Write32(addr, v);
        }
        charge(in);
        break;
      }

      case Opcode::kLoadA8:
      case Opcode::kLoadA16:
      case Opcode::kLoadA32: {
        Addr addr = static_cast<Addr>(in.imm);
        size_t len = in.op == Opcode::kLoadA8 ? 1 : in.op == Opcode::kLoadA16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = in.op == Opcode::kLoadA8    ? machine_.memory().Read8(addr)
                     : in.op == Opcode::kLoadA16 ? machine_.memory().Read16(addr)
                                                 : machine_.memory().Read32(addr);
        machine_.set_reg(in.rd, v);
        charge(in);
        break;
      }
      case Opcode::kStoreA8:
      case Opcode::kStoreA16:
      case Opcode::kStoreA32: {
        Addr addr = static_cast<Addr>(in.imm);
        size_t len = in.op == Opcode::kStoreA8 ? 1 : in.op == Opcode::kStoreA16 ? 2 : 4;
        if (!machine_.AccessOk(addr, len)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t v = machine_.reg(in.rs);
        if (in.op == Opcode::kStoreA8) {
          machine_.memory().Write8(addr, static_cast<uint8_t>(v));
        } else if (in.op == Opcode::kStoreA16) {
          machine_.memory().Write16(addr, static_cast<uint16_t>(v));
        } else {
          machine_.memory().Write32(addr, v);
        }
        charge(in);
        break;
      }
      case Opcode::kLoadIdx32: {
        Addr addr = static_cast<Addr>(in.imm) + machine_.reg(in.rs) * 4;
        if (!machine_.AccessOk(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        machine_.set_reg(in.rd, machine_.memory().Read32(addr));
        charge(in);
        break;
      }
      case Opcode::kStoreIdx32: {
        Addr addr = static_cast<Addr>(in.imm) + machine_.reg(in.rs) * 4;
        if (!machine_.AccessOk(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        machine_.memory().Write32(addr, machine_.reg(in.rd));
        charge(in);
        break;
      }

      case Opcode::kPush: {
        Addr sp = machine_.reg(kA7) - 4;
        if (!machine_.AccessOk(sp, 4)) {
          return fault(FaultKind::kBusError, sp);
        }
        machine_.memory().Write32(sp, machine_.reg(in.rs));
        machine_.set_reg(kA7, sp);
        charge(in);
        break;
      }
      case Opcode::kPop: {
        Addr sp = machine_.reg(kA7);
        if (!machine_.AccessOk(sp, 4)) {
          return fault(FaultKind::kBusError, sp);
        }
        machine_.set_reg(in.rd, machine_.memory().Read32(sp));
        machine_.set_reg(kA7, sp + 4);
        charge(in);
        break;
      }

      case Opcode::kAdd:
        machine_.set_reg(in.rd, machine_.reg(in.rd) + machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kAddI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) + static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kSub:
        machine_.set_reg(in.rd, machine_.reg(in.rd) - machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kSubI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) - static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kMulI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) * static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kAnd:
        machine_.set_reg(in.rd, machine_.reg(in.rd) & machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kAndI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) & static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kOr:
        machine_.set_reg(in.rd, machine_.reg(in.rd) | machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kOrI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) | static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kXor:
        machine_.set_reg(in.rd, machine_.reg(in.rd) ^ machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kLslI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) << (in.imm & 31));
        charge(in);
        break;
      case Opcode::kLsrI:
        machine_.set_reg(in.rd, machine_.reg(in.rd) >> (in.imm & 31));
        charge(in);
        break;

      case Opcode::kCmp:
        machine_.SetCc(machine_.reg(in.rd), machine_.reg(in.rs));
        charge(in);
        break;
      case Opcode::kCmpI:
        machine_.SetCc(machine_.reg(in.rd), static_cast<uint32_t>(in.imm));
        charge(in);
        break;
      case Opcode::kTst:
        machine_.SetCc(machine_.reg(in.rd), 0);
        charge(in);
        break;

      case Opcode::kBra:
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBgt:
      case Opcode::kBle:
      case Opcode::kBhi:
      case Opcode::kBls: {
        const OpCost& c = cost.Cost(in.op);
        steps++;
        if (in.op == Opcode::kBra ||
            EvalBranch(in.op, machine_.cc_lhs(), machine_.cc_rhs())) {
          cycles += c.taken_cycles;
          next_pc = static_cast<uint32_t>(in.imm);
        } else {
          cycles += c.cycles;
        }
        break;
      }

      case Opcode::kJsr:
      case Opcode::kJsrInd: {
        BlockId target = in.op == Opcode::kJsr
                             ? in.imm
                             : static_cast<BlockId>(machine_.reg(in.rs));
        if (!store_.Valid(target)) {
          return fault(FaultKind::kBadBlock);
        }
        charge(in);
        frames_.push_back(Frame{block, next_pc});
        enter(target, 0);
        continue;
      }
      case Opcode::kJmpInd: {
        BlockId target = static_cast<BlockId>(machine_.reg(in.rs));
        if (!store_.Valid(target)) {
          return fault(FaultKind::kBadBlock);
        }
        charge(in);
        enter(target, 0);
        continue;
      }
      case Opcode::kRts: {
        charge(in);
        if (frames_.empty()) {
          return finish(RunOutcome::kReturned);
        }
        enter(frames_.back().block, frames_.back().pc);
        frames_.pop_back();
        continue;
      }

      case Opcode::kCas:
      case Opcode::kCasA: {
        Addr addr = in.op == Opcode::kCas
                        ? machine_.reg(in.rs) + static_cast<uint32_t>(in.imm)
                        : static_cast<Addr>(in.imm);
        if (!machine_.AccessOk(addr, 4)) {
          return fault(FaultKind::kBusError, addr);
        }
        uint32_t mem = machine_.memory().Read32(addr);
        uint32_t expect = machine_.reg(kD0);
        if (mem == expect) {
          machine_.memory().Write32(addr, machine_.reg(in.rd));
          machine_.SetCc(1, 1);  // "equal": success
        } else {
          machine_.set_reg(kD0, mem);
          machine_.SetCc(0, 1);  // "not equal": failure
        }
        charge(in);
        break;
      }

      case Opcode::kTrap: {
        // `in` may dangle once the handler runs (it can replace this block).
        const int vector = in.imm;
        charge(in);
        flush();
        TrapAction action =
            trap_handler_ ? trap_handler_(vector, machine_) : TrapAction::kFault;
        // The handler may have replaced the current block in the store
        // (resynthesis) or switched tracing; refresh the cached copies.
        enter(block, pc);
        tracing = machine_.tracing();
        switch (action) {
          case TrapAction::kContinue:
            break;
          case TrapAction::kBlock:
            // Leave the position at the trap so Resume() retries it.
            r.trap_vector = vector;
            return finish(RunOutcome::kBlocked);
          case TrapAction::kHalt:
            pc = next_pc;
            return finish(RunOutcome::kHalted);
          case TrapAction::kFault:
            return fault(FaultKind::kBadOpcode);
        }
        break;
      }

      case Opcode::kMovemSave:
      case Opcode::kMovemLoad: {
        uint8_t base_reg = in.op == Opcode::kMovemSave ? in.rd : in.rs;
        Addr base = machine_.reg(base_reg);
        size_t len = static_cast<size_t>(in.imm) * 4;
        if (!machine_.AccessOk(base, len)) {
          return fault(FaultKind::kBusError, base);
        }
        int count = in.imm > static_cast<int32_t>(kNumRegisters)
                        ? kNumRegisters
                        : in.imm;
        for (int i = 0; i < count; i++) {
          Addr slot = base + static_cast<Addr>(4 * i);
          if (in.op == Opcode::kMovemSave) {
            machine_.memory().Write32(slot, machine_.reg(static_cast<uint8_t>(i)));
          } else {
            machine_.set_reg(static_cast<uint8_t>(i), machine_.memory().Read32(slot));
          }
        }
        charge_imm(in);
        break;
      }

      case Opcode::kSetVbr:
        machine_.set_vbr(machine_.reg(in.rs));
        charge(in);
        break;

      case Opcode::kHalt:
        charge(in);
        pc = next_pc;
        return finish(RunOutcome::kHalted);

      case Opcode::kNumOpcodes:
        return fault(FaultKind::kBadOpcode);
    }

    pc = next_pc;
  }
  return finish(RunOutcome::kStepLimit);
}

}  // namespace synthesis
