#include "src/machine/cost_model.h"

namespace synthesis {

namespace {

// Base cycles excluding data-memory references (those are added per ref) and
// the imm-scaled terms of ImmCycles.
uint32_t BaseCycles(Opcode op, bool branch_taken) {
  switch (op) {
    case Opcode::kNop:
      return 2;
    case Opcode::kMoveI:
      return 4;
    case Opcode::kMove:
      return 2;
    case Opcode::kLea:
      return 4;
    case Opcode::kLoad8:
    case Opcode::kLoad16:
    case Opcode::kLoad32:
    case Opcode::kStore8:
    case Opcode::kStore16:
    case Opcode::kStore32:
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32:
    case Opcode::kStoreA8:
    case Opcode::kStoreA16:
    case Opcode::kStoreA32:
      return 4;
    case Opcode::kLoadIdx32:
    case Opcode::kStoreIdx32:
      return 6;  // scaled-index effective-address calculation
    case Opcode::kPush:
    case Opcode::kPop:
      return 4;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kCmp:
    case Opcode::kTst:
      return 2;
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kCmpI:
    case Opcode::kLslI:
    case Opcode::kLsrI:
      return 4;
    case Opcode::kMulI:
      return 28;
    case Opcode::kBra:
      return 6;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBgt:
    case Opcode::kBle:
    case Opcode::kBhi:
    case Opcode::kBls:
      return branch_taken ? 6 : 4;
    case Opcode::kJsr:
      return 8;
    case Opcode::kJsrInd:
      return 10;
    case Opcode::kJmpInd:
      return 6;
    case Opcode::kRts:
      return 8;
    case Opcode::kCas:
    case Opcode::kCasA:
      return 12;
    case Opcode::kTrap:
      return 20;  // exception stack frame build + vector fetch
    case Opcode::kMovemSave:
    case Opcode::kMovemLoad:
      return 4;  // setup; the per-register terms are in ImmCycles/ImmRefs
    case Opcode::kSetVbr:
      return 8;
    case Opcode::kCharge:
      return 0;  // all of it is imm (ImmCycles)
    case Opcode::kHalt:
      return 2;
    case Opcode::kNumOpcodes:
      break;
  }
  return 2;
}

// Data-memory references excluding the imm-scaled term of ImmRefs.
uint32_t BaseRefs(Opcode op) {
  switch (op) {
    case Opcode::kLoad8:
    case Opcode::kLoad16:
    case Opcode::kLoad32:
    case Opcode::kStore8:
    case Opcode::kStore16:
    case Opcode::kStore32:
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32:
    case Opcode::kStoreA8:
    case Opcode::kStoreA16:
    case Opcode::kStoreA32:
    case Opcode::kLoadIdx32:
    case Opcode::kStoreIdx32:
    case Opcode::kPush:
    case Opcode::kPop:
    case Opcode::kJsr:     // pushes the return frame
    case Opcode::kJsrInd:
    case Opcode::kRts:     // pops the return frame
      return 1;
    case Opcode::kCas:
    case Opcode::kCasA:
      return 2;  // read-modify-write bus cycle
    case Opcode::kTrap:
      return 4;  // exception frame
    default:
      return 0;
  }
}

bool IsMovem(Opcode op) {
  return op == Opcode::kMovemSave || op == Opcode::kMovemLoad;
}

// Memory references per unit of imm: a multi-register move makes one bus
// cycle per register.
uint32_t ImmRefs(Opcode op) { return IsMovem(op) ? 1 : 0; }

// Cycles per unit of imm, excluding the memory references of ImmRefs: a
// multi-register move is microcoded with 1 cycle/register of sequencing, and
// kCharge charges imm cycles outright.
uint32_t ImmCycles(Opcode op) { return IsMovem(op) || op == Opcode::kCharge ? 1 : 0; }

}  // namespace

CostModel::CostModel(MachineConfig config) : config_(config) {
  for (size_t i = 0; i < table_.size(); i++) {
    const Opcode op = static_cast<Opcode>(i);
    OpCost& c = table_[i];
    c.refs = BaseRefs(op);
    c.cycles = BaseCycles(op, false) + c.refs * MemCycles();
    c.taken_cycles = BaseCycles(op, true) + c.refs * MemCycles();
    c.imm_refs = ImmRefs(op);
    c.imm_cycles = ImmCycles(op) + c.imm_refs * MemCycles();
  }
}

uint32_t CostModel::MemRefs(const Instr& instr) {
  return BaseRefs(instr.op) + static_cast<uint32_t>(instr.imm) * ImmRefs(instr.op);
}

}  // namespace synthesis
