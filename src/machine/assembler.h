// Fluent assembler for micro-op programs, with labels and symbolic holes.
//
// Kernel routines are written once as *templates*: programs whose immediate
// fields may be symbolic parameters ("holes"). The synthesizer later binds the
// holes to concrete values (Factoring Invariants) and optimizes the result.
// A template with no holes is just a program.
#ifndef SRC_MACHINE_ASSEMBLER_H_
#define SRC_MACHINE_ASSEMBLER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/machine/instr.h"
#include "src/machine/opcode.h"

namespace synthesis {

// A named hole in a template's immediate field.
struct Symbol {
  std::string name;
};

// Record that instruction `index`'s imm field is the symbol `name`.
struct SymUse {
  size_t index;
  std::string name;
};

// A code block plus the locations of its unbound holes.
struct CodeTemplate {
  CodeBlock block;
  std::vector<SymUse> holes;

  bool fully_bound() const { return holes.empty(); }
};

// Immediate argument: either a concrete value or a named hole.
class ImmArg {
 public:
  ImmArg(int32_t v) : value_(v) {}  // NOLINT(google-explicit-constructor)
  ImmArg(uint32_t v) : value_(static_cast<int32_t>(v)) {}  // NOLINT
  ImmArg(Symbol s) : value_(std::move(s)) {}               // NOLINT

  bool is_symbol() const { return std::holds_alternative<Symbol>(value_); }
  int32_t value() const { return std::get<int32_t>(value_); }
  const std::string& symbol() const { return std::get<Symbol>(value_).name; }

 private:
  std::variant<int32_t, Symbol> value_;
};

class Asm {
 public:
  explicit Asm(std::string name) { tmpl_.block.name = std::move(name); }

  static Symbol Sym(std::string name) { return Symbol{std::move(name)}; }

  // --- Labels and branches --------------------------------------------------
  Asm& Label(const std::string& name);
  Asm& Bra(const std::string& label) { return Branch(Opcode::kBra, label); }
  Asm& Beq(const std::string& label) { return Branch(Opcode::kBeq, label); }
  Asm& Bne(const std::string& label) { return Branch(Opcode::kBne, label); }
  Asm& Blt(const std::string& label) { return Branch(Opcode::kBlt, label); }
  Asm& Bge(const std::string& label) { return Branch(Opcode::kBge, label); }
  Asm& Bgt(const std::string& label) { return Branch(Opcode::kBgt, label); }
  Asm& Ble(const std::string& label) { return Branch(Opcode::kBle, label); }
  Asm& Bhi(const std::string& label) { return Branch(Opcode::kBhi, label); }
  Asm& Bls(const std::string& label) { return Branch(Opcode::kBls, label); }

  // --- Data movement ----------------------------------------------------------
  Asm& MoveI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kMoveI, rd, 0, imm); }
  Asm& Move(uint8_t rd, uint8_t rs) { return Emit(Opcode::kMove, rd, rs, 0); }
  Asm& Lea(uint8_t rd, uint8_t rs, ImmArg imm) { return Emit(Opcode::kLea, rd, rs, imm); }
  Asm& Load8(uint8_t rd, uint8_t rs, ImmArg off = 0) {
    return Emit(Opcode::kLoad8, rd, rs, off);
  }
  Asm& Load16(uint8_t rd, uint8_t rs, ImmArg off = 0) {
    return Emit(Opcode::kLoad16, rd, rs, off);
  }
  Asm& Load32(uint8_t rd, uint8_t rs, ImmArg off = 0) {
    return Emit(Opcode::kLoad32, rd, rs, off);
  }
  Asm& Store8(uint8_t base, uint8_t rs, ImmArg off = 0) {
    return Emit(Opcode::kStore8, base, rs, off);
  }
  Asm& Store32(uint8_t base, uint8_t rs, ImmArg off = 0) {
    return Emit(Opcode::kStore32, base, rs, off);
  }
  Asm& LoadA32(uint8_t rd, ImmArg addr) { return Emit(Opcode::kLoadA32, rd, 0, addr); }
  Asm& StoreA32(ImmArg addr, uint8_t rs) { return Emit(Opcode::kStoreA32, 0, rs, addr); }
  Asm& LoadIdx32(uint8_t rd, uint8_t index, ImmArg base) {
    return Emit(Opcode::kLoadIdx32, rd, index, base);
  }
  Asm& StoreIdx32(uint8_t value, uint8_t index, ImmArg base) {
    return Emit(Opcode::kStoreIdx32, value, index, base);
  }
  Asm& Push(uint8_t rs) { return Emit(Opcode::kPush, 0, rs, 0); }
  Asm& Pop(uint8_t rd) { return Emit(Opcode::kPop, rd, 0, 0); }

  // --- Arithmetic / logic -------------------------------------------------------
  Asm& Add(uint8_t rd, uint8_t rs) { return Emit(Opcode::kAdd, rd, rs, 0); }
  Asm& AddI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kAddI, rd, 0, imm); }
  Asm& Sub(uint8_t rd, uint8_t rs) { return Emit(Opcode::kSub, rd, rs, 0); }
  Asm& SubI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kSubI, rd, 0, imm); }
  Asm& MulI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kMulI, rd, 0, imm); }
  Asm& And(uint8_t rd, uint8_t rs) { return Emit(Opcode::kAnd, rd, rs, 0); }
  Asm& AndI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kAndI, rd, 0, imm); }
  Asm& Or(uint8_t rd, uint8_t rs) { return Emit(Opcode::kOr, rd, rs, 0); }
  Asm& OrI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kOrI, rd, 0, imm); }
  Asm& Xor(uint8_t rd, uint8_t rs) { return Emit(Opcode::kXor, rd, rs, 0); }
  Asm& LslI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kLslI, rd, 0, imm); }
  Asm& LsrI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kLsrI, rd, 0, imm); }

  // --- Compare ---------------------------------------------------------------
  Asm& Cmp(uint8_t rd, uint8_t rs) { return Emit(Opcode::kCmp, rd, rs, 0); }
  Asm& CmpI(uint8_t rd, ImmArg imm) { return Emit(Opcode::kCmpI, rd, 0, imm); }
  Asm& Tst(uint8_t rd) { return Emit(Opcode::kTst, rd, 0, 0); }

  // --- Control flow between blocks ------------------------------------------------
  Asm& Jsr(ImmArg block_id) { return Emit(Opcode::kJsr, 0, 0, block_id); }
  Asm& JsrInd(uint8_t rs) { return Emit(Opcode::kJsrInd, 0, rs, 0); }
  Asm& JmpInd(uint8_t rs) { return Emit(Opcode::kJmpInd, 0, rs, 0); }
  Asm& Rts() { return Emit(Opcode::kRts, 0, 0, 0); }

  // --- System ---------------------------------------------------------------
  Asm& Cas(uint8_t rd_new, uint8_t rs_addr, ImmArg off = 0) {
    return Emit(Opcode::kCas, rd_new, rs_addr, off);
  }
  Asm& CasA(uint8_t rd_new, ImmArg addr) { return Emit(Opcode::kCasA, rd_new, 0, addr); }
  Asm& Trap(ImmArg vector) { return Emit(Opcode::kTrap, 0, 0, vector); }
  Asm& MovemSave(uint8_t base, int count) {
    return Emit(Opcode::kMovemSave, base, 0, count);
  }
  Asm& MovemLoad(uint8_t base, int count) {
    return Emit(Opcode::kMovemLoad, 0, base, count);
  }
  Asm& SetVbr(uint8_t rs) { return Emit(Opcode::kSetVbr, 0, rs, 0); }
  Asm& Charge(ImmArg cycles) { return Emit(Opcode::kCharge, 0, 0, cycles); }
  Asm& Halt() { return Emit(Opcode::kHalt, 0, 0, 0); }

  // Resolve labels and return the template. The assembler is spent afterwards.
  CodeTemplate Build();
  // Convenience for hole-free programs; aborts if any hole is unbound.
  CodeBlock BuildBlock();

 private:
  Asm& Emit(Opcode op, uint8_t rd, uint8_t rs, ImmArg imm);
  Asm& Branch(Opcode op, const std::string& label);

  CodeTemplate tmpl_;
  std::unordered_map<std::string, uint32_t> labels_;
  std::vector<std::pair<size_t, std::string>> label_fixups_;
};

}  // namespace synthesis

#endif  // SRC_MACHINE_ASSEMBLER_H_
