#include "src/synth/synthesizer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "src/machine/opcode.h"

namespace synthesis {

namespace {

constexpr size_t kMaxInlinedSize = 4096;

// Register liveness is tracked as a bitmask; bit 16 is the condition codes.
constexpr uint32_t kCcBit = 1u << 16;
constexpr uint32_t kAllRegs = 0xFFFF;

uint32_t RegBit(uint8_t r) { return 1u << r; }

struct DefUse {
  uint32_t def = 0;
  uint32_t use = 0;
  bool removable = false;  // safe to delete when all defs are dead
};

DefUse DefUseOf(const Instr& in) {
  DefUse d;
  switch (in.op) {
    case Opcode::kMoveI:
      d.def = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kMove:
    case Opcode::kLea:
    case Opcode::kLoad8:
    case Opcode::kLoad16:
    case Opcode::kLoad32:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kStore8:
    case Opcode::kStore16:
    case Opcode::kStore32:
    case Opcode::kStoreIdx32:
      d.use = RegBit(in.rd) | RegBit(in.rs);
      break;
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32:
      d.def = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kLoadIdx32:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kStoreA8:
    case Opcode::kStoreA16:
    case Opcode::kStoreA32:
      d.use = RegBit(in.rs);
      break;
    case Opcode::kCasA:
      d.use = RegBit(kD0) | RegBit(in.rd);
      d.def = RegBit(kD0) | kCcBit;
      break;
    case Opcode::kPush:
      d.use = RegBit(in.rs) | RegBit(kA7);
      d.def = RegBit(kA7);
      break;
    case Opcode::kPop:
      d.use = RegBit(kA7);
      d.def = RegBit(in.rd) | RegBit(kA7);
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rd) | RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kLslI:
    case Opcode::kLsrI:
      d.def = RegBit(in.rd);
      d.use = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kCmp:
      d.def = kCcBit;
      d.use = RegBit(in.rd) | RegBit(in.rs);
      d.removable = true;
      break;
    case Opcode::kCmpI:
    case Opcode::kTst:
      d.def = kCcBit;
      d.use = RegBit(in.rd);
      d.removable = true;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBgt:
    case Opcode::kBle:
    case Opcode::kBhi:
    case Opcode::kBls:
      d.use = kCcBit;
      break;
    case Opcode::kBra:
      break;
    case Opcode::kJsr:
    case Opcode::kJsrInd:
    case Opcode::kJmpInd:
    case Opcode::kTrap:
      d.use = kAllRegs | kCcBit;
      d.def = kAllRegs | kCcBit;
      break;
    case Opcode::kRts:
    case Opcode::kHalt:
      d.use = kAllRegs;
      break;
    case Opcode::kCas:
      d.use = RegBit(kD0) | RegBit(in.rd) | RegBit(in.rs);
      d.def = RegBit(kD0) | kCcBit;
      break;
    case Opcode::kMovemSave: {
      uint32_t mask = in.imm >= 16 ? kAllRegs : ((1u << in.imm) - 1);
      d.use = mask | RegBit(in.rd);
      break;
    }
    case Opcode::kMovemLoad: {
      uint32_t mask = in.imm >= 16 ? kAllRegs : ((1u << in.imm) - 1);
      d.def = mask;
      d.use = RegBit(in.rs);
      break;
    }
    case Opcode::kSetVbr:
      d.use = RegBit(in.rs);
      break;
    case Opcode::kNop:
      d.removable = true;
      break;
    case Opcode::kCharge:
    case Opcode::kNumOpcodes:
      break;
  }
  return d;
}

// True if control never falls through past this instruction.
bool IsTerminator(Opcode op) {
  return op == Opcode::kBra || op == Opcode::kRts || op == Opcode::kHalt ||
         op == Opcode::kJmpInd;
}

// True if control leaves the routine here: liveness after it is what its own
// uses say, nothing flows in from a successor.
bool EndsRoutine(Opcode op) {
  return op == Opcode::kRts || op == Opcode::kHalt || op == Opcode::kJmpInd;
}

// A branch's target as a liveness index: anything outside the block means
// "falls off the end", index n.
size_t LiveTarget(const Instr& in, size_t n) {
  return in.imm < 0 || static_cast<size_t>(in.imm) > n ? n
                                                       : static_cast<size_t>(in.imm);
}

// Basic blocks. Leaders are the entry, every in-range branch target, and
// whatever follows a branch or a routine exit; block b covers
// [begin[b], begin[b + 1]), and begin ends with the routine's length.
struct Blocks {
  std::vector<size_t> begin;
  std::vector<size_t> block_of;  // per instruction; [n] = the exit
};

Blocks SplitBlocks(const std::vector<Instr>& code) {
  const size_t n = code.size();
  std::vector<bool> leader(n + 1, false);
  leader[0] = true;
  for (size_t i = 0; i < n; i++) {
    if (IsBranch(code[i].op)) {
      leader[LiveTarget(code[i], n)] = true;
    }
    if (IsBranch(code[i].op) || IsTerminator(code[i].op)) {
      leader[i + 1] = true;
    }
  }
  Blocks bl;
  bl.block_of.resize(n + 1);
  for (size_t i = 0; i < n; i++) {
    if (leader[i]) {
      bl.begin.push_back(i);
    }
    bl.block_of[i] = bl.begin.size() - 1;
  }
  bl.block_of[n] = bl.begin.size();
  bl.begin.push_back(n);
  return bl;
}

// Backward register liveness, solved by a worklist over basic blocks.
// Returns live[0..n]: live[i] is the set live before instruction i, and
// live[n] = live_out (falling off the end returns to the caller). The result
// is the least fixpoint of live[i] = use[i] | (out[i] & ~def[i]).
std::vector<uint32_t> SolveLiveness(const std::vector<Instr>& code,
                                    const std::vector<DefUse>& dus,
                                    uint32_t live_out) {
  const size_t n = code.size();
  const auto [begin, block_of] = SplitBlocks(code);
  const size_t nb = begin.size() - 1;  // block nb is the exit

  // Each block's transfer function in = gen | (out & ~kill), and its
  // successors (nb = the exit, whose live-in is live_out).
  std::vector<uint32_t> gen(nb, 0), kill(nb, 0);
  std::vector<size_t> succ(2 * nb, nb + 1);  // nb + 1 = no successor
  for (size_t b = 0; b < nb; b++) {
    const size_t last = begin[b + 1] - 1;
    for (size_t i = last + 1; i-- > begin[b];) {
      if (EndsRoutine(code[i].op)) {
        gen[b] = dus[i].use;
        kill[b] = ~0u;
      } else {
        gen[b] = dus[i].use | (gen[b] & ~dus[i].def);
        kill[b] |= dus[i].def;
      }
    }
    const Instr& in = code[last];
    if (!EndsRoutine(in.op)) {
      if (IsBranch(in.op)) {
        succ[2 * b] = block_of[LiveTarget(in, n)];
      }
      if (in.op != Opcode::kBra) {
        succ[2 * b + 1] = block_of[last + 1];
      }
    }
  }
  // Predecessor lists in one array: block b's are
  // pred[first_pred[b] .. first_pred[b + 1]).
  std::vector<size_t> first_pred(nb + 2, 0), pred(2 * nb);
  for (size_t t : succ) {
    if (t <= nb) {
      first_pred[t + 1]++;
    }
  }
  for (size_t b = 0; b <= nb; b++) {
    first_pred[b + 1] += first_pred[b];
  }
  std::vector<size_t> fill(first_pred.begin(), first_pred.end() - 1);
  for (size_t k = 0; k < 2 * nb; k++) {
    if (succ[k] <= nb) {
      pred[fill[succ[k]]++] = k / 2;
    }
  }

  std::vector<uint32_t> live_in(nb + 1, 0);
  live_in[nb] = live_out;
  auto out_of = [&](size_t b) {
    uint32_t out = 0;
    for (size_t k = 2 * b; k < 2 * b + 2; k++) {
      if (succ[k] <= nb) {
        out |= live_in[succ[k]];
      }
    }
    return out;
  };
  std::vector<size_t> work;
  std::vector<bool> queued(nb, true);
  work.reserve(nb);
  for (size_t b = 0; b < nb; b++) {
    work.push_back(b);  // popped last-first: a backward problem's good order
  }
  while (!work.empty()) {
    const size_t b = work.back();
    work.pop_back();
    queued[b] = false;
    const uint32_t in = gen[b] | (out_of(b) & ~kill[b]);
    if (in == live_in[b]) {
      continue;
    }
    live_in[b] = in;
    for (size_t i = first_pred[b]; i < first_pred[b + 1]; i++) {
      const size_t p = pred[i];
      if (!queued[p]) {
        queued[p] = true;
        work.push_back(p);
      }
    }
  }

  // One backward sweep per block turns block live-ins into per-instruction
  // sets.
  std::vector<uint32_t> live(n + 1, 0);
  live[n] = live_out;
  for (size_t b = 0; b < nb; b++) {
    uint32_t out = out_of(b);
    for (size_t i = begin[b + 1]; i-- > begin[b];) {
      out = EndsRoutine(code[i].op) ? dus[i].use
                                    : dus[i].use | (out & ~dus[i].def);
      live[i] = out;
    }
  }
  return live;
}

// Inlines one round of direct calls (kJsr to a valid block) and returns how
// many were inlined. Calls are taken in order while the grown routine stays
// within kMaxInlinedSize; calls inside a freshly inlined body wait for the
// next round. The routine is rebuilt once through an index map, with branch
// targets exactly as splicing the bodies in one at a time would leave them.
size_t InlineRound(const CodeStore& store, std::vector<Instr>& code) {
  const size_t n = code.size();
  // new_index[i]: where original instruction i (or the body replacing it)
  // starts in the output.
  std::vector<int32_t> new_index(n + 1);
  std::vector<size_t> sites;
  size_t size = n;
  int32_t growth = 0;
  for (size_t i = 0; i < n; i++) {
    new_index[i] = static_cast<int32_t>(i) + growth;
    if (code[i].op != Opcode::kJsr || !store.Valid(code[i].imm)) {
      continue;
    }
    const size_t len = store.Get(code[i].imm).code.size();
    if (size + len > kMaxInlinedSize) {
      continue;
    }
    size += len - 1;
    growth += static_cast<int32_t>(len) - 1;
    sites.push_back(i);
  }
  new_index[n] = static_cast<int32_t>(n) + growth;
  if (sites.empty()) {
    return 0;
  }
  // A caller branch to instruction t lands where t now starts; targets past
  // the end move with the whole routine, targets before the start stay.
  auto host_target = [&](int32_t t) {
    if (t < 0) {
      return t;
    }
    return static_cast<size_t>(t) <= n ? new_index[static_cast<size_t>(t)]
                                       : t + growth;
  };
  // A callee branch outside [0, len] (never emitted by the assembler) gets
  // the shifts every later splice would have applied to it.
  auto stray_body_target = [&](int32_t v, size_t from_site) {
    for (size_t s = from_site; s < sites.size(); s++) {
      const int32_t at = new_index[sites[s]];
      if (v > at) {
        v += static_cast<int32_t>(store.Get(code[sites[s]].imm).code.size()) - 1;
      }
    }
    return v;
  };

  std::vector<Instr> out;
  out.reserve(size);
  size_t site = 0;
  for (size_t i = 0; i < n; i++) {
    if (site < sites.size() && sites[site] == i) {
      const std::vector<Instr>& body = store.Get(code[i].imm).code;
      const int32_t start = new_index[i];
      const int32_t len = static_cast<int32_t>(body.size());
      site++;
      for (Instr in : body) {
        if (IsBranch(in.op)) {
          in.imm = in.imm >= 0 && in.imm <= len
                       ? start + in.imm
                       : stray_body_target(start + in.imm, site);
        } else if (in.op == Opcode::kRts) {
          in.op = Opcode::kBra;
          in.rd = in.rs = 0;
          in.imm = start + len;
        }
        out.push_back(in);
      }
      continue;
    }
    Instr in = code[i];
    if (IsBranch(in.op)) {
      in.imm = host_target(in.imm);
    }
    out.push_back(in);
  }
  code = std::move(out);
  return sites.size();
}

// Deletes instructions where keep[i] is false, remapping branch targets.
// A branch to a deleted instruction is redirected to the next kept one.
size_t DeleteInstrs(std::vector<Instr>& code, const std::vector<bool>& keep) {
  size_t n = code.size();
  std::vector<int32_t> new_index(n + 1, 0);
  int32_t next = 0;
  for (size_t i = 0; i < n; i++) {
    new_index[i] = next;
    if (keep[i]) {
      next++;
    }
  }
  new_index[n] = next;
  // "Branch to deleted" maps to the index the next kept instruction gets.
  // Because new_index[i] counts kept instructions before i, that is already
  // the right value.
  std::vector<Instr> out;
  out.reserve(static_cast<size_t>(next));
  size_t removed = 0;
  for (size_t i = 0; i < n; i++) {
    if (!keep[i]) {
      removed++;
      continue;
    }
    Instr in = code[i];
    if (IsBranch(in.op)) {
      size_t t = in.imm < 0 ? 0 : static_cast<size_t>(in.imm);
      if (t > n) {
        t = n;
      }
      in.imm = new_index[t];
    }
    out.push_back(in);
  }
  code = std::move(out);
  return removed;
}

// --- Constant propagation / folding ------------------------------------------

// What is known at one program point: each register's constant value, if
// any, and the operands of the last compare.
struct AbsState {
  uint32_t known = 0;  // bit r: regs[r] holds a known value
  uint32_t regs[kNumRegisters] = {};
  std::optional<std::pair<uint32_t, uint32_t>> cc;

  std::optional<uint32_t> Get(uint8_t r) const {
    return (known >> r & 1) != 0 ? std::optional<uint32_t>(regs[r]) : std::nullopt;
  }
  void Set(uint8_t r, std::optional<uint32_t> v) {
    known = v ? known | 1u << r : known & ~(1u << r);
    regs[r] = v.value_or(0);
  }
  void Reset() {
    known = 0;
    cc.reset();
  }
  // The meet at a join point: keep only what every incoming path agrees on.
  // Returns true when something was forgotten.
  bool MeetWith(const AbsState& o) {
    const uint32_t was = known;
    for (uint8_t r = 0; r < kNumRegisters; r++) {
      if (Get(r) != o.Get(r)) {
        known &= ~(1u << r);
      }
    }
    const bool cc_lost = cc && cc != o.cc;
    if (cc_lost) {
      cc.reset();
    }
    return known != was || cc_lost;
  }
};

std::optional<bool> EvalCond(Opcode op, uint32_t lhs, uint32_t rhs) {
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
      return std::nullopt;
  }
}

// rd op= b for the two-operand ALU instructions and their immediate forms.
uint32_t EvalAlu(Opcode op, uint32_t a, uint32_t b) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kAddI:
      return a + b;
    case Opcode::kSub:
    case Opcode::kSubI:
      return a - b;
    case Opcode::kMulI:
      return a * b;
    case Opcode::kAnd:
    case Opcode::kAndI:
      return a & b;
    case Opcode::kOr:
    case Opcode::kOrI:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kLslI:
      return a << (b & 31);
    default:
      return a >> (b & 31);  // kLsrI
  }
}

// Rewrites `in` under what is known before it and advances `s` past it:
// constant results become kMoveI, a known base folds into an absolute address
// or an invariant immediate, a known source operand becomes an immediate, and
// a decided branch becomes kBra or kNop. Returns true when `in` changed. A
// rewrite leaves the same knowledge behind as the original instruction.
bool Step(Instr& in, AbsState& s, const InvariantMemory* invariants,
          const SynthesisOptions& options, const CodeStore& store,
          SynthesisStats& st) {
  bool changed = false;
  const uint32_t immu = static_cast<uint32_t>(in.imm);
  auto fold_to_movei = [&](uint32_t value) {
    in.op = Opcode::kMoveI;
    in.rs = 0;
    in.imm = static_cast<int32_t>(value);
    s.Set(in.rd, value);
    changed = true;
  };
  auto to_immediate = [&](Opcode op, uint32_t value) {  // drops the rs operand
    in.op = op;
    in.imm = static_cast<int32_t>(value);
    in.rs = 0;
    changed = true;
  };
  auto to_absolute = [&](Opcode op, uint32_t base) {
    in.op = op;
    in.imm = static_cast<int32_t>(base + immu);
    changed = true;
  };
  // Folds a load of `len` bytes at `addr` when the memory is invariant.
  auto fold_invariant = [&](Addr addr, size_t len) {
    if (!options.fold_invariant_loads || invariants == nullptr ||
        !invariants->Covers(addr, len)) {
      return false;
    }
    fold_to_movei(invariants->Read(addr, len));
    st.folded_loads++;
    return true;
  };
  switch (in.op) {
    case Opcode::kMoveI:
      s.Set(in.rd, immu);
      break;
    case Opcode::kMove:
    case Opcode::kLea:
      if (s.Get(in.rs)) {
        fold_to_movei(*s.Get(in.rs) + (in.op == Opcode::kLea ? immu : 0));
      } else {
        s.Set(in.rd, std::nullopt);
      }
      break;
    case Opcode::kLoad8:
    case Opcode::kLoad16:
    case Opcode::kLoad32: {
      const size_t len = in.op == Opcode::kLoad8 ? 1 : in.op == Opcode::kLoad16 ? 2 : 4;
      const std::optional<uint32_t> base = s.Get(in.rs);
      s.Set(in.rd, std::nullopt);
      if (base && !fold_invariant(*base + immu, len)) {
        // Absolute-ification: fold the known base into the instruction
        // (68020 absolute-long mode), freeing the base register.
        in.rs = 0;
        to_absolute(len == 1 ? Opcode::kLoadA8 : len == 2 ? Opcode::kLoadA16
                                                          : Opcode::kLoadA32,
                    *base);
      }
      break;
    }
    case Opcode::kLoadA8:
    case Opcode::kLoadA16:
    case Opcode::kLoadA32: {
      const size_t len = in.op == Opcode::kLoadA8 ? 1 : in.op == Opcode::kLoadA16 ? 2 : 4;
      if (!fold_invariant(static_cast<Addr>(in.imm), len)) {
        s.Set(in.rd, std::nullopt);
      }
      break;
    }
    case Opcode::kLoadIdx32:
      if (s.Get(in.rs)) {
        // Re-processed as kLoadA32 next pass (may fold to an immediate).
        const uint32_t idx = *s.Get(in.rs);
        in.rs = 0;
        to_absolute(Opcode::kLoadA32, idx * 4);
      }
      s.Set(in.rd, std::nullopt);
      break;
    case Opcode::kStore8:
    case Opcode::kStore16:
    case Opcode::kStore32:
      if (s.Get(in.rd)) {
        const uint32_t base = *s.Get(in.rd);
        in.rd = 0;
        to_absolute(in.op == Opcode::kStore8    ? Opcode::kStoreA8
                    : in.op == Opcode::kStore16 ? Opcode::kStoreA16
                                                : Opcode::kStoreA32,
                    base);
      }
      break;
    case Opcode::kStoreIdx32:
      if (s.Get(in.rs)) {
        const uint32_t idx = *s.Get(in.rs);
        in.rs = in.rd;  // kStoreA32 takes its value from rs
        in.rd = 0;
        to_absolute(Opcode::kStoreA32, idx * 4);
      }
      break;
    case Opcode::kPush:
      if (s.Get(kA7)) {
        s.Set(kA7, *s.Get(kA7) - 4);
      }
      break;
    case Opcode::kPop:
      s.Set(in.rd, std::nullopt);
      if (s.Get(kA7)) {
        s.Set(kA7, *s.Get(kA7) + 4);
      }
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
      if (s.Get(in.rd) && s.Get(in.rs)) {
        fold_to_movei(EvalAlu(in.op, *s.Get(in.rd), *s.Get(in.rs)));
        break;
      }
      if (s.Get(in.rs) && in.op != Opcode::kOr && in.op != Opcode::kXor) {
        to_immediate(in.op == Opcode::kAdd   ? Opcode::kAddI
                     : in.op == Opcode::kSub ? Opcode::kSubI
                                             : Opcode::kAndI,
                     *s.Get(in.rs));
      } else if (s.Get(in.rd) && in.op == Opcode::kAdd) {
        // rd = K + rs: one effective-address computation.
        in.op = Opcode::kLea;
        in.imm = static_cast<int32_t>(*s.Get(in.rd));
        changed = true;
      }
      s.Set(in.rd, std::nullopt);
      break;
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kLslI:
    case Opcode::kLsrI:
      if (s.Get(in.rd)) {
        fold_to_movei(EvalAlu(in.op, *s.Get(in.rd), immu));
      }
      break;
    case Opcode::kCmp:
      s.cc = s.Get(in.rd) && s.Get(in.rs)
                 ? std::make_optional(std::make_pair(*s.Get(in.rd), *s.Get(in.rs)))
                 : std::nullopt;
      if (s.Get(in.rs)) {
        to_immediate(Opcode::kCmpI, *s.Get(in.rs));
      }
      break;
    case Opcode::kCmpI:
    case Opcode::kTst:
      s.cc = s.Get(in.rd) ? std::make_optional(std::make_pair(
                            *s.Get(in.rd), in.op == Opcode::kTst ? 0u : immu))
                      : std::nullopt;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBgt:
    case Opcode::kBle:
    case Opcode::kBhi:
    case Opcode::kBls:
      if (options.fold_branches && s.cc) {
        if (auto taken = EvalCond(in.op, s.cc->first, s.cc->second)) {
          if (*taken) {
            in.op = Opcode::kBra;
          } else {
            in.op = Opcode::kNop;
            in.imm = 0;
          }
          st.folded_branches++;
          changed = true;
        }
      }
      break;
    case Opcode::kJsrInd:
      // Only rewrite when the target is a real block; patch slots hold
      // placeholder values that must survive synthesis.
      if (s.Get(in.rs) && store.Valid(static_cast<BlockId>(*s.Get(in.rs)))) {
        to_immediate(Opcode::kJsr, *s.Get(in.rs));
      }
      s.Reset();
      break;
    case Opcode::kBra:  // what follows is reached only through a join
    case Opcode::kJsr:
    case Opcode::kTrap:
    case Opcode::kJmpInd:
    case Opcode::kRts:
    case Opcode::kHalt:
      s.Reset();
      break;
    case Opcode::kCas:
      if (s.Get(in.rs)) {
        const uint32_t base = *s.Get(in.rs);
        in.rs = 0;
        to_absolute(Opcode::kCasA, base);
      }
      [[fallthrough]];
    case Opcode::kCasA:
      s.Set(kD0, std::nullopt);
      s.cc.reset();
      break;
    case Opcode::kMovemLoad:
      for (int i = 0; i < in.imm && i < 16; i++) {
        s.Set(i, std::nullopt);
      }
      break;
    default:  // stores to absolute addresses, kMovemSave, kSetVbr, kCharge, kNop
      break;
  }
  return changed;
}

// One constant-propagation pass. Knowledge crosses join points: each block
// starts from the meet of what its predecessors leave behind (a constant
// survives a join when every incoming path agrees on it), and a branch the
// pass decides keeps only the edge it takes, so code behind it is never
// visited. Blocks are walked in layout order. A block outside every loop
// region (the union of each back edge's [target, source] block range) has
// all its predecessors behind it, so it is rewritten on its only visit; a
// loop region is iterated to its fixpoint first — an entry state only ever
// loses facts — and then rewritten under the settled states.
bool PropagateConstants(std::vector<Instr>& code, const InvariantMemory* invariants,
                        const SynthesisOptions& options, const CodeStore& store,
                        SynthesisStats& st) {
  const size_t n = code.size();
  const auto [begin, block_of] = SplitBlocks(code);
  const size_t nb = begin.size() - 1;
  // loop_end[h] > 0: block h is a back-edge target, from blocks before
  // loop_end[h].
  std::vector<size_t> loop_end(nb, 0);
  for (size_t b = 0; b < nb; b++) {
    const size_t h = block_of[LiveTarget(code[begin[b + 1] - 1], n)];
    if (IsBranch(code[begin[b + 1] - 1].op) && h <= b) {
      loop_end[h] = std::max(loop_end[h], b + 1);
    }
  }

  // Entry states; an unset one has not been reached (yet).
  std::vector<std::optional<AbsState>> entry(nb);
  std::vector<bool> pending(nb, false);
  auto flow_into = [&](size_t target, const AbsState& s) {
    if (target >= n) {
      return;  // leaves the routine
    }
    std::optional<AbsState>& e = entry[block_of[target]];
    if (!e) {
      e = s;
    } else if (!e->MeetWith(s)) {
      return;
    }
    pending[block_of[target]] = true;
  };
  // Runs block b from its entry state and flows into its successors;
  // `rewrite` applies the rewrites, otherwise they are only evaluated.
  SynthesisStats scratch_stats;
  bool changed = false;
  auto visit = [&](size_t b, bool rewrite) {
    pending[b] = false;
    AbsState s = *entry[b], before;
    Instr last;
    for (size_t i = begin[b]; i < begin[b + 1]; i++) {
      if (i + 1 == begin[b + 1]) {
        before = s;  // what a taken branch carries to its target
      }
      last = code[i];
      Instr scratch = last;
      Instr& in = rewrite ? code[i] : scratch;
      changed |= Step(in, s, invariants, options, store,
                      rewrite ? st : scratch_stats) &&
                 rewrite;
      last.op = in.op;  // a decided branch keeps only the edge it takes
    }
    if (IsBranch(last.op) && last.imm >= 0) {
      flow_into(static_cast<size_t>(last.imm), before);
    }
    if (!EndsRoutine(last.op) && last.op != Opcode::kBra) {
      flow_into(begin[b + 1], s);
    }
  };
  flow_into(0, AbsState());
  for (size_t lo = 0; lo < nb;) {
    size_t hi = lo + 1;  // blocks [lo, hi) settle together
    for (size_t x = lo; x < hi; x++) {
      hi = std::max(hi, loop_end[x]);
    }
    if (loop_end[lo] > 0) {
      for (bool again = true; again;) {
        again = false;
        for (size_t x = lo; x < hi; x++) {
          if (pending[x]) {
            visit(x, false);
            again = true;
          }
        }
      }
    }
    for (size_t x = lo; x < hi; x++) {
      if (entry[x]) {
        visit(x, true);  // unreached blocks are removed by the next pass
      }
    }
    lo = hi;
  }
  return changed;
}

}  // namespace

CodeBlock Synthesizer::Specialize(const CodeTemplate& tmpl, const Bindings& bindings,
                                  const InvariantMemory* invariants,
                                  const SynthesisOptions& options, SynthesisStats* stats,
                                  const std::string& output_name) const {
  CodeBlock out;
  out.name = output_name.empty() ? tmpl.block.name + "$synth" : output_name;
  out.code = tmpl.block.code;

  SynthesisStats local;
  SynthesisStats& st = stats ? *stats : local;
  st.input_instructions = out.code.size();

  // --- Bind holes (Factoring Invariants, part 1) ------------------------------
  for (const SymUse& use : tmpl.holes) {
    if (!bindings.Has(use.name)) {
      std::fprintf(stderr, "Synthesizer: template '%s' hole '%s' unbound\n",
                   tmpl.block.name.c_str(), use.name.c_str());
      std::abort();
    }
    out.code[use.index].imm = bindings.Get(use.name);
  }

  auto& code = out.code;
  int inline_rounds = 0;

  for (int pass = 0; pass < options.max_passes; pass++) {
    bool changed = false;

    // --- Collapsing Layers: inline direct calls -------------------------------
    if (options.inline_calls && inline_rounds < options.max_inline_depth) {
      if (const size_t inlined = InlineRound(*store_, code); inlined > 0) {
        st.inlined_calls += inlined;
        inline_rounds++;
        changed = true;
      }
    }

    // --- Constant propagation, invariant-load folding, branch folding ---------
    if (options.constant_fold &&
        PropagateConstants(code, invariants, options, *store_, st)) {
      changed = true;
    }

    // --- Unreachable-code removal ----------------------------------------------
    if (options.fold_branches && !code.empty()) {
      std::vector<bool> reachable(code.size(), false);
      std::vector<size_t> work{0};
      while (!work.empty()) {
        size_t i = work.back();
        work.pop_back();
        if (i >= code.size() || reachable[i]) {
          continue;
        }
        reachable[i] = true;
        const Instr& in = code[i];
        if (IsBranch(in.op)) {
          work.push_back(in.imm < 0 ? code.size() : static_cast<size_t>(in.imm));
        }
        if (!IsTerminator(in.op)) {
          work.push_back(i + 1);
        }
      }
      bool any_dead = false;
      for (bool r : reachable) {
        if (!r) {
          any_dead = true;
          break;
        }
      }
      if (any_dead) {
        st.removed_instructions += DeleteInstrs(code, reachable);
        changed = true;
      }
    }

    // --- Dead-code elimination ----------------------------------------------------
    // Repeated while a deleted instruction read a register: that can kill
    // the def it read (a bound hole's kMoveI feeding a folded test), which
    // would otherwise take a whole further pass to notice. Deleting a dead
    // instruction that reads nothing changes no liveness.
    for (bool again = options.dead_code_elim; again && !code.empty();) {
      again = false;
      const size_t n = code.size();
      std::vector<DefUse> dus(n);
      for (size_t idx = 0; idx < n; idx++) {
        dus[idx] = DefUseOf(code[idx]);
        if (code[idx].op == Opcode::kRts || code[idx].op == Opcode::kHalt) {
          dus[idx].use = options.live_out;  // calling convention, not "everything"
        } else if (code[idx].op == Opcode::kJmpInd) {
          // A tail jump is a routine exit: its target starts where a return
          // would, so it sees live_out plus the jump register, and no
          // condition codes.
          dus[idx].use = options.live_out | RegBit(code[idx].rs);
        }
      }
      const std::vector<uint32_t> live = SolveLiveness(code, dus, options.live_out);
      std::vector<bool> keep(n, true);
      bool any = false;
      for (size_t idx = 0; idx < n; idx++) {
        const Instr& in = code[idx];
        const DefUse& du = dus[idx];
        uint32_t out_live = live[idx + 1];
        if (in.op == Opcode::kNop ||
            (du.removable && (du.def & out_live) == 0)) {
          keep[idx] = false;
          any = true;
          again |= du.use != 0;
        }
      }
      if (any) {
        st.removed_instructions += DeleteInstrs(code, keep);
        changed = true;
      }
    }

    // --- Peephole ------------------------------------------------------------------
    if (options.peephole && !code.empty()) {
      for (size_t i = 0; i < code.size(); i++) {
        Instr& in = code[i];
        bool to_nop = false;
        if (in.op == Opcode::kMove && in.rd == in.rs) {
          to_nop = true;
        } else if ((in.op == Opcode::kAddI || in.op == Opcode::kSubI ||
                    in.op == Opcode::kOrI || in.op == Opcode::kLslI ||
                    in.op == Opcode::kLsrI) &&
                   in.imm == 0) {
          to_nop = true;
        } else if (in.op == Opcode::kMulI && in.imm == 1) {
          to_nop = true;
        } else if (in.op == Opcode::kAndI && in.imm == -1) {
          to_nop = true;
        } else if (in.op == Opcode::kLea && in.imm == 0) {
          in.op = Opcode::kMove;
          changed = true;
        } else if (IsBranch(in.op)) {
          // Thread branch chains: a branch to an unconditional kBra follows it.
          int hops = 0;
          while (hops++ < 8 && in.imm >= 0 && static_cast<size_t>(in.imm) < code.size() &&
                 code[in.imm].op == Opcode::kBra &&
                 code[in.imm].imm != in.imm) {
            in.imm = code[in.imm].imm;
            changed = true;
          }
          if (in.imm == static_cast<int32_t>(i + 1)) {
            to_nop = true;  // branch to the next instruction
          }
        }
        if (to_nop) {
          in = Instr{};  // kNop
          changed = true;
        }
      }
      // Strip the nops we just created (DCE also strips nops next pass).
      std::vector<bool> keep(code.size(), true);
      bool any = false;
      for (size_t i = 0; i < code.size(); i++) {
        if (code[i].op == Opcode::kNop) {
          keep[i] = false;
          any = true;
        }
      }
      if (any) {
        st.removed_instructions += DeleteInstrs(code, keep);
        changed = true;
      }
    }

    if (!changed) {
      break;
    }
  }

  st.output_instructions = code.size();
  return out;
}

}  // namespace synthesis
