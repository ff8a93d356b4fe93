// Kernel code synthesis (§2.2 of the paper).
//
// Kernel operations are written once as general templates: programs that read
// their parameters from context structures, dispatch on device types, and call
// through layers. At `open()` / thread-create time the Synthesizer specializes
// a template for one specific situation, applying the paper's three methods:
//
//  * Factoring Invariants — symbolic holes are bound to constants, and loads
//    from memory declared invariant (the open-file record, the TTE, the device
//    switch table) are folded to immediates read from live simulated memory.
//  * Collapsing Layers — kJsr calls (and kJsrInd calls whose target becomes
//    known) are inlined, eliminating procedure-call layering.
//  * plus classic cleanups: constant propagation/folding (across joins where
//    every path agrees, known source operands becoming immediates), branch
//    folding with unreachable-code removal, dead-code elimination, and
//    peephole rules.
//
// The output is a shorter concrete program; the speedups measured by the
// benchmarks are the path-length difference between template and output.
#ifndef SRC_SYNTH_SYNTHESIZER_H_
#define SRC_SYNTH_SYNTHESIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/machine/assembler.h"
#include "src/machine/code_store.h"
#include "src/machine/memory.h"

namespace synthesis {

// Concrete values for a template's named holes.
class Bindings {
 public:
  Bindings& Set(const std::string& name, int32_t value) {
    values_[name] = value;
    return *this;
  }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  int32_t Get(const std::string& name) const { return values_.at(name); }

 private:
  std::map<std::string, int32_t> values_;
};

// Memory the synthesizer may treat as constant. Reads resolve against the live
// simulated memory at synthesis time — this is the "binding the system state
// early" of the paper's conclusion.
class InvariantMemory {
 public:
  explicit InvariantMemory(const Memory& mem) : mem_(&mem) {}

  InvariantMemory& AddRange(AddrRange range) {
    ranges_.push_back(range);
    return *this;
  }

  bool Covers(Addr addr, size_t len) const {
    for (const AddrRange& r : ranges_) {
      if (r.Contains(addr, len)) {
        return true;
      }
    }
    return false;
  }

  uint32_t Read(Addr addr, size_t len) const {
    switch (len) {
      case 1:
        return mem_->Read8(addr);
      case 2:
        return mem_->Read16(addr);
      default:
        return mem_->Read32(addr);
    }
  }

 private:
  const Memory* mem_;
  std::vector<AddrRange> ranges_;
};

struct SynthesisOptions {
  bool inline_calls = true;          // Collapsing Layers
  bool fold_invariant_loads = true;  // Factoring Invariants
  bool constant_fold = true;
  bool fold_branches = true;
  bool dead_code_elim = true;
  bool peephole = true;
  int max_inline_depth = 6;
  int max_passes = 12;

  // Calling convention: registers still meaningful when the routine returns
  // or tail-jumps (kJmpInd) to another routine, which must then read nothing
  // else the routine wrote. Dead-code elimination may delete writes to any
  // register outside this mask.
  // Default: d0 (the result register) and a7 (the stack pointer).
  uint32_t live_out = (1u << 0) | (1u << 15);

  // Everything off: the template is emitted verbatim (after hole binding).
  // This is the "no synthesis" ablation and the baseline kernel's behaviour.
  static SynthesisOptions Disabled() {
    SynthesisOptions o;
    o.inline_calls = false;
    o.fold_invariant_loads = false;
    o.constant_fold = false;
    o.fold_branches = false;
    o.dead_code_elim = false;
    o.peephole = false;
    return o;
  }
};

struct SynthesisStats {
  size_t input_instructions = 0;
  size_t output_instructions = 0;
  size_t inlined_calls = 0;
  size_t folded_loads = 0;    // invariant loads turned into immediates
  size_t folded_branches = 0;
  size_t removed_instructions = 0;  // unreachable + dead + peephole
};

class Synthesizer {
 public:
  explicit Synthesizer(const CodeStore& store) : store_(&store) {}

  // Specializes `tmpl` under `bindings`. All holes must be bound.
  // `invariants` may be null (no invariant-memory folding).
  CodeBlock Specialize(const CodeTemplate& tmpl, const Bindings& bindings,
                       const InvariantMemory* invariants,
                       const SynthesisOptions& options, SynthesisStats* stats = nullptr,
                       const std::string& output_name = "") const;

 private:
  const CodeStore* store_;
};

}  // namespace synthesis

#endif  // SRC_SYNTH_SYNTHESIZER_H_
