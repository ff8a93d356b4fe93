// Table 6 (extension): per-packet demultiplexing cost, generic interpreted
// demux vs the code-synthesized per-flow demux (§2.3 Collapsing Layers +
// §2.1 Factoring Invariants applied to the network receive path).
//
// The generic demux walks a flow table, compares the destination port per
// entry, byte-loops the checksum, and calls a generic delivery routine that
// calls a generic ring-put per byte. The synthesized demux is a dispatch head
// synthesized once: it hashes the port into a table of cells and jumps through
// the matching cell to the flow's deliver, synthesized at bind with the
// checksum bound and ring geometry as immediates; fixed-length flows get a
// fully unrolled checksum + copy. Both paths run
// on identical frames and identical (emptied) rings; the speedup comes from
// path length, not from different work.
//
// Self-enforced on both machine models: the synthesized path runs at most
// 0.7x the generic instructions on every row, and at most 0.25x on the
// fixed-64B (unrolled) row; the bench exits 1 otherwise.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/net/demux.h"
#include "src/net/frame.h"

namespace synthesis {
namespace {

struct Sample {
  double generic_instr = 0;
  double synth_instr = 0;
  double generic_us = 0;
  double synth_us = 0;
};

// Measures one payload size on one machine model: the cost of demuxing a
// valid frame for the given port, averaged over kReps, with the flow ring
// emptied before every packet so delivery never hits the full-ring path.
Sample MeasureDemux(Kernel& k, DemuxSynthesizer& demux,
                    const std::vector<Addr>& ring_bases, Addr frame,
                    uint16_t port, uint32_t payload_bytes) {
  Memory& mem = k.machine().memory();
  std::vector<uint8_t> payload(payload_bytes);
  for (uint32_t i = 0; i < payload_bytes; i++) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  WriteFrame(mem, frame, port, 7777, payload.data(), payload_bytes);

  constexpr int kReps = 32;
  Sample out;
  for (int pass = 0; pass < 2; pass++) {
    BlockId blk = pass == 0 ? demux.generic_demux() : demux.synthesized_demux();
    uint64_t instr = 0, cycles = 0;
    for (int i = 0; i < kReps; i++) {
      for (Addr ring : ring_bases) {
        mem.Write32(ring + RingLayout::kHead, 0);
        mem.Write32(ring + RingLayout::kTail, 0);
      }
      k.machine().set_reg(kA1, frame);
      Stopwatch sw(k.machine());
      RunResult rr = k.kexec().Call(blk);
      if (rr.outcome != RunOutcome::kReturned ||
          k.machine().reg(kD0) != 1) {
        std::fprintf(stderr, "demux failed (pass %d)\n", pass);
        std::exit(1);
      }
      instr += sw.instructions();
      cycles += sw.cycles();
    }
    double us =
        k.machine().cost_model().CyclesToMicros(cycles) / kReps;
    if (pass == 0) {
      out.generic_instr = static_cast<double>(instr) / kReps;
      out.generic_us = us;
    } else {
      out.synth_instr = static_cast<double>(instr) / kReps;
      out.synth_us = us;
    }
  }
  return out;
}

constexpr double kMaxRatio = 0.7;
constexpr double kMaxUnrolledRatio = 0.25;

// False (after saying why) when the synthesized path runs more than
// `bound` x the generic instructions.
bool WithinBound(const char* model_name, const std::string& row,
                 const Sample& s, double bound) {
  if (s.synth_instr <= bound * s.generic_instr) {
    return true;
  }
  std::fprintf(stderr,
               "table6: %s, %s: synthesized %.1f instr not <= %.2fx the "
               "generic %.1f\n",
               model_name, row.c_str(), s.synth_instr, bound, s.generic_instr);
  return false;
}

// Prints one machine model's table; returns false when a row misses its
// bound.
bool RunModel(const char* model_name, MachineConfig cfg) {
  Kernel::Config kc;
  kc.machine = cfg;
  Kernel k(kc);
  IoSystem io(k, nullptr);
  DemuxSynthesizer demux(k);

  // Four flows: three flexible, one declaring a fixed 64-byte datagram size
  // (checksum + copy fully unrolled in its synthesized deliver).
  struct Flow {
    uint16_t port;
    uint32_t fixed_len;
  };
  const std::vector<Flow> flows = {{1000, 0}, {2000, 0}, {3000, 0}, {4000, 64}};
  std::vector<Addr> ring_bases;
  for (const Flow& f : flows) {
    auto ring = io.MakeRing(4096);
    demux.AddFlow(f.port, ring->base, f.fixed_len);
    ring_bases.push_back(ring->base);
  }

  Addr frame = k.allocator().Allocate(FrameLayout::kSlotBytes);
  PrintHeader(std::string("Table 6: packet demux, 4 flows, ") + model_name,
              "generic", "synthesized");
  bool ok = true;
  for (uint32_t size : {4u, 64u, 512u}) {
    // The last flow in the table is the worst case for the generic walk and
    // the fixed-size flow the best for the synthesizer; measure both ends.
    Sample first = MeasureDemux(k, demux, ring_bases, frame, 1000, size);
    const std::string row =
        "port 1000 (first), " + std::to_string(size) + "B payload";
    PrintRow(row, first.generic_instr, first.synth_instr, "instr");
    PrintRow("  same, time", first.generic_us, first.synth_us, "us");
    ok &= WithinBound(model_name, row, first, kMaxRatio);
    if (size == 64) {
      Sample fixed = MeasureDemux(k, demux, ring_bases, frame, 4000, size);
      const std::string fixed_row = "port 4000 (fixed 64B, unrolled)";
      PrintRow(fixed_row, fixed.generic_instr, fixed.synth_instr, "instr");
      PrintRow("  same, time", fixed.generic_us, fixed.synth_us, "us");
      ok &= WithinBound(model_name, fixed_row, fixed, kMaxUnrolledRatio);
    }
  }
  PrintNote("generic = table walk + interpreted checksum + generic ring put;");
  PrintNote("synthesized = hashed dispatch head + per-flow deliver with inlined");
  PrintNote("checksum (fixed-size flows fully unrolled). Ratio < 1 = faster.");
  PrintNote("dispatch head: " +
            std::to_string(demux.head_stats().output_instructions) +
            " instructions, synthesized once per NIC; a bind writes one cell");
  return ok;
}

}  // namespace

bool Main() {
  // Both models print before the verdict, so a failing run still shows the
  // whole table.
  const bool sun = RunModel("16 MHz SUN emulation", MachineConfig::SunEmulation());
  const bool qua =
      RunModel("50 MHz native Quamachine", MachineConfig::NativeQuamachine());
  return sun && qua;
}

}  // namespace synthesis

int main() {
  const bool ok = synthesis::Main();
  synthesis::WriteBenchJson("BENCH_net.json");
  return ok ? 0 : 1;
}
