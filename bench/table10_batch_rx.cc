// Table 10: zero-copy batched RX delivery.
//
// Part 1 measures the per-frame receive path in instructions, end to end from
// the RX interrupt through the demux into the flow's ring, across the full
// ablation matrix: {generic, synthesized} demux x {per-frame, batched}
// dispatch. The generic per-frame cell is the ~345-instruction baseline
// table8 identified as the scaling cap; the synthesized batched cell folds
// the record append into the flow's own code (ring base, mask, record stride
// as immediates) and amortizes the vector/trap overhead across every frame
// in the coalescing window.
//
// Part 2 measures what batching buys in aggregate: four pooled NICs each
// receiving waves of wire arrivals, with the only difference between the two
// runs being NicConfig::rx_coalesce_us. Same frames, same demux, same
// steering — the rate delta is purely the per-frame dispatch overhead the
// batch loop amortizes.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/machine/machine.h"
#include "src/net/frame.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"

namespace synthesis {
namespace {

constexpr uint32_t kPayloadBytes = 16;

// Instructions per frame through the whole RX pipeline: a burst of frames is
// placed on the wire, then the kernel runs to idle under a stopwatch. Every
// frame pays interrupt entry, demux, ring append and the RX-done bookkeeping;
// batched runs share one interrupt per burst.
double MeasureRxPath(bool synthesized, double coalesce_us) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicConfig cfg;
  cfg.rx_coalesce_us = coalesce_us;
  NicDevice nic(k, cfg);
  if (!synthesized) {
    k.spec().Demote(nic.demux().head_spec(), SpecTier::kGeneric);
  }

  auto ring = io.MakeRing(8192);
  constexpr uint16_t kPort = 7;
  if (!nic.BindFlow(FlowSpec::Ring(kPort, ring, kPayloadBytes))) {
    std::fprintf(stderr, "table10: bind failed\n");
    std::exit(1);
  }
  uint8_t payload[kPayloadBytes];
  for (uint32_t i = 0; i < kPayloadBytes; i++) {
    payload[i] = static_cast<uint8_t>('a' + i);
  }
  const uint32_t csum = FrameChecksum(kPort, 9000, payload, kPayloadBytes);

  constexpr uint32_t kFrames = 16;
  Stopwatch sw(k.machine());
  for (uint32_t f = 0; f < kFrames; f++) {
    nic.InjectRaw(kPort, 9000, payload, kPayloadBytes, csum, kPayloadBytes);
  }
  k.Run();
  const double per = static_cast<double>(sw.instructions()) / kFrames;
  if (nic.rx_gauge().events() != kFrames) {
    std::fprintf(stderr,
                 "table10: delivered %llu of %u frames (synth=%d batch=%.0f)\n",
                 static_cast<unsigned long long>(nic.rx_gauge().events()),
                 kFrames, synthesized ? 1 : 0, coalesce_us);
    std::exit(1);
  }
  if (coalesce_us > 0 &&
      nic.rx_batch_frames() < 2 * nic.rx_batch_dispatches()) {
    std::fprintf(stderr, "table10: batching never amortized (%llu fr / %llu d)\n",
                 static_cast<unsigned long long>(nic.rx_batch_frames()),
                 static_cast<unsigned long long>(nic.rx_batch_dispatches()));
    std::exit(1);
  }
  return per;
}

void RunReceivePath(double* baseline_out, double* batched_out) {
  constexpr double kWindow = 25.0;
  const double gen_frame = MeasureRxPath(false, 0.0);
  const double gen_batch = MeasureRxPath(false, kWindow);
  const double syn_frame = MeasureRxPath(true, 0.0);
  const double syn_batch = MeasureRxPath(true, kWindow);

  PrintHeader("Table 10: RX path per frame, interrupt -> ring (instructions)",
              "generic", "synthesized");
  PrintRow("per-frame dispatch", gen_frame, syn_frame, "instr");
  PrintRow("batched dispatch (16-frame window)", gen_batch, syn_batch,
           "instr");
  PrintNote("generic reloads flow-table geometry and appends byte-at-a-time;");
  PrintNote("synthesized folds ring base/mask/record stride into the flow's");
  PrintNote("code and the batch loop amortizes vector+trap entry per window.");
  *baseline_out = gen_frame;
  *batched_out = syn_batch;
}

// Aggregate delivery rate across a 4-NIC pool. Each wave puts `per_wave`
// frames on every NIC's wire (ports 100..103 hash to NICs 0..3) and runs the
// kernel until the pool drains; the virtual clock across all waves gives
// frames per millisecond. `coalesce_us` is the only knob that differs
// between the batched and unbatched runs.
double MeasureRate(double coalesce_us, uint32_t waves, uint32_t per_wave) {
  NicPoolConfig pc;
  pc.initial_nics = 4;
  pc.nic.rx_coalesce_us = coalesce_us;
  Kernel k;
  IoSystem io(k, nullptr);
  NicPool pool(k, pc);

  constexpr uint32_t kRatePayload = 1;
  uint8_t payload[kRatePayload] = {42};
  std::vector<uint16_t> ports;
  for (uint32_t i = 0; i < 4; i++) {
    uint16_t p = static_cast<uint16_t>(100 + i);
    if (pool.SteerOf(p) != i) {
      std::fprintf(stderr, "table10: port %u not on nic %u\n", p, i);
      std::exit(1);
    }
    auto ring = io.MakeRing(8192);
    if (!pool.BindFlow(FlowSpec::Ring(p, ring, kRatePayload))) {
      std::fprintf(stderr, "table10: bind failed for port %u\n", p);
      std::exit(1);
    }
    ports.push_back(p);
  }

  const double t0 = k.NowUs();
  for (uint32_t w = 0; w < waves; w++) {
    for (uint32_t f = 0; f < per_wave; f++) {
      for (uint32_t i = 0; i < 4; i++) {
        const uint32_t csum =
            FrameChecksum(ports[i], 9000, payload, kRatePayload);
        pool.nic(i).InjectRaw(ports[i], 9000, payload, kRatePayload, csum,
                              kRatePayload);
      }
    }
    k.Run();  // drain the wave before the next burst (no RX overruns)
  }
  const double elapsed_ms = (k.NowUs() - t0) / 1000.0;
  NicPool::AggregateStats agg = pool.Aggregate();
  const uint64_t expected = static_cast<uint64_t>(waves) * per_wave * 4;
  uint64_t overruns = 0;
  for (uint32_t i = 0; i < 4; i++) {
    overruns += pool.nic(i).rx_overruns();
  }
  if (agg.delivered != expected || overruns != 0 || elapsed_ms <= 0) {
    std::fprintf(stderr,
                 "table10: delivered %llu of %llu (overruns %llu, %.2f ms)\n",
                 static_cast<unsigned long long>(agg.delivered),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(overruns), elapsed_ms);
    std::exit(1);
  }
  if (coalesce_us > 0) {
    uint64_t frames = 0, dispatches = 0;
    for (uint32_t i = 0; i < 4; i++) {
      frames += pool.nic(i).rx_batch_frames();
      dispatches += pool.nic(i).rx_batch_dispatches();
    }
    if (dispatches == 0 || frames < 4 * dispatches) {
      std::fprintf(stderr, "table10: weak amortization (%llu fr / %llu d)\n",
                   static_cast<unsigned long long>(frames),
                   static_cast<unsigned long long>(dispatches));
      std::exit(1);
    }
  }
  return static_cast<double>(agg.delivered) / elapsed_ms;
}

void RunAggregateRate(double* speedup_out) {
  constexpr uint32_t kWaves = 6;
  constexpr uint32_t kPerWave = 32;
  const double off = MeasureRate(0.0, kWaves, kPerWave);
  const double on = MeasureRate(30.0, kWaves, kPerWave);
  PrintHeader("Table 10b: aggregate delivery rate, N=4 NICs (fr/ms)",
              "batch off", "batch on");
  PrintRow("768 frames, 32-frame waves", off, on, "fr/ms");
  PrintNote("identical frames, demux and steering; rx_coalesce_us is the only");
  PrintNote("difference. Batch-off pays vector+trap+descriptor-ack per frame,");
  PrintNote("batch-on pays it once per wave and loops in synthesized code.");
  *speedup_out = on / off;
}

}  // namespace

void Main() {
  double baseline = 0, batched = 0;
  RunReceivePath(&baseline, &batched);
  double speedup = 0;
  RunAggregateRate(&speedup);
  // The numbers this table exists to demonstrate; regressions fail the bench.
  if (!(batched <= 0.6 * baseline)) {
    std::fprintf(stderr,
                 "table10: synthesized batched path %.1f instr not <= 0.6x "
                 "the %.1f-instr per-frame baseline\n",
                 batched, baseline);
    std::exit(1);
  }
  if (!(speedup >= 1.3)) {
    std::fprintf(stderr, "table10: batching speedup %.2fx below 1.3x\n",
                 speedup);
    std::exit(1);
  }
}

}  // namespace synthesis

int main() {
  synthesis::Main();
  synthesis::WriteBenchJson("BENCH_batch.json");
  return 0;
}
