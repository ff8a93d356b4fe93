// Table 13: batched zero-copy transmit — the TX mirror of table 10.
//
// Part 1 measures the per-frame transmit path in instructions, end to end
// from the gather-API call through the descriptor fill, the TX-complete
// interrupt and the retirement bookkeeping, per-frame against coalesced
// completion. The wire is a pure sink (drop_rate = 1.0) so no RX-side cost
// pollutes the numbers: every instruction counted is transmit-path. The
// per-frame cell is the seed's one-kNetTx-interrupt-per-frame baseline; the
// coalesced cell fills a burst of descriptors under one doorbell and retires
// every completion that lands in the window under a single dispatch of the
// retire loop, which is synthesized once per device (it folds only
// device-lifetime constants).
//
// Part 2 measures what TX coalescing buys in aggregate: four pooled NICs
// (serialize_tx = true, so each models its own one-frame-at-a-time DMA
// engine) each transmitting waves of frames, with NicConfig::tx_coalesce_us
// the only difference between the two runs. Same frames, same routing, same
// descriptor writes — the rate delta is purely the per-frame interrupt
// overhead the coalesced retire loop amortizes.
#include <cstdio>
#include <cstdlib>
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

// Instructions per frame through the whole TX pipeline: a burst of frames is
// handed to the gather API, then the kernel runs to idle under a stopwatch.
// Every frame pays the descriptor fill, the doorbell (per frame or per
// burst), completion interrupt entry and retirement; coalesced runs share
// one interrupt per window.
double MeasureTxPath(double coalesce_us) {
  Kernel k;
  NicConfig cfg;
  cfg.tx_coalesce_us = coalesce_us;
  cfg.drop_rate = 1.0;  // wire sink: no RX delivery cost in the measurement
  NicDevice nic(k, cfg);

  uint8_t payload[kPayloadBytes];
  for (uint32_t i = 0; i < kPayloadBytes; i++) {
    payload[i] = static_cast<uint8_t>('a' + i);
  }
  constexpr uint32_t kFrames = 16;
  const SendSpan span{payload, kPayloadBytes};

  Stopwatch sw(k.machine());
  nic.BeginTxBurst();  // no-op in per-frame mode
  for (uint32_t f = 0; f < kFrames; f++) {
    if (!nic.TransmitV(7, 9000, &span, 1)) {
      std::fprintf(stderr, "table13: transmit %u rejected\n", f);
      std::exit(1);
    }
  }
  nic.CommitTxBurst();
  k.Run();
  const double per = static_cast<double>(sw.instructions()) / kFrames;

  if (nic.tx_completed() != kFrames || nic.tx_inflight() != 0 ||
      nic.wire_drop_gauge().events() != kFrames ||
      nic.tx_spurious_gauge().events() != 0) {
    std::fprintf(stderr,
                 "table13: retired %llu of %u frames (inflight %u, drops %llu,"
                 " spurious %llu, batch=%.0f)\n",
                 static_cast<unsigned long long>(nic.tx_completed()), kFrames,
                 nic.tx_inflight(),
                 static_cast<unsigned long long>(nic.wire_drop_gauge().events()),
                 static_cast<unsigned long long>(nic.tx_spurious_gauge().events()),
                 coalesce_us);
    std::exit(1);
  }
  if (coalesce_us > 0 &&
      nic.tx_batch_frames() < 2 * nic.tx_batch_dispatches()) {
    std::fprintf(stderr,
                 "table13: coalescing never amortized (%llu fr / %llu d)\n",
                 static_cast<unsigned long long>(nic.tx_batch_frames()),
                 static_cast<unsigned long long>(nic.tx_batch_dispatches()));
    std::exit(1);
  }
  return per;
}

void RunTransmitPath(double* baseline_out, double* batched_out) {
  constexpr double kWindow = 25.0;
  const double per_frame = MeasureTxPath(0.0);
  const double coalesced = MeasureTxPath(kWindow);

  PrintHeader("Table 13: TX path per frame, fill -> retire (instructions)",
              "per-frame", "coalesced");
  PrintRow("16-frame burst", per_frame, coalesced, "instr");
  PrintNote("per-frame pays a doorbell and a completion interrupt per frame;");
  PrintNote("coalesced rings one doorbell for all 16 descriptor fills and");
  PrintNote("retires every due completion in one loop that walks no");
  PrintNote("descriptor (the completion queue itself names the slot).");
  *baseline_out = per_frame;
  *batched_out = coalesced;
}

// Aggregate transmit rate across a 4-NIC pool, each with a serialized DMA
// engine. Each wave pushes `per_wave` frames per NIC as one burst and runs
// the kernel until every completion retires; the virtual clock across all
// waves gives frames per millisecond. `coalesce_us` is the only knob that
// differs between the coalesced and per-frame runs.
double MeasureTxRate(double coalesce_us, uint32_t waves, uint32_t per_wave) {
  NicPoolConfig pc;
  pc.initial_nics = 4;
  pc.nic.tx_coalesce_us = coalesce_us;
  pc.nic.serialize_tx = true;
  pc.nic.drop_rate = 1.0;  // pure TX: the wire sinks every frame
  Kernel k;
  NicPool pool(k, pc);

  uint8_t payload[1] = {42};
  const SendSpan span{payload, 1};
  std::vector<uint16_t> ports;
  for (uint32_t i = 0; i < 4; i++) {
    uint16_t p = static_cast<uint16_t>(100 + i);
    if (pool.SteerOf(p) != i) {
      std::fprintf(stderr, "table13: port %u not on nic %u\n", p, i);
      std::exit(1);
    }
    ports.push_back(p);
  }

  const double t0 = k.NowUs();
  for (uint32_t w = 0; w < waves; w++) {
    for (uint32_t i = 0; i < 4; i++) {
      pool.BeginTxBurst(ports[i]);
      for (uint32_t f = 0; f < per_wave; f++) {
        if (!pool.TransmitV(ports[i], 9000, &span, 1)) {
          std::fprintf(stderr, "table13: wave %u transmit rejected\n", w);
          std::exit(1);
        }
      }
      pool.CommitTxBurst(ports[i]);
    }
    k.Run();  // retire the wave before the next burst (no ring-full rejects)
  }
  const double elapsed_ms = (k.NowUs() - t0) / 1000.0;
  const uint64_t expected = static_cast<uint64_t>(waves) * per_wave * 4;
  uint64_t completed = 0, spurious = 0, inflight = 0;
  for (uint32_t i = 0; i < 4; i++) {
    completed += pool.nic(i).tx_completed();
    spurious += pool.nic(i).tx_spurious_gauge().events();
    inflight += pool.nic(i).tx_inflight();
  }
  if (completed != expected || spurious != 0 || inflight != 0 ||
      elapsed_ms <= 0) {
    std::fprintf(stderr,
                 "table13: retired %llu of %llu (spurious %llu, inflight %llu,"
                 " %.2f ms)\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(spurious),
                 static_cast<unsigned long long>(inflight), elapsed_ms);
    std::exit(1);
  }
  if (coalesce_us > 0) {
    uint64_t frames = 0, dispatches = 0;
    for (uint32_t i = 0; i < 4; i++) {
      frames += pool.nic(i).tx_batch_frames();
      dispatches += pool.nic(i).tx_batch_dispatches();
    }
    if (dispatches == 0 || frames < 4 * dispatches) {
      std::fprintf(stderr, "table13: weak amortization (%llu fr / %llu d)\n",
                   static_cast<unsigned long long>(frames),
                   static_cast<unsigned long long>(dispatches));
      std::exit(1);
    }
  }
  return static_cast<double>(completed) / elapsed_ms;
}

void RunAggregateRate(double* speedup_out) {
  constexpr uint32_t kWaves = 6;
  constexpr uint32_t kPerWave = 32;
  const double off = MeasureTxRate(0.0, kWaves, kPerWave);
  const double on = MeasureTxRate(30.0, kWaves, kPerWave);
  PrintHeader("Table 13b: aggregate transmit rate, N=4 NICs (fr/ms)",
              "batch off", "batch on");
  PrintRow("768 frames, 32-frame bursts", off, on, "fr/ms");
  PrintNote("identical frames, routing and descriptor writes; tx_coalesce_us");
  PrintNote("is the only difference. Batch-off pays doorbell+vector+trap per");
  PrintNote("frame, batch-on pays them once per burst and retires completions");
  PrintNote("in a synthesized loop.");
  *speedup_out = on / off;
}

}  // namespace

void Main() {
  double baseline = 0, batched = 0;
  RunTransmitPath(&baseline, &batched);
  double speedup = 0;
  RunAggregateRate(&speedup);
  // The numbers this table exists to demonstrate; regressions fail the bench.
  if (!(batched <= 0.6 * baseline)) {
    std::fprintf(stderr,
                 "table13: coalesced path %.1f instr not <= 0.6x "
                 "the %.1f-instr per-frame baseline\n",
                 batched, baseline);
    std::exit(1);
  }
  if (!(speedup >= 1.3)) {
    std::fprintf(stderr, "table13: coalescing speedup %.2fx below 1.3x\n",
                 speedup);
    std::exit(1);
  }
}

}  // namespace synthesis

int main() {
  synthesis::Main();
  synthesis::WriteBenchJson("BENCH_tx.json");
  return 0;
}
