// Batched RX delivery tests: batched-vs-per-frame parity (same frames, same
// gauges, byte-identical ring contents) across generic/synthesized demux and
// wire-fault schedules, overrun-accounting identity, coalescing latency
// semantics, mid-batch rebind, the zero-copy span borrow, FlowSpec
// validation, and the RecvSpan emulator surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/io/io_system.h"
#include "src/kernel/kernel.h"
#include "src/net/nic_device.h"
#include "src/net/nic_pool.h"
#include "src/net/stream.h"
#include "src/unix/emulator.h"

namespace synthesis {
namespace {

struct Faults {
  double drop = 0;
  double corrupt = 0;
  double reorder = 0;
  double duplicate = 0;
};

// Everything observable after a delivery run, for exact comparison between
// the batched and per-frame pipelines.
struct Outcome {
  std::vector<uint8_t> ring_bytes;
  uint64_t delivered = 0;
  uint64_t csum_rejects = 0;
  uint64_t malformed = 0;
  uint64_t ring_drops = 0;
  uint64_t nomatch = 0;
  uint64_t rx_events = 0;
  uint64_t overruns = 0;
  uint64_t wire_drops = 0;
  uint64_t wire_reorders = 0;
  uint64_t wire_dups = 0;
  uint64_t batch_dispatches = 0;
  uint64_t batch_frames = 0;

  bool SameDeliveryAs(const Outcome& o) const {
    return ring_bytes == o.ring_bytes && delivered == o.delivered &&
           csum_rejects == o.csum_rejects && malformed == o.malformed &&
           ring_drops == o.ring_drops && nomatch == o.nomatch &&
           rx_events == o.rx_events && overruns == o.overruns &&
           wire_drops == o.wire_drops && wire_reorders == o.wire_reorders &&
           wire_dups == o.wire_dups;
  }
};

// Transmits `frames` datagrams to one bound flow under a fault schedule and
// returns every observable. The fault draws happen at Transmit time, in
// transmit order, so two runs with the same seed see the identical schedule
// regardless of how delivery is dispatched.
Outcome RunScenario(bool batch, bool synth, uint32_t fixed_len, Faults f,
                    int frames) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic.rx_coalesce_us = batch ? 40.0 : 0.0;
  pc.nic.drop_rate = f.drop;
  pc.nic.corrupt_rate = f.corrupt;
  pc.nic.reorder_rate = f.reorder;
  pc.nic.duplicate_rate = f.duplicate;
  pc.nic.fault_seed = 77;
  NicPool pool(k, pc);
  NicDevice& nic = pool.nic(0);
  if (!synth) {
    k.spec().Demote(nic.demux().head_spec(), SpecTier::kGeneric);
  }

  auto ring = io.MakeRing(16384);
  EXPECT_TRUE(pool.BindFlow(FlowSpec::Ring(7, ring, fixed_len)));
  for (int i = 0; i < frames; i++) {
    uint32_t n = fixed_len > 0 ? fixed_len : 1 + (i * 7) % 48;
    std::string payload(n, static_cast<char>('a' + i % 26));
    EXPECT_TRUE(pool.Transmit(7, 100 + i % 5,
                              reinterpret_cast<const uint8_t*>(payload.data()),
                              n))
        << "frame " << i;
    if (i % 4 == 3) {
      k.Run();  // interleave bursts with drains: batches of varying size
    }
  }
  k.Run();

  Outcome o;
  uint8_t b = 0;
  while (io.RingGetByte(*ring, &b)) {
    o.ring_bytes.push_back(b);
  }
  o.delivered = nic.demux().delivered_total();
  o.csum_rejects = nic.demux().csum_rejects();
  o.malformed = nic.demux().malformed();
  o.ring_drops = nic.demux().ring_drops();
  o.nomatch = nic.nomatch_gauge().events();
  o.rx_events = nic.rx_gauge().events();
  o.overruns = nic.rx_overruns();
  o.wire_drops = nic.wire_drop_gauge().events();
  o.wire_reorders = nic.wire_reorder_gauge().events();
  o.wire_dups = nic.wire_dup_gauge().events();
  o.batch_dispatches = nic.rx_batch_dispatches();
  o.batch_frames = nic.rx_batch_frames();
  return o;
}

TEST(BatchRxTest, BatchedDeliveryIsByteIdenticalToPerFrameAcrossFaultMatrix) {
  const Faults kSchedules[] = {
      {},                          // clean wire
      {0.25, 0, 0, 0},             // loss
      {0, 0, 0.4, 0},              // reorder (held-back frames overtaken)
      {0.15, 0.15, 0.3, 0.2},      // everything at once
  };
  for (bool synth : {false, true}) {
    for (uint32_t fixed : {0u, 16u}) {
      for (size_t s = 0; s < std::size(kSchedules); s++) {
        Outcome per_frame =
            RunScenario(false, synth, fixed, kSchedules[s], 24);
        Outcome batched = RunScenario(true, synth, fixed, kSchedules[s], 24);
        EXPECT_TRUE(batched.SameDeliveryAs(per_frame))
            << "synth=" << synth << " fixed=" << fixed << " schedule=" << s
            << ": delivered " << batched.delivered << " vs "
            << per_frame.delivered << ", ring " << batched.ring_bytes.size()
            << " vs " << per_frame.ring_bytes.size() << " bytes";
        EXPECT_GT(per_frame.delivered, 0u) << "vacuous schedule " << s;
        EXPECT_EQ(per_frame.batch_dispatches, 0u)
            << "per-frame mode must not touch the batch machinery";
        EXPECT_EQ(batched.batch_frames, batched.rx_events)
            << "every RX completion must flow through a batch";
      }
    }
  }
}

TEST(BatchRxTest, OneBurstOneDispatch) {
  // Eight frames transmitted back to back with no DMA serialization complete
  // at the same instant and arrive at the same instant: one batch interrupt
  // must cover all eight.
  Outcome o = RunScenario(true, true, 16, Faults{}, 4);
  EXPECT_EQ(o.delivered, 4u);
  EXPECT_EQ(o.batch_frames, 4u);
  EXPECT_EQ(o.batch_dispatches, 1u)
      << "simultaneous completions must share one interrupt entry";
}

TEST(BatchRxTest, NoBatchFlowFiresAtArrivalNotAtWindowClose) {
  for (bool nobatch : {true, false}) {
    Kernel k;
    IoSystem io(k, nullptr);
    NicConfig cfg;
    cfg.rx_coalesce_us = 500.0;
    NicDevice nic(k, cfg);
    auto ring = io.MakeRing(4096);
    FlowSpec spec = FlowSpec::Ring(9, ring, 8);
    spec.batch = !nobatch;
    ASSERT_TRUE(nic.BindFlow(spec));
    const uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_TRUE(nic.Transmit(9, 1, payload, 8));
    k.Run();
    EXPECT_EQ(nic.demux().delivered_total(), 1u);
    if (nobatch) {
      EXPECT_LT(k.NowUs(), 500.0)
          << "a batch-opted-out flow must not wait out the window";
    } else {
      EXPECT_GE(k.NowUs(), 500.0)
          << "a coalesced flow fires when the window closes";
    }
  }
}

TEST(BatchRxTest, OverrunAccountingIsIdenticalUnderBatching) {
  for (bool batch : {false, true}) {
    Kernel k;
    IoSystem io(k, nullptr);
    NicConfig cfg;
    cfg.rx_slots = 8;
    cfg.rx_coalesce_us = batch ? 40.0 : 0.0;
    NicDevice nic(k, cfg);
    auto ring = io.MakeRing(16384);
    ASSERT_TRUE(nic.BindFlow(FlowSpec::Ring(7, ring, 4)));
    // Twelve raw injections against eight RX descriptors, no dispatch in
    // between: exactly four must be counted against the ring regardless of
    // how the eight landed frames are later delivered.
    const uint8_t payload[4] = {9, 9, 9, 9};
    uint32_t csum = FrameChecksum(7, 1, payload, 4);
    for (int i = 0; i < 12; i++) {
      nic.InjectRaw(7, 1, payload, 4, csum, 4);
    }
    EXPECT_EQ(nic.rx_overruns(), 4u) << "batch=" << batch;
    k.Run();
    EXPECT_EQ(nic.rx_overruns(), 4u) << "batch=" << batch;
    EXPECT_EQ(nic.demux().delivered_total(), 8u) << "batch=" << batch;
  }
}

TEST(BatchRxTest, MidBatchUnbindStopsLaterFramesInTheSameBatch) {
  // Two frames share one batch. The first flow's deliver hook unbinds the
  // second flow, and because both batch loops reload the demux cell per
  // frame, the second frame must hit the rebuilt demux and fall to no-match.
  Kernel k;
  IoSystem io(k, nullptr);
  NicConfig cfg;
  cfg.rx_coalesce_us = 40.0;
  NicDevice nic(k, cfg);
  auto ring_a = io.MakeRing(4096);
  auto ring_b = io.MakeRing(4096);
  FlowSpec a = FlowSpec::Ring(10, ring_a, 4);
  a.deliver_hook = [&nic] { nic.UnbindFlow(20); };
  ASSERT_TRUE(nic.BindFlow(a));
  ASSERT_TRUE(nic.BindFlow(FlowSpec::Ring(20, ring_b, 4)));
  const uint8_t payload[4] = {1, 2, 3, 4};
  ASSERT_TRUE(nic.Transmit(10, 1, payload, 4));
  ASSERT_TRUE(nic.Transmit(20, 1, payload, 4));
  k.Run();
  EXPECT_EQ(nic.rx_batch_dispatches(), 1u) << "both frames in one batch";
  EXPECT_EQ(nic.demux().delivered(10), 1u);
  EXPECT_EQ(nic.demux().delivered_total(), 1u)
      << "the unbound flow's frame must not deliver";
  EXPECT_EQ(nic.nomatch_gauge().events(), 1u);
  EXPECT_EQ(io.RingAvail(*ring_b), 0u);
}

TEST(BatchRxTest, SpanBorrowWalksTheWrapInTwoRuns) {
  Kernel k;
  IoSystem io(k, nullptr);
  auto ring = io.MakeRing(16);  // 15 usable
  // Advance both indices to 12, then fill with 10 bytes: occupancy wraps the
  // buffer edge (12..15 then 0..5).
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(io.RingPutByte(*ring, 0xEE));
    uint8_t sink = 0;
    ASSERT_TRUE(io.RingGetByte(*ring, &sink));
  }
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(io.RingPutByte(*ring, static_cast<uint8_t>(i)));
  }
  const uint8_t* span = nullptr;
  uint32_t run = io.RingPeekSpan(*ring, &span);
  ASSERT_EQ(run, 4u) << "first borrow stops at the buffer edge";
  for (uint32_t i = 0; i < run; i++) {
    EXPECT_EQ(span[i], i);
  }
  io.RingConsumeSpan(*ring, run);
  run = io.RingPeekSpan(*ring, &span);
  ASSERT_EQ(run, 6u) << "second borrow returns the wrapped remainder";
  for (uint32_t i = 0; i < run; i++) {
    EXPECT_EQ(span[i], 4 + i);
  }
  // Partial consume: the next borrow resumes mid-span.
  io.RingConsumeSpan(*ring, 2);
  run = io.RingPeekSpan(*ring, &span);
  ASSERT_EQ(run, 4u);
  EXPECT_EQ(span[0], 6u);
  io.RingConsumeSpan(*ring, run);
  EXPECT_EQ(io.RingAvail(*ring), 0u);
  EXPECT_EQ(io.RingPeekSpan(*ring, &span), 0u);
}

TEST(BatchRxTest, FlowSpecValidationRejectsHalfCustomAndNullRing) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicDevice nic(k, NicConfig{});
  FlowSpec no_ring;
  no_ring.port = 5;
  EXPECT_FALSE(nic.BindFlow(no_ring));
  // A custom flow must carry BOTH processor variants: the demux swaps
  // between them, so one without the other would fault on the ablation.
  auto ring = io.MakeRing(1024);
  FlowSpec half = FlowSpec::Ring(5, ring);
  half.synth_deliver = BlockId{1};
  EXPECT_FALSE(nic.BindFlow(half));
  half.synth_deliver = kInvalidBlock;
  half.generic_deliver = BlockId{1};
  EXPECT_FALSE(nic.BindFlow(half));
  EXPECT_FALSE(nic.demux().HasFlow(5));
  EXPECT_TRUE(nic.BindFlow(FlowSpec::Ring(5, ring)));
}

TEST(BatchRxTest, EmulatorRecvSpanDrainsABatchedStreamInOneCall) {
  Kernel k;
  IoSystem io(k, nullptr);
  NicPoolConfig pc;
  pc.initial_nics = 1;
  pc.nic.rx_coalesce_us = 40.0;  // the whole stream handshake runs batched
  NicPool pool(k, pc);
  StreamLayer st(k, io, pool);
  UnixEmulator emu(k, io, nullptr);
  emu.AttachStream(&st);

  int srv = emu.Listen(7000);
  int cli = emu.Connect(7000);
  ASSERT_GE(srv, 0);
  ASSERT_GE(cli, 0);
  k.Run();
  Addr out = emu.scratch(256);
  Memory& mem = k.machine().memory();
  // Three sends queue before the reader ever looks: one RecvSpan drains all.
  mem.WriteBytes(out, "alpha-beta-gamma", 16);
  ASSERT_EQ(emu.Send(cli, out, 16), 16);
  k.Run();
  mem.WriteBytes(out, "+delta", 6);
  ASSERT_EQ(emu.Send(cli, out, 6), 6);
  k.Run();
  Addr in = k.allocator().Allocate(64);
  EXPECT_EQ(emu.RecvSpan(srv, in, 64), 22);
  char got[22];
  mem.ReadBytes(in, got, 22);
  EXPECT_EQ(std::string(got, 22), "alpha-beta-gamma+delta");
  // Recv and Read are the same fast path.
  mem.WriteBytes(out, "echo", 4);
  ASSERT_EQ(emu.Send(srv, out, 4), 4);
  k.Run();
  EXPECT_EQ(emu.Read(cli, in, 64), 4);
  EXPECT_EQ(emu.Close(cli), 0);
  EXPECT_EQ(emu.Close(srv), 0);
  k.Run(10'000'000);
}

TEST(BatchRxDeathTest, BadSlotGeometryAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k;
        NicConfig cfg;
        cfg.rx_slots = 3;
        NicDevice nic(k, cfg);
      },
      "powers of two");
  EXPECT_DEATH(
      {
        Kernel k;
        NicConfig cfg;
        cfg.tx_slots = 0;
        NicDevice nic(k, cfg);
      },
      "powers of two");
}

}  // namespace
}  // namespace synthesis
