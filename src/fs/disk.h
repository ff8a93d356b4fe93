// Raw disk device server and the disk scheduler stage (§5.1).
//
// The default file system server is a pipeline: raw disk server -> disk
// scheduler (request queue) -> buffer cache manager -> synthesized per-file
// read code. This file implements the first two stages: a seek/rotate/transfer
// latency model raising completion interrupts on the virtual clock, and a
// shortest-seek-first scheduler over the request queue.
//
// The disk's backing store is host memory (the paper's 390 MB does not fit in
// the simulated address space); transfers into simulated memory charge DMA
// cycles per word.
#ifndef SRC_FS_DISK_H_
#define SRC_FS_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/machine/memory.h"

namespace synthesis {

struct DiskGeometry {
  uint32_t sectors = 64 * 1024;   // 32 MB at 512 B/sector
  uint32_t sector_bytes = 512;
  uint32_t sectors_per_track = 32;
  double seek_per_track_us = 40;  // plus settle
  double seek_settle_us = 3000;
  double rotation_us = 16667;     // 3600 rpm
  double transfer_per_sector_us = 520;  // ~1 MB/s sustained
};

struct DiskRequest {
  uint32_t sector = 0;
  uint32_t count = 1;           // sectors
  bool is_write = false;
  Addr mem = 0;                 // simulated-memory address (DMA target/source)
  // Controller-buffer write: when non-empty (writes only), the platter bytes
  // come from this host-side buffer instead of a simulated-memory DMA. The
  // journal stages its records here so a batch's bytes are latched at submit
  // time and survive staging reuse. Must be count * sector_bytes long.
  std::vector<uint8_t> host_src;
  std::function<void()> done;   // runs at completion-interrupt time
};

// The raw device: one request in flight, completion via a kDisk interrupt.
class DiskDevice {
 public:
  // Aborts (fprintf + abort) on invalid geometry: sector_bytes must be a
  // nonzero power of two and the sector counts nonzero — every address
  // computation below masks and divides by them.
  DiskDevice(Kernel& kernel, DiskGeometry geometry = {});

  // Starts the request (the device must be idle) and schedules its
  // completion interrupt. The scheduler below is the normal entry point.
  void StartRequest(DiskRequest request);
  bool Busy() const { return busy_; }

  // Host hook invoked by the kDisk interrupt handler: performs the DMA into
  // or out of simulated memory, charges the cycles, and runs `done`.
  void OnCompletionInterrupt();

  // Direct backing-store access for the file system (mkfs-style writes that
  // bypass the latency model at setup time).
  std::vector<uint8_t>& backing() { return backing_; }
  const DiskGeometry& geometry() const { return geom_; }

  // Virtual time a request would take from the current head position.
  double LatencyUs(const DiskRequest& r) const;

  uint32_t head_sector() const { return head_; }
  uint64_t requests_completed() const { return completed_; }
  // Fault-plane bookkeeping: requests the driver re-issued after a controller
  // timeout (kDiskLost) and completions delivered late (kDiskLate).
  uint64_t retries() const { return retries_; }
  uint64_t late_completions() const { return late_; }

  // --- Power failure (FaultSite::kPowerFail) --------------------------------
  // The site is visited once per request start (power drops mid-transfer: a
  // prefix of the request's sectors landed, each sector atomically, the split
  // drawn from the site's own stream) and once per completion (power drops on
  // the request boundary: everything landed). On a fire the device snapshots
  // the platter exactly as the completion interrupts have landed it, then
  // flags the kernel; the doomed kernel keeps coasting — waiters terminate —
  // but the snapshot is frozen and the crash harness rebuilds on it.
  bool crashed() const { return crashed_; }
  // The surviving platter image. Valid only after crashed().
  const std::vector<uint8_t>& crash_image() const { return crash_image_; }

 private:
  // Snapshots the platter; `inflight` non-null = tear that write mid-transfer.
  void PowerFailNow(const DiskRequest* inflight);
  Kernel& kernel_;
  DiskGeometry geom_;
  std::vector<uint8_t> backing_;
  bool busy_ = false;
  DiskRequest current_;
  uint32_t head_ = 0;
  uint64_t completed_ = 0;
  uint64_t retries_ = 0;
  uint64_t late_ = 0;
  BlockId irq_handler_ = kInvalidBlock;
  bool crashed_ = false;
  std::vector<uint8_t> crash_image_;
};

// Shortest-seek-first elevator over the request queue. This is the pipeline
// stage "disk scheduler, which contains the disk request queue".
class DiskScheduler {
 public:
  explicit DiskScheduler(DiskDevice& dev) : dev_(dev) {}

  void Submit(DiskRequest request);

  // Blocking convenience for synchronous metadata/cache fills: submits and
  // advances the virtual clock until the request completes (only valid when
  // called outside interrupt context).
  void SubmitAndWait(Kernel& kernel, DiskRequest request);

  // Advances the virtual clock, dispatching due interrupts, until `done`
  // returns true (or no interrupts remain pending). The buffer cache waits on
  // asynchronously-completing fills — e.g. a read-ahead span already in
  // flight — with this, the same loop SubmitAndWait drives.
  static void DriveUntil(Kernel& kernel, const std::function<bool()>& done);

 private:
  void StartNext();

  DiskDevice& dev_;
  std::deque<DiskRequest> queue_;
};

}  // namespace synthesis

#endif  // SRC_FS_DISK_H_
