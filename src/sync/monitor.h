// Monitor building block (§2.3, §5.2): serializes multiple participants at
// one end of a producer/consumer connection. The quaject interfacer attaches a
// monitor to the "multiple" end of an active-passive connection; it is the
// least frugal of the building blocks and therefore the last resort.
#ifndef SRC_SYNC_MONITOR_H_
#define SRC_SYNC_MONITOR_H_

#include <cstdint>
#include <mutex>
#include <utility>

namespace synthesis {

class Monitor {
 public:
  // Runs `fn` with the monitor held and returns its result.
  template <typename F>
  auto Synchronized(F&& fn) -> decltype(std::forward<F>(fn)()) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_++;
    return std::forward<F>(fn)();
  }

  uint64_t entries() const { return entries_; }

 private:
  std::mutex mu_;
  uint64_t entries_ = 0;
};

}  // namespace synthesis

#endif  // SRC_SYNC_MONITOR_H_
