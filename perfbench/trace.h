// Span tracing for the benchmark's traced mode.
//
// Each call the workload makes into a layer's public function can be wrapped
// in a span recording its name, the op it serves, the enclosing span, host
// CPU start/end, virtual start/end and the simulated instructions retired
// inside it. Spans stay in memory and are written out when the run ends.
// With tracing off a wrapped call costs one branch, so the untraced run that
// produces the end-to-end numbers runs the same code.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "src/machine/machine.h"

namespace perfbench {

// Host CPU seconds consumed by this process. CPU time, not wall time: a run
// that shares the machine with other work is slowed on the wall clock by
// whatever else gets scheduled, but charged on this clock only for what it
// executes itself.
inline double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    uint64_t op = 0;
    int32_t parent = -1;  // index into spans(), -1 for a top-level call
    double cpu0 = 0;
    double cpu1 = 0;
    double virt0_us = 0;
    double virt1_us = 0;
    uint64_t instr = 0;
  };

  void Attach(const synthesis::Machine* machine) { machine_ = machine; }
  // Starts a fresh recording (drops any earlier spans).
  void Start() {
    spans_.clear();
    open_ = -1;
    on_ = true;
  }
  void Stop() { on_ = false; }

  // Runs `f` (which must return a value) inside a span named `name`.
  template <typename F>
  auto Call(const char* name, uint64_t op, F&& f) {
    if (!on_) {
      return f();
    }
    const int32_t idx = Open(name, op);
    auto result = f();
    Close(idx);
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: name,op,parent,cpu0_s,cpu1_s,virt0_us,virt1_us,instr.
  bool WriteCsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "name,op,parent,cpu0_s,cpu1_s,virt0_us,virt1_us,instr\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%llu,%d,%.9f,%.9f,%.3f,%.3f,%llu\n", s.name,
                   static_cast<unsigned long long>(s.op), s.parent, s.cpu0,
                   s.cpu1, s.virt0_us, s.virt1_us,
                   static_cast<unsigned long long>(s.instr));
    }
    return std::fclose(f) == 0;
  }

 private:
  int32_t Open(const char* name, uint64_t op) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_;
    s.virt0_us = machine_->NowMicros();
    s.instr = machine_->instructions();
    s.cpu0 = CpuNow();
    spans_.push_back(s);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void Close(int32_t idx) {
    Span& s = spans_[static_cast<size_t>(idx)];
    s.cpu1 = CpuNow();
    s.virt1_us = machine_->NowMicros();
    s.instr = machine_->instructions() - s.instr;
    open_ = s.parent;
  }

  const synthesis::Machine* machine_ = nullptr;
  std::vector<Span> spans_;
  int32_t open_ = -1;
  bool on_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
