#include "src/machine/trace_monitor.h"

#include <algorithm>
#include <cstdio>

#include "src/machine/disasm.h"

namespace synthesis {

std::string TraceMonitor::FormatTrace(size_t n) const {
  const auto& trace = machine_.trace();
  size_t start = trace.size() > n ? trace.size() - n : 0;
  std::string out;
  const CostModel& cm = machine_.cost_model();
  for (size_t i = start; i < trace.size(); i++) {
    const TraceEntry& e = trace[i];
    const char* name =
        store_.Valid(e.block) ? store_.Get(e.block).name.c_str() : "?";
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %4u: %-28s ; %u cycles\n", name, e.pc,
                  Disassemble(e.instr).c_str(), cm.Cycles(e.instr, true));
    out += line;
  }
  return out;
}

std::vector<TraceMonitor::BlockProfile> TraceMonitor::Profile() const {
  std::map<BlockId, BlockProfile> acc;
  const CostModel& cm = machine_.cost_model();
  const TraceRing& trace = machine_.trace();
  for (size_t i = 0; i < trace.size(); i++) {
    const TraceEntry& e = trace[i];
    BlockProfile& p = acc[e.block];
    if (p.instructions == 0) {
      p.block = e.block;
      p.name = store_.Valid(e.block) ? store_.Get(e.block).name : "?";
    }
    p.instructions++;
    p.cycles += cm.Cycles(e.instr, true);
  }
  std::vector<BlockProfile> out;
  out.reserve(acc.size());
  for (auto& [id, p] : acc) {
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const BlockProfile& a, const BlockProfile& b) {
    return a.cycles > b.cycles;
  });
  return out;
}

std::string TraceMonitor::FormatProfile(size_t top) const {
  std::vector<BlockProfile> prof = Profile();
  std::string out = "block                             instrs     cycles\n";
  for (size_t i = 0; i < prof.size() && i < top; i++) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %7llu %10llu\n", prof[i].name.c_str(),
                  static_cast<unsigned long long>(prof[i].instructions),
                  static_cast<unsigned long long>(prof[i].cycles));
    out += line;
  }
  return out;
}

}  // namespace synthesis
