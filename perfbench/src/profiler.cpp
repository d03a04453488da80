#include "profiler.hpp"

#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <unwind.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

namespace perfbench {
namespace {

int layer_index(std::string_view name) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (name == kLayers[i]) return static_cast<int>(i);
  }
  return -1;
}

/// sphinx::core holds several layers; split it by class or free function.
int core_layer(std::string_view ident) {
  static constexpr std::pair<std::string_view, std::string_view> kCore[] = {
      {"DataWarehouse", "warehouse"},   {"CheckpointImage", "warehouse"},
      {"JobRecord", "warehouse"},       {"DagRecord", "warehouse"},
      {"SpeculationRecord", "warehouse"}, {"OutboxEntry", "warehouse"},
      {"SiteStats", "warehouse"},       {"dag_state_from", "warehouse"},
      {"job_state_from", "warehouse"},  {"speculation_state_from", "warehouse"},
      {"is_legal_transition", "warehouse"},
      {"Planner", "planner"},           {"SchedulingAlgorithm", "planner"},
      {"RoundRobinAlgorithm", "planner"}, {"NumCpusAlgorithm", "planner"},
      {"QueueLengthAlgorithm", "planner"},
      {"CompletionTimeAlgorithm", "planner"},
      {"StragglerDetector", "planner"}, {"PlanningContext", "planner"},
      {"CandidateSite", "planner"},     {"make_algorithm", "planner"},
      {"job_class_of", "planner"},
      {"SphinxServer", "server"},       {"MessageHandler", "server"},
      {"DagReducer", "server"},         {"ServerStats", "server"},
      {"SphinxClient", "client"},       {"DagOutcome", "client"},
      {"ClientConfig", "client"},
      {"TrackerStats", "client"},
      {"encode_dag", "rpc"},            {"decode_dag", "rpc"},
      {"encode_plan", "rpc"},           {"decode_plan", "rpc"},
      {"encode_report", "rpc"},         {"decode_report", "rpc"},
      {"ExecutionPlan", "rpc"},         {"TrackerReport", "rpc"},
      {"PlannedInput", "rpc"},
  };
  for (const auto& [prefix, layer] : kCore) {
    if (ident == prefix) return layer_index(layer);
  }
  return -1;
}

/// Same split for functions with internal linkage, by source file.
int core_file_layer(std::string_view file) {
  static constexpr std::pair<std::string_view, std::string_view> kFiles[] = {
      {"warehouse.cpp", "warehouse"}, {"checkpoint.cpp", "warehouse"},
      {"state.cpp", "warehouse"},     {"planner.cpp", "planner"},
      {"algorithms.cpp", "planner"},  {"straggler.cpp", "planner"},
      {"server.cpp", "server"},       {"message_handler.cpp", "server"},
      {"dag_reducer.cpp", "server"},  {"client.cpp", "client"},
      {"codec.cpp", "rpc"},
  };
  for (const auto& [name, layer] : kFiles) {
    if (file == name) return layer_index(layer);
  }
  return layer_index("server");
}

/// The simulated fabric (sites, failures, monitoring) is one layer, the
/// client one with its Condor-G gateway, and experiment runners, chaos
/// harness, workload generation and control plane are "harness".
int namespace_layer(std::string_view ns) {
  static constexpr std::pair<std::string_view, std::string_view> kSpaces[] = {
      {"sim", "engine"},     {"db", "db"},         {"data", "data"},
      {"rpc", "rpc"},        {"obs", "obs"},       {"grid", "grid"},
      {"monitor", "grid"},   {"submit", "client"}, {"workflow", "harness"},
      {"exp", "harness"},    {"chaos", "harness"}, {"ctrl", "harness"},
  };
  for (const auto& [name, layer] : kSpaces) {
    if (ns == name) return layer_index(layer);
  }
  return -1;
}

/// Reads one <length><identifier> component of a mangled name at `pos`.
std::string_view read_ident(std::string_view name, std::size_t& pos) {
  std::size_t len = 0;
  const std::size_t start = pos;
  while (pos < name.size() && std::isdigit(static_cast<unsigned char>(name[pos]))) {
    len = len * 10 + static_cast<std::size_t>(name[pos] - '0');
    ++pos;
  }
  if (pos == start || len > name.size() - pos) return {};
  const std::string_view ident = name.substr(pos, len);
  pos += len;
  return ident;
}

/// Layer of a mangled name; `file` is the source file of a local symbol
/// ("" for globals).
int classify(std::string_view name, std::string_view file) {
  constexpr std::string_view kSphinx = "6sphinx";
  std::size_t at = 0;
  while ((at = name.find(kSphinx, at)) != std::string_view::npos) {
    const bool boundary =
        at == 0 || !std::isdigit(static_cast<unsigned char>(name[at - 1]));
    std::size_t pos = at + kSphinx.size();
    at = pos;
    if (!boundary) continue;
    const std::string_view ns = read_ident(name, pos);
    if (ns == "core") {
      std::string_view ident = read_ident(name, pos);
      if (ident == "_GLOBAL__N_1") ident = read_ident(name, pos);
      const int layer = core_layer(ident);
      if (layer >= 0) return layer;
      return file.empty() ? layer_index("server") : core_file_layer(file);
    }
    const int layer = namespace_layer(ns);
    if (layer >= 0) return layer;
  }
  return -1;
}

struct Range {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  int layer = -1;
};

// Written before the timer starts and only read by the signal handler.
std::vector<Range> g_ranges;
std::atomic<std::uint64_t> g_samples{0};
std::array<std::atomic<std::uint64_t>, kLayers.size()> g_hits{};

int layer_of_pc(std::uintptr_t pc) {
  auto it = std::upper_bound(
      g_ranges.begin(), g_ranges.end(), pc,
      [](std::uintptr_t value, const Range& range) { return value < range.lo; });
  if (it == g_ranges.begin()) return -1;
  --it;
  return pc < it->hi ? it->layer : -1;
}

struct Walk {
  int layer = -1;
  int depth = 0;
};

_Unwind_Reason_Code on_frame(_Unwind_Context* context, void* arg) {
  auto* walk = static_cast<Walk*>(arg);
  int before_insn = 0;
  std::uintptr_t pc = _Unwind_GetIPInfo(context, &before_insn);
  // A return address points past its call; step back into the caller.
  if (before_insn == 0 && pc != 0) --pc;
  walk->layer = layer_of_pc(pc);
  if (walk->layer >= 0 || ++walk->depth > 128) return _URC_NORMAL_STOP;
  return _URC_NO_REASON;
}

void on_sigprof(int) {
  const int saved_errno = errno;
  Walk walk;
  _Unwind_Backtrace(on_frame, &walk);
  g_samples.fetch_add(1, std::memory_order_relaxed);
  if (walk.layer >= 0) {
    g_hits[static_cast<std::size_t>(walk.layer)].fetch_add(
        1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

int first_object_bias(dl_phdr_info* info, std::size_t, void* out) {
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;  // the first object is the executable itself
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

template <typename T>
bool read_at(std::ifstream& in, std::uint64_t offset, T* out, std::size_t count) {
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(out),
          static_cast<std::streamsize>(sizeof(T) * count));
  return static_cast<bool>(in);
}

}  // namespace

bool Profiler::load_symbols(const std::string& executable, std::string& error) {
  std::ifstream in(executable, std::ios::binary);
  Elf64_Ehdr header{};
  if (!in || !read_at(in, 0, &header, 1) ||
      std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
      header.e_ident[EI_CLASS] != ELFCLASS64) {
    error = "not a readable 64-bit ELF file: " + executable;
    return false;
  }
  std::vector<Elf64_Shdr> sections(header.e_shnum);
  if (!read_at(in, header.e_shoff, sections.data(), sections.size())) {
    error = "cannot read section headers";
    return false;
  }
  const auto symtab = std::find_if(sections.begin(), sections.end(),
                                   [](const Elf64_Shdr& s) { return s.sh_type == SHT_SYMTAB; });
  if (symtab == sections.end() || symtab->sh_link >= sections.size()) {
    error = "executable has no symbol table";
    return false;
  }
  const Elf64_Shdr& strtab = sections[symtab->sh_link];
  std::vector<Elf64_Sym> symbols(symtab->sh_size / sizeof(Elf64_Sym));
  std::string names(strtab.sh_size, '\0');
  if (!read_at(in, symtab->sh_offset, symbols.data(), symbols.size()) ||
      !read_at(in, strtab.sh_offset, names.data(), names.size())) {
    error = "cannot read symbol table";
    return false;
  }

  std::uintptr_t bias = 0;
  dl_iterate_phdr(first_object_bias, &bias);

  std::vector<Range> ranges;
  std::string_view file;  // source file of the local symbols that follow
  for (const Elf64_Sym& sym : symbols) {
    if (sym.st_name >= names.size()) continue;
    const std::string_view name(names.c_str() + sym.st_name);
    const unsigned type = ELF64_ST_TYPE(sym.st_info);
    const bool local = ELF64_ST_BIND(sym.st_info) == STB_LOCAL;
    if (type == STT_FILE) file = name;
    if (type != STT_FUNC || sym.st_size == 0 || sym.st_shndx == SHN_UNDEF) {
      continue;
    }
    ranges.push_back({bias + sym.st_value, bias + sym.st_value + sym.st_size,
                      classify(name, local ? file : std::string_view{})});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  g_ranges = std::move(ranges);
  return true;
}

void Profiler::start(long period_us) {
  g_samples.store(0);
  for (auto& hits : g_hits) hits.store(0);
  // Run the unwinder once outside the handler so any lazy set-up it
  // does happens here, not in signal context.
  Walk warm;
  _Unwind_Backtrace(on_frame, &warm);

  struct sigaction action {};
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = period_us;
  timer.it_value.tv_usec = period_us;
  cpu_start_ = process_cpu_seconds();
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void Profiler::stop() {
  itimerval timer{};
  setitimer(ITIMER_PROF, &timer, nullptr);
  cpu_seconds_ = process_cpu_seconds() - cpu_start_;
  // Ignore, not default: a SIGPROF still in flight would otherwise
  // terminate the process.
  signal(SIGPROF, SIG_IGN);
}

double Profiler::layer_seconds(std::size_t index) const {
  const std::uint64_t samples = g_samples.load();
  if (samples == 0) return 0.0;
  return cpu_seconds_ * static_cast<double>(g_hits.at(index).load()) /
         static_cast<double>(samples);
}

}  // namespace perfbench
