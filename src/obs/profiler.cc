#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/scope.h"

// The sampling implementation needs POSIX per-thread timers, SIGPROF
// delivery to a chosen tid, and glibc's backtrace(). Everywhere else
// (and under GRAPHAUG_NO_OBS) the public API compiles to inert stubs.
#if GRAPHAUG_OBS_ENABLED && defined(__linux__) && defined(__GLIBC__)
#define GRAPHAUG_PROFILER_IMPL 1
#else
#define GRAPHAUG_PROFILER_IMPL 0
#endif

#if GRAPHAUG_PROFILER_IMPL
#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <fstream>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

// Pre-2.35 glibc spells the sigevent target-thread field only through
// the internal union; newer glibc provides the POSIX-next macro.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#endif  // GRAPHAUG_PROFILER_IMPL

namespace graphaug::obs {

#if GRAPHAUG_PROFILER_IMPL

namespace {

/// Deepest stack the handler stores. Frames below the cutoff (closest to
/// main) are discarded; the leaf side is always kept.
constexpr int kMaxDepth = 40;
/// Frames the handler discards from the raw capture: the handler itself
/// and the kernel signal trampoline (__restore_rt). A runtime that wraps
/// signal handlers (the sanitizers do) adds frames; the interrupted pc
/// from the signal context then finds the real leaf among the first
/// kMaxSkipFrames.
constexpr int kSkipFrames = 2;
constexpr int kMaxSkipFrames = 6;
/// Per-thread open-addressed stack table (power of two). Distinct
/// (stack, tag) keys per thread rarely exceed a few hundred; overflow is
/// counted as lost, never blocks.
constexpr size_t kTableSlots = size_t{1} << 11;
constexpr int kMaxProbes = 32;

/// One aggregated (stack, tag) key. A slot is claimed by the owning
/// thread's signal handler: payload first, then a release-store of
/// `hash` publishes it to export-time readers. Only the owning thread
/// ever writes (SIGPROF is blocked while its handler runs, so handler
/// invocations never nest).
struct SampleSlot {
  std::atomic<uint64_t> hash{0};  // 0 = empty
  std::atomic<int64_t> count{0};
  const char* tag = nullptr;    // literal span/op name, may be null
  int depth = 0;                // stored frames, leaf first
  void* pcs[kMaxDepth];
};

/// Per-thread profiling state. Registered threads keep one for the
/// process lifetime (shared_ptr in the registry) so samples survive pool
/// teardown; the slot table is only allocated once a timer is armed, so
/// enrolled-but-never-profiled threads cost a few dozen bytes.
struct ThreadProfile {
  ~ThreadProfile() { delete[] slots.load(std::memory_order_relaxed); }

  pid_t tid = 0;
  pthread_t self{};
  timer_t timer{};
  bool timer_armed = false;  // guarded by the registry mutex
  bool dead = false;         // thread exited; never re-arm
  std::atomic<SampleSlot*> slots{nullptr};  // [kTableSlots] once armed
  std::atomic<int64_t> samples{0};
  std::atomic<int64_t> lost{0};
};

struct ProfilerRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadProfile>> threads;
  bool handler_installed = false;
};

ProfilerRegistry& GetRegistry() {
  static ProfilerRegistry* r = new ProfilerRegistry();
  return *r;
}

std::atomic<bool> g_running{false};
std::atomic<bool> g_available{false};
std::atomic<bool> g_probe_failed{false};
std::atomic<int> g_hz{0};

/// Handler-visible pointer to this thread's state. thread_local in the
/// main executable resolves via the static TLS block, which glibc
/// allocates at thread creation — reading it in a signal handler is
/// safe once EnrollCurrentThread has touched it.
thread_local ThreadProfile* t_profile = nullptr;

/// Program counter the signal interrupted, or nullptr where the context
/// layout is unknown.
void* InterruptedPc(void* ucontext) {
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void ProfilerSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                           void* ucontext) {
  // Async-signal-safe: own-thread TLS reads, backtrace() (pre-warmed at
  // StartProfiler), fixed-size table writes. errno is preserved because
  // the interrupted code may be between a syscall and its errno check.
  const int saved_errno = errno;
  ThreadProfile* tp = t_profile;
  SampleSlot* slots =
      tp != nullptr ? tp->slots.load(std::memory_order_acquire) : nullptr;
  if (slots != nullptr && g_running.load(std::memory_order_relaxed)) {
    void* frames[kMaxDepth + kMaxSkipFrames];
    const int captured = backtrace(frames, kMaxDepth + kMaxSkipFrames);
    int skip = kSkipFrames;
    if (void* pc = InterruptedPc(ucontext)) {
      for (int i = 0; i < captured && i < kMaxSkipFrames; ++i) {
        if (frames[i] == pc) {
          skip = i;
          break;
        }
      }
    }
    const int depth =
        captured > skip
            ? (captured - skip < kMaxDepth ? captured - skip : kMaxDepth)
            : 0;
    const char* tag = CurrentTag();

    uint64_t h = 1469598103934665603ULL;  // FNV-1a over (pcs..., tag)
    for (int i = 0; i < depth; ++i) {
      h ^= reinterpret_cast<uint64_t>(frames[skip + i]);
      h *= 1099511628211ULL;
    }
    h ^= reinterpret_cast<uint64_t>(tag);
    h *= 1099511628211ULL;
    if (h == 0) h = 1;

    bool stored = false;
    size_t idx = static_cast<size_t>(h) & (kTableSlots - 1);
    for (int probe = 0; probe < kMaxProbes; ++probe) {
      SampleSlot& slot = slots[idx];
      const uint64_t cur = slot.hash.load(std::memory_order_acquire);
      if (cur == h) {
        slot.count.fetch_add(1, std::memory_order_relaxed);
        stored = true;
        break;
      }
      if (cur == 0) {
        slot.tag = tag;
        slot.depth = depth;
        for (int i = 0; i < depth; ++i) slot.pcs[i] = frames[skip + i];
        slot.hash.store(h, std::memory_order_release);
        slot.count.fetch_add(1, std::memory_order_relaxed);
        stored = true;
        break;
      }
      idx = (idx + 1) & (kTableSlots - 1);
    }
    if (stored) {
      tp->samples.fetch_add(1, std::memory_order_relaxed);
    } else {
      tp->lost.fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

/// Arms a CPU-time sample timer targeting `tp`'s thread. Registry mutex
/// must be held. Allocates the slot table on first arm.
bool ArmTimerLocked(ThreadProfile* tp, int hz) {
  if (tp->dead || tp->timer_armed) return tp->timer_armed;
  clockid_t clock;
  if (pthread_getcpuclockid(tp->self, &clock) != 0) return false;
  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tp->tid;
  timer_t timer;
  if (timer_create(clock, &sev, &timer) != 0) return false;
  if (tp->slots.load(std::memory_order_relaxed) == nullptr) {
    tp->slots.store(new SampleSlot[kTableSlots], std::memory_order_release);
  }
  const long interval_ns = 1000000000L / hz;
  struct itimerspec spec {};
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer);
    return false;
  }
  tp->timer = timer;
  tp->timer_armed = true;
  return true;
}

void DisarmTimerLocked(ThreadProfile* tp) {
  if (!tp->timer_armed) return;
  timer_delete(tp->timer);
  tp->timer_armed = false;
}

void UnenrollThread(ThreadProfile* tp) {
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (tp->dead) return;
  tp->dead = true;
  DisarmTimerLocked(tp);
}

/// Registers the calling thread with the profiler (idempotent). Called
/// by StartProfiler for its own thread and by every pool worker through
/// the common/parallel thread hooks. If a session is running, the new
/// thread is armed immediately.
void EnrollCurrentThread() {
  struct Holder {
    std::shared_ptr<ThreadProfile> tp;
    ~Holder() {
      if (tp) {
        t_profile = nullptr;
        UnenrollThread(tp.get());
      }
    }
  };
  thread_local Holder holder;
  if (holder.tp) return;
  auto tp = std::make_shared<ThreadProfile>();
  tp->tid = static_cast<pid_t>(syscall(SYS_gettid));
  tp->self = pthread_self();
  holder.tp = tp;
  t_profile = tp.get();
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.threads.push_back(tp);
  if (g_running.load(std::memory_order_relaxed)) {
    ArmTimerLocked(tp.get(), g_hz.load(std::memory_order_relaxed));
  }
}

/// Pool workers enroll for sampling at start, and their root scope names
/// what they do between chunks: waiting for work and synchronising with
/// the dispatcher. Chunks run under the dispatcher's scope instead.
void WorkerStartHook() {
  EnrollCurrentThread();
  InstallWorkerRoot();
}

void WorkerExitHook() {
  if (t_profile != nullptr) {
    ThreadProfile* tp = t_profile;
    t_profile = nullptr;
    UnenrollThread(tp);
  }
}

/// Installs the worker lifecycle hooks at static-init time, before the
/// parallel runtime's team can be built. profiler.o is always part of the link
/// (obs.cc references ResetProfile), so this runs in every binary.
[[maybe_unused]] const bool g_hooks_installed = [] {
  SetWorkerThreadHooks(&WorkerStartHook, &WorkerExitHook);
  return true;
}();

// ---- Stop-time symbolization ------------------------------------------

std::string DemangleName(const char* mangled) {
  int status = 0;
  char* out = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status == 0 && out != nullptr) {
    std::string s(out);
    free(out);
    return s;
  }
  return mangled;
}

/// Folded-format frames are ';'-separated and newline-terminated, so
/// those characters may not appear inside a frame name.
std::string SanitizeFrameName(std::string s) {
  for (char& c : s) {
    if (c == ';') c = ',';
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  return s;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Resolves pcs to function names from the loaded modules' own ELF
/// symbol tables (.symtab when present, else .dynsym), with dladdr as a
/// fallback. Parsing .symtab is what attributes file-local symbols —
/// the anonymous-namespace GEMM/SpMM kernels — without -rdynamic.
class Symbolizer {
 public:
  Symbolizer() {
    dl_iterate_phdr(
        [](struct dl_phdr_info* info, size_t, void* self) {
          static_cast<Symbolizer*>(self)->AddModule(info);
          return 0;
        },
        this);
    std::sort(modules_.begin(), modules_.end(),
              [](const Module& a, const Module& b) { return a.lo < b.lo; });
  }

  /// Name for a stored pc. Non-leaf frames hold return addresses, so
  /// they are looked up at pc-1 (the call site), leaves as-is.
  const std::string& Resolve(uintptr_t pc, bool leaf) {
    const uintptr_t lookup = leaf ? pc : pc - 1;
    auto it = cache_.find(lookup);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(lookup, ResolveUncached(lookup)).first->second;
  }

  /// A frame counts as attributed when it resolved to a real symbol
  /// (unresolved frames render as "[unknown...]" / "[module+0x...]").
  static bool Attributed(const std::string& name) {
    return !name.empty() && name[0] != '[';
  }

 private:
  struct Sym {
    uintptr_t addr = 0;  // link-time vaddr; runtime = module base + addr
    uint64_t size = 0;
    uint32_t name_off = 0;
    const std::string* strtab = nullptr;
  };
  struct Module {
    uintptr_t base = 0;  // load bias (0 for non-PIE executables)
    uintptr_t lo = 0, hi = 0;
    std::string path;
    bool parsed = false;
    std::vector<Sym> syms;
    // deque, not vector: Sym::strtab points at elements, and a module
    // typically appends two tables (.symtab and .dynsym) — a vector
    // regrowth would dangle every pointer taken from the first.
    std::deque<std::string> strtabs;
  };

  void AddModule(struct dl_phdr_info* info) {
    Module m;
    m.base = info->dlpi_addr;
    m.path = info->dlpi_name != nullptr && info->dlpi_name[0] != '\0'
                 ? info->dlpi_name
                 : "/proc/self/exe";
    bool any = false;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
      const auto& ph = info->dlpi_phdr[i];
      if (ph.p_type != PT_LOAD) continue;
      const uintptr_t lo = m.base + ph.p_vaddr;
      const uintptr_t hi = lo + ph.p_memsz;
      if (!any || lo < m.lo) m.lo = lo;
      if (!any || hi > m.hi) m.hi = hi;
      any = true;
    }
    if (any) modules_.push_back(std::move(m));
  }

  /// Loads STT_FUNC symbols from the module's file on disk. Every offset
  /// is bounds-checked against the byte buffer; a malformed file just
  /// yields an empty table (dladdr still gets a chance).
  static void ParseModule(Module& m) {
    m.parsed = true;
    std::ifstream f(m.path, std::ios::binary);
    if (!f) return;
    std::vector<char> buf((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
    const size_t n = buf.size();
    if (n < sizeof(Elf64_Ehdr)) return;
    Elf64_Ehdr eh;
    std::memcpy(&eh, buf.data(), sizeof(eh));
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64) {
      return;
    }
    if (eh.e_shentsize != sizeof(Elf64_Shdr) || eh.e_shoff >= n ||
        eh.e_shnum > (n - eh.e_shoff) / sizeof(Elf64_Shdr)) {
      return;
    }
    std::vector<Elf64_Shdr> sections(eh.e_shnum);
    std::memcpy(sections.data(), buf.data() + eh.e_shoff,
                eh.e_shnum * sizeof(Elf64_Shdr));
    for (const Elf64_Shdr& sh : sections) {
      if (sh.sh_type != SHT_SYMTAB && sh.sh_type != SHT_DYNSYM) continue;
      if (sh.sh_link >= sections.size()) continue;
      const Elf64_Shdr& str = sections[sh.sh_link];
      if (str.sh_offset >= n || str.sh_size > n - str.sh_offset) continue;
      if (sh.sh_offset >= n || sh.sh_size > n - sh.sh_offset ||
          sh.sh_entsize != sizeof(Elf64_Sym)) {
        continue;
      }
      m.strtabs.emplace_back(buf.data() + str.sh_offset, str.sh_size);
      const std::string* strtab = &m.strtabs.back();
      const size_t count = sh.sh_size / sizeof(Elf64_Sym);
      for (size_t i = 0; i < count; ++i) {
        Elf64_Sym sym;
        std::memcpy(&sym, buf.data() + sh.sh_offset + i * sizeof(Elf64_Sym),
                    sizeof(sym));
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
            sym.st_name >= strtab->size()) {
          continue;
        }
        m.syms.push_back(Sym{static_cast<uintptr_t>(sym.st_value),
                             sym.st_size, sym.st_name, strtab});
      }
    }
    std::sort(m.syms.begin(), m.syms.end(),
              [](const Sym& a, const Sym& b) { return a.addr < b.addr; });
  }

  std::string ResolveUncached(uintptr_t pc) {
    Module* mod = nullptr;
    for (Module& m : modules_) {
      if (pc >= m.lo && pc < m.hi) {
        mod = &m;
        break;
      }
    }
    if (mod != nullptr) {
      if (!mod->parsed) ParseModule(*mod);
      const uintptr_t rel = pc - mod->base;
      auto it = std::upper_bound(
          mod->syms.begin(), mod->syms.end(), rel,
          [](uintptr_t v, const Sym& s) { return v < s.addr; });
      if (it != mod->syms.begin()) {
        const Sym& s = *std::prev(it);
        const uint64_t next = it != mod->syms.end() ? it->addr : 0;
        if (SymbolCoversPc(s.addr, s.size, next, rel)) {
          const char* raw = s.strtab->c_str() + s.name_off;
          if (raw[0] != '\0') return SanitizeFrameName(DemangleName(raw));
        }
      }
    }
    Dl_info info;
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_sname != nullptr) {
      return SanitizeFrameName(DemangleName(info.dli_sname));
    }
    if (mod != nullptr) {
      char off[64];
      std::snprintf(off, sizeof(off), "+0x%zx",
                    static_cast<size_t>(pc - mod->base));
      return "[" + Basename(mod->path) + off + "]";
    }
    return "[unknown]";
  }

  std::vector<Module> modules_;
  std::map<uintptr_t, std::string> cache_;
};

// ---- Export-time merge ------------------------------------------------

struct MergedStack {
  std::string tag;           // "(none)" when untagged
  std::vector<void*> pcs;    // leaf first
  int64_t count = 0;
};

struct MergedProfile {
  std::vector<MergedStack> stacks;
  int64_t samples = 0;
  int64_t span_covered = 0;  // samples taken inside some scope
  int64_t lost = 0;
  int64_t threads = 0;
};

/// Snapshots every thread's table and merges identical (stack, tag)
/// keys. Safe while sampling is live: slots are published with a
/// release-store of `hash` and counts are monotone, so a concurrent
/// reader sees a consistent (if slightly stale) view.
MergedProfile MergeProfiles() {
  MergedProfile out;
  std::map<std::pair<std::string, std::vector<void*>>, int64_t> merged;
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& tp : reg.threads) {
    const SampleSlot* slots = tp->slots.load(std::memory_order_acquire);
    const int64_t thread_samples =
        tp->samples.load(std::memory_order_relaxed);
    out.lost += tp->lost.load(std::memory_order_relaxed);
    if (slots == nullptr || thread_samples == 0) continue;
    out.samples += thread_samples;
    ++out.threads;
    for (size_t i = 0; i < kTableSlots; ++i) {
      const SampleSlot& slot = slots[i];
      if (slot.hash.load(std::memory_order_acquire) == 0) continue;
      const int64_t count = slot.count.load(std::memory_order_relaxed);
      if (count <= 0) continue;
      if (slot.tag != nullptr) out.span_covered += count;
      std::vector<void*> pcs(slot.pcs, slot.pcs + slot.depth);
      std::string tag = slot.tag != nullptr ? slot.tag : "(none)";
      merged[{std::move(tag), std::move(pcs)}] += count;
    }
  }
  out.stacks.reserve(merged.size());
  for (auto& [key, count] : merged) {
    out.stacks.push_back(MergedStack{key.first, key.second, count});
  }
  return out;
}

}  // namespace

bool ProfilerAvailable() {
  return g_available.load(std::memory_order_relaxed);
}

bool ProfilerProbeFailed() {
  return g_probe_failed.load(std::memory_order_relaxed);
}

bool ProfilerRunning() { return g_running.load(std::memory_order_relaxed); }

int ProfilerHz() { return g_hz.load(std::memory_order_relaxed); }

bool StartProfiler(int hz) {
  hz = std::clamp(hz, 1, 10000);
  if (ProfilerProbeFailed()) return false;
  EnrollCurrentThread();
  // First backtrace() call dlopens libgcc; force it now, in a normal
  // context, so the signal handler never triggers a lazy load.
  void* warm[4];
  (void)backtrace(warm, 4);
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (g_running.load(std::memory_order_relaxed)) return false;
  if (!reg.handler_installed) {
    struct sigaction sa {};
    sa.sa_sigaction = &ProfilerSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      g_probe_failed.store(true, std::memory_order_relaxed);
      return false;
    }
    // Left installed for the process lifetime: it is inert while
    // !g_running, and restoring the default action would race a
    // still-pending SIGPROF into process termination.
    reg.handler_installed = true;
  }
  g_hz.store(hz, std::memory_order_relaxed);
  g_running.store(true, std::memory_order_release);
  bool any = false;
  for (const auto& tp : reg.threads) {
    if (ArmTimerLocked(tp.get(), hz)) any = true;
  }
  if (!any) {
    g_running.store(false, std::memory_order_relaxed);
    g_probe_failed.store(true, std::memory_order_relaxed);
    return false;
  }
  g_available.store(true, std::memory_order_relaxed);
  UpdateScopeForwarding();
  return true;
}

void StopProfiler() {
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (!g_running.load(std::memory_order_relaxed)) return;
  g_running.store(false, std::memory_order_relaxed);
  UpdateScopeForwarding();
  for (const auto& tp : reg.threads) DisarmTimerLocked(tp.get());
}

void ResetProfile() {
  StopProfiler();
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  // Prune exited threads; zero the survivors. No handler can be mid-
  // write here: timers are gone and g_running has been false since
  // StopProfiler released the registry mutex.
  reg.threads.erase(std::remove_if(reg.threads.begin(), reg.threads.end(),
                                   [](const std::shared_ptr<ThreadProfile>& t) {
                                     return t->dead;
                                   }),
                    reg.threads.end());
  for (const auto& tp : reg.threads) {
    SampleSlot* slots = tp->slots.load(std::memory_order_relaxed);
    if (slots != nullptr) {
      for (size_t i = 0; i < kTableSlots; ++i) {
        slots[i].count.store(0, std::memory_order_relaxed);
        slots[i].tag = nullptr;
        slots[i].depth = 0;
        slots[i].hash.store(0, std::memory_order_relaxed);
      }
    }
    tp->samples.store(0, std::memory_order_relaxed);
    tp->lost.store(0, std::memory_order_relaxed);
  }
}

int64_t ProfileSampleCount() {
  int64_t total = 0;
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& tp : reg.threads) {
    total += tp->samples.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t ProfileLostCount() {
  int64_t total = 0;
  ProfilerRegistry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& tp : reg.threads) {
    total += tp->lost.load(std::memory_order_relaxed);
  }
  return total;
}

ProfileSummary SummarizeProfile() {
  const MergedProfile merged = MergeProfiles();
  ProfileSummary s;
  s.samples = merged.samples;
  s.lost = merged.lost;
  s.distinct_stacks = static_cast<int64_t>(merged.stacks.size());
  s.threads = merged.threads;
  if (merged.samples > 0) {
    Symbolizer sym;
    int64_t attributed = 0;
    for (const MergedStack& st : merged.stacks) {
      if (!st.pcs.empty() &&
          Symbolizer::Attributed(sym.Resolve(
              reinterpret_cast<uintptr_t>(st.pcs[0]), /*leaf=*/true))) {
        attributed += st.count;
      }
    }
    s.attributed_frac =
        static_cast<double>(attributed) / static_cast<double>(merged.samples);
    s.span_covered_frac = static_cast<double>(merged.span_covered) /
                          static_cast<double>(merged.samples);
  }
  return s;
}

std::string ProfileFoldedText() {
  const MergedProfile merged = MergeProfiles();
  if (merged.stacks.empty()) return "";
  Symbolizer sym;
  std::vector<std::string> lines;
  lines.reserve(merged.stacks.size());
  for (const MergedStack& st : merged.stacks) {
    std::string line = "span:" + SanitizeFrameName(st.tag);
    for (size_t i = st.pcs.size(); i-- > 0;) {  // root first
      line += ';';
      line += sym.Resolve(reinterpret_cast<uintptr_t>(st.pcs[i]),
                          /*leaf=*/i == 0);
    }
    if (st.pcs.empty()) line += ";[unknown]";
    line += ' ';
    line += std::to_string(st.count);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string ProfileJson(int top_n) {
  const MergedProfile merged = MergeProfiles();
  Symbolizer sym;
  struct FrameStat {
    int64_t self = 0;
    int64_t total = 0;
  };
  std::map<std::string, FrameStat> frames;
  std::map<std::string, int64_t> spans;
  int64_t attributed = 0;
  std::vector<std::string> names;  // scratch, for per-stack dedup
  for (const MergedStack& st : merged.stacks) {
    spans[st.tag] += st.count;
    names.clear();
    for (size_t i = 0; i < st.pcs.size(); ++i) {
      names.push_back(sym.Resolve(reinterpret_cast<uintptr_t>(st.pcs[i]),
                                  /*leaf=*/i == 0));
    }
    if (!names.empty()) {
      frames[names[0]].self += st.count;
      if (Symbolizer::Attributed(names[0])) attributed += st.count;
      // "total" counts each frame once per stack, so recursion and
      // repeated helper frames are not double-counted.
      std::vector<std::string> uniq = names;
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      for (const std::string& name : uniq) frames[name].total += st.count;
    }
  }
  std::vector<std::pair<std::string, FrameStat>> top(frames.begin(),
                                                     frames.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second.self != b.second.self ? a.second.self > b.second.self
                                          : a.first < b.first;
  });
  if (top_n >= 0 && top.size() > static_cast<size_t>(top_n)) {
    top.resize(static_cast<size_t>(top_n));
  }
  std::vector<std::pair<std::string, int64_t>> span_rows(spans.begin(),
                                                         spans.end());
  std::sort(span_rows.begin(), span_rows.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  const double denom =
      merged.samples > 0 ? static_cast<double>(merged.samples) : 1.0;
  std::ostringstream os;
  os << "{\"available\": " << (ProfilerAvailable() ? "true" : "false")
     << ", \"hz\": " << ProfilerHz() << ", \"samples\": " << merged.samples
     << ", \"lost\": " << merged.lost
     << ", \"distinct_stacks\": " << merged.stacks.size()
     << ", \"threads\": " << merged.threads << ", \"attributed_frac\": "
     << JsonNumber(merged.samples > 0
                       ? static_cast<double>(attributed) / denom
                       : 0.0)
     << ", \"span_covered_frac\": "
     << JsonNumber(static_cast<double>(merged.span_covered) / denom)
     << ",\n \"top\": [";
  for (size_t i = 0; i < top.size(); ++i) {
    os << (i ? ",\n   " : "\n   ") << "{\"name\": " << JsonString(top[i].first)
       << ", \"self\": " << top[i].second.self << ", \"self_pct\": "
       << JsonNumber(100.0 * static_cast<double>(top[i].second.self) / denom)
       << ", \"total\": " << top[i].second.total << ", \"total_pct\": "
       << JsonNumber(100.0 * static_cast<double>(top[i].second.total) / denom)
       << "}";
  }
  os << (top.empty() ? "" : "\n ") << "],\n \"spans\": [";
  for (size_t i = 0; i < span_rows.size(); ++i) {
    os << (i ? ",\n   " : "\n   ")
       << "{\"span\": " << JsonString(span_rows[i].first)
       << ", \"samples\": " << span_rows[i].second << ", \"share\": "
       << JsonNumber(static_cast<double>(span_rows[i].second) / denom) << "}";
  }
  os << (span_rows.empty() ? "" : "\n ") << "]}";
  return os.str();
}

#else  // !GRAPHAUG_PROFILER_IMPL

bool ProfilerAvailable() { return false; }
bool ProfilerProbeFailed() { return false; }
bool ProfilerRunning() { return false; }
int ProfilerHz() { return 0; }
bool StartProfiler(int /*hz*/) { return false; }
void StopProfiler() {}
void ResetProfile() {}
int64_t ProfileSampleCount() { return 0; }
int64_t ProfileLostCount() { return 0; }
ProfileSummary SummarizeProfile() { return ProfileSummary{}; }
std::string ProfileFoldedText() { return ""; }

std::string ProfileJson(int /*top_n*/) {
  return "{\"available\": false, \"hz\": 0, \"samples\": 0, \"lost\": 0, "
         "\"distinct_stacks\": 0, \"threads\": 0, \"attributed_frac\": 0, "
         "\"span_covered_frac\": 0,\n"
         " \"top\": [],\n \"spans\": []}";
}

#endif  // GRAPHAUG_PROFILER_IMPL

bool SymbolCoversPc(uint64_t sym_addr, uint64_t sym_size, uint64_t next_addr,
                    uint64_t rel) {
  if (rel < sym_addr) return false;
  if (sym_size == 0) {
    const uint64_t limit =
        next_addr != 0 ? next_addr : sym_addr + (uint64_t{1} << 20);
    return rel < limit;
  }
  constexpr uint64_t kPadding = 16;  // function alignment on x86-64
  const uint64_t padded = (sym_size + kPadding - 1) & ~(kPadding - 1);
  return rel - sym_addr < padded;
}

bool WriteProfileFolded(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = ProfileFoldedText();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool WriteProfileJson(const std::string& path, int top_n) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ProfileJson(top_n);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace graphaug::obs
