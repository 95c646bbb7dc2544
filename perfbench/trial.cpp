// One benchmark trial of the Renaissance simulator, driven through the
// library's public entry points only.
//
//   perfbench_trial --workload NAME --seed N [--size full|tiny]
//                    [--sim-threads N] [--setup-only] [--spans FILE]
//
// A trial is: set up (topo::resolve + sim::Experiment), bootstrap from
// empty state to the first Definition-1-legitimate sample, then the
// workload's fixed simulated timeline (flow churn or fault injections, each
// followed by a legitimacy checkpoint). It prints one JSON object on stdout:
// the deterministic outcome ("det"), the host timings ("host") and, in the
// traced build, the per-layer metrics ("layers").
//
// The same source builds two programs. perfbench_trial carries no
// instrumentation at all. perfbench_trial_traced (PERFBENCH_TRACED=1)
// records a span around every call this program makes into a layer, counts
// heap allocations per thread, and drives the epoch-gated legitimacy loop
// itself so that monitor checks can be timed apart from the kernel. Spans
// live in memory and are written out at the end (--spans). Nothing inside
// src/ is instrumented.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/legitimacy.hpp"
#include "faults/injector.hpp"
#include "flows/churn.hpp"
#include "flows/my_rules.hpp"
#include "net/simulator.hpp"
#include "scenario/json.hpp"
#include "sim/experiment.hpp"
#include "switchd/abstract_switch.hpp"
#include "topo/source.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

// --- Per-thread allocation counting (traced build only) ----------------------
#if PERFBENCH_TRACED
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// Out of line: inlined, GCC pairs malloc() and free() with new and delete
// and warns about a mismatch (-Wmismatched-new-delete) that is not there.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace {

using namespace ren;
using Clock = std::chrono::steady_clock;
using scenario::Json;

constexpr bool kTraced = PERFBENCH_TRACED != 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Spans -------------------------------------------------------------------

enum SpanName : std::int32_t {
  kTopoResolve,
  kSimBuild,
  kNetRunUntil,
  kCoreIteration,
  kCoreFanout,
  kMonitorCheck,
  kFlowsCompile,
  kFlowsChurnGen,
  kSwitchdFlowOp,
  kFaultsInject,
  kSpanNameCount
};
constexpr const char* kSpanNames[kSpanNameCount] = {
    "topo.resolve",   "sim.build",     "net.run_until",   "core.iteration",
    "core.fanout",    "monitor.check", "flows.compile",   "flows.churn_gen",
    "switchd.flow_op", "faults.inject"};

struct Span {
  std::int32_t name = 0;
  std::int64_t parent = -1;  ///< global span id, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< heap allocations on this thread inside
};

/// In-memory span store. Each thread appends to its own buffer; a span id is
/// (buffer index << 40) | position. Spans opened on a simulation worker
/// thread take the harness thread's innermost open span as their parent.
class Tracer {
 public:
  explicit Tracer(std::uint64_t trial) : trial_(trial), t0_(Clock::now()) {}

  void begin(SpanName name) {
    Local& l = local();
    const std::int64_t parent =
        l.stack.empty() ? harness_top_.load(std::memory_order_acquire)
                        : l.stack.back();
    const std::int64_t id =
        (static_cast<std::int64_t>(l.index) << 40) |
        static_cast<std::int64_t>(l.buffer->size());
    l.buffer->push_back(Span{name, parent, now_ns(), 0, alloc_count()});
    l.stack.push_back(id);
    if (l.harness) harness_top_.store(id, std::memory_order_release);
  }

  void end() {
    Local& l = local();
    const std::int64_t id = l.stack.back();
    l.stack.pop_back();
    Span& s = (*l.buffer)[static_cast<std::size_t>(id & ((1LL << 40) - 1))];
    s.end_ns = now_ns();
    s.allocs = alloc_count() - s.allocs;
    if (l.harness) {
      harness_top_.store(l.stack.empty() ? -1 : l.stack.back(),
                         std::memory_order_release);
    }
  }

  /// Per-name totals: count, summed duration, summed self time (duration
  /// minus the union of the intervals its children cover), allocations.
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
    std::uint64_t allocs = 0;
    std::vector<double> durations_us;
  };
  /// Call only after every thread that recorded spans is idle.
  [[nodiscard]] std::vector<Totals> totals() const {
    std::vector<Totals> out(kSpanNameCount);
    std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const auto& buf : buffers_) {
      for (const Span& s : *buf) {
        if (s.parent >= 0) {
          children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
      }
    }
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
      const auto& buf = *buffers_[b];
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const Span& s = buf[i];
        Totals& t = out[static_cast<std::size_t>(s.name)];
        const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        ++t.count;
        t.total_s += dur;
        t.allocs += s.allocs;
        t.durations_us.push_back(dur * 1e6);
        double covered = 0;
        const std::int64_t id = (static_cast<std::int64_t>(b) << 40) |
                                static_cast<std::int64_t>(i);
        if (auto it = children.find(id); it != children.end()) {
          auto iv = it->second;
          std::sort(iv.begin(), iv.end());
          std::int64_t cur_lo = 0, cur_hi = -1;
          for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo) continue;
            if (lo > cur_hi) {
              if (cur_hi > cur_lo) {
                covered += static_cast<double>(cur_hi - cur_lo);
              }
              cur_lo = lo;
              cur_hi = hi;
            } else {
              cur_hi = std::max(cur_hi, hi);
            }
          }
          if (cur_hi > cur_lo) covered += static_cast<double>(cur_hi - cur_lo);
        }
        t.self_s += dur - covered * 1e-9;
      }
    }
    return out;
  }

  /// One span per line: trial, id, parent, name, start_ns, end_ns, allocs.
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "trial\tid\tparent\tname\tstart_ns\tend_ns\tallocs\n";
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
      const auto& buf = *buffers_[b];
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const Span& s = buf[i];
        f << trial_ << '\t'
          << ((static_cast<std::int64_t>(b) << 40) |
              static_cast<std::int64_t>(i))
          << '\t' << s.parent << '\t' << kSpanNames[s.name] << '\t'
          << s.start_ns << '\t' << s.end_ns << '\t' << s.allocs << '\n';
      }
    }
  }

 private:
  struct Local {
    std::vector<Span>* buffer = nullptr;
    std::size_t index = 0;
    bool harness = false;
    std::vector<std::int64_t> stack;
  };

  Local& local() {
    thread_local Local l;
    if (l.buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      l.buffer = buffers_.back().get();
      l.index = buffers_.size() - 1;
      l.harness = l.index == 0;  // the main thread opens the first span
    }
    return l;
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  static std::uint64_t alloc_count() {
#if PERFBENCH_TRACED
    return t_allocations;
#else
    return 0;
#endif
  }

  std::uint64_t trial_;
  Clock::time_point t0_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded by mu_
  std::atomic<std::int64_t> harness_top_{-1};
};

Tracer* g_tracer = nullptr;

/// Times a call into a layer in the traced build; compiles to nothing in
/// the untraced one.
class Scope {
 public:
  explicit Scope(SpanName name) {
    if constexpr (kTraced) g_tracer->begin(name);
  }
  ~Scope() {
    if constexpr (kTraced) g_tracer->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

template <typename F>
decltype(auto) traced(SpanName name, F&& f) {
  Scope s(name);
  return f();
}

// --- Workloads ---------------------------------------------------------------

enum class Kind { Bootstrap, Churn, Recovery };

struct Workload {
  std::string name;
  Kind kind = Kind::Bootstrap;
  std::string topology;
  int kappa = 2;
  std::size_t max_rules = 0;  ///< 0 = the library default
  int sim_threads = 1;
  Time checkpoint_limit = sec(60);
  // Churn: a fixed window of heavy-tailed arrivals after bootstrap.
  double churn_rate = 0;
  Time churn_mean_duration = 0;
  Time churn_window = 0;
  // Recovery: fault i is injected at bootstrap + (i + 1) * fault_spacing;
  // the timeline ends one spacing after the last fault.
  Time fault_spacing = 0;
};

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "wan_bootstrap") {
    w.kind = Kind::Bootstrap;
    w.topology = tiny ? "random_wan:nodes=64,m=2,seed=1"
                      : "random_wan:nodes=1024,m=2,seed=1";
    w.kappa = 1;
  } else if (name == "fabric_churn" || name == "fabric_churn_sharded") {
    w.kind = Kind::Churn;
    // Capacity sits just above the hottest switch's protected management
    // rules, so churn (not bootstrap) is what the limit pressures.
    w.topology = tiny ? "fat_tree:k=4" : "fat_tree:k=8";
    w.max_rules = tiny ? 200 : 700;
    w.churn_rate = tiny ? 4'000 : 40'000;
    w.churn_mean_duration = msec(150);
    w.churn_window = tiny ? msec(200) : msec(1'000);
    w.sim_threads = name == "fabric_churn_sharded" ? 2 : 1;
  } else if (name == "rocketfuel_recovery") {
    w.kind = Kind::Recovery;
    w.topology = tiny ? "B4" : "EBONE";
    w.fault_spacing = tiny ? msec(500) : sec(1);
    w.checkpoint_limit = w.fault_spacing - msec(100);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

sim::ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                                  int sim_threads) {
  // The fast timer profile of the scenario runner: 50 ms task delay, 10 ms
  // detection, 100 us links; 3 controllers; the three-tag variant.
  sim::ExperimentConfig cfg;
  cfg.topology = w.topology;
  cfg.controllers = 3;
  cfg.kappa = w.kappa;
  cfg.seed = seed;
  cfg.task_delay = msec(50);
  cfg.detect_interval = msec(10);
  cfg.monitor_interval = msec(25);
  cfg.link_latency = usec(100);
  cfg.theta = 10;
  cfg.rule_retention = 3;
  if (w.max_rules > 0) cfg.max_rules = w.max_rules;
  cfg.sim_threads = sim_threads;
  return cfg;
}

/// Peak resident set of this process image. VmHWM, not getrusage: the
/// latter's ru_maxrss survives execve and would report the parent's peak.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// --- The trial ---------------------------------------------------------------

struct Checkpoint {
  bool converged = false;
  double seconds = 0;
  std::vector<std::uint64_t> iterations;
  std::vector<std::uint64_t> commands;
};

class Trial {
 public:
  Trial(const Workload& w, std::uint64_t seed, int sim_threads)
      : w_(w), seed_(seed) {
    const auto t0 = Clock::now();
    const auto cfg = make_config(w, seed, sim_threads);
    {
      Scope s(kTopoResolve);
      (void)topo::resolve(cfg.topology);
    }
    resolve_s_ = seconds_since(t0);
    const auto t1 = Clock::now();
    {
      Scope s(kSimBuild);
      exp_ = std::make_unique<sim::Experiment>(cfg);
    }
    build_s_ = seconds_since(t1);
    cp_ = exp_->control_plane();
  }

  Json run() {
    if constexpr (kTraced) install_probes();
    const std::uint64_t events0 = exp_->sim().events_executed();
    const auto t0 = Clock::now();
    const Checkpoint boot = checkpoint();
    expect(boot.converged, "bootstrap did not reach legitimacy");
    bootstrap_sim_s_ = boot.seconds;
    cmds_per_node_iter_ = overhead(boot);
    if constexpr (kTraced) time_reference_compiles();
    if (w_.kind == Kind::Churn) run_churn();
    if (w_.kind == Kind::Recovery) run_recovery();
    trial_wall_s_ = seconds_since(t0) - compile_wall_s_;
    if (w_.kind == Kind::Bootstrap) {
      // The simulated span is itself the outcome here.
      timeline_sim_s_ = bootstrap_sim_s_;
      timeline_wall_s_ = trial_wall_s_;
    }
    events_ = exp_->sim().events_executed() - events0;
    return report();
  }

  [[nodiscard]] double setup_s() const { return resolve_s_ + build_s_; }

 private:
  void expect(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }

  void run_until(Time t) {
    Scope s(kNetRunUntil);
    exp_->sim().run_until(t);
  }

  /// Run to the first legitimate sample. The untraced build calls
  /// Experiment::run_until_legitimate; the traced build drives the same
  /// epoch-gated loop itself so that kernel time and monitor checks land in
  /// separate spans. Both must reach the same verdict at the same simulated
  /// time, which the benchmark checks.
  Checkpoint checkpoint() {
    const Time limit = w_.checkpoint_limit;
    if constexpr (!kTraced) {
      const auto r = exp_->run_until_legitimate(limit);
      return Checkpoint{r.converged, r.seconds, r.iterations, r.commands};
    }
    auto& sim = exp_->sim();
    auto& monitor = exp_->monitor();
    const auto& cfg = exp_->config();
    Checkpoint cp;
    std::vector<std::uint64_t> iter0, cmd0;
    {
      const auto& counters = sim.counters();
      for (const auto* c : exp_->controllers()) {
        const auto idx = static_cast<std::size_t>(c->id());
        iter0.push_back(counters.iterations[idx]);
        cmd0.push_back(counters.ctrl_commands_sent[idx]);
      }
    }
    const Time t0 = sim.now();
    const Time fine_step = std::max<Time>(Time{1}, cfg.monitor_interval / 8);
    const Time deadline = t0 + limit;
    std::uint64_t checked_epoch = monitor.stack_epoch() - 1;
    while (sim.now() < deadline) {
      const Time ceiling = sim.now() + cfg.monitor_interval;
      while (sim.now() < ceiling && monitor.stack_epoch() == checked_epoch) {
        const Time next = sim.next_event_time();
        if (next > deadline) break;
        if (next >= ceiling) {
          run_until(next);
          break;
        }
        run_until(std::min(ceiling, std::max(next, sim.now() + fine_step)));
      }
      const bool legit =
          traced(kMonitorCheck, [&] { return monitor.check().legitimate; });
      checked_epoch = monitor.stack_epoch();
      if (legit) {
        cp.converged = true;
        break;
      }
      if (sim.next_event_time() > deadline) break;
    }
    cp.seconds = to_seconds(sim.now() - t0);
    const auto& counters = sim.counters();
    for (std::size_t k = 0; k < exp_->controllers().size(); ++k) {
      const auto idx = static_cast<std::size_t>(exp_->controllers()[k]->id());
      cp.iterations.push_back(counters.iterations[idx] - iter0[k]);
      cp.commands.push_back(counters.ctrl_commands_sent[idx] - cmd0[k]);
    }
    return cp;
  }

  /// Fig. 9 overhead: commands per iteration per node, max over controllers.
  double overhead(const Checkpoint& cp) {
    const double nodes = static_cast<double>(
        exp_->topology().switch_graph.n() +
        static_cast<int>(exp_->controller_count()));
    double worst = 0;
    for (std::size_t k = 0; k < cp.commands.size(); ++k) {
      if (cp.iterations[k] == 0) continue;
      worst = std::max(worst, static_cast<double>(cp.commands[k]) /
                                  static_cast<double>(cp.iterations[k]) /
                                  nodes);
    }
    return worst;
  }

  // --- Churn timeline ------------------------------------------------------

  static constexpr Time kChurnTick = msec(10);
  static constexpr std::uint64_t kChurnStream = 0x7065726662656e63ULL;

  void run_churn() {
    flows::ChurnConfig ccfg;
    ccfg.rate = w_.churn_rate;
    ccfg.mean_duration = w_.churn_mean_duration;
    auto& sim = exp_->sim();
    const Time start = sim.now();
    const Time stop = start + w_.churn_window;
    churn_ = std::make_unique<flows::ChurnGenerator>(
        exp_->topology().switch_graph, ccfg,
        Rng::stream_seed(seed_, kChurnStream), start);
    // Ticks are harness-lane events: the sharded kernel runs them at epoch
    // barriers, so the churn timeline is the same at any shard count.
    std::function<void()> tick = [this, &tick, stop] {
      auto& s = exp_->sim();
      churn_tick(s.now());
      if (s.now() + kChurnTick <= stop) s.schedule(kChurnTick, tick);
    };
    sim.schedule(kChurnTick, tick);
    const auto t0 = Clock::now();
    run_until(stop);
    timeline_wall_s_ = seconds_since(t0);
    timeline_sim_s_ = to_seconds(w_.churn_window);
    while (!active_.empty()) retire(active_.begin());
    const Checkpoint drain = checkpoint();
    expect(drain.converged, "no legitimacy after the churn window");
    arrivals_ = churn_->arrivals();
    std::uint64_t evictions = 0, overflows = 0, peak = 0;
    for (auto* sw : exp_->switches()) {
      const auto& fs = sw->rule_table().flow_stats();
      evictions += fs.flow_evictions;
      overflows += fs.overflow_rejects;
      peak = std::max<std::uint64_t>(peak, fs.peak_rules);
    }
    expect(evictions + overflows > 0, "churn put no pressure on the tables");
    expect(peak <= w_.max_rules, "a rule table exceeded its capacity");
  }

  void churn_tick(Time now) {
    traced(kFlowsChurnGen, [&] {
      arrivals_buf_.clear();
      churn_->advance(now, arrivals_buf_);
    });
    for (const flows::FlowArrival& a : arrivals_buf_) install(a);
    while (!active_.empty() && active_.begin()->first.first <= now) {
      retire(active_.begin());
    }
  }

  /// One exact-match entry per hop of the flow's shortest path.
  void install(const flows::FlowArrival& a) {
    traced(kFlowsChurnGen, [&] {
      churn_->path_hops(a.src, a.dst, hops_buf_);
      fwd_buf_.clear();
      for (NodeId v : hops_buf_) fwd_buf_.push_back(churn_->next_hop(v, a.dst));
    });
    if (hops_buf_.empty()) return;
    switchd::FlowRule r;
    r.id = a.id;
    r.src = a.src;
    r.dst = a.dst;
    r.prt = a.prt;
    const auto& switches = exp_->switches();
    for (std::size_t i = 0; i < hops_buf_.size(); ++i) {
      r.fwd = fwd_buf_[i];
      auto& table =
          switches[static_cast<std::size_t>(hops_buf_[i])]->rule_table();
      traced(kSwitchdFlowOp, [&] { return table.install_flow(r); });
    }
    active_.emplace(std::pair{a.at + a.duration, a.id}, hops_buf_);
  }

  void retire(std::map<std::pair<Time, std::uint64_t>,
                       std::vector<NodeId>>::iterator it) {
    const std::uint64_t id = it->first.second;
    const auto& switches = exp_->switches();
    for (NodeId v : it->second) {
      auto& table = switches[static_cast<std::size_t>(v)]->rule_table();
      traced(kSwitchdFlowOp, [&] { return table.remove_flow(id); });
    }
    active_.erase(it);
  }

  // --- Recovery timeline ---------------------------------------------------

  void run_recovery() {
    auto& rng = exp_->fault_rng();
    const auto t0 = Clock::now();
    const Time start = exp_->sim().now();
    const std::vector<std::string> faults = {"fail_two_links", "restore_links",
                                             "corrupt_all_state",
                                             "kill_controller"};
    for (std::size_t i = 0; i < faults.size(); ++i) {
      run_until(start + static_cast<Time>(i + 1) * w_.fault_spacing);
      const std::string& f = faults[i];
      traced(kFaultsInject, [&] {
        if (f == "fail_two_links") {
          expect(faults::fail_random_links(cp_, rng, 2).size() == 2,
                 "could not fail two links");
        } else if (f == "restore_links") {
          expect(faults::restore_all_links(cp_) == 2,
                 "could not restore the failed links");
        } else if (f == "corrupt_all_state") {
          faults::corrupt_all_state(cp_, rng);
        } else {
          expect(faults::kill_random_controller(cp_, rng) != kNoNode,
                 "could not kill a controller");
        }
      });
      const Checkpoint cp = checkpoint();
      expect(cp.converged, "no legitimacy after " + f);
      recovery_sim_s_.push_back(cp.seconds);
    }
    const Time span = static_cast<Time>(faults.size() + 1) * w_.fault_spacing;
    run_until(start + span);
    timeline_wall_s_ = seconds_since(t0);
    timeline_sim_s_ = to_seconds(span);
  }

  // --- Traced build: probes and reference compiles --------------------------

  void install_probes() {
    for (auto* c : exp_->controllers()) {
      c->set_iteration_probe([](bool begin) {
        if (begin) {
          g_tracer->begin(kCoreIteration);
        } else {
          g_tracer->end();
        }
      });
      c->set_fanout_probe([](bool begin) {
        if (begin) {
          g_tracer->begin(kCoreFanout);
        } else {
          g_tracer->end();
        }
      });
    }
  }

  /// One uncached myRules() compile per live controller on the real
  /// topology — the cold-compile cost, outside the trial's wall time.
  void time_reference_compiles() {
    const auto t0 = Clock::now();
    const auto& truth = exp_->monitor().true_view();
    std::map<NodeId, bool> transit;
    for (auto* c : exp_->controllers()) {
      if (c->alive()) transit[c->id()] = false;
    }
    for (auto* s : exp_->switches()) {
      if (s->alive()) transit[s->id()] = true;
    }
    flows::RuleCompiler compiler(flows::RuleCompiler::Config{w_.kappa});
    for (auto* c : exp_->controllers()) {
      if (!c->alive()) continue;
      const auto t = Clock::now();
      {
        Scope s(kFlowsCompile);
        (void)compiler.compile(truth, c->id(), transit);
      }
      compile_ms_.push_back(seconds_since(t) * 1e3);
    }
    compile_wall_s_ = seconds_since(t0);
  }

  // --- Report --------------------------------------------------------------

  Json report() {
    const auto& counters = exp_->sim().counters();
    Json det;
    det.set("bootstrap_sim_s", bootstrap_sim_s_);
    Json rec{scenario::JsonArray{}};
    for (double r : recovery_sim_s_) rec.push_back(r);
    det.set("recovery_sim_s", std::move(rec));
    det.set("cmds_per_node_iter", cmds_per_node_iter_);
    det.set("timeline_sim_s", timeline_sim_s_);
    det.set("events", static_cast<double>(events_));
    det.set("arrivals", static_cast<double>(arrivals_));
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(counters.fingerprint()));
    det.set("counters_fp", std::string(fp));
    std::uint64_t installs = 0, evictions = 0, overflows = 0, lookups = 0,
                  lookup_cost = 0, peak = 0;
    for (auto* sw : exp_->switches()) {
      const auto& fs = sw->rule_table().flow_stats();
      installs += fs.installs;
      evictions += fs.flow_evictions;
      overflows += fs.overflow_rejects;
      lookups += fs.lookups;
      lookup_cost += fs.lookup_cost;
      peak = std::max<std::uint64_t>(peak, fs.peak_rules);
    }
    Json table;
    table.set("installs", static_cast<double>(installs));
    table.set("evictions", static_cast<double>(evictions));
    table.set("overflow_rejects", static_cast<double>(overflows));
    table.set("lookups", static_cast<double>(lookups));
    table.set("lookup_cost", static_cast<double>(lookup_cost));
    table.set("peak_rules", static_cast<double>(peak));
    det.set("table", std::move(table));

    Json host;
    host.set("setup_s", setup_s());
    host.set("resolve_s", resolve_s_);
    host.set("build_s", build_s_);
    host.set("trial_wall_s", trial_wall_s_);
    host.set("timeline_wall_s", timeline_wall_s_);
    host.set("peak_rss_mb", peak_rss_mb());

    Json errors{scenario::JsonArray{}};
    for (const auto& e : errors_) errors.push_back(e);

    Json out;
    out.set("workload", w_.name);
    out.set("seed", static_cast<double>(seed_));
    out.set("sim_threads", exp_->config().sim_threads);
    out.set("ok", errors_.empty());
    out.set("errors", std::move(errors));
    out.set("det", std::move(det));
    out.set("host", std::move(host));
    if constexpr (kTraced) out.set("layers", layers(installs, evictions));
    return out;
  }

  Json layers(std::uint64_t installs, std::uint64_t evictions) {
    const auto& counters = exp_->sim().counters();
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    Json l;
    // net: counters below the harness, spans around run_until.
    const std::uint64_t drops =
        counters.drops_link_down + counters.drops_queue +
        counters.drops_dead_node + counters.drops_ttl + counters.drops_no_rule +
        counters.drops_ambiguous_rule;
    l.set("net.events", static_cast<double>(events_));
    l.set("net.packets_sent", static_cast<double>(counters.packets_sent));
    l.set("net.packets_delivered",
          static_cast<double>(counters.packets_delivered));
    l.set("net.drops", static_cast<double>(drops));
    l.set("net.control_bytes",
          static_cast<double>(counters.control_bytes_sent));
    const Time lookahead = exp_->sim().lookahead();
    // Epoch windows of the sharded kernel: simulated span / lookahead.
    l.set("net.windows",
          lookahead == kTimeNever
              ? 0.0
              : static_cast<double>(exp_->sim().now() /
                                    std::max<Time>(lookahead, 1)));
    // transport + detect, summed over every node that runs them.
    std::uint64_t retx = 0, sessions = 0, rounds = 0, liveness = 0, msgs = 0;
    auto add_node = [&](const transport::Endpoint& e,
                        const detect::ThetaDetector& d) {
      retx += e.retransmissions();
      sessions += e.session_count();
      rounds += d.rounds();
      liveness += d.liveness_epoch();
    };
    for (auto* c : exp_->controllers()) add_node(c->endpoint(), c->detector());
    for (auto* s : exp_->switches()) add_node(s->endpoint(), s->detector());
    for (auto m : counters.ctrl_messages_sent) msgs += m;
    l.set("transport.retransmissions", static_cast<double>(retx));
    l.set("transport.retx_ratio", ratio(static_cast<double>(retx),
                                        static_cast<double>(msgs)));
    l.set("transport.sessions", static_cast<double>(sessions));
    l.set("detect.rounds", static_cast<double>(rounds));
    l.set("detect.liveness_changes", static_cast<double>(liveness));
    // core: controller, view cache, batch planner, reply DB.
    std::uint64_t hits = 0, refreshes = 0, rebuilds = 0, planned = 0,
                  reused = 0, full_plans = 0, commands = 0, messages = 0,
                  accepted = 0, discarded = 0;
    for (auto* c : exp_->controllers()) {
      const auto idx = static_cast<std::size_t>(c->id());
      const auto& vs = c->view_cache().stats();
      hits += vs.hits;
      refreshes += vs.refreshes;
      rebuilds += vs.rebuilds;
      const auto& ps = c->batch_planner().stats();
      planned += ps.planned;
      reused += ps.reused;
      full_plans += ps.full_plans;
      commands += counters.ctrl_commands_sent[idx];
      messages += counters.ctrl_messages_sent[idx];
      accepted += c->stats().replies_accepted;
      discarded += c->stats().replies_discarded_tag;
    }
    l.set("core.view_hit_ratio", ratio(static_cast<double>(hits),
                                       static_cast<double>(refreshes)));
    l.set("core.view_rebuilds", static_cast<double>(rebuilds));
    l.set("core.planner_reuse_ratio", ratio(static_cast<double>(reused),
                                            static_cast<double>(planned)));
    l.set("core.planner_full_plans", static_cast<double>(full_plans));
    l.set("core.commands", static_cast<double>(commands));
    l.set("core.messages", static_cast<double>(messages));
    l.set("core.replies_discarded_ratio",
          ratio(static_cast<double>(discarded),
                static_cast<double>(accepted + discarded)));
    // monitor
    const auto& ms = exp_->monitor().stats();
    l.set("monitor.checks", static_cast<double>(ms.checks));
    l.set("monitor.short_circuit_ratio",
          ratio(static_cast<double>(ms.short_circuits),
                static_cast<double>(ms.checks)));
    l.set("monitor.reference_compiles",
          static_cast<double>(ms.reference_compiles));
    l.set("monitor.walk_sweeps", static_cast<double>(ms.walk_sweeps));
    l.set("monitor.oracle_maxflow_runs",
          static_cast<double>(exp_->monitor().oracle_stats().maxflow_runs));
    // flows + switchd counts.
    std::sort(compile_ms_.begin(), compile_ms_.end());
    l.set("flows.compile_ms",
          compile_ms_.empty() ? 0.0 : compile_ms_[compile_ms_.size() / 2]);
    l.set("flows.arrivals", static_cast<double>(arrivals_));
    std::uint64_t overflows = 0, lookups = 0, lookup_cost = 0, peak = 0;
    for (auto* sw : exp_->switches()) {
      const auto& fs = sw->rule_table().flow_stats();
      overflows += fs.overflow_rejects;
      lookups += fs.lookups;
      lookup_cost += fs.lookup_cost;
      peak = std::max<std::uint64_t>(peak, fs.peak_rules);
    }
    l.set("switchd.installs", static_cast<double>(installs));
    l.set("switchd.evictions", static_cast<double>(evictions));
    l.set("switchd.eviction_ratio", ratio(static_cast<double>(evictions),
                                          static_cast<double>(installs)));
    l.set("switchd.overflow_rejects", static_cast<double>(overflows));
    l.set("switchd.lookups", static_cast<double>(lookups));
    l.set("switchd.lookup_cost", static_cast<double>(lookup_cost));
    l.set("switchd.peak_rules", static_cast<double>(peak));
    // Span times. The experiment is torn down first: that parks and joins
    // the simulation workers, so every span buffer is quiescent.
    exp_.reset();
    const auto t = g_tracer->totals();
    auto total = [&](SpanName n) { return t[n].total_s; };
    auto self = [&](SpanName n) { return t[n].self_s; };
    l.set("net.run_until_s", total(kNetRunUntil));
    l.set("net.self_s", self(kNetRunUntil));
    l.set("net.events_per_s",
          ratio(static_cast<double>(events_), total(kNetRunUntil)));
    l.set("net.ns_per_event",
          ratio(self(kNetRunUntil) * 1e9, static_cast<double>(events_)));
    const auto& it = t[kCoreIteration];
    l.set("core.iteration_s", it.total_s);
    l.set("core.self_s", it.self_s);
    l.set("core.iterations", static_cast<double>(it.count));
    auto pct = [](std::vector<double> v, double q) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
    };
    l.set("core.iteration_us_p50", pct(it.durations_us, 0.5));
    l.set("core.iteration_us_p99", pct(it.durations_us, 0.99));
    l.set("core.fanout_s", total(kCoreFanout));
    l.set("core.allocs_per_iteration",
          ratio(static_cast<double>(it.allocs), static_cast<double>(it.count)));
    l.set("monitor.check_s", total(kMonitorCheck));
    l.set("flows.churn_gen_s", total(kFlowsChurnGen));
    const auto& ops = t[kSwitchdFlowOp];
    l.set("switchd.flow_ops_s", ops.total_s);
    l.set("switchd.ns_per_flow_op",
          ratio(ops.total_s * 1e9, static_cast<double>(ops.count)));
    l.set("topo.resolve_s", total(kTopoResolve));
    l.set("sim.build_s", total(kSimBuild));
    l.set("faults.inject_s", total(kFaultsInject));
    return l;
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::unique_ptr<sim::Experiment> exp_;
  faults::ControlPlane cp_;
  std::vector<std::string> errors_;

  double resolve_s_ = 0, build_s_ = 0;
  double trial_wall_s_ = 0, timeline_wall_s_ = 0;
  double compile_wall_s_ = 0;
  double bootstrap_sim_s_ = 0, cmds_per_node_iter_ = 0, timeline_sim_s_ = 0;
  std::vector<double> recovery_sim_s_;
  std::vector<double> compile_ms_;
  std::uint64_t events_ = 0, arrivals_ = 0;

  std::unique_ptr<flows::ChurnGenerator> churn_;
  /// (end time, flow id) -> switches holding the flow's entries; ordered, so
  /// departures retire in a deterministic order.
  std::map<std::pair<Time, std::uint64_t>, std::vector<NodeId>> active_;
  std::vector<flows::FlowArrival> arrivals_buf_;
  std::vector<NodeId> hops_buf_;
  std::vector<NodeId> fwd_buf_;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--size full|tiny] "
               "[--sim-threads N] [--setup-only] [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, size = "full", spans;
  std::uint64_t seed = 0;
  bool have_seed = false, setup_only = false;
  int sim_threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--size" && has_value) {
      size = argv[++i];
    } else if (a == "--sim-threads" && has_value) {
      sim_threads = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      spans = argv[++i];
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !have_seed || (size != "full" && size != "tiny")) {
    return usage(argv[0]);
  }
  try {
    const Workload w = make_workload(workload, size == "tiny");
    Tracer tracer(seed);
    g_tracer = &tracer;
    Trial trial(w, seed, sim_threads > 0 ? sim_threads : w.sim_threads);
    Json out;
    if (setup_only) {
      out.set("workload", w.name);
      out.set("ok", true);
      Json host;
      host.set("setup_s", trial.setup_s());
      host.set("peak_rss_mb", peak_rss_mb());
      out.set("host", std::move(host));
    } else {
      out = trial.run();
    }
    std::printf("%s\n", out.dump().c_str());
    if (!spans.empty()) tracer.write(spans);
    return out.bool_or("ok", false) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trial: %s\n", e.what());
    return 1;
  }
}
