// The traced run's instruments, all outside src/: a metering machine adapter,
// an EnginePass decorator, a per-pass layer ledger and an in-memory span log.
//
// Metered<M> forwards the full machine interface the explorer probes
// (4-argument Successors + access_map, the symmetry surface, the static
// state-layout hooks, program()) and times the calls the explorer makes into
// the machine: successor generation (Promising certification included — it
// runs inside that call), the dedup digest (SerializeInto into a DigestSink)
// and the symmetry digest. ExploreParallel copies the machine once per worker,
// so the adapter holds the machine by value; each copy counts into its own
// plain counters and adds them to the shared WalkMeter when it is flushed or
// destroyed, so workers never contend on a counter. A forward that went
// missing would silently change the walk (no reduction, no symmetry); the
// static_asserts in workloads.cc pin the capability probes, and every traced
// pass checks its state and transition counts against the untraced pass.

#ifndef PERFBENCH_METER_H_
#define PERFBENCH_METER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/engine/pass.h"
#include "src/model/explorer.h"
#include "src/model/footprint.h"
#include "src/model/promising_machine.h"
#include "src/model/sc_machine.h"
#include "src/model/tso_machine.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Mean cost of one NowNs() on this host, measured once. A timed call pays
// two clock reads, one of them inside its own window: per-call timings are
// reported less one read, and explorer self time less both.
double ClockReadNs();

// `ns` measured over `calls` timed calls, less the clock reads, in seconds.
inline double CorrectedSeconds(uint64_t ns, uint64_t calls) {
  const double corrected = static_cast<double>(ns) - static_cast<double>(calls) * ClockReadNs();
  return corrected > 0 ? corrected * 1e-9 : 0.0;
}

// Machine-call totals of one walk (summed over every worker's copy).
struct CallCounts {
  uint64_t build_ns = 0;
  uint64_t successors_ns = 0;
  uint64_t successors_calls = 0;
  uint64_t digest_ns = 0;
  uint64_t digest_calls = 0;
  uint64_t canonical_ns = 0;
  uint64_t canonical_calls = 0;

  uint64_t TimedCalls() const { return successors_calls + digest_calls + canonical_calls; }
};

class WalkMeter {
 public:
  void Add(const CallCounts& c) {
    std::lock_guard<std::mutex> lock(mu_);
    totals_.build_ns += c.build_ns;
    totals_.successors_ns += c.successors_ns;
    totals_.successors_calls += c.successors_calls;
    totals_.digest_ns += c.digest_ns;
    totals_.digest_calls += c.digest_calls;
    totals_.canonical_ns += c.canonical_ns;
    totals_.canonical_calls += c.canonical_calls;
  }
  CallCounts totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

 private:
  mutable std::mutex mu_;
  CallCounts totals_;
};

template <typename M>
class Metered {
 public:
  using State = typename M::State;

  // Builds the wrapped machine in place, timing its constructor (the
  // AccessMap/ThreadSymmetry/decode work a walk pays before its first state).
  Metered(const vrm::Program& program, const vrm::ModelConfig& config, WalkMeter* meter)
      : meter_(meter), build_start_(NowNs()), machine_(program, config) {
    local_.build_ns = NowNs() - build_start_;
  }
  Metered(const Metered& other) : meter_(other.meter_), machine_(other.machine_) {}
  Metered& operator=(const Metered&) = delete;
  ~Metered() { Flush(); }

  void Flush() const {
    meter_->Add(local_);
    local_ = CallCounts{};
  }

  State Initial() const { return machine_.Initial(); }
  bool IsTerminal(const State& s) const { return machine_.IsTerminal(s); }
  vrm::Outcome Extract(const State& s) const { return machine_.Extract(s); }
  void AuditTerminal(const State& s, vrm::ExploreResult* agg) const {
    machine_.AuditTerminal(s, agg);
  }

  size_t Successors(const State& s, std::vector<State>* out,
                    vrm::ExploreResult* agg) const {
    const uint64_t t0 = NowNs();
    const size_t n = machine_.Successors(s, out, agg);
    local_.successors_ns += NowNs() - t0;
    ++local_.successors_calls;
    return n;
  }
  size_t Successors(const State& s, std::vector<State>* out, vrm::ExploreResult* agg,
                    std::vector<vrm::StepFootprint>* fps) const
    requires vrm::kHasFootprints<M>
  {
    const uint64_t t0 = NowNs();
    const size_t n = machine_.Successors(s, out, agg, fps);
    local_.successors_ns += NowNs() - t0;
    ++local_.successors_calls;
    return n;
  }
  const vrm::AccessMap& access_map() const
    requires vrm::kHasFootprints<M>
  {
    return machine_.access_map();
  }

  bool SymmetryActive() const
    requires vrm::kHasSymmetry<M>
  {
    return machine_.SymmetryActive();
  }
  void CanonicalDigest(const State& s, vrm::DigestSink* sink) const
    requires vrm::kHasSymmetry<M>
  {
    const uint64_t t0 = NowNs();
    machine_.CanonicalDigest(s, sink);
    local_.canonical_ns += NowNs() - t0;
    ++local_.canonical_calls;
  }
  void CloseOutcomesUnderSymmetry(vrm::OutcomeSet* outcomes) const
    requires vrm::kHasSymmetry<M>
  {
    machine_.CloseOutcomesUnderSymmetry(outcomes);
  }

  template <typename Sink>
  void SerializeInto(const State& s, Sink* sink) const {
    if constexpr (std::is_same_v<Sink, vrm::DigestSink>) {
      const uint64_t t0 = NowNs();
      machine_.SerializeInto(s, sink);
      local_.digest_ns += NowNs() - t0;
      ++local_.digest_calls;
    } else {
      machine_.SerializeInto(s, sink);
    }
  }
  std::string Serialize(const State& s) const { return machine_.Serialize(s); }

  static uint64_t StateHeapAllocs(const State& s)
    requires vrm::kHasStateLayout<M>
  {
    return M::StateHeapAllocs(s);
  }
  static uint64_t StateMemoryBytes(const State& s)
    requires vrm::kHasStateLayout<M>
  {
    return M::StateMemoryBytes(s);
  }

  const vrm::Program& program() const
    requires requires(const M& m) { m.program(); }
  {
    return machine_.program();
  }

 private:
  WalkMeter* meter_;
  uint64_t build_start_ = 0;
  M machine_;
  mutable CallCounts local_;
};

// The layer name of a machine type, as used in per-layer metric names.
template <typename M>
constexpr const char* MachineLayer() {
  if constexpr (std::is_same_v<M, vrm::PromisingMachine>) {
    return "promising";
  } else if constexpr (std::is_same_v<M, vrm::ScMachine>) {
    return "sc";
  } else {
    static_assert(std::is_same_v<M, vrm::TsoMachine>);
    return "tso";
  }
}

// Per-pass ledger of per-layer values, keyed by metric name: Add() sums,
// Max() keeps the largest, and Finish() derives the ratios.
class Layers {
 public:
  void Add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] += value;
  }
  void Max(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    double& slot = values_[name];
    if (value > slot) slot = value;
  }

  // Folds one metered walk: machine-call split, explorer self time (1-worker
  // walks) or parallel busy/capacity (multi-worker walks), and ExploreStats.
  void RecordWalk(const char* machine_layer, int workers, double wall_s,
                  const CallCounts& c, const vrm::ExploreStats& stats);

  // Derives the ratio metrics and returns every value.
  std::map<std::string, double> Finish() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;
};

// Worker count Explore() would use for this walk: it downgrades small state
// spaces to the sequential engine. Metered walks pick it once and call that
// engine directly, so the attribution below always matches the execution.
int ExploreWorkers(const vrm::Program& program, const vrm::ModelConfig& config);

// ExploreSequential at one worker, ExploreParallel at more.
template <typename Machine, typename Observer = vrm::NullExploreObserver>
vrm::ExploreResult ExploreWith(const Machine& machine, const vrm::ModelConfig& config,
                               int workers, Observer* observer = nullptr) {
  return workers > 1 ? vrm::ExploreParallel(machine, config, workers, observer)
                     : vrm::ExploreSequential(machine, config, observer);
}

// One metered exploration with a freshly built machine. `workers` > 0 runs
// exactly that many workers (as the parallel-determinism oracle does); 0 uses
// the worker count Explore() would pick, like every other caller.
template <typename M>
vrm::ExploreResult MeteredExplore(const vrm::Program& program,
                                  const vrm::ModelConfig& config, Layers* layers,
                                  int workers = 0) {
  const int used = workers > 0 ? workers : ExploreWorkers(program, config);
  WalkMeter meter;
  Metered<M> machine(program, config, &meter);
  const uint64_t t0 = NowNs();
  vrm::ExploreResult result = ExploreWith(machine, config, used);
  const double walk_s = SecondsSince(t0);
  machine.Flush();
  layers->RecordWalk(MachineLayer<M>(), used, walk_s, meter.totals(), result.stats);
  return result;
}

// Times every hook of the pass it wraps (hooks may fire concurrently).
class TimedPass : public vrm::EnginePass {
 public:
  explicit TimedPass(vrm::EnginePass* inner) : inner_(inner) {}

  const char* Name() const override { return inner_->Name(); }
  void OnVisited() override {
    const uint64_t t0 = NowNs();
    inner_->OnVisited();
    Note(t0);
  }
  void OnTransitions(size_t count) override {
    const uint64_t t0 = NowNs();
    inner_->OnTransitions(count);
    Note(t0);
  }
  void OnTerminal(const vrm::Outcome& outcome) override {
    const uint64_t t0 = NowNs();
    inner_->OnTerminal(outcome);
    Note(t0);
  }
  void OnWalkDone(const vrm::ExploreResult& merged) override {
    const uint64_t t0 = NowNs();
    inner_->OnWalkDone(merged);
    Note(t0);
  }

  double seconds() const { return CorrectedSeconds(ns_.load(), calls_.load()); }
  uint64_t calls() const { return calls_.load(); }

 private:
  void Note(uint64_t t0) {
    ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  vrm::EnginePass* inner_;
  std::atomic<uint64_t> ns_{0};
  std::atomic<uint64_t> calls_{0};
};

// In-memory span log, written once at exit as Chrome trace-event JSON.
class Spans {
 public:
  struct Span {
    std::string name;
    const char* category;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t thread;
  };

  // Opens a span; the returned id is the parent of spans opened under it.
  uint64_t Open() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Close(uint64_t id, uint64_t parent, std::string name, const char* category,
             uint64_t start_ns);

  // Spans are dropped (and counted) past this many, to bound memory.
  static constexpr size_t kMaxSpans = 1u << 18;

  std::string ChromeJson(const std::string& host_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::atomic<uint64_t> next_id_{1};
};

// RAII span: opened on construction, recorded on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name, const char* category, uint64_t parent)
      : spans_(spans), name_(std::move(name)), category_(category), parent_(parent),
        id_(spans->Open()), start_ns_(NowNs()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { spans_->Close(id_, parent_, std::move(name_), category_, start_ns_); }
  uint64_t id() const { return id_; }

 private:
  Spans* spans_;
  std::string name_;
  const char* category_;
  uint64_t parent_;
  uint64_t id_;
  uint64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METER_H_
