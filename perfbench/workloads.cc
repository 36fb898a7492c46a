#include "perfbench/workloads.h"

#include <algorithm>
#include <functional>
#include <future>
#include <limits>
#include <set>
#include <unordered_set>
#include <utility>

#include "perfbench/host.h"
#include "src/engine/engine.h"
#include "src/engine/verify_kernel.h"
#include "src/engine/wdrf_passes.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/swarm.h"
#include "src/litmus/batch.h"
#include "src/litmus/paper_examples.h"
#include "src/memo/memo.h"
#include "src/sekvm/tinyarm_primitives.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/testing/random_program.h"

namespace perfbench {

// A forward missing from Metered<M> would switch reduction or symmetry off
// without a compile error; pin the explorer's capability probes.
template <typename M>
constexpr bool kSameCapabilities =
    vrm::kHasFootprints<M> == vrm::kHasFootprints<Metered<M>> &&
    vrm::kHasSymmetry<M> == vrm::kHasSymmetry<Metered<M>> &&
    vrm::kHasStateLayout<M> == vrm::kHasStateLayout<Metered<M>>;
static_assert(kSameCapabilities<vrm::PromisingMachine>);
static_assert(kSameCapabilities<vrm::ScMachine>);
static_assert(kSameCapabilities<vrm::TsoMachine>);

namespace {

using vrm::ExploreResult;
using vrm::LitmusTest;
using vrm::ModelConfig;
using vrm::Program;
using vrm::Reduction;
using vrm::memo::MachineKind;
using vrm::memo::MemoStore;

// Test-level workers of the litmus batch and the widest Explore; the host
// has 4 CPUs and the benchmark stays within them.
constexpr int kWorkers = 4;
// Seeded corpus programs beside DefaultLitmusSuite().
constexpr int kCorpusPrograms = 200;
// One-program fuzz campaigns per pass (master seeds 1..kFuzzInputs), the
// stride of programs whose battery the traced pass replays piecewise, and the
// state cap on every fuzz walk (the seeded corpus's cap). The default swarm
// caps walks at 200000 states, where three programs in twenty take 85% of a
// pass; at this cap each battery stays under a second and about 84% complete.
constexpr size_t kFuzzInputs = 40;
constexpr size_t kFuzzReplayStride = 4;
constexpr uint64_t kFuzzMaxStates = 20000;
// RunFuzz's default campaign-local store capacity.
constexpr size_t kFuzzMemoBytes = 64ull << 20;

double Ms(uint64_t start_ns) { return SecondsSince(start_ns) * 1e3; }
double CpuMs(double start_cpu_s) { return (ProcessCpuSeconds() - start_cpu_s) * 1e3; }

// The memoized front door (ExploreMemoized, ungoverned) rebuilt from its
// public pieces so each part can be timed: key construction (program digest
// + config fingerprint), lookup, the metered walk, and the insert. Callers
// count hits and misses from the returned stats.
ExploreResult MemoizedMetered(const Program& program, const ModelConfig& config,
                              MachineKind kind, MemoStore* store, Layers* layers,
                              Spans* spans, uint64_t parent) {
  ScopedSpan span(spans, std::string("memo/") + vrm::memo::MachineKindName(kind), "memo",
                  parent);
  const uint64_t t0 = NowNs();
  const vrm::memo::ExplorationKey key = vrm::memo::MakeKey(program, kind, config);
  layers->Add("arch.program_digest_s", SecondsSince(t0));
  ExploreResult cached;
  if (store->Lookup(key, &cached)) {
    cached.stats.memo_hits = 1;
    cached.stats.memo_bytes = store->bytes();
    cached.stats.memo_evictions = store->evictions();
    layers->Add("memo.hit_s", SecondsSince(t0));
    return cached;
  }
  ExploreResult result;
  {
    ScopedSpan walk(spans, "walk", "model", span.id());
    switch (kind) {
      case MachineKind::kSc:
        result = MeteredExplore<vrm::ScMachine>(program, config, layers);
        break;
      case MachineKind::kTso:
        result = MeteredExplore<vrm::TsoMachine>(program, config, layers);
        break;
      case MachineKind::kPromising:
        result = MeteredExplore<vrm::PromisingMachine>(program, config, layers);
        break;
    }
  }
  const uint64_t insert0 = NowNs();
  if (!result.stats.truncated) {
    store->Insert(key, result);
  }
  layers->Add("memo.insert_s", SecondsSince(insert0));
  result.stats.memo_misses = 1;
  result.stats.memo_bytes = store->bytes();
  result.stats.memo_evictions = store->evictions();
  layers->Add("memo.miss_s", SecondsSince(t0));
  return result;
}

void NoteRequest(const ExploreResult& result, Layers* layers) {
  layers->Add("memo.hits", static_cast<double>(result.stats.memo_hits));
  layers->Add("memo.misses", static_cast<double>(result.stats.memo_misses));
}

void NoteStore(const MemoStore& store, Layers* layers) {
  layers->Max("memo.bytes", static_cast<double>(store.bytes()));
  layers->Add("memo.evictions", static_cast<double>(store.evictions()));
}

// ---------------------------------------------------------------------------
// sekvm_verify: VerifyKernel over the 12 SeKVM KernelSpecs.

// Pinned verdicts, one character per verdict: refinement, then the six wDRF
// conditions in WdrfCondition order (DRF-KERNEL, NO-BARRIER-MISUSE,
// WRITE-ONCE-KERNEL-MAPPING, TRANSACTIONAL-PAGE-TABLE,
// SEQUENTIAL-TLB-INVALIDATION, MEMORY-ISOLATION).
//   H holds, V violated / refinement fails, U unchecked,
//   + holds whenever the spec declares the condition,
//   * not pinned by any test: only "checked iff the spec declares it".
// Sources: tests/vrm/conditions_test.cc (DRF/BAR/WO/TLBI matrix),
// tests/vrm/refinement_test.cc (gen_vmid, vcpu_context refinement),
// tests/model/exclusives_test.cc (LL/SC lock), tests/engine/engine_test.cc
// (vcpu_context AllHold, clear_s2pt TXN-PT), tests/vrm/seqlock_test.cc.
struct SpecCase {
  const char* name;
  std::function<vrm::KernelSpec()> make;
  const char* expected;
};

const std::vector<SpecCase>& SpecCases() {
  static const std::vector<SpecCase> cases = {
      {"gen_vmid", [] { return vrm::GenVmidKernelSpec(true); }, "HHHU*U*"},
      {"gen_vmid_buggy", [] { return vrm::GenVmidKernelSpec(false); }, "VHVU*U*"},
      {"gen_vmid_llsc", [] { return vrm::GenVmidLlscKernelSpec(true); }, "HHH****"},
      {"gen_vmid_llsc_buggy", [] { return vrm::GenVmidLlscKernelSpec(false); }, "**V****"},
      {"vcpu_context", [] { return vrm::VcpuContextKernelSpec(true); }, "HHHU+U+"},
      {"vcpu_context_buggy", [] { return vrm::VcpuContextKernelSpec(false); }, "VHVU*U*"},
      {"clear_s2pt", [] { return vrm::ClearS2ptKernelSpec(true); }, "*UUUHH*"},
      {"clear_s2pt_buggy", [] { return vrm::ClearS2ptKernelSpec(false); }, "*UUU*V*"},
      {"remap_pfn", [] { return vrm::RemapPfnKernelSpec(true); }, "*UUH*U*"},
      {"remap_pfn_buggy", [] { return vrm::RemapPfnKernelSpec(false); }, "*UUV*U*"},
      {"seqlock", [] { return vrm::SeqlockKernelSpec(true); }, "*V*****"},
      {"seqlock_buggy", [] { return vrm::SeqlockKernelSpec(false); }, "*V*****"},
  };
  return cases;
}

constexpr vrm::WdrfCondition kConditions[] = {
    vrm::WdrfCondition::kDrfKernel,
    vrm::WdrfCondition::kNoBarrierMisuse,
    vrm::WdrfCondition::kWriteOnceKernelMapping,
    vrm::WdrfCondition::kTransactionalPageTable,
    vrm::WdrfCondition::kSequentialTlbInvalidation,
    vrm::WdrfCondition::kMemoryIsolation,
};

// Whether the spec arms each condition (what WdrfPassSet keys `checked` on).
bool Declares(const vrm::KernelSpec& spec, vrm::WdrfCondition condition) {
  switch (condition) {
    case vrm::WdrfCondition::kDrfKernel:
    case vrm::WdrfCondition::kNoBarrierMisuse:
      return !spec.program.regions.empty();
    case vrm::WdrfCondition::kWriteOnceKernelMapping:
      return !spec.kernel_pt_cells.empty();
    case vrm::WdrfCondition::kTransactionalPageTable:
      return !spec.txn_cases.empty();
    case vrm::WdrfCondition::kSequentialTlbInvalidation:
      return !spec.pt_watch.empty();
    case vrm::WdrfCondition::kMemoryIsolation:
      return !spec.user_cells.empty() || !spec.kernel_cells.empty();
  }
  return false;
}

// Observed verdict characters (same alphabet as SpecCase::expected).
std::string VerdictChars(const vrm::Boundedness& refinement, const vrm::WdrfReport& wdrf) {
  std::string out(1, refinement.holds ? 'H' : 'V');
  for (vrm::WdrfCondition condition : kConditions) {
    const vrm::ConditionVerdict& v = wdrf.Verdict(condition);
    out += !v.checked ? 'U' : v.status.holds ? 'H' : 'V';
  }
  return out;
}

// Empty when `observed` matches the pin, else the first mismatch.
std::string CheckSpecVerdict(const SpecCase& c, const vrm::KernelSpec& spec,
                             const std::string& observed) {
  for (size_t i = 0; i < observed.size(); ++i) {
    const char want = c.expected[i];
    const char got = observed[i];
    const bool declared = i == 0 || Declares(spec, kConditions[i - 1]);
    bool ok = true;
    switch (want) {
      case 'H':
      case 'V':
      case 'U':
        ok = got == want;
        break;
      case '+':
        ok = declared ? got == 'H' : got == 'U';
        break;
      default:  // '*'
        ok = i == 0 || (declared ? got != 'U' : got == 'U');
        break;
    }
    if (!ok) {
      return std::string(c.name) + ": verdict " + observed + " vs pinned " + c.expected;
    }
  }
  return "";
}

class SekvmVerify : public Workload {
 public:
  void Setup(uint64_t) override {
    specs_.clear();
    for (const SpecCase& c : SpecCases()) {
      specs_.push_back(c.make());
    }
  }

  void RunFirstInput() override {
    MemoStore::Global().Clear();
    (void)vrm::VerifyKernel(specs_.front());
  }

  PassResult Run() override {
    PassResult pass;
    for (size_t i = 0; i < specs_.size(); ++i) {
      MemoStore::Global().Clear();
      const double cpu0 = ProcessCpuSeconds();
      const uint64_t t0 = NowNs();
      const vrm::KernelVerification v = vrm::VerifyKernel(specs_[i]);
      const double ms = Ms(t0);
      const double cpu_ms = CpuMs(cpu0);
      Record(i, v.refinement, v.wdrf, v.txn_results, ms, &pass);
      pass.samples.back().cpu_ms = cpu_ms;
    }
    return pass;
  }

  PassResult RunTraced(Spans* spans) override {
    PassResult pass;
    Layers layers;
    ScopedSpan pass_span(spans, "sekvm_verify/pass", "pass", 0);
    double pair_s = 0, rm_s = 0, sc_s = 0;
    for (size_t i = 0; i < specs_.size(); ++i) {
      MemoStore::Global().Clear();
      const vrm::KernelSpec& spec = specs_[i];
      ScopedSpan input(spans, SpecCases()[i].name, "input", pass_span.id());
      const uint64_t t0 = NowNs();
      // VerifyKernel, rebuilt: the memoized SC walk overlapped with the one
      // observer-armed Promising walk that carries every wDRF pass.
      const ModelConfig config = vrm::WdrfModelConfig(spec);
      double sc_walk_s = 0;
      std::future<ExploreResult> sc_future = std::async(std::launch::async, [&] {
        ScopedSpan span(spans, "engine/sc_walk", "engine", input.id());
        const uint64_t s0 = NowNs();
        ExploreResult sc = MemoizedMetered(spec.program, config, MachineKind::kSc,
                                           &MemoStore::Global(), &layers, spans, span.id());
        sc_walk_s = SecondsSince(s0);
        NoteRequest(sc, &layers);
        return sc;
      });
      vrm::WdrfPassSet passes(spec);
      std::vector<std::unique_ptr<TimedPass>> timed;
      std::vector<vrm::EnginePass*> armed;
      for (vrm::EnginePass* p : passes.passes()) {
        timed.push_back(std::make_unique<TimedPass>(p));
        armed.push_back(timed.back().get());
      }
      ExploreResult rm;
      double rm_walk_s = 0;
      {
        ScopedSpan span(spans, "engine/rm_walk", "engine", input.id());
        // RunEnginePasses, rebuilt so the walk runs at the worker count the
        // attribution below assumes.
        const int workers = ExploreWorkers(spec.program, config);
        WalkMeter meter;
        Metered<vrm::PromisingMachine> machine(spec.program, config, &meter);
        vrm::PassObserver observer(armed);
        const uint64_t r0 = NowNs();
        rm = ExploreWith(machine, config, workers, &observer);
        for (vrm::EnginePass* p : armed) {
          p->OnWalkDone(rm);
        }
        rm_walk_s = SecondsSince(r0);
        machine.Flush();
        // Pass hooks run inside the walk: its self time excludes them and
        // their clock reads.
        double passes_s = 0;
        for (const auto& p : timed) {
          passes_s += p->seconds() + 2e-9 * ClockReadNs() * static_cast<double>(p->calls());
          layers.Add(std::string("engine.pass.") + p->Name() + "_s", p->seconds());
          if (std::string(p->Name()) == "txn-pt") {
            layers.Add("engine.txn_pt_s", p->seconds());
          }
        }
        layers.RecordWalk("promising", workers, rm_walk_s - passes_s, meter.totals(),
                          rm.stats);
      }
      ExploreResult sc = sc_future.get();
      pair_s += SecondsSince(t0);
      rm_s += rm_walk_s;
      sc_s += sc_walk_s;
      const vrm::WdrfReport wdrf = passes.Report(rm);
      const uint64_t j0 = NowNs();
      const vrm::RefinementJudgement judgement = vrm::JudgeRefinement(rm, sc);
      layers.Add("vrm.judge_s", SecondsSince(j0));
      const double ms = Ms(t0);
      vrm::RefinementResult refinement;
      refinement.status = judgement.status;
      refinement.rm_only = judgement.rm_only;
      refinement.rm = std::move(rm);
      refinement.sc = std::move(sc);
      Record(i, refinement, wdrf, passes.txn_pass().results(), ms, &pass);
    }
    layers.Add("engine.rm_walk_s", rm_s);
    layers.Add("engine.sc_walk_s", sc_s);
    layers.Add("engine.overlap", pair_s > 0 ? (rm_s + sc_s) / pair_s : 0);
    NoteStore(MemoStore::Global(), &layers);
    pass.layers = layers.Finish();
    return pass;
  }

 private:
  void Record(size_t i, const vrm::RefinementResult& refinement,
              const vrm::WdrfReport& wdrf, const std::vector<vrm::TxnCheckResult>& txn,
              double ms, PassResult* pass) const {
    const SpecCase& c = SpecCases()[i];
    const std::string chars = VerdictChars(refinement.status, wdrf);
    const bool bounded = refinement.status.truncated || wdrf.truncated;
    pass->states += refinement.rm.stats.states + refinement.sc.stats.states;
    pass->transitions += refinement.rm.stats.transitions + refinement.sc.stats.transitions;
    pass->verdicts += std::string(c.name) + ":" + chars + (bounded ? "b" : "") +
                      " rm_only=" + std::to_string(refinement.rm_only.size()) + " txn=";
    for (const vrm::TxnCheckResult& r : txn) {
      pass->verdicts += r.transactional ? 'T' : 'N';
    }
    pass->verdicts += "\n";
    const std::string problem = CheckSpecVerdict(c, specs_[i], chars);
    if (!problem.empty()) {
      pass->problems.push_back(problem);
    }
    pass->samples.push_back(Sample{ms, !bounded, problem.empty()});
  }

  std::vector<vrm::KernelSpec> specs_;
};

// ---------------------------------------------------------------------------
// litmus_corpus: one RunLitmusBatch call over DefaultLitmusSuite() plus a
// seeded corpus::RandomProgram set, as the repository's callers submit a
// suite. The batch reports no per-entry time, so each input's verdict time is
// its share of the call's wall (wall / inputs).

// Pinned RM ⊆ SC verdicts of the suite's named tests: the relaxed outcome is
// RM-only exactly for the plain (or half-fenced) classics in
// tests/litmus/classics_test.cc, and every buggy paper example has RM-only
// behaviour (tests/litmus/paper_examples_test.cc AllExamples,
// tests/vrm/refinement_test.cc).
const std::map<std::string, bool>& SuiteRefines() {
  static const std::map<std::string, bool> pins = {
      {"SB+plain", false},     {"SB+dmb", true},          {"SB+rel+acq", true},
      {"MP+plain+plain", false}, {"MP+dmb+addr", true},   {"MP+dmb+acqrel", true},
      {"LB+plain", false},     {"LB+data", true},         {"CoRR", true},
      {"CoWW", true},          {"2+2W+plain", false},     {"2+2W+dmb", true},
      {"S+plain", false},      {"WRC+dmb+addr", true},    {"IRIW+plain", false},
      {"IRIW+dmb", true},      {"example1", false},       {"example1-fixed", true},
      {"example3", false},     {"example4", false},       {"example5", false},
      {"example6", false},     {"example7", false},
  };
  return pins;
}

class LitmusCorpus : public Workload {
 public:
  void Setup(uint64_t) override {
    suite_ = vrm::DefaultLitmusSuite();
    pinned_ = suite_.size();
    for (uint64_t seed = 0; seed < kCorpusPrograms; ++seed) {
      suite_.push_back(vrm::corpus::RandomProgram(seed, 2 + static_cast<int>(seed % 2)));
    }
  }

  void RunFirstInput() override {
    MemoStore::Global().Clear();
    (void)vrm::RunLitmusBatch({suite_.front()}, kWorkers);
  }

  PassResult Run() override {
    PassResult pass;
    MemoStore::Global().Clear();
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    const vrm::BatchResult result = vrm::RunLitmusBatch(suite_, kWorkers);
    const double ms = Ms(t0) / static_cast<double>(suite_.size());
    const double cpu_ms = CpuMs(cpu0) / static_cast<double>(suite_.size());
    for (const vrm::BatchEntry& entry : result.entries) {
      Record(entry.test.program.name, entry.status, entry.sc, entry.rm, ms, &pass);
      pass.samples.back().cpu_ms = cpu_ms;
    }
    return pass;
  }

  PassResult RunTraced(Spans* spans) override {
    PassResult pass;
    Layers layers;
    ScopedSpan pass_span(spans, "litmus_corpus/pass", "pass", 0);
    MemoStore& store = MemoStore::Global();
    store.Clear();
    const std::vector<LitmusTest>& batch = suite_;
    double busy_s = 0, wall_s = 0;
    {
      ScopedSpan batch_span(spans, "litmus/batch", "litmus", pass_span.id());
      const uint64_t t0 = NowNs();
      // RunLitmusBatch rebuilt: one task per (test, model), heaviest first
      // by the static interleaving estimate, each a sequential walk through
      // the memoized front door.
      std::vector<size_t> order(batch.size() * 2);
      std::vector<uint64_t> cost(order.size());
      for (size_t task = 0; task < order.size(); ++task) {
        order[task] = task;
        const LitmusTest& test = batch[task / 2];
        const uint64_t est = vrm::EstimatedInterleavings(test.program, test.config);
        cost[task] = task % 2 == 0 ? est
                     : est > std::numeric_limits<uint64_t>::max() / 8 ? est
                                                                     : est * 8;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&cost](size_t a, size_t b) { return cost[a] > cost[b]; });
      std::vector<ExploreResult> sc(batch.size()), rm(batch.size());
      std::vector<double> task_s(order.size());
      vrm::ParallelFor(kWorkers, order.size(), [&](size_t idx) {
        const size_t task = order[idx];
        const uint64_t w0 = NowNs();
        ModelConfig config = batch[task / 2].config;
        config.num_threads = 1;
        const bool is_sc = task % 2 == 0;
        ExploreResult& slot = (is_sc ? sc : rm)[task / 2];
        slot = MemoizedMetered(batch[task / 2].program, config,
                               is_sc ? MachineKind::kSc : MachineKind::kPromising, &store,
                               &layers, spans, batch_span.id());
        NoteRequest(slot, &layers);
        task_s[idx] = SecondsSince(w0);
      });
      std::vector<vrm::RefinementJudgement> judgements;
      for (size_t i = 0; i < batch.size(); ++i) {
        const uint64_t j0 = NowNs();
        judgements.push_back(vrm::JudgeRefinement(rm[i], sc[i]));
        layers.Add("vrm.judge_s", SecondsSince(j0));
      }
      wall_s = SecondsSince(t0);
      const double ms = wall_s * 1e3 / static_cast<double>(batch.size());
      for (double s : task_s) busy_s += s;
      for (size_t i = 0; i < batch.size(); ++i) {
        Record(batch[i].program.name, judgements[i].status, sc[i], rm[i], ms, &pass);
      }
    }
    layers.Add("litmus.batch.busy_s", busy_s);
    layers.Add("litmus.batch.utilization", wall_s > 0 ? busy_s / (kWorkers * wall_s) : 0);
    NoteStore(store, &layers);
    pass.layers = layers.Finish();
    return pass;
  }

 private:
  // Inputs are recorded in suite order, so the sample count is the index.
  void Record(const std::string& name, const vrm::Boundedness& status,
              const ExploreResult& sc, const ExploreResult& rm, double ms,
              PassResult* pass) const {
    const bool from_suite = pass->samples.size() < pinned_;
    pass->states += sc.stats.states + rm.stats.states;
    pass->transitions += sc.stats.transitions + rm.stats.transitions;
    pass->verdicts += name + ":" + (status.holds ? "H" : "V") +
                      (status.truncated ? "b" : "") +
                      " rm=" + std::to_string(rm.outcomes.size()) +
                      " sc=" + std::to_string(sc.outcomes.size()) + "\n";
    std::string problem;
    // SC ⊆ RM always (the model-strength order every classic pins).
    if (!sc.stats.truncated && !rm.stats.truncated &&
        !vrm::OutcomesBeyond(sc, rm).empty()) {
      problem = name + ": an SC outcome is not RM-observable";
    }
    if (from_suite) {
      const auto pin = SuiteRefines().find(name);
      if (pin == SuiteRefines().end()) {
        problem = name + ": suite test without a pinned verdict";
      } else if (pin->second != status.holds) {
        problem = name + ": RM ⊆ SC " + (status.holds ? "holds" : "fails") +
                  ", pinned " + (pin->second ? "holds" : "fails");
      }
    }
    if (!problem.empty()) {
      pass->problems.push_back(problem);
    }
    pass->samples.push_back(Sample{ms, !status.truncated, problem.empty()});
  }

  std::vector<LitmusTest> suite_;
  size_t pinned_ = 0;  // suite_[0, pinned_) is DefaultLitmusSuite()
};

// ---------------------------------------------------------------------------
// fuzz_campaign: one-program fuzz::RunFuzz campaigns, master seeds
// 1..kFuzzInputs, on the default swarm population with every walk capped at
// kFuzzMaxStates.

// The battery's memo traffic and state total as the traced pass replays
// them from outside (see ReplayBatteryWalks).
struct BatteryReplay {
  bool complete = true;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t requests = 0;
  uint64_t baseline_states = 0;    // the first two requests (RM, then SC, at por)
  uint64_t sequential_states = 0;  // per request, as the battery counts them
  uint64_t parallel_states = 0;
};

class FuzzCampaign : public Workload {
 public:
  // RunFuzz generates each program itself; the inputs are the master seeds.
  void Setup(uint64_t) override {
    population_ = vrm::fuzz::DefaultSwarmPopulation();
    for (vrm::fuzz::SwarmConfig& config : population_) {
      config.max_states = std::min(config.max_states, kFuzzMaxStates);
    }
  }

  void RunFirstInput() override {
    MemoStore::Global().Clear();
    (void)vrm::fuzz::RunFuzz(Options(0));
  }

  PassResult Run() override {
    PassResult pass;
    MemoStore::Global().Clear();
    for (size_t i = 0; i < kFuzzInputs; ++i) {
      const double cpu0 = ProcessCpuSeconds();
      const uint64_t t0 = NowNs();
      const vrm::fuzz::FuzzReport report = vrm::fuzz::RunFuzz(Options(i));
      const double ms = Ms(t0);
      const double cpu_ms = CpuMs(cpu0);
      std::string problem;
      if (!report.artifacts.empty()) {
        const vrm::fuzz::OracleFailure& f = report.artifacts.front().failure;
        problem = std::string(vrm::fuzz::OracleName(f.oracle)) + ": " + f.detail;
      } else if (report.programs_run != 1) {
        problem = "campaign ran " + std::to_string(report.programs_run) + " programs";
      }
      Record(i, report.programs_complete == 1, report.states_explored, report.memo_hits,
             report.memo_misses, problem, ms, &pass);
      pass.samples.back().cpu_ms = cpu_ms;
    }
    return pass;
  }

  PassResult RunTraced(Spans* spans) override {
    PassResult pass;
    Layers layers;
    ScopedSpan pass_span(spans, "fuzz_campaign/pass", "pass", 0);
    MemoStore::Global().Clear();
    std::unordered_set<uint64_t> signatures;
    std::vector<LitmusTest> programs;
    std::vector<vrm::fuzz::BatteryResult> batteries;
    for (size_t i = 0; i < kFuzzInputs; ++i) {
      ScopedSpan input(spans, "fuzz/program", "input", pass_span.id());
      const uint64_t t0 = NowNs();
      // RunFuzz with programs = 1, rebuilt: the first swarm pick of a fresh
      // population, its program, one battery on a campaign-local store.
      vrm::Rng rng(Options(i).master_seed);
      const size_t pick = rng.Below(population_.size());
      const uint64_t program_seed = rng.Next();
      const uint64_t g0 = NowNs();
      LitmusTest test = vrm::fuzz::GenerateProgram(program_seed, population_[pick]);
      layers.Add("fuzz.generate_s", SecondsSince(g0));
      MemoStore store(kFuzzMemoBytes);
      vrm::fuzz::OracleOptions oracles = Oracles(i);
      oracles.memo = &store;
      vrm::fuzz::BatteryResult battery;
      {
        ScopedSpan span(spans, "fuzz/battery", "fuzz", input.id());
        const uint64_t b0 = NowNs();
        battery = vrm::fuzz::RunOracleBattery(test, oracles);
        layers.Add("fuzz.battery_s", SecondsSince(b0));
      }
      const double ms = Ms(t0);
      layers.Add("memo.hits", static_cast<double>(battery.memo_hits));
      layers.Add("memo.misses", static_cast<double>(battery.memo_misses));
      NoteStore(store, &layers);
      if (battery.complete) {
        signatures.insert(vrm::fuzz::CoverageSignature(battery.coverage));
      }
      std::string problem;
      if (!battery.failures.empty()) {
        const vrm::fuzz::OracleFailure& f = battery.failures.front();
        problem = std::string(vrm::fuzz::OracleName(f.oracle)) + ": " + f.detail;
      }
      Record(i, battery.complete, battery.states_explored, battery.memo_hits,
             battery.memo_misses, problem, ms, &pass);
      programs.push_back(std::move(test));
      batteries.push_back(std::move(battery));
    }
    layers.Add("fuzz.coverage_signatures", static_cast<double>(signatures.size()));

    // Attribution replays of every kFuzzReplayStride-th program: work the
    // battery does internally, repeated from outside so it can be split (one
    // battery per single-oracle mask, no store; then the battery's walks,
    // metered). Not part of the replicated pass, and timed apart from it.
    const uint64_t r0 = NowNs();
    for (size_t i = 0; i < programs.size(); i += kFuzzReplayStride) {
      ScopedSpan input(spans, "fuzz/replay", "replay", pass_span.id());
      uint64_t fused_states = 0;
      bool singles_complete = true;
      for (uint32_t id = 0; id <= static_cast<uint32_t>(vrm::fuzz::OracleId::kWalkContainment);
           ++id) {
        const auto oracle = static_cast<vrm::fuzz::OracleId>(id);
        vrm::fuzz::OracleOptions single = Oracles(i);
        single.mask = 1u << id;
        MemoStore::Global().Clear();
        ScopedSpan span(spans, std::string("fuzz/oracle/") + vrm::fuzz::OracleName(oracle),
                        "fuzz", input.id());
        const uint64_t o0 = NowNs();
        const vrm::fuzz::BatteryResult one = vrm::fuzz::RunOracleBattery(programs[i], single);
        layers.Add(std::string("fuzz.oracle.") + vrm::fuzz::OracleName(oracle) + "_s",
                   SecondsSince(o0));
        singles_complete = singles_complete && one.complete;
        if (oracle == vrm::fuzz::OracleId::kFusedEngine) {
          fused_states = one.states_explored;
        }
      }
      const BatteryReplay replay = ReplayBatteryWalks(programs[i], &layers, spans, input.id());
      if (batteries[i].complete && singles_complete) {
        const std::string drift = ReplayDrift(batteries[i], replay, fused_states);
        if (!drift.empty()) {
          pass.replay_drift.push_back("program " + std::to_string(i) + ": " + drift);
        }
      }
    }
    pass.replay_s = SecondsSince(r0);
    pass.layers = layers.Finish();
    return pass;
  }

 private:
  vrm::fuzz::FuzzOptions Options(size_t i) const {
    vrm::fuzz::FuzzOptions options;
    options.master_seed = i + 1;
    options.programs = 1;
    options.max_failures = 1;
    options.fixed_monitor_variant = static_cast<int>(i % 4);
    options.memo_bytes = kFuzzMemoBytes;
    options.population = population_;
    return options;
  }

  vrm::fuzz::OracleOptions Oracles(size_t i) const {
    const vrm::fuzz::FuzzOptions options = Options(i);
    vrm::fuzz::OracleOptions oracles;
    oracles.mask = options.oracle_mask;
    oracles.walk_seeds = options.walk_seeds;
    oracles.monitor_variant = options.fixed_monitor_variant;
    oracles.fault = options.fault;
    return oracles;
  }

  // The battery's sequential walk requests in its own order (baseline,
  // model-strength, reduction-invariance, parallel-determinism,
  // walk-containment), through a replay store, plus the parallel walks at
  // 2 and 4 workers; stops where the battery would, at a truncated walk.
  // This mirrors RunOracleBattery's internals; ReplayDrift checks it still
  // does.
  static BatteryReplay ReplayBatteryWalks(const LitmusTest& test, Layers* layers,
                                          Spans* spans, uint64_t parent) {
    MemoStore store(kFuzzMemoBytes);
    BatteryReplay replay;
    auto fetch = [&](MachineKind kind, Reduction reduction) {
      if (!replay.complete) return;
      ModelConfig config = test.config;
      config.reduction = reduction;
      config.num_threads = 1;
      const ExploreResult walk =
          MemoizedMetered(test.program, config, kind, &store, layers, spans, parent);
      replay.memo_hits += walk.stats.memo_hits;
      replay.memo_misses += walk.stats.memo_misses;
      replay.sequential_states += walk.stats.states;
      if (++replay.requests <= 2) {
        replay.baseline_states += walk.stats.states;
      }
      replay.complete = !walk.stats.truncated;
    };
    fetch(MachineKind::kPromising, Reduction::kPor);
    fetch(MachineKind::kSc, Reduction::kPor);
    fetch(MachineKind::kSc, Reduction::kPor);
    fetch(MachineKind::kTso, Reduction::kPor);
    fetch(MachineKind::kPromising, Reduction::kPor);
    for (MachineKind kind : {MachineKind::kSc, MachineKind::kPromising}) {
      for (Reduction r : {Reduction::kNone, Reduction::kPor, Reduction::kPorSymmetry}) {
        fetch(kind, r);
      }
    }
    fetch(MachineKind::kSc, Reduction::kPor);
    fetch(MachineKind::kPromising, Reduction::kPor);
    if (replay.complete) {
      ModelConfig config = test.config;
      config.reduction = Reduction::kPor;
      config.num_threads = 1;
      for (int workers : {2, 4}) {
        ScopedSpan span(spans, "walk/parallel", "model", parent);
        replay.parallel_states +=
            MeteredExplore<vrm::ScMachine>(test.program, config, layers, workers).stats.states;
        replay.parallel_states +=
            MeteredExplore<vrm::PromisingMachine>(test.program, config, layers, workers)
                .stats.states;
      }
    }
    fetch(MachineKind::kPromising, Reduction::kPor);
    return replay;
  }

  // Empty when the replay made the battery's memo requests and reached its
  // state total, else what differs. A complete battery's states are its
  // requests' states, the parallel walks' and the fused-engine oracle's; the
  // last is a fused-only battery's total less its two baseline requests.
  static std::string ReplayDrift(const vrm::fuzz::BatteryResult& battery,
                                 const BatteryReplay& replay, uint64_t fused_only_states) {
    if (!replay.complete) {
      return "replay truncated where the battery completed";
    }
    if (replay.memo_hits != battery.memo_hits || replay.memo_misses != battery.memo_misses) {
      return "replay memo hits/misses " + std::to_string(replay.memo_hits) + "/" +
             std::to_string(replay.memo_misses) + " vs battery " +
             std::to_string(battery.memo_hits) + "/" + std::to_string(battery.memo_misses);
    }
    const uint64_t expected = replay.sequential_states + replay.parallel_states +
                              fused_only_states - replay.baseline_states;
    if (expected != battery.states_explored) {
      return "replay states " + std::to_string(expected) + " vs battery " +
             std::to_string(battery.states_explored);
    }
    return "";
  }

  static void Record(size_t i, bool complete, uint64_t states, uint64_t memo_hits,
                     uint64_t memo_misses, const std::string& problem, double ms,
                     PassResult* pass) {
    pass->states += states;
    pass->verdicts += "program " + std::to_string(i) + ":" +
                      (complete ? "complete" : "bounded") +
                      (problem.empty() ? " clean" : " FAIL") +
                      " states=" + std::to_string(states) +
                      " memo=" + std::to_string(memo_hits) + "/" +
                      std::to_string(memo_hits + memo_misses) + "\n";
    if (!problem.empty()) {
      pass->problems.push_back("program " + std::to_string(i) + ": " + problem);
    }
    pass->samples.push_back(Sample{ms, complete, problem.empty()});
  }

  std::vector<vrm::fuzz::SwarmConfig> population_;
};

// ---------------------------------------------------------------------------
// ticket_lock_walk: the Figure 7 ticket lock (Example 2, fixed), deep
// Promising walks at por and por+symmetry, 1 and 4 workers.

struct WalkCase {
  const char* name;
  Reduction reduction;
  int workers;
};

constexpr WalkCase kWalkCases[] = {
    {"por+symmetry/4w", Reduction::kPorSymmetry, kWorkers},
    {"por+symmetry/1w", Reduction::kPorSymmetry, 1},
    {"por/4w", Reduction::kPor, kWorkers},
    {"por/1w", Reduction::kPor, 1},
};

class TicketLockWalk : public Workload {
 public:
  void Setup(uint64_t) override { test_ = vrm::Example2VmBooting(/*fixed=*/true); }

  void RunFirstInput() override {
    const ModelConfig config = Config(kWalkCases[0]);
    vrm::PromisingMachine machine(test_.program, config);
    (void)vrm::Explore(machine, config);
  }

  PassResult Run() override {
    PassResult pass;
    for (const WalkCase& c : kWalkCases) {
      const ModelConfig config = Config(c);
      const double cpu0 = ProcessCpuSeconds();
      const uint64_t t0 = NowNs();
      vrm::PromisingMachine machine(test_.program, config);
      const ExploreResult result = vrm::Explore(machine, config);
      const double ms = Ms(t0);
      const double cpu_ms = CpuMs(cpu0);
      Record(c, result, ms, &pass);
      pass.samples.back().cpu_ms = cpu_ms;
    }
    return pass;
  }

  PassResult RunTraced(Spans* spans) override {
    PassResult pass;
    Layers layers;
    ScopedSpan pass_span(spans, "ticket_lock_walk/pass", "pass", 0);
    for (const WalkCase& c : kWalkCases) {
      ScopedSpan input(spans, c.name, "input", pass_span.id());
      const ModelConfig config = Config(c);
      const uint64_t t0 = NowNs();
      const ExploreResult result =
          MeteredExplore<vrm::PromisingMachine>(test_.program, config, &layers);
      Record(c, result, Ms(t0), &pass);
    }
    pass.layers = layers.Finish();
    return pass;
  }

 private:
  ModelConfig Config(const WalkCase& c) const {
    ModelConfig config = test_.config;
    config.reduction = c.reduction;
    config.num_threads = c.workers;
    return config;
  }

  // Known answer (tests/litmus/paper_examples_test.cc Figure7LockIsCorrectOnRm):
  // every RM execution hands out the distinct vmids 0 and 1. Every walk must
  // also find the same outcome set (reduction and worker-count invariance).
  void Record(const WalkCase& c, const ExploreResult& result, double ms,
              PassResult* pass) {
    std::set<std::string> keys;
    bool unique_vmids = !result.outcomes.empty();
    for (const auto& [key, outcome] : result.outcomes) {
      keys.insert(key);
      unique_vmids = unique_vmids && outcome.regs[0] != outcome.regs[1] &&
                     outcome.regs[0] + outcome.regs[1] == 1;
    }
    std::string problem;
    if (!unique_vmids) {
      problem = std::string(c.name) + ": duplicate vmids or no outcome";
    } else if (c.name == kWalkCases[0].name) {
      reference_keys_ = keys;
    } else if (keys != reference_keys_) {
      problem = std::string(c.name) + ": outcome set differs from " + kWalkCases[0].name;
    }
    pass->states += result.stats.states;
    pass->transitions += result.stats.transitions;
    pass->verdicts += std::string(c.name) + ": outcomes=" + std::to_string(keys.size()) +
                      (result.stats.truncated ? " bounded" : "") +
                      (unique_vmids ? " unique-vmids" : " DUPLICATE") + "\n";
    if (!problem.empty()) {
      pass->problems.push_back(problem);
    }
    pass->samples.push_back(Sample{ms, !result.stats.truncated, problem.empty()});
  }

  LitmusTest test_;
  std::set<std::string> reference_keys_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sekvm_verify") return std::make_unique<SekvmVerify>();
  if (name == "litmus_corpus") return std::make_unique<LitmusCorpus>();
  if (name == "fuzz_campaign") return std::make_unique<FuzzCampaign>();
  if (name == "ticket_lock_walk") return std::make_unique<TicketLockWalk>();
  return nullptr;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "model.promising.successors_s", "model.promising.successors_calls",
        "model.sc.successors_s",        "model.sc.successors_calls",
        "model.tso.successors_s",       "model.tso.successors_calls",
        "model.digest_s",               "model.digest_bytes",
        "model.symmetry.canonical_s",   "model.symmetry.canonical_calls",
        "model.machine_build_s",        "model.explore.self_s",
        "model.parallel.efficiency",    "model.steals",
        "model.states",                 "model.transitions",
        "model.dedup_ratio",            "model.states_pruned",
        "model.ample_hits",             "model.mean_state_bytes",
        "model.state_allocs",           "model.peak_frontier",
        "engine.rm_walk_s",             "engine.sc_walk_s",
        "engine.overlap",               "engine.txn_pt_s",
    };
    const vrm::WdrfPassSet passes{vrm::KernelSpec{}};
    for (const vrm::EnginePass* pass : passes.passes()) {
      n.push_back(std::string("engine.pass.") + pass->Name() + "_s");
    }
    for (const char* name :
         {"memo.hit_s", "memo.miss_s", "memo.insert_s", "memo.hit_rate", "memo.hits",
          "memo.misses", "memo.bytes", "memo.evictions", "arch.program_digest_s",
          "litmus.batch.busy_s", "litmus.batch.utilization", "fuzz.generate_s",
          "fuzz.battery_s"}) {
      n.push_back(name);
    }
    for (uint32_t id = 0; id <= static_cast<uint32_t>(vrm::fuzz::OracleId::kWalkContainment);
         ++id) {
      n.push_back(std::string("fuzz.oracle.") +
                  vrm::fuzz::OracleName(static_cast<vrm::fuzz::OracleId>(id)) + "_s");
    }
    n.push_back("fuzz.coverage_signatures");
    n.push_back("vrm.judge_s");
    return n;
  }();
  return names;
}

}  // namespace perfbench
