#include "perfbench/meter.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "perfbench/host.h"
#include "src/support/thread_pool.h"

namespace perfbench {

double ClockReadNs() {
  static const double ns = [] {
    constexpr int kReads = 200000;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kReads; ++i) {
      (void)NowNs();
    }
    return static_cast<double>(NowNs() - t0) / kReads;
  }();
  return ns;
}

void Layers::RecordWalk(const char* machine_layer, int workers, double wall_s,
                        const CallCounts& c, const vrm::ExploreStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = std::string("model.") + machine_layer;
  values_[prefix + ".successors_s"] += CorrectedSeconds(c.successors_ns, c.successors_calls);
  values_[prefix + ".successors_calls"] += static_cast<double>(c.successors_calls);
  values_["model.digest_s"] += CorrectedSeconds(c.digest_ns, c.digest_calls);
  values_["model.digest_bytes"] += static_cast<double>(stats.digest_bytes);
  values_["model.symmetry.canonical_s"] += CorrectedSeconds(c.canonical_ns, c.canonical_calls);
  values_["model.symmetry.canonical_calls"] += static_cast<double>(c.canonical_calls);
  values_["model.machine_build_s"] += static_cast<double>(c.build_ns) * 1e-9;
  const uint64_t calls = c.TimedCalls();
  const double machine_s =
      CorrectedSeconds(c.successors_ns + c.digest_ns + c.canonical_ns, calls);
  if (workers <= 1) {
    const double self_s = wall_s - machine_s - 2e-9 * ClockReadNs() * static_cast<double>(calls);
    values_["model.explore.self_s"] += self_s > 0 ? self_s : 0.0;
  } else {
    values_["model.parallel.busy_s"] += machine_s;
    values_["model.parallel.capacity_s"] += workers * wall_s;
  }
  values_["model.steals"] += static_cast<double>(stats.steals);
  values_["model.states"] += static_cast<double>(stats.states);
  values_["model.transitions"] += static_cast<double>(stats.transitions);
  values_["model.states_pruned"] += static_cast<double>(stats.states_pruned);
  values_["model.ample_hits"] += static_cast<double>(stats.ample_hits);
  values_["model.state_allocs"] += static_cast<double>(stats.state_allocs);
  values_["model.state_bytes"] += static_cast<double>(stats.state_bytes);
  values_["model.state_samples"] += static_cast<double>(stats.state_samples);
  double& peak = values_["model.peak_frontier"];
  if (static_cast<double>(stats.peak_frontier) > peak) {
    peak = static_cast<double>(stats.peak_frontier);
  }
}

std::map<std::string, double> Layers::Finish() const {
  std::map<std::string, double> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = values_;
  }
  auto take = [&out](const char* name) {
    const double value = out[name];
    out.erase(name);
    return value;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double busy = take("model.parallel.busy_s");
  const double capacity = take("model.parallel.capacity_s");
  out["model.parallel.efficiency"] = ratio(busy, capacity);
  const double state_bytes = take("model.state_bytes");
  const double state_samples = take("model.state_samples");
  out["model.mean_state_bytes"] = ratio(state_bytes, state_samples);
  out["model.dedup_ratio"] = ratio(out["model.states"], out["model.transitions"]);
  out["memo.hit_rate"] = ratio(out["memo.hits"], out["memo.hits"] + out["memo.misses"]);
  return out;
}

int ExploreWorkers(const vrm::Program& program, const vrm::ModelConfig& config) {
  int workers = vrm::EffectiveThreads(config.num_threads);
  if (workers > 1 &&
      vrm::EstimatedInterleavings(program, config) < vrm::kParallelMinStates) {
    workers = 1;
  }
  return workers;
}

void Spans::Close(uint64_t id, uint64_t parent, std::string name, const char* category,
                  uint64_t start_ns) {
  const uint64_t end_ns = NowNs();
  const uint64_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{std::move(name), category, start_ns, end_ns, id, parent, thread});
}

std::string Spans::ChromeJson(const std::string& host_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) {
    if (s.start_ns < origin) origin = s.start_ns;
  }
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": " +
                    host_json + ", \"dropped_spans\": " + std::to_string(dropped_) +
                    "}, \"traceEvents\": [\n";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<unsigned long long>(s.thread),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out += "{\"name\": " + JsonString(s.name) + ", \"cat\": \"" + s.category + "\", " +
           buf + ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + "}}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  return out + "]}\n";
}

}  // namespace perfbench
