// The benchmark's four workloads. Each one drives a user entry point
// (VerifyKernel, RunLitmusBatch, fuzz::RunFuzz, Explore on a deep Promising
// walk) in its untraced pass, and rebuilds the same work from the layers'
// public functions in its traced pass, with every machine behind Metered<M>
// and every engine pass behind TimedPass. See perfbench/README.md.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/meter.h"

namespace perfbench {

// One input's time to verdict and how its verdict compared.
struct Sample {
  double ms = 0;
  bool definitive = true;  // decided exhaustively, not [bounded-*]
  bool agrees = true;      // matches the known answer; no oracle disagreement
  double cpu_ms = 0;       // process CPU time; set by untraced passes only
};

struct PassResult {
  uint64_t states = 0;       // total states the pass explored
  uint64_t transitions = 0;  // 0 where the entry point does not report them
  std::vector<Sample> samples;
  std::string verdicts;               // canonical verdict vector of the pass
  std::vector<std::string> problems;  // why inputs disagreed
  // Traced passes only.
  std::map<std::string, double> layers;
  double replay_s = 0;  // attribution replays beyond the replicated work
  // Where an attribution replay no longer matches the code it mirrors; any
  // entry makes the run inconsistent.
  std::vector<std::string> replay_drift;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs from the seed (specs, corpus, fuzz master seeds).
  virtual void Setup(uint64_t seed) = 0;
  // Runs the first input once: the process warm-up counted in setup_s.
  virtual void RunFirstInput() = 0;
  // One cold pass over every input through the user entry point.
  virtual PassResult Run() = 0;
  // The same work rebuilt from the layers' public functions, metered.
  virtual PassResult RunTraced(Spans* spans) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Every per-layer metric a traced pass reports, in BENCHMARK.json order.
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
