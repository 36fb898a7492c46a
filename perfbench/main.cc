// perfbench_e2e: runs one workload for a fixed wall time and prints one JSON
// report line with raw samples (perfbench/run.py turns it into metrics).
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <chrome-trace.json>]
//
// Untraced (--trace 0): setup, timed several times (each repeat builds the
// inputs and runs the first one, which also warms the process up), then cold
// passes through the user entry points for --seconds. Traced (--trace 1):
// untraced and traced passes alternate, so the tracing overhead is the
// difference of their walls. Every pass must reproduce the first pass's
// verdicts, states and transitions exactly.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/host.h"
#include "perfbench/meter.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Set-up repeats: at least kSetupMinRepeats, and more while they have taken
// under kSetupMinSeconds in all, so a set-up of a millisecond still yields a
// steady median.
constexpr size_t kSetupMinRepeats = 21;
constexpr size_t kSetupMaxRepeats = 1001;
constexpr double kSetupMinSeconds = 0.5;
constexpr size_t kMaxProblemsReported = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

// Run-wide tallies of the checks every measured pass goes through.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t definitive = 0;
  std::vector<std::vector<double>> verdict_ms;      // per untraced pass
  std::vector<std::vector<double>> verdict_cpu_ms;  // per untraced pass
  std::vector<std::string> problems;
  bool consistent = true;  // every pass reproduced the reference

  void Check(const PassResult& reference, const PassResult& pass, const char* kind) {
    if (pass.verdicts != reference.verdicts || pass.states != reference.states ||
        pass.transitions != reference.transitions) {
      consistent = false;
      Note(std::string(kind) + " pass diverged from the reference: states " +
           std::to_string(pass.states) + " vs " + std::to_string(reference.states) +
           ", transitions " + std::to_string(pass.transitions) + " vs " +
           std::to_string(reference.transitions) +
           (pass.verdicts != reference.verdicts ? ", verdicts differ" : ""));
    }
    for (const Sample& s : pass.samples) {
      ++attempted;
      failed += s.agrees ? 0 : 1;
      definitive += s.definitive ? 1 : 0;
    }
    for (const std::string& p : pass.problems) {
      Note(p);
    }
    for (const std::string& p : pass.replay_drift) {
      consistent = false;
      Note(p);
    }
  }
  void Note(const std::string& problem) {
    if (problems.size() < kMaxProblemsReported) {
      problems.push_back(problem);
    }
  }
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const HostFingerprint host = ReadHost();
  const std::string unrecordable = UnrecordableReason(host);
  if (!unrecordable.empty()) {
    std::fprintf(stderr, "perfbench: refusing to record: %s\n", unrecordable.c_str());
    return 3;
  }
  if (MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up: build the inputs from the seed and run the first one, repeated
  // on fresh workload objects; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const uint64_t setup0 = NowNs();
  while (setup_s.size() < kSetupMinRepeats ||
         (SecondsSince(setup0) < kSetupMinSeconds && setup_s.size() < kSetupMaxRepeats)) {
    const uint64_t t0 = NowNs();
    workload = MakeWorkload(args.workload);
    workload->Setup(args.seed);
    workload->RunFirstInput();
    setup_s.push_back(SecondsSince(t0));
  }

  // Measured passes. The first untraced pass is the reference every later
  // pass (untraced or traced) must reproduce exactly. A further iteration
  // starts only while the last one would still fit in --seconds.
  Tally tally;
  PassResult reference;
  bool have_reference = false;
  std::vector<double> wall_s, traced_wall_s, replay_s;
  std::vector<std::string> layer_rows;
  Spans spans;
  const uint64_t start = NowNs();
  double iteration_s = 0;
  do {
    const uint64_t iteration0 = NowNs();
    const uint64_t t0 = NowNs();
    PassResult pass = workload->Run();
    wall_s.push_back(SecondsSince(t0));
    tally.verdict_ms.emplace_back();
    tally.verdict_cpu_ms.emplace_back();
    for (const Sample& s : pass.samples) {
      tally.verdict_ms.back().push_back(s.ms);
      tally.verdict_cpu_ms.back().push_back(s.cpu_ms);
    }
    if (!have_reference) {
      reference = std::move(pass);
      have_reference = true;
      tally.Check(reference, reference, "untraced");
    } else {
      tally.Check(reference, pass, "untraced");
    }
    if (args.trace) {
      const uint64_t traced0 = NowNs();
      const PassResult traced = workload->RunTraced(&spans);
      traced_wall_s.push_back(SecondsSince(traced0) - traced.replay_s);
      replay_s.push_back(traced.replay_s);
      tally.Check(reference, traced, "traced");
      std::string row = "{";
      for (const std::string& name : PerLayerMetricNames()) {
        const auto it = traced.layers.find(name);
        row += (row.size() > 1 ? ", " : "") + JsonString(name) + ": " +
               Num(it == traced.layers.end() ? 0.0 : it->second);
      }
      layer_rows.push_back(row + "}");
    }
    iteration_s = SecondsSince(iteration0);
  } while (SecondsSince(start) + iteration_s <= args.seconds);

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << spans.ChromeJson(HostJson(host, args.seed));
  }

  std::string verdict_ms, verdict_cpu_ms;
  for (size_t i = 0; i < tally.verdict_ms.size(); ++i) {
    verdict_ms += (i ? ", " : "") + NumList(tally.verdict_ms[i]);
    verdict_cpu_ms += (i ? ", " : "") + NumList(tally.verdict_cpu_ms[i]);
  }
  std::string report = "{\"workload\": " + JsonString(args.workload) +
                       ", \"host\": " + HostJson(host, args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"setup_s\": " + NumList(setup_s) +
                       ", \"pass_wall_s\": " + NumList(wall_s) +
                       ", \"pass_states\": " + std::to_string(reference.states) +
                       ", \"pass_transitions\": " + std::to_string(reference.transitions) +
                       ", \"verdict_ms\": [" + verdict_ms + "]" +
                       ", \"verdict_cpu_ms\": [" + verdict_cpu_ms + "]" +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"definitive\": " + std::to_string(tally.definitive) +
                       ", \"consistent\": " + (tally.consistent ? "true" : "false") +
                       ", \"peak_rss_mb\": " + Num(PeakRssMb()) +
                       ", \"verdicts\": " + JsonString(reference.verdicts) +
                       ", \"traced_wall_s\": " + NumList(traced_wall_s) +
                       ", \"replay_s\": " + NumList(replay_s) + ", \"layers\": [";
  for (size_t i = 0; i < layer_rows.size(); ++i) {
    report += (i ? ", " : "") + layer_rows[i];
  }
  report += "], \"problems\": [";
  for (size_t i = 0; i < tally.problems.size(); ++i) {
    report += (i ? ", " : "") + JsonString(tally.problems[i]);
  }
  report += "]}";
  std::printf("%s\n", report.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
