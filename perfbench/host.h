// Host fingerprint and process resource probes for the end-to-end benchmark.
//
// Every report carries the fingerprint (CPU count, CPU model, compiler, build
// type, benchmark seed) so timings are never compared across hosts or builds;
// compare.py refuses to. RecordableBuild() refuses anything but an optimized,
// unsanitized Release build.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HostFingerprint {
  int cpus = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool sanitized = false;
  bool assertions = false;  // NDEBUG unset
};

HostFingerprint ReadHost();

// Empty when the build may be recorded, else the reason it may not.
std::string UnrecordableReason(const HostFingerprint& host);

// {"cpus": .., "cpu_model": .., "compiler": .., "build_type": .., "seed": ..}
std::string HostJson(const HostFingerprint& host, uint64_t seed);

// Process user+sys CPU seconds so far (getrusage RUSAGE_SELF).
double ProcessCpuSeconds();

// Peak resident set size of the process in MiB (VmHWM).
double PeakRssMb();

// JSON string literal with the minimal escaping the report needs.
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
