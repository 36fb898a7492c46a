#include "perfbench/host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

HostFingerprint ReadHost() {
  HostFingerprint host;
  host.cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  host.cpu_model = CpuModel();
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.sanitized = Sanitized();
#ifdef NDEBUG
  host.assertions = false;
#else
  host.assertions = true;
#endif
  return host;
}

std::string UnrecordableReason(const HostFingerprint& host) {
  if (host.build_type != "Release") {
    return "build type is '" + host.build_type + "', not Release";
  }
  if (host.sanitized) {
    return "sanitized build";
  }
  if (host.assertions) {
    return "assertions enabled (NDEBUG unset)";
  }
  return "";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string HostJson(const HostFingerprint& host, uint64_t seed) {
  return "{\"cpus\": " + std::to_string(host.cpus) +
         ", \"cpu_model\": " + JsonString(host.cpu_model) +
         ", \"compiler\": " + JsonString(host.compiler) +
         ", \"build_type\": " + JsonString(host.build_type) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss also counts
  // the pre-exec image of the forked launcher (a Python interpreter here).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace perfbench
