// Shared plumbing for the experiment-reproduction harnesses.
//
// Every harness prints the rows/series of one paper table or figure.
// Default parameters are scaled down so the whole `bench/` directory
// runs in minutes on a laptop; set GMARK_FULL=1 to restore paper-scale
// sweeps, or GMARK_SIZES=a,b,c to choose graph sizes explicitly.

#ifndef GMARK_BENCH_BENCH_UTIL_H_
#define GMARK_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace gmark {
namespace bench {

/// \brief True when GMARK_FULL=1: paper-scale parameters.
inline bool FullMode() {
  const char* v = std::getenv("GMARK_FULL");
  return v != nullptr && std::string(v) == "1";
}

/// \brief True when GMARK_SMOKE=1: tiny parameters for CI smoke runs.
inline bool SmokeMode() {
  const char* v = std::getenv("GMARK_SMOKE");
  return v != nullptr && std::string(v) == "1";
}

/// \brief Thread counts: GMARK_THREADS=a,b,c override, else `defaults`.
inline std::vector<int> ThreadCounts(std::vector<int> defaults = {1, 2, 4,
                                                                  8}) {
  if (const char* env = std::getenv("GMARK_THREADS")) {
    std::vector<int> out;
    for (const std::string& part : Split(env, ',')) {
      auto v = ParseInt(part);
      if (v.ok() && v.ValueOrDie() > 0) {
        out.push_back(static_cast<int>(v.ValueOrDie()));
      }
    }
    if (!out.empty()) return out;
  }
  return defaults;
}

/// \brief Graph sizes: GMARK_SIZES override, else full/small defaults.
inline std::vector<int64_t> Sizes(std::vector<int64_t> small_defaults,
                                  std::vector<int64_t> full_defaults) {
  if (const char* env = std::getenv("GMARK_SIZES")) {
    std::vector<int64_t> out;
    for (const std::string& part : Split(env, ',')) {
      auto v = ParseInt(part);
      if (v.ok()) out.push_back(v.ValueOrDie());
    }
    if (!out.empty()) return out;
  }
  return FullMode() ? full_defaults : small_defaults;
}

/// \brief Queries per generated workload (paper: 30 = 10 per class).
inline size_t QueriesPerWorkload() {
  if (const char* env = std::getenv("GMARK_QUERIES")) {
    auto v = ParseInt(env);
    if (v.ok() && v.ValueOrDie() > 0) {
      return static_cast<size_t>(v.ValueOrDie());
    }
  }
  return FullMode() ? 30 : 12;
}

/// \brief Banner naming the experiment and its paper anchor.
inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("mode: %s (GMARK_FULL=1 for paper-scale sweeps)\n",
              FullMode() ? "FULL" : "scaled-down");
  std::printf("==============================================================="
              "=\n");
}

}  // namespace bench
}  // namespace gmark

#endif  // GMARK_BENCH_BENCH_UTIL_H_
