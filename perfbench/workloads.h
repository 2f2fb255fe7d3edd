/// \file workloads.h
/// The benchmark's workloads. README.md in this directory says why each one
/// exists, which layer does most and least work in it, and which
/// end-to-end metric each per-layer metric should move.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"
#include "tracer.h"

namespace perfbench {

/// The workload seed the pinned expected values belong to.
inline constexpr std::uint64_t kDefaultSeed = 7;

/// Command line of one run (see main.cpp for the flags).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Negative control: every expected digest is flipped, so a correct
  /// program must fail the run.
  bool flipExpected = false;
  std::string outDir;  ///< trace file and per-layer table land here
};

/// `top` through the LR CPR flow at 4 threads and at 1 thread.
[[nodiscard]] Outcome runChipTop(const RunOptions& opts, Tracer& tracer);

/// `ecc`-sized designs in narrow dies through the CPR flow with the generic
/// ILP pin access solver, at 4 threads and at 1 thread.
[[nodiscard]] Outcome runPaoGeneric(const RunOptions& opts, Tracer& tracer);

/// Closed-loop service traffic against an in-process `serve::Server`.
[[nodiscard]] Outcome runServeMix(const RunOptions& opts, Tracer& tracer);

}  // namespace perfbench
