// pipeline_bench: runs one benchmark workload and prints its metrics.
//
//   pipeline_bench --workload chip_top|pao_generic|serve_mix --seed N
//                  --seconds S --trace 0|1 --out-dir DIR [--flip-expected]
//
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) prints the per-layer metrics, writes the Chrome trace and
// the per-layer table to DIR, and reports the tracing overhead. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output is correct, 1 on any mismatch, 2 on a
// bad command line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

int usage(const char* why) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload "
               "chip_top|pao_generic|serve_mix --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--flip-expected]\n",
               why);
  return 2;
}

std::string number(double v) {
  // Every digit as measured; JSON has no infinity, so a failed job's
  // "slower than anything" latency prints as the largest double.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g",
                std::isfinite(v) ? v : 1.7976931348623157e308);
  return buf;
}

std::string resultJson(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.attempted - out.ok);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, m] = out.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flip-expected") {
      opts.flipExpected = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(opts.seconds > 0.0))
        return usage("--seconds wants a positive number");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace wants 0 or 1");
      opts.trace = val == "1";
      haveTrace = true;
    } else if (arg == "--out-dir") {
      opts.outDir = val;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!haveTrace || opts.outDir.empty())
    return usage("--trace and --out-dir are required");

  perfbench::Tracer tracer(opts.trace, opts.workload);
  Outcome out;
  if (opts.workload == "chip_top") {
    out = perfbench::runChipTop(opts, tracer);
  } else if (opts.workload == "pao_generic") {
    out = perfbench::runPaoGeneric(opts, tracer);
  } else if (opts.workload == "serve_mix") {
    out = perfbench::runServeMix(opts, tracer);
  } else {
    return usage(("unknown workload " + opts.workload).c_str());
  }
  // ok_frac is end-to-end; the traced run reports per-layer metrics only.
  if (!opts.trace) out.set("ok_frac", out.okFrac(), "ratio");

  const std::string tag =
      opts.workload + "-seed" + std::to_string(opts.seed);
  std::string table;
  char line[160];
  std::snprintf(line, sizeof line, "%s seed %llu (%s run)\n",
                opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                opts.trace ? "traced" : "untraced");
  table += line;
  for (const std::string& info : out.info) table += "  " + info + "\n";
  for (const auto& [name, m] : out.metrics) {
    std::snprintf(line, sizeof line, "  %-28s %18.6f %s\n", name.c_str(),
                  m.value, m.unit.c_str());
    table += line;
  }
  std::snprintf(line, sizeof line, "  ok %ld of %ld attempted\n", out.ok,
                out.attempted);
  table += line;
  for (const std::string& what : out.mismatches)
    table += "  MISMATCH " + what + "\n";
  std::fputs(table.c_str(), stdout);

  if (opts.trace) {
    const std::string tracePath = opts.outDir + "/trace-" + tag + ".json";
    const std::string tablePath = opts.outDir + "/layers-" + tag + ".txt";
    tracer.writeChromeTrace(tracePath);
    std::ofstream(tablePath) << table;
    std::printf("wrote %s (%zu spans) and %s\n", tracePath.c_str(),
                tracer.size(), tablePath.c_str());
  }
  std::printf("%s\n", resultJson(out).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
