/// \file tracer.h
/// The benchmark's own spans: one per public call it makes into the
/// program, kept in memory and written once, at exit, as a Chrome trace.
///
/// Spans come only from the benchmark's files. Stage splits inside a call
/// (pin access gen/conflict/compile/solve, routing stages) are the spans the
/// program already returns in `PinAccessPlan::stats` / `RoutingResult::stats`;
/// `adopt` copies them under the call span that produced them, so the trace
/// shows them in context without any span being added inside the program.
#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/collector.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Thread-safe span store. A disabled tracer records nothing and every
/// call is a cheap no-op, so the untraced run pays only a branch.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled). `flow` is the job
  /// or flow id every span of one request shares; `parent` is the id of
  /// the span that caused this one (-1 for a root).
  int begin(std::string_view name, std::string_view flow, int parent);
  void end(int id);
  /// Records a span whose ends were timed elsewhere (e.g. from the arrival
  /// times of a job's reply frames); returns its id.
  int record(std::string_view name, std::string_view flow, int parent,
             Clock::time_point start, Clock::time_point end);

  /// Copies the program's own spans from `stats` as children of `parent`,
  /// on lanes named after their collector source (the panel index).
  void adopt(const cpr::obs::Collector& stats, std::string_view flow,
             int parent);

  /// Writes every span as a Chrome `trace_event` JSON file.
  void writeChromeTrace(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Record {
    std::string name;
    std::string flow;
    int parent = -1;
    int lane = 0;
    Clock::time_point start{};
    Clock::duration dur{};
  };

  int laneOfThisThread();  // requires mu_

  const bool enabled_;
  const std::string workload_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::unordered_map<std::thread::id, int> lanes_;
};

/// RAII span around one call.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::string_view flow,
       int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, flow, parent)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { tracer_.end(id_); }

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
