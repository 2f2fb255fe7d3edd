#include "tracer.h"

#include <fstream>
#include <stdexcept>

#include "obs/report.h"

namespace perfbench {

namespace {
/// Lanes of adopted program spans start here, so panel lanes never collide
/// with the benchmark's own thread lanes.
constexpr int kAdoptedLaneBase = 1000;
}  // namespace

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)), epoch_(Clock::now()) {}

int Tracer::laneOfThisThread() {
  const auto [it, inserted] = lanes_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(lanes_.size()));
  return it->second;
}

int Tracer::begin(std::string_view name, std::string_view flow, int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Record r;
  r.name = name;
  r.flow = flow;
  r.parent = parent;
  r.lane = laneOfThisThread();
  r.start = Clock::now();
  records_.push_back(std::move(r));
  return static_cast<int>(records_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Record& r = records_[std::size_t(id)];
  r.dur = now - r.start;
}

int Tracer::record(std::string_view name, std::string_view flow, int parent,
                   Clock::time_point start, Clock::time_point end) {
  const int id = begin(name, flow, parent);
  if (id < 0) return id;
  std::lock_guard<std::mutex> lock(mu_);
  Record& r = records_[std::size_t(id)];
  r.start = start;
  r.dur = end - start;
  return id;
}

void Tracer::adopt(const cpr::obs::Collector& stats, std::string_view flow,
                   int parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const cpr::obs::Span& s : stats.spans()) {
    Record r;
    r.name = s.name;
    r.flow = flow;
    r.parent = parent;
    r.lane = kAdoptedLaneBase + s.src;
    r.start = s.start;
    r.dur = s.dur;
    records_.push_back(std::move(r));
  }
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const auto us = [&](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":\"" << cpr::obs::jsonEscape(r.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.lane
       << ",\"ts\":" << us(r.start - epoch_) << ",\"dur\":" << us(r.dur)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"workload\":\"" << cpr::obs::jsonEscape(workload_)
       << "\",\"flow\":\"" << cpr::obs::jsonEscape(r.flow) << "\"}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
