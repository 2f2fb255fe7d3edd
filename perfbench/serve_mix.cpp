// serve_mix: closed-loop service traffic. One process hosts a
// `serve::Server` (2 workers x 1 job thread) and drives it from kClients
// client threads, each on its own AF_UNIX connection and each waiting for a
// job's terminal frame before sending its next job, so kClients jobs are
// always outstanding.
//
// The job list is kDesigns distinct generated designs shipped as inline
// DEF. Their net counts are a fixed geometric ladder, so a different seed
// changes every design but not the size mix; the timed phase always ends on
// a whole pass over the list, so every run serves the same mix.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "db/panel.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace names = cpr::obs::names;
namespace serve = cpr::serve;

constexpr int kDesigns = 48;
constexpr int kMinNets = 90;
constexpr int kMaxNets = 700;
constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kWarmupJobs = 8;
/// Set-ups per run, about 3 s in all; `setup_s` is their median.
constexpr int kSetupReps = 50;
/// Warm-up jobs are numbered from here, apart from the timed jobs.
constexpr long kWarmupBase = 1L << 40;
/// Net density of `ecc`, which the job designs keep while scaling the die.
constexpr double kEccNets = 1671.0;
constexpr double kEccSideUm = 21.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct JobDesign {
  std::string def;
  int nets = 0;
};

/// Generates the job list: design i has the i-th net count of the ladder
/// and a seed derived from the workload seed.
std::vector<JobDesign> makeJobList(std::uint64_t seed, Tracer& tracer,
                                   LayerSample* layers) {
  std::vector<JobDesign> list;
  for (int i = 0; i < kDesigns; ++i) {
    const double t = static_cast<double>(i) / (kDesigns - 1);
    const int nets = static_cast<int>(
        std::lround(kMinNets * std::pow(double(kMaxNets) / kMinNets, t)));
    const double side = kEccSideUm * std::sqrt(nets / kEccNets);
    const cpr::gen::SuiteSpec spec{"job" + std::to_string(i), nets, side, side};
    const Clock::time_point t0 = Clock::now();
    std::optional<cpr::db::Design> d;
    {
      Span s(tracer, "gen.makeSuiteDesign", "setup");
      d.emplace(cpr::gen::makeSuiteDesign(spec, splitmix64(seed * 1000003U + i)));
    }
    const Clock::time_point t1 = Clock::now();
    std::ostringstream os;
    {
      Span s(tracer, "lefdef.writeDef", "setup");
      cpr::lefdef::writeDef(*d, os);
    }
    const Clock::time_point t2 = Clock::now();
    list.push_back({os.str(), static_cast<int>(d->nets().size())});
    if (layers) {
      layers->add("gen.generate_s", secondsBetween(t0, t1));
      layers->add("gen.nets", static_cast<double>(d->nets().size()));
      layers->add("lefdef.write_s", secondsBetween(t1, t2));
      layers->add("lefdef.bytes", static_cast<double>(list.back().def.size()));
    }
  }
  return list;
}

/// Design served by job `k`: pass k / kDesigns visits the list in its own
/// seeded order.
int designOfJob(std::uint64_t seed, long k) {
  std::vector<int> order(kDesigns);
  for (int i = 0; i < kDesigns; ++i) order[std::size_t(i)] = i;
  std::uint64_t state = splitmix64(seed ^ (0x5eedULL + std::uint64_t(k / kDesigns)));
  for (int i = kDesigns - 1; i > 0; --i) {
    state = splitmix64(state);
    std::swap(order[std::size_t(i)],
              order[std::size_t(state % std::uint64_t(i + 1))]);
  }
  return order[std::size_t(k % kDesigns)];
}

/// Hands out job indices from `first`: at least `minCount` and at most
/// `maxCount` of them. Once `seconds` are up it finishes the current pass
/// over the job list and then stops.
class Dispenser {
 public:
  Dispenser(long first, long minCount, long maxCount, double seconds)
      : next_(first),
        minEnd_(first + minCount),
        limit_(first + maxCount),
        seconds_(seconds),
        start_(Clock::now()) {}

  std::optional<long> next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && secondsBetween(start_, Clock::now()) >= seconds_) {
      stopping_ = true;
      const long passEnd = (next_ + kDesigns - 1) / kDesigns * kDesigns;
      limit_ = std::min(limit_, std::max(minEnd_, passEnd));
    }
    if (next_ >= limit_) return std::nullopt;
    return next_++;
  }

 private:
  std::mutex mu_;
  long next_;
  const long minEnd_;
  long limit_;
  const double seconds_;
  const Clock::time_point start_;
  bool stopping_ = false;
};

struct JobRecord {
  long index = 0;
  int design = 0;
  bool traced = false;
  bool transportOk = false;
  Clock::time_point sent{};
  Clock::time_point accepted{};
  Clock::time_point started{};
  Clock::time_point terminal{};
  serve::JobResult result;
};

/// One client thread: closed loop over the dispenser's jobs.
void clientLoop(serve::Client& client, Dispenser& jobs,
                const std::vector<JobDesign>& list, std::uint64_t seed,
                bool alternateTracing, Tracer& tracer, Tracer& untraced,
                std::vector<JobRecord>& out) {
  while (const std::optional<long> k = jobs.next()) {
    JobRecord rec;
    rec.index = *k;
    rec.design = designOfJob(seed, *k);
    // Traced run: odd passes are traced, even passes are not.
    rec.traced = alternateTracing && (*k / kDesigns) % 2 == 1;
    serve::RouteRequest req;
    req.id = "job" + std::to_string(*k);
    req.defText = list[std::size_t(rec.design)].def;
    req.priority = *k % 2 == 0 ? serve::Priority::Interactive
                               : serve::Priority::Batch;
    Tracer& t = rec.traced ? tracer : untraced;
    {
      Span job(t, "serve.job", req.id);
      rec.sent = Clock::now();
      if (client.sendLine(serve::encodeRouteRequest(req))) {
        std::string line;
        while (client.readLine(line)) {
          const serve::Reply reply = serve::decodeReply(line);
          const Clock::time_point now = Clock::now();
          if (reply.kind == serve::Reply::Kind::Event) {
            if (reply.event == names::kServeEvAccepted) rec.accepted = now;
            if (reply.event == names::kServeEvStarted &&
                rec.started == Clock::time_point{})
              rec.started = now;
          } else if (reply.kind == serve::Reply::Kind::Result) {
            rec.terminal = now;
            rec.result = reply.result;
            rec.transportOk = true;
            break;
          }
        }
      }
      if (rec.transportOk && t.enabled()) {
        t.record("serve.admit", req.id, job.id(), rec.sent, rec.accepted);
        t.record("serve.queue_wait", req.id, job.id(), rec.accepted,
                 rec.started);
        t.record("serve.run", req.id, job.id(), rec.started, rec.terminal);
      }
    }
    out.push_back(std::move(rec));
  }
}

/// Runs the dispenser's jobs over every client connection; returns the
/// records of all of them.
std::vector<JobRecord> drive(std::vector<std::unique_ptr<serve::Client>>& clients,
                             Dispenser& jobs, const std::vector<JobDesign>& list,
                             std::uint64_t seed, bool alternateTracing,
                             Tracer& tracer) {
  std::vector<std::vector<JobRecord>> perClient(clients.size());
  Tracer untraced(false, "");
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      clientLoop(*clients[c], jobs, list, seed, alternateTracing, tracer,
                 untraced, perClient[c]);
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<JobRecord> all;
  for (auto& v : perClient)
    for (JobRecord& r : v) all.push_back(std::move(r));
  std::sort(all.begin(), all.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.index < b.index; });
  return all;
}

serve::ServerOptions serverOptions(const std::string& socketPath) {
  serve::ServerOptions so;
  so.socketPath = socketPath;
  so.workers = kWorkers;
  so.jobThreads = 1;
  return so;
}

struct Direct {
  std::uint64_t digest = 0;
  cpr::eval::Metrics metrics;
  double objective = 0.0;
};

/// The reference for every served job: an in-process `routeCpr` of the same
/// DEF with the options the server uses. Also the per-layer source, since
/// the server's own per-job stats do not leave the server.
Direct routeDirect(const JobDesign& job, int index, Tracer& tracer,
                   LayerSample* layers) {
  const std::string flow = "direct" + std::to_string(index);
  Direct out;
  Span root(tracer, "direct", flow);
  const Clock::time_point t0 = Clock::now();
  std::optional<cpr::db::Design> design;
  {
    Span s(tracer, "lefdef.readDef", flow, root.id());
    std::istringstream is(job.def);
    design.emplace(cpr::lefdef::readDef(is));
  }
  const Clock::time_point t1 = Clock::now();
  cpr::route::CprOptions o;
  o.pinAccess.threads = 1;
  o.routing.threads = 1;
  std::optional<cpr::route::CprResult> r;
  int cprSpan = -1;
  {
    Span s(tracer, "route.routeCpr", flow, root.id());
    cprSpan = s.id();
    r.emplace(cpr::route::routeCpr(*design, o));
  }
  const Clock::time_point t2 = Clock::now();
  {
    Span s(tracer, "eval.summarize", flow, root.id());
    out.metrics = cpr::eval::summarize(*design, r->routing, r->pinAccessSeconds);
  }
  const Clock::time_point t3 = Clock::now();
  out.digest = cpr::route::resultDigest(r->routing);
  out.objective = r->plan.objective;
  if (layers) {
    tracer.adopt(r->plan.stats, flow, cprSpan);
    tracer.adopt(r->routing.stats, flow, cprSpan);
    layers->addFlow(r->plan, r->routing, r->pinAccessSeconds,
                    r->routing.seconds, secondsBetween(t2, t3));
    layers->add("lefdef.read_s", secondsBetween(t0, t1));
    const Clock::time_point t4 = Clock::now();
    std::size_t panels = 0;
    {
      Span s(tracer, "db.extractPanels", flow, root.id());
      panels = cpr::db::extractPanels(*design).size();
    }
    layers->add("db.extract_panels_s", secondsBetween(t4, Clock::now()));
    layers->add("db.panels", static_cast<double>(panels));
  }
  return out;
}

}  // namespace

Outcome runServeMix(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  LayerSample layers;
  LayerSample* layerSink = opts.trace ? &layers : nullptr;
  const std::string socketPath =
      opts.outDir + "/serve-" + std::to_string(getpid()) + ".sock";

  // Set-up: job-list generation plus server start. Half of the kSetupReps
  // set-ups run before the timed phase, and the last of those serves the
  // run; the other half run after it, so setup_s pools the host's state at
  // both ends of the run.
  std::vector<double> setup;
  const auto setUp = [&](std::vector<JobDesign>& list, LayerSample* sink)
      -> std::unique_ptr<serve::Server> {
    const Clock::time_point t0 = Clock::now();
    list = makeJobList(opts.seed, tracer, sink);
    auto server = std::make_unique<serve::Server>(serverOptions(socketPath));
    const cpr::support::Status started = server->start();
    setup.push_back(secondsBetween(t0, Clock::now()));
    if (!started.isOk()) {
      out.mismatch("server did not start: " + started.toString());
      return nullptr;
    }
    return server;
  };
  std::vector<JobDesign> list;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    if (server) server->stop();
    server.reset();
    server = setUp(list, rep + 1 == kSetupReps / 2 ? layerSink : nullptr);
    if (!server) return out;
  }

  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<serve::Client>());
    const cpr::support::Status s = clients.back()->connect(socketPath);
    if (!s.isOk()) {
      out.mismatch("client did not connect: " + s.toString());
      return out;
    }
  }

  // Warm-up (not measured, never traced), then the timed phase.
  {
    Dispenser warm(kWarmupBase, kWarmupJobs, kWarmupJobs, 0.0);
    const std::vector<JobRecord> w = drive(clients, warm, list, opts.seed,
                                           false, tracer);
    for (const JobRecord& r : w) {
      if (!r.transportOk || r.result.status != "ok")
        out.mismatch("warm-up job " + std::to_string(r.index) + " did not finish ok");
    }
  }
  // At least one pass; a traced run needs a second, traced, pass.
  Dispenser timed(0, (opts.trace ? 2 : 1) * kDesigns, kWarmupBase,
                  opts.seconds);
  const std::vector<JobRecord> jobs =
      drive(clients, timed, list, opts.seed, opts.trace, tracer);
  const cpr::obs::Collector stats = server->statsSnapshot();
  for (auto& c : clients) c->close();
  server->stop();
  server.reset();
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    std::vector<JobDesign> unused;
    const std::unique_ptr<serve::Server> again = setUp(unused, nullptr);
    if (!again) return out;
    again->stop();
  }
  ::unlink(socketPath.c_str());

  // Correctness, outside the timed phase: every served digest against a
  // direct in-process routeCpr of the same DEF.
  std::vector<Direct> direct;
  for (int i = 0; i < kDesigns; ++i)
    direct.push_back(routeDirect(list[std::size_t(i)], i, tracer, layerSink));
  std::vector<double> latency;
  std::vector<double> latencyTraced;
  std::vector<double> latencyUntraced;
  std::vector<double> pipeline;
  std::vector<double> admit, queueWait, run, overhead;
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point lastEnd = Clock::time_point::min();
  for (const JobRecord& r : jobs) {
    ++out.attempted;
    first = std::min(first, r.sent);
    const std::string want =
        expectedDigest(direct[std::size_t(r.design)].digest, opts.flipExpected);
    const bool good = r.transportOk &&
                      r.result.event == names::kServeEvCompleted &&
                      r.result.status == "ok" && r.result.attempts == 1 &&
                      r.result.digest == want;
    if (!good) {
      out.mismatch("job " + std::to_string(r.index) + " (design " +
                   std::to_string(r.design) + "): event " + r.result.event +
                   ", status " + r.result.status + ", attempts " +
                   std::to_string(r.result.attempts) + ", digest " +
                   r.result.digest + ", expected " + want);
      // A failed job is slower than any latency in the percentiles.
      latency.push_back(HUGE_VAL);
      continue;
    }
    ++out.ok;
    lastEnd = std::max(lastEnd, r.terminal);
    const double l = secondsBetween(r.sent, r.terminal);
    latency.push_back(l);
    (r.traced ? latencyTraced : latencyUntraced).push_back(l);
    if (!opts.trace || r.traced) {
      pipeline.push_back(r.result.seconds);
      admit.push_back(secondsBetween(r.sent, r.accepted));
      queueWait.push_back(secondsBetween(r.accepted, r.started));
      run.push_back(secondsBetween(r.started, r.terminal));
      overhead.push_back(run.back() - r.result.seconds);
    }
  }

  long routed = 0;
  long nets = 0;
  double vias = 0.0;
  double wirelength = 0.0;
  double objective = 0.0;
  for (const Direct& d : direct) {
    routed += d.metrics.routedClean;
    nets += d.metrics.totalNets;
    vias += static_cast<double>(d.metrics.vias);
    wirelength += static_cast<double>(d.metrics.wirelength);
    objective += d.objective;
  }

  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%ld jobs (%d distinct designs, %ld..%ld nets), %d clients, "
                "%d workers",
                out.attempted, kDesigns, static_cast<long>(list.front().nets),
                static_cast<long>(list.back().nets), kClients, kWorkers);
  out.info.emplace_back(buf);

  if (opts.trace) {
    layers.emit(out, /*meanPerFlow=*/false);
    out.set("serve.admit_p50_s", quantile(admit, 0.5), "s");
    out.set("serve.queue_wait_p50_s", quantile(queueWait, 0.5), "s");
    out.set("serve.queue_wait_p90_s", quantile(queueWait, 0.9), "s");
    out.set("serve.run_p50_s", quantile(run, 0.5), "s");
    out.set("serve.run_p90_s", quantile(run, 0.9), "s");
    out.set("serve.pipeline_p50_s", quantile(pipeline, 0.5), "s");
    out.set("serve.overhead_p50_s", quantile(overhead, 0.5), "s");
    out.set("serve.rejected",
            static_cast<double>(stats.counter(names::kServeJobsRejected)), "count");
    out.set("serve.retried",
            static_cast<double>(stats.counter(names::kServeJobsRetried)), "count");
    out.set("serve.failed",
            static_cast<double>(stats.counter(names::kServeJobsFailed)), "count");
    out.set("serve.queue_peak_depth",
            stats.gaugeOr(names::kServeQueuePeakDepth, 0.0), "count");
    const double tr = quantile(latencyTraced, 0.5);
    const double un = quantile(latencyUntraced, 0.5);
    std::snprintf(buf, sizeof buf,
                  "tracing overhead: job_p50_s traced %.5f s - untraced %.5f s "
                  "= %+.5f s (%+.2f%%)",
                  tr, un, tr - un, un > 0.0 ? 100.0 * (tr - un) / un : 0.0);
    out.info.emplace_back(buf);
    return out;
  }

  out.set("setup_s", median(setup), "s");
  out.info.push_back(describeSamples("setup s", setup));
  // The designs differ tenfold in size, so a flow time is summarised per
  // pass over the whole list: the mean, then the median over passes.
  std::map<long, std::vector<double>> perPass;
  for (const JobRecord& r : jobs) perPass[r.index / kDesigns].push_back(r.result.seconds);
  std::vector<double> passMeans;
  for (const auto& [pass, secs] : perPass) passMeans.push_back(mean(secs));
  out.set("flow_s", median(passMeans), "s");
  out.set("peak_rss_mb", peakRssMb(), "MB");
  out.set("job_p50_s", quantile(latency, 0.5), "s");
  out.set("job_p90_s", quantile(latency, 0.9), "s");
  const double window = lastEnd > first ? secondsBetween(first, lastEnd) : 0.0;
  out.set("jobs_per_s", window > 0.0 ? static_cast<double>(out.ok) / window : 0.0,
          "1/s");
  out.set("routability_pct",
          nets > 0 ? 100.0 * static_cast<double>(routed) / static_cast<double>(nets)
                   : 0.0,
          "%");
  out.set("vias", vias, "count");
  out.set("wirelength", wirelength, "count");
  out.set("plan_objective", objective, "count");
  return out;
}

}  // namespace perfbench
