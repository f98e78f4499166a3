// service_adversarial: open-loop, virtual-time traffic from eight tenants,
// one of which inflates its working set 8x, through the service front end
// with enforcement on and an event recorder attached.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "service/arrival.hpp"
#include "service/frontend.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace obs = rda::obs;
namespace service = rda::service;

constexpr std::uint64_t kAdversary = 1;
constexpr std::uint64_t kArrivals = 40'000;  ///< per repetition
constexpr std::uint64_t kWarmupArrivals = 10'000;
/// Recorder slots per arrival; a run that would drop events fails its check.
constexpr std::uint64_t kEventsPerArrival = 8;
/// Repetitions whose virtual metrics and counters are reported: a fixed
/// count, so those figures repeat exactly for a seed.
constexpr int kVirtualReps = 40;

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

service::ArrivalConfig arrival_config(std::uint64_t seed) {
  service::ArrivalConfig a;
  a.shape = service::ArrivalShape::kBursty;
  a.rate = 6000.0;
  a.seed = seed;
  a.tenants = 8;
  a.hot_tenant_share = 0.4;  // the adversary is the hot tenant
  a.demand_mean_bytes = 2.0 * 1024.0 * 1024.0;
  a.service_mean_seconds = 2.0e-3;
  a.adversary.kind = service::AdversaryKind::kWssInflator;
  a.adversary.tenant = kAdversary;
  a.adversary.factor = 8.0;
  return a;
}

service::ServiceConfig service_config(obs::TraceSink* sink) {
  service::ServiceConfig c;
  c.nodes = 4;
  c.drain_shards = 4;
  c.node_llc_bytes = 15360.0 * 1024.0;
  c.routing = service::RoutePolicy::kLocalityAware;
  c.enforce = true;
  c.model_true_occupancy = true;
  c.trace_sink = sink;
  return c;
}

/// Times every next() of the wrapped source as an "arrival.next" span.
class TimedSource final : public service::ArrivalSource {
 public:
  TimedSource(service::ArrivalSource& inner, SpanLog& log, std::int64_t parent)
      : inner_(inner), log_(log), parent_(parent),
        name_(log.intern("arrival.next")) {}
  service::Arrival next() override {
    const Clock::time_point t0 = Clock::now();
    const service::Arrival a = inner_.next();
    log_.add(name_, a.seq, parent_, 0, t0, Clock::now());
    return a;
  }

 private:
  service::ArrivalSource& inner_;
  SpanLog& log_;
  std::int64_t parent_;
  std::uint32_t name_;
};

/// Times every record() into the wrapped sink as an "obs.record" span.
class TimedSink final : public obs::TraceSink {
 public:
  TimedSink(obs::TraceSink& inner, SpanLog& log, std::int64_t parent)
      : inner_(inner), log_(log), parent_(parent),
        name_(log.intern("obs.record")) {}
  void record(const obs::Event& event) override {
    const Clock::time_point t0 = Clock::now();
    inner_.record(event);
    log_.add(name_, static_cast<std::uint64_t>(event.thread), parent_, 0, t0,
             Clock::now());
  }

 private:
  obs::TraceSink& inner_;
  SpanLog& log_;
  std::int64_t parent_;
  std::uint32_t name_;
};

struct Rep {
  service::ServiceReport report;
  double host_s = 0.0;
  std::uint64_t events = 0;
};

/// One front end over `arrivals` arrivals of the rep's seeded stream. With
/// a span log, the source and the sink are wrapped and the whole run is one
/// "service.run" span.
Rep run_rep(std::uint64_t seed, std::uint64_t arrivals, SpanLog* log,
            Report& check) {
  obs::EventRecorder recorder(arrivals * kEventsPerArrival);
  service::ArrivalGenerator generator(arrival_config(seed));
  std::int64_t span = -1;
  std::unique_ptr<TimedSource> source;
  std::unique_ptr<TimedSink> sink;
  if (log != nullptr) {
    span = log->open(log->intern("service.run"), seed, -1, 0);
    source = std::make_unique<TimedSource>(generator, *log, span);
    sink = std::make_unique<TimedSink>(recorder, *log, span);
  }
  service::ServiceFrontEnd frontend(
      service_config(sink ? static_cast<obs::TraceSink*>(sink.get()) : &recorder));
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  rep.report = frontend.run(source ? static_cast<service::ArrivalSource&>(*source)
                                   : generator,
                            arrivals);
  rep.host_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (log != nullptr) log->close(span);
  rep.events = recorder.total_recorded();

  const service::ServiceStats& s = rep.report.stats;
  check.check(s.completed + s.shed == arrivals, "service: completed + shed == arrivals");
  check.check(s.still_queued == 0, "service: nothing left queued");
  check.check(s.overflow_drops == 0, "service: zero overflow drops");
  check.check(rep.report.credits_conserved, "service: credits conserved");
  check.check(s.audits > 0, "service: the ledger audited completions");
  const rda::core::MonitorStats& m = rep.report.admission;
  check.check(m.begins == m.ends + m.cancels + m.reclaims + m.rejections,
              "service cores: begins == ends + cancels + reclaims + rejections");
  check.check(recorder.dropped() == 0, "service: recorder dropped no event");
  const std::vector<obs::Event> events = recorder.events();
  obs::ServiceStatsCheck expect;
  expect.enqueued = s.enqueued;
  expect.drains = s.drains;
  expect.steals = s.steals;
  expect.stolen = s.stolen;
  expect.reroutes = s.reroutes;
  expect.mailboxed = s.mailboxed;
  expect.shed = s.shed;
  expect.still_queued = s.still_queued;
  const obs::ReconcileReport rec = obs::reconcile_service(events, expect);
  check.check(rec.ok, "service: reconcile_service: " + rec.message);
  return rep;
}

std::vector<TenantOutcome> outcomes(const service::ServiceReport& r) {
  std::vector<TenantOutcome> out;
  for (const service::TenantSummary& t : r.tenants) {
    out.push_back({t.tenant, t.arrivals, t.shed});
  }
  return out;
}

/// Counters and virtual-time figures summed over the fixed repetitions.
struct Virtual {
  obs::LatencyHistogram admit;
  service::ServiceStats stats;
  rda::core::MonitorStats admission;
  FailAccount fail;
  std::uint64_t honest_completed = 0;
  double elapsed_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t events = 0;
};

void accumulate(Virtual& v, const Rep& rep) {
  const service::ServiceReport& r = rep.report;
  v.admit.merge(r.admission_latency);
  const service::ServiceStats& s = r.stats;
  v.stats.drains += s.drains;
  v.stats.drained += s.drained;
  v.stats.shed += s.shed;
  v.stats.steals += s.steals;
  v.stats.mailboxed += s.mailboxed;
  v.stats.escalations += s.escalations;
  v.stats.max_backlog = std::max(v.stats.max_backlog, s.max_backlog);
  v.stats.audits += s.audits;
  v.stats.penalties += s.penalties;
  v.stats.haircuts += s.haircuts;
  v.stats.quota_denied += s.quota_denied;
  v.stats.burst_clamps += s.burst_clamps;
  v.stats.credits_spent += s.credits_spent;
  v.admission += r.admission;
  const FailAccount f =
      service_fail_account(outcomes(r), kAdversary, s.overflow_drops);
  v.fail.attempted += f.attempted;
  v.fail.failed += f.failed;
  for (const service::TenantSummary& t : r.tenants) {
    if (t.tenant != kAdversary) v.honest_completed += t.completed;
  }
  v.elapsed_s += r.elapsed_seconds;
  v.arrivals += s.completed + s.shed;
  v.events += rep.events;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void run_service_adversarial(const Options& options, Report& report) {
  report.info("threads", 1, "count");
  report.info("arrivals_per_rep", static_cast<double>(kArrivals), "count");
  int warmups = 0;
  const double setup_s = measure_setup([&] {
    run_rep(rep_seed(options.seed, 1000 + warmups++), kWarmupArrivals, nullptr,
            report);
  });

  // Untraced repetitions, rotating over the CPUs: the first kVirtualReps
  // give the virtual figures and counters; all of them give host time per
  // arrival.
  const std::vector<int> cpus = allowed_cpus();
  const double untraced_budget = options.trace ? 0.45 * options.seconds
                                               : options.seconds;
  Virtual v;
  std::vector<std::vector<double>> host_us(cpus.size());  // normalised
  std::vector<double> raw_us;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    pin_to_cpu(cpus[rep % cpus.size()]);
    const Rep r = run_rep(rep_seed(options.seed, static_cast<int>(rep)),
                          kArrivals, nullptr, report);
    raw_us.push_back(1e6 * r.host_s / static_cast<double>(kArrivals));
    host_us[rep % cpus.size()].push_back(raw_us.back() / machine_factor());
    if (rep < kVirtualReps) accumulate(v, r);
    const double spent = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep + 1 >= kVirtualReps && (rep + 1) % cpus.size() == 0 &&
        spent >= untraced_budget) {
      break;
    }
  }
  unpin(cpus);
  report.set_operations(v.fail.attempted, v.fail.failed);
  const double host_us_per_arrival = mean_of_medians(host_us);

  const double admit_tail_p = tail_percentile(v.admit.count(), kGatedLadder);
  const Timing admit{v.admit.quantile(0.5), admit_tail_p,
                     v.admit.quantile(admit_tail_p / 100.0), v.admit.count()};
  if (!options.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("throughput_per_s", 1e6 / host_us_per_arrival, "1/s");
    report.metric("latency_p50_us", 1e6 * admit.p50, "us");
    report.metric("latency_tail_us", 1e6 * admit.tail, "us");
    report.line("per-workload metrics:");
    report.info("host_us_per_arrival (normalised)", host_us_per_arrival, "us",
                raw_us.size());
    report.timing("host_us_per_arrival (raw)", summarize(raw_us, kGatedLadder),
                  "us");
    report.info("goodput_per_s (virtual)",
                static_cast<double>(v.honest_completed) / v.elapsed_s, "1/s",
                v.honest_completed);
    report.timing("admit_ms (virtual)",
                  Timing{1e3 * admit.p50, admit.tail_p, 1e3 * admit.tail,
                         admit.samples},
                  "ms");
    report.info("fail_frac", v.fail.fraction(), "frac", v.fail.attempted);
    report.info("ledger.quota_denied", static_cast<double>(v.stats.quota_denied),
                "count");
    return;
  }

  // Traced repetitions, one per CPU: wrapped source and sink, one span per
  // run.
  SpanLog log(cpus.size() * kArrivals * (kEventsPerArrival + 1));
  const std::uint32_t run_name = log.intern("service.run");
  const std::uint32_t next_name = log.intern("arrival.next");
  const std::uint32_t record_name = log.intern("obs.record");
  std::vector<std::vector<double>> traced_us(cpus.size());
  std::uint64_t traced_arrivals = 0;
  for (std::size_t rep = 0; rep < cpus.size(); ++rep) {
    pin_to_cpu(cpus[rep]);
    const Rep r = run_rep(rep_seed(options.seed, static_cast<int>(rep)),
                          kArrivals, &log, report);
    traced_us[rep].push_back(1e6 * r.host_s / static_cast<double>(kArrivals) /
                             machine_factor());
    traced_arrivals += kArrivals;
  }
  unpin(cpus);
  report.check(log.dropped() == 0, "span log kept every span");
  std::uint64_t nexts = 0;
  std::uint64_t records = 0;
  const double next_ns =
      static_cast<double>(log.total_duration(next_name, &nexts));
  const double record_ns =
      static_cast<double>(log.total_duration(record_name, &records));
  const double self_us = static_cast<double>(log.total_self(run_name)) / 1e3;

  const service::ServiceStats& s = v.stats;
  report.metric("arrival.next_ns", nexts ? next_ns / static_cast<double>(nexts) : 0.0,
                "ns");
  report.metric("obs.record_ns",
                records ? record_ns / static_cast<double>(records) : 0.0, "ns");
  report.metric("obs.events_per_arrival", ratio(v.events, v.arrivals), "count");
  report.metric("service.self_us_per_arrival",
                self_us / static_cast<double>(traced_arrivals), "us");
  report.metric("service.batch_mean", ratio(s.drained, s.drains), "count");
  report.metric("service.steals", static_cast<double>(s.steals), "count");
  report.metric("service.mailboxed", static_cast<double>(s.mailboxed), "count");
  report.metric("service.max_backlog", static_cast<double>(s.max_backlog), "count");
  report.metric("service.escalations", static_cast<double>(s.escalations), "count");
  report.metric("service.shed", static_cast<double>(s.shed), "count");
  report.metric("core.block_ratio", ratio(v.admission.blocks, v.admission.begins),
                "frac");
  report.metric("core.wake_ratio", ratio(v.admission.wakes, v.admission.begins),
                "frac");
  report.metric("ledger.audits", static_cast<double>(s.audits), "count");
  report.metric("ledger.penalties", static_cast<double>(s.penalties), "count");
  report.metric("ledger.haircuts", static_cast<double>(s.haircuts), "count");
  report.metric("ledger.quota_denied", static_cast<double>(s.quota_denied), "count");
  report.metric("ledger.burst_clamps", static_cast<double>(s.burst_clamps), "count");
  report.metric("ledger.credits_spent", static_cast<double>(s.credits_spent), "count");
  report.metric("trace.overhead_frac",
                mean_of_medians(traced_us) / host_us_per_arrival - 1.0, "frac");
  write_trace(options, log, report);
}

}  // namespace perfbench
