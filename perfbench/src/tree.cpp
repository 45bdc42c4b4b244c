// The two tree paths: back-to-back fault-tolerant simulator passes
// (runner::run_experiment with heartbeats and repair) and live runs over the
// epoll reactor (rt::run_live_experiment), plus the checks both share.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>

#include "bench.hpp"
#include "mc/oracles.hpp"
#include "proto/messages.hpp"

namespace perfbench {

namespace {

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t k = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[k] : 0.5 * (xs[k - 1] + xs[k]);
}

/// Everything a deterministic simulator pass produces that a repeat must
/// reproduce: counts, end time and every detection's identity and time.
std::uint64_t run_fingerprint(const hpd::runner::ExperimentResult& res) {
  std::uint64_t h = res.sim_events ^ (res.metrics.msgs_total() << 20);
  h ^= std::bit_cast<std::uint64_t>(res.end_time);
  for (const OccurrenceRecord& rec : res.occurrences) {
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(rec.detector);
    h = h * 0x100000001b3ULL ^ rec.index;
    h = h * 0x100000001b3ULL ^ std::bit_cast<std::uint64_t>(rec.time);
  }
  return h;
}

/// Hand freed heap pages back to the kernel between runs, so each run starts
/// from the same heap state and the process's peak resident size reflects
/// the largest single run rather than how the allocator happened to
/// fragment across runs.
void release_free_memory() { ::malloc_trim(0); }

std::uint64_t msgs(const hpd::MetricsRegistry& counts,
                   std::initializer_list<int> types) {
  std::uint64_t n = 0;
  for (const int t : types) {
    n += counts.msgs_of_type(t);
  }
  return n;
}

}  // namespace

hpd::mc::McCase pulse_case(std::size_t d, std::size_t h, SeqNum rounds,
                           SimTime period, std::uint64_t seed) {
  hpd::mc::McCase c;
  c.topology = "dary:" + std::to_string(d) + ":" + std::to_string(h);
  c.workload = hpd::mc::WorkloadKind::kPulse;
  c.pulse_rounds = rounds;
  c.pulse_period = period;
  c.seed = seed;
  return c;
}

hpd::runner::ExperimentConfig build_config(const hpd::mc::McCase& c,
                                           Context& ctx) {
  Span span(ctx.tracer, ctx.tracer ? ctx.tracer->id("net.build") : 0);
  return hpd::mc::build_case(c);
}

PulseShape shape_of(const hpd::mc::McCase& c) {
  return PulseShape{c.pulse_rounds, 5.0, c.pulse_period};
}

TreeRun sim_setup(const Workload& w, Context& ctx) {
  TreeRun run;
  run.c = pulse_case(w.tree_d, w.tree_h, w.sim_rounds, w.sim_period,
                     ctx.seed);
  run.shape = shape_of(run.c);
  // The crash lands a quarter into the second round and the revival one
  // period later; the revived node gets one more period to reattach.
  Outage o;
  o.node = w.crash_node;
  o.down = run.shape.start + 1.25 * run.shape.period;
  o.up = o.down + run.shape.period;
  o.settle = run.shape.period;
  run.outage = o;
  run.c.crashes.push_back({o.down, o.node});
  run.c.recoveries.push_back({o.up, o.node});
  run.cfg = build_config(run.c, ctx);
  return run;
}

TreeRun live_setup(const Workload& w, Context& ctx) {
  TreeRun run;
  run.c = pulse_case(w.tree_d, w.tree_h, w.live_rounds, w.live_period,
                     ctx.seed);
  run.shape = shape_of(run.c);
  run.cfg = build_config(run.c, ctx);
  // Half the model checker's drain: ample for a failure-free run to flush
  // its last reports and ACKs, and it keeps the wall-clock-paced run short.
  run.cfg.drain = 40.0;
  return run;
}

double live_wall_seconds(const TreeRun& run) {
  return (run.cfg.horizon + run.cfg.drain) * kLiveScale;
}

hpd::rt::LiveConfig live_config(const Context& ctx) {
  hpd::rt::LiveConfig lc;
  lc.backend = hpd::rt::LiveBackendKind::kReactor;
  lc.reactor_workers = kLiveWorkers;
  lc.socket_kind = hpd::rt::SockAddr::Kind::kUnix;
  lc.time_scale = kLiveScale;
  // Sockets live inside the checkout, under a short relative path.
  lc.socket_dir = ctx.out_dir + "/sock-" + std::to_string(::getpid());
  return lc;
}

Verdict check_tree_run(const TreeRun& run,
                       const hpd::runner::ExperimentResult& res,
                       Context& ctx) {
  const RoundTable table(res.execution, run.shape);
  Verdict v = check_root_detections(table, run.cfg.tree.size(), run.shape, 0,
                                    res.occurrences, run.outage);
  for (const std::string& p : table.problems) {
    v.violations.push_back(p);
    v.whole_run = true;
  }
  std::vector<std::string> oracle;
  {
    Span span(ctx.tracer,
              ctx.tracer ? ctx.tracer->id("mc.check_oracles") : 0);
    oracle = hpd::mc::check_oracles(run.c, run.cfg, res);
  }
  for (const std::string& o : oracle) {
    v.violations.push_back("oracle: " + o);
    v.whole_run = true;
  }
  if (v.whole_run) {
    v.failed_rounds = run.shape.rounds;
  }
  return v;
}

SimPasses run_sim(const TreeRun& run, Context& ctx, double budget_s) {
  // The timed passes run the configuration `hpd_sim` uses, without the
  // checks' instrumentation (execution record, provenance, solutions).
  hpd::runner::ExperimentConfig timed = run.cfg;
  timed.track_provenance = false;
  timed.record_execution = false;
  timed.occurrence_solutions = false;

  const std::uint32_t run_id =
      ctx.tracer ? ctx.tracer->id("runner.run_experiment") : 0;
  SimPasses out;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  do {
    const Clock::time_point t0 = Clock::now();
    hpd::runner::ExperimentResult res;
    {
      Span span(ctx.tracer, run_id);
      res = hpd::runner::run_experiment(timed);
    }
    out.times.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    out.fingerprints.push_back(run_fingerprint(res));
    if (out.times.size() == 1) {
      out.sim_events = res.sim_events;
      out.dropped_messages = res.dropped_messages;
      out.metrics = std::move(res.metrics);
    }
  } while (Clock::now() < deadline);
  release_free_memory();
  return out;
}

void check_sim(const TreeRun& run, Context& ctx, const SimPasses& passes,
               Metrics& m) {
  // One pass with the instrumentation is checked in full. The simulator is
  // deterministic and the instrumentation does not touch the schedule, so
  // every timed pass must reproduce its detections exactly.
  Verdict checked;
  std::uint64_t reference = 0;
  {
    const hpd::runner::ExperimentResult res =
        hpd::runner::run_experiment(run.cfg);
    checked = check_tree_run(run, res, ctx);
    reference = run_fingerprint(res);
  }
  m.fail(checked, run.shape.rounds);
  for (std::size_t i = 0; i < passes.fingerprints.size(); ++i) {
    Verdict v;
    if (passes.fingerprints[i] != reference) {
      v.failed_rounds = run.shape.rounds;
      v.violations.push_back("repeat: simulator pass " +
                             std::to_string(i + 1) +
                             " differs from the checked pass");
    }
    m.fail(v, run.shape.rounds);
  }

  const double fastest =
      *std::min_element(passes.times.begin(), passes.times.end());
  const hpd::MetricsRegistry& counts = passes.metrics;
  m.set("sim_eps", static_cast<double>(passes.sim_events) / fastest,
        "events/s");
  m.set("msgs_per_round",
        static_cast<double>(counts.msgs_total()) /
            static_cast<double>(run.shape.rounds),
        "msgs/round");
  m.set("sim_latency_p50", median(checked.latencies), "simtime");
  m.set("sim.unformed_rounds", static_cast<double>(checked.unformed_rounds),
        "count");
  m.passes["sim"] = passes.times.size();

  namespace p = hpd::proto;
  m.set("runner.pass_s", fastest, "s");
  m.set("sim.events", static_cast<double>(passes.sim_events), "count");
  m.set("sim.dropped_msgs", static_cast<double>(passes.dropped_messages),
        "count");
  m.set("detect.vc_comparisons",
        static_cast<double>(counts.total_vc_comparisons()), "count");
  m.set("ft.heartbeat_msgs", static_cast<double>(msgs(counts, {p::kHeartbeat})),
        "count");
  m.set("ft.probe_msgs",
        static_cast<double>(msgs(counts, {p::kProbe, p::kProbeAck})), "count");
  m.set("ft.attach_msgs",
        static_cast<double>(msgs(counts, {p::kAttachReq, p::kAttachAck})),
        "count");
  m.set("proto.app_msgs", static_cast<double>(msgs(counts, {p::kApp})),
        "count");
  m.set("proto.report_msgs",
        static_cast<double>(msgs(counts, {p::kReportHier, p::kReportCentral})),
        "count");
}

Verdict check_live(const TreeRun& run, const hpd::rt::LiveResult& live,
                   Context& ctx) {
  Verdict v = check_tree_run(run, live.result, ctx);
  if (live.interrupted) {
    v.violations.push_back("live: run was interrupted");
    v.whole_run = true;
  }
  for (const std::string& t : check_transport(live.transport)) {
    v.violations.push_back(t);
    v.whole_run = true;
  }
  if (v.whole_run) {
    v.failed_rounds = run.shape.rounds;
  }
  return v;
}

void run_live_bare(const TreeRun& run, Context& ctx, Metrics& m) {
  hpd::runner::ExperimentConfig bare = run.cfg;
  bare.track_provenance = false;
  bare.record_execution = false;
  bare.occurrence_solutions = false;
  hpd::rt::LiveConfig lc = live_config(ctx);
  std::filesystem::create_directories(lc.socket_dir);
  hpd::rt::LiveResult live;
  {
    Span span(ctx.tracer,
              ctx.tracer ? ctx.tracer->id("rt.run_live_experiment.bare") : 0);
    live = hpd::rt::run_live_experiment(bare, lc);
  }
  std::filesystem::remove_all(lc.socket_dir);
  // Without an execution record no round can be judged; what can be is
  // judged for the whole run.
  Verdict v;
  if (live.interrupted) {
    v.violations.push_back("live: bare run was interrupted");
  }
  for (const std::string& t : check_transport(live.transport)) {
    v.violations.push_back(t + " (bare run)");
  }
  v.whole_run = !v.violations.empty();
  m.fail(v, 0);
}

void run_live(const TreeRun& run, Context& ctx, Metrics& m) {
  struct Live {
    double user = 0.0;
    double sys = 0.0;
    hpd::TransportCounters t;
    hpd::ReactorCounters r;
    double cpu_us_per_msg() const {
      return (user + sys) * 1e6 /
             static_cast<double>(std::max<std::uint64_t>(t.msgs_delivered, 1));
    }
  };
  std::vector<Live> runs;
  std::vector<double> latencies;
  std::uint64_t unformed = 0;
  for (int i = 0; i < kLiveRuns; ++i) {
    hpd::rt::LiveConfig lc = live_config(ctx);
    std::filesystem::create_directories(lc.socket_dir);
    rusage r0{};
    rusage r1{};
    hpd::rt::LiveResult live;
    ::getrusage(RUSAGE_SELF, &r0);
    {
      Span span(ctx.tracer,
                ctx.tracer ? ctx.tracer->id("rt.run_live_experiment") : 0);
      live = hpd::rt::run_live_experiment(run.cfg, lc);
    }
    ::getrusage(RUSAGE_SELF, &r1);
    std::filesystem::remove_all(lc.socket_dir);

    const Verdict v = check_live(run, live, ctx);
    m.fail(v, run.shape.rounds);
    latencies.insert(latencies.end(), v.latencies.begin(), v.latencies.end());
    unformed += v.unformed_rounds;
    runs.push_back({cpu_seconds(r1.ru_utime) - cpu_seconds(r0.ru_utime),
                    cpu_seconds(r1.ru_stime) - cpu_seconds(r0.ru_stime),
                    live.transport, live.reactor});
    live = {};
    release_free_memory();
  }
  // The run with the least CPU per message stands for the process, as the
  // fastest pass does for the other phases.
  const Live& best = *std::min_element(
      runs.begin(), runs.end(), [](const Live& a, const Live& b) {
        return a.cpu_us_per_msg() < b.cpu_us_per_msg();
      });
  m.set("live_cpu_us_per_msg", best.cpu_us_per_msg(), "us/msg");
  // For reference only: spurious retransmits move it by 2-4x between runs,
  // so BENCHMARK.json does not gate it (see README).
  m.set("live_latency_p50_ms", median(latencies) * kLiveScale * 1e3, "ms");
  m.passes["live"] = runs.size();
  m.set("rt.unformed_rounds", static_cast<double>(unformed), "count");

  const hpd::TransportCounters& t = best.t;
  const hpd::ReactorCounters& r = best.r;
  m.set("rt.user_s", best.user, "s");
  m.set("rt.sys_s", best.sys, "s");
  m.set("rt.frames_per_msg",
        static_cast<double>(t.reliable_sent + t.retransmits + t.acks_sent) /
            static_cast<double>(std::max<std::uint64_t>(t.msgs_delivered, 1)),
        "frames/msg");
  m.set("rt.retransmits", static_cast<double>(t.retransmits), "count");
  m.set("rt.dups_suppressed", static_cast<double>(t.dups_suppressed),
        "count");
  m.set("rt.acks_sent", static_cast<double>(t.acks_sent), "count");
  m.set("rt.wakeups", static_cast<double>(r.wakeups), "count");
  m.set("rt.ready_per_wakeup",
        static_cast<double>(r.ready_events) /
            static_cast<double>(std::max<std::uint64_t>(r.wakeups, 1)),
        "events/wakeup");
  m.set("rt.timer_fires", static_cast<double>(r.timer_fires), "count");
  m.set("rt.max_loop_us", static_cast<double>(r.max_loop_micros), "us");
  m.set("rt.max_outbound_backlog",
        static_cast<double>(r.max_outbound_backlog), "B");
}

}  // namespace perfbench
