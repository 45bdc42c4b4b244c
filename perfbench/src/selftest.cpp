// Self-test: every correctness check the benchmark applies must accept a
// clean output and reject a corrupted one. Each case runs the real program
// on a small input, checks the clean result, then corrupts one thing and
// asserts that the check built for it fires.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "bench.hpp"
#include "ckpt/event_stream.hpp"
#include "detect/offline/replay.hpp"

namespace perfbench {

namespace {

/// What a run that met `m`'s verdicts would report.
std::string outcome(const Metrics& m) {
  return "failed " + std::to_string(m.failed) + " of " +
         std::to_string(m.attempted) + " rounds, correct " +
         (m.correct ? "true" : "false");
}

class Report {
 public:
  /// A clean output must pass the check: no violation, no failed round.
  void clean(const std::string& what, const Verdict& v,
             std::uint64_t rounds) {
    Metrics m;
    m.fail(v, rounds);
    const bool ok = v.violations.empty() && m.failed == 0 && m.correct;
    all_ok_ = all_ok_ && ok;
    std::cout << (ok ? "ok    " : "FAIL  ") << "clean " << what
              << (ok ? " passes"
                     : " is rejected: " +
                           (v.violations.empty() ? outcome(m)
                                                 : v.violations.front()))
              << "\n";
  }
  /// A corrupted output must trip `tag`, and the run's verdict must show it:
  /// a failed round or correct turned false.
  void corrupt(const std::string& what, const std::string& tag,
               const Verdict& v, std::uint64_t rounds) {
    Metrics m;
    m.fail(v, rounds);
    const auto it = std::find_if(
        v.violations.begin(), v.violations.end(),
        [&](const std::string& s) { return s.rfind(tag + ":", 0) == 0; });
    const bool tripped = it != v.violations.end();
    const bool reported = m.failed > 0 || !m.correct;
    const bool ok = tripped && reported;
    all_ok_ = all_ok_ && ok;
    std::cout << (ok ? "ok    " : "FAIL  ") << what << " -> ";
    if (!tripped) {
      std::cout << "check '" << tag << "' did not fire\n";
    } else {
      std::cout << *it << " (" << outcome(m) << ")"
                << (reported ? "" : ": the run would pass") << "\n";
    }
  }
  int exit_code() const {
    std::cout << (all_ok_ ? "selftest: PASS" : "selftest: FAIL") << "\n";
    return all_ok_ ? 0 : 1;
  }

 private:
  bool all_ok_ = true;
};

/// The generator's round-`round` interval of process `p`.
const Interval& interval_of(const Stream& s, std::size_t p, long round) {
  for (const Interval& x : s.exec.procs[p].intervals) {
    if (s.table->find(x.origin, x.seq)->round == round) {
      return x;
    }
  }
  return s.exec.procs[p].intervals.front();
}

void ingest_cases(Context& ctx, Report& rep) {
  Workload w;
  w.stream_d = 2;
  w.stream_h = 3;
  w.stream_rounds = 4;
  const std::string base =
      ctx.out_dir + "/selftest-" + std::to_string(::getpid());
  const auto s = record_stream(w, ctx, base + ".evs");
  const SeqNum rounds = s->shape.rounds;
  auto check = [&](const IngestPass& p) {
    return check_ingest(*s->table, s->processes, s->shape, p.records, p.events,
                        s->events, p.saw_end);
  };
  const IngestPass good = ingest_pass(*s, Engine::kCentral, true, ctx);
  rep.clean("ingest (central, 7 processes, 4 rounds)", check(good), rounds);

  // A stream with one interval removed: the round it belonged to can no
  // longer be detected.
  Stream cut;
  cut.path = base + "-cut.evs";
  cut.processes = s->processes;
  cut.shape = s->shape;
  {
    hpd::ckpt::EventStreamWriter out(cut.path, s->processes);
    std::size_t k = 0;
    for (const auto& [p, i] :
         hpd::detect::offline::arrival_order(s->exec, std::nullopt)) {
      if (k++ != 10) {
        out.append(s->exec.procs[p].intervals[i]);
      }
    }
    out.finish();
  }
  rep.corrupt("stream with one interval removed", "count",
              check(ingest_pass(cut, Engine::kCentral, true, ctx)), rounds);
  std::filesystem::remove(cut.path);
  std::filesystem::remove(s->path);

  IngestPass extra = good;
  extra.records.push_back(good.records.back());
  rep.corrupt("one extra occurrence after R correct ones", "count",
              check(extra), rounds);

  IngestPass stopped = good;
  stopped.saw_end = false;
  rep.corrupt("reader that never reached END", "end", check(stopped),
              rounds);

  IngestPass altered = good;
  altered.records[1].solution[2].hi[0] += 1;
  rep.corrupt("occurrence with an altered member", "record", check(altered),
              rounds);

  IngestPass mixed = good;
  Interval& victim = mixed.records[1].solution[3];
  victim = interval_of(*s, static_cast<std::size_t>(victim.origin), 3);
  rep.corrupt("solution member taken from another round", "round",
              check(mixed), rounds);

  IngestPass bumped = good;
  std::vector<Interval>& sol = bumped.records[0].solution;
  hpd::ClockValue top = 0;
  for (const Interval& x : sol) {
    top = std::max(top, x.hi[1]);
  }
  sol[0].lo[1] = top + 1;
  rep.corrupt("clock component bumped so lo <= hi breaks", "safety",
              check(bumped), rounds);
}

/// `rec` with the interval number of its aggregate's first base replaced by
/// one the generator never made; coverage is unchanged.
OccurrenceRecord with_unknown_first_base(const OccurrenceRecord& rec) {
  auto top = std::make_shared<hpd::Provenance>();
  top->origin = rec.aggregate.origin;
  bool first = true;
  for (const auto& [origin, seq] : hpd::base_intervals(rec.aggregate)) {
    auto leaf = std::make_shared<hpd::Provenance>();
    leaf->origin = origin;
    leaf->seq = first ? seq + 1000 : seq;
    first = false;
    top->parts.push_back(std::move(leaf));
  }
  OccurrenceRecord out = rec;
  out.aggregate.provenance = std::move(top);
  return out;
}

void sim_cases(Context& ctx, Report& rep) {
  Workload w;
  w.tree_d = 2;
  w.tree_h = 4;
  w.sim_rounds = 6;
  w.sim_period = 40.0;
  w.crash_node = 1;
  const TreeRun run = sim_setup(w, ctx);
  const hpd::runner::ExperimentResult res = hpd::runner::run_experiment(run.cfg);
  const SeqNum rounds = run.shape.rounds;
  rep.clean("fault-tolerant simulation (15 nodes, crash and revive)",
            check_tree_run(run, res, ctx), rounds);

  // The last round lies wholly after the outage, so its root detection is
  // required; dropping it, or reporting it twice, must be caught.
  const RoundTable table(res.execution, run.shape);
  const auto last = std::find_if(
      res.occurrences.rbegin(), res.occurrences.rend(),
      [](const OccurrenceRecord& r) { return r.detector == 0; });
  std::vector<OccurrenceRecord> dropped;
  for (const OccurrenceRecord& r : res.occurrences) {
    if (&r != &*last) {
      dropped.push_back(r);
    }
  }
  auto check = [&](const std::vector<OccurrenceRecord>& occ) {
    return check_root_detections(table, run.cfg.tree.size(), run.shape, 0,
                                 occ, run.outage);
  };
  rep.corrupt("root detection of a required round dropped", "missing",
              check(dropped), rounds);
  std::vector<OccurrenceRecord> doubled = res.occurrences;
  doubled.push_back(*last);
  rep.corrupt("round detected twice at the root", "twice", check(doubled),
              rounds);
  std::vector<OccurrenceRecord> unknown = res.occurrences;
  unknown[static_cast<std::size_t>(last.base() - 1 -
                                   res.occurrences.begin())] =
      with_unknown_first_base(*last);
  rep.corrupt("root detection whose first base is not in the record",
              "record", check(unknown), rounds);
}

void live_cases(Context& ctx, Report& rep) {
  Workload w;
  w.tree_d = 2;
  w.tree_h = 2;
  w.live_rounds = 3;
  w.live_period = 20.0;
  const TreeRun run = live_setup(w, ctx);
  hpd::rt::LiveConfig lc = live_config(ctx);
  std::filesystem::create_directories(lc.socket_dir);
  const hpd::rt::LiveResult live = hpd::rt::run_live_experiment(run.cfg, lc);
  std::filesystem::remove_all(lc.socket_dir);
  const SeqNum rounds = run.shape.rounds;
  rep.clean("live reactor run (3 nodes, 3 rounds)",
            check_live(run, live, ctx), rounds);

  hpd::rt::LiveResult lost = live;
  lost.transport.msgs_delivered -= 1;
  rep.corrupt("live result with delivered != reliable_sent", "transport",
              check_live(run, lost, ctx), rounds);
}

}  // namespace

int selftest(Context& ctx) {
  Report rep;
  ingest_cases(ctx, rep);
  sim_cases(ctx, rep);
  live_cases(ctx, rep);
  return rep.exit_code();
}

}  // namespace perfbench
