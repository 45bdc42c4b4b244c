// Shared declarations of the end-to-end benchmark: the workload shapes, the
// three measured paths (daemon ingestion, fault-tolerant simulation, live
// reactor run) and the metric sink they report into.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "mc/mc_case.hpp"
#include "rt/backend.hpp"
#include "rt/live_runner.hpp"
#include "runner/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

/// One workload: the input make-up of all three paths.
struct Workload {
  std::string name;
  // Daemon ingestion: a failure-free pulse stream recorded on dary:D:H.
  std::size_t stream_d = 0;
  std::size_t stream_h = 0;
  SeqNum stream_rounds = 0;
  // Fault-tolerant simulation and live run: both on dary:D:H.
  std::size_t tree_d = 0;
  std::size_t tree_h = 0;
  SeqNum sim_rounds = 0;
  SimTime sim_period = 0.0;
  ProcessId crash_node = 0;  ///< an internal node, crashed then revived
  SeqNum live_rounds = 0;
  SimTime live_period = 0.0;
};

const Workload* find_workload(const std::string& name);

/// Named results of one run; printed as the final JSON line.
struct Metrics {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False once a check fails that no single round accounts for (see
  /// Verdict::whole_run), or a violation is reported with no failed round.
  bool correct = true;
  std::vector<std::string> violations;
  std::map<std::string, std::size_t> passes;  ///< timed passes per phase

  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = Value{value, unit};
  }
  void fail(const Verdict& v, std::uint64_t attempted_rounds) {
    attempted += attempted_rounds;
    failed += v.failed_rounds;
    correct = correct && !v.whole_run &&
              (v.violations.empty() || v.failed_rounds > 0);
    for (const std::string& s : v.violations) {
      if (violations.size() < 20) {
        violations.push_back(s);
      }
    }
  }
};

/// Everything a phase needs besides its inputs.
struct Context {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;  ///< null in untraced runs
  std::string out_dir;       ///< scratch space inside the checkout
};

/// A pulse case on a balanced d-ary tree, failure-free unless the caller
/// adds a fault plan.
hpd::mc::McCase pulse_case(std::size_t d, std::size_t h, SeqNum rounds,
                           SimTime period, std::uint64_t seed);
/// mc::build_case, spanned as "net.build": its work is the net builders
/// (balanced tree, tree topology, cross links for repair).
hpd::runner::ExperimentConfig build_config(const hpd::mc::McCase& c,
                                           Context& ctx);
/// The pulse schedule build_case gives the case (start 5, participation 1).
PulseShape shape_of(const hpd::mc::McCase& c);

// ---- Daemon ingestion --------------------------------------------------------

/// A recorded stream on disk plus the generator's record behind it.
struct Stream {
  std::string path;
  std::size_t processes = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  PulseShape shape;
  hpd::trace::ExecutionRecord exec;
  std::unique_ptr<RoundTable> table;
};

/// Record a failure-free pulse run and write its sink-ingestion schedule the
/// way `hpd_sim --dump-stream` does.
std::unique_ptr<Stream> record_stream(const Workload& w, Context& ctx,
                                      const std::string& path);

enum class Engine { kCentral, kHier, kSlicing };
const char* engine_name(Engine e);

struct IngestPass {
  double seconds = 0.0;
  std::uint64_t events = 0;
  bool saw_end = false;
  std::vector<std::uint64_t> fingerprints;  ///< one per occurrence
  std::vector<OccurrenceRecord> records;    ///< only when asked to keep them
  std::uint64_t vc_comparisons = 0;
  std::uint64_t slice_comparisons = 0;
  std::uint64_t stored_peak = 0;
};

/// Read the stream back through ckpt::EventStreamReader into one engine,
/// exactly as `hpd_sim --daemon` feeds it.
IngestPass ingest_pass(const Stream& s, Engine e, bool keep_records,
                       Context& ctx);

/// Traced runs only: the reader's inner steps (wire::FrameReader framing and
/// the interval codec) driven one by one over the stream's bytes, so each
/// gets its own span. Returns the number of events decoded.
std::uint64_t decode_pass(const std::vector<std::uint8_t>& file_bytes,
                          Context& ctx);

void run_ingest(Context& ctx, const Stream& s, double budget_s, Metrics& m);

// ---- Fault-tolerant simulation and live run ----------------------------------

/// A tree run prepared at set-up: the case (for the oracles), the config
/// built from it, and the schedule the checks judge it by.
struct TreeRun {
  hpd::mc::McCase c;
  hpd::runner::ExperimentConfig cfg;
  PulseShape shape;
  std::optional<Outage> outage;
};

TreeRun sim_setup(const Workload& w, Context& ctx);
TreeRun live_setup(const Workload& w, Context& ctx);

/// The timed simulator passes: their times, a fingerprint of each, and the
/// counts of the first (every pass has the same).
struct SimPasses {
  std::vector<double> times;
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t sim_events = 0;
  std::uint64_t dropped_messages = 0;
  hpd::MetricsRegistry metrics;
};

/// Back-to-back runner::run_experiment passes for `budget_s` seconds, in
/// the configuration `hpd_sim` uses.
SimPasses run_sim(const TreeRun& run, Context& ctx, double budget_s);
/// One pass with the execution record, provenance and solutions the checks
/// need, checked in full; every timed pass must reproduce it. Sets the
/// simulator metrics.
void check_sim(const TreeRun& run, Context& ctx, const SimPasses& passes,
               Metrics& m);
/// kLiveRuns rt::run_live_experiment runs over the epoll reactor and Unix
/// sockets, each checked in full.
void run_live(const TreeRun& run, Context& ctx, Metrics& m);
/// One more live run in the configuration `hpd_sim --live` uses, without the
/// execution record, provenance and solutions the checks need, so that the
/// peak resident size taken after it is the live path's own. Only its
/// transport accounting can be checked.
void run_live_bare(const TreeRun& run, Context& ctx, Metrics& m);

/// Live run length in wall seconds (the run is paced by the wall clock).
double live_wall_seconds(const TreeRun& run);

/// Live settings shared by the workload and the self-test.
inline constexpr double kLiveScale = 0.02;
inline constexpr int kLiveWorkers = 3;
inline constexpr int kLiveRuns = 3;
hpd::rt::LiveConfig live_config(const Context& ctx);

/// The run's checks: root detections against the generator's record, and
/// mc::check_oracles (spanned "mc.check_oracles"). Oracle violations make
/// every round of the run fail.
Verdict check_tree_run(const TreeRun& run,
                       const hpd::runner::ExperimentResult& res, Context& ctx);
/// check_tree_run plus the transport accounting of a live run; a transport
/// violation or an interrupted run fails every round.
Verdict check_live(const TreeRun& run, const hpd::rt::LiveResult& live,
                   Context& ctx);

// ---- Self-test ---------------------------------------------------------------

/// Shows every correctness check failing on a corrupted input (and passing
/// on the clean one). Returns the process exit code.
int selftest(Context& ctx);

}  // namespace perfbench
