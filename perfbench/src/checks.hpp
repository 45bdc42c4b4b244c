// Correctness checks applied to every benchmark run. Each check judges the
// program's output against the generator's record (the recorded pulse
// execution) or against properties Definitely(Φ) detection must have; none
// compares against a stored copy of earlier output.
//
// Violations are strings tagged "<check>: detail" so the self-test can
// assert that a corrupted input trips the check it was built for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/occurrence.hpp"
#include "metrics/counters.hpp"
#include "trace/execution.hpp"

namespace perfbench {

using hpd::Interval;
using hpd::ProcessId;
using hpd::SeqNum;
using hpd::SimTime;
using hpd::VectorClock;
using hpd::detect::OccurrenceRecord;

/// The pulse generator's schedule: round r runs in
/// [start + r·period, start + (r+1)·period).
struct PulseShape {
  SeqNum rounds = 0;
  SimTime start = 5.0;
  SimTime period = 40.0;

  long round_at(SimTime t) const;
};

/// (origin, seq) → the generator's interval and its pulse round, built from
/// a recorded execution. An interval's round is the round in which the
/// event that raised it happened. `problems` lists anything in the record
/// itself that contradicts the pulse schedule (an interval raised outside
/// every round, two intervals of one process in one round).
class RoundTable {
 public:
  RoundTable(const hpd::trace::ExecutionRecord& exec, const PulseShape& shape);

  struct Entry {
    long round = -1;
    const Interval* x = nullptr;
  };
  /// Null when the record holds no such interval.
  const Entry* find(ProcessId origin, SeqNum seq) const;
  /// Whether the execution formed round `round`: every process raised an
  /// interval in it and those intervals satisfy lo(x) <= hi(y) pairwise,
  /// so Definitely(Φ) holds for them. Tested on the clock words, like
  /// lo_le_hi. A round the execution did not form has no detection to make.
  bool formed(std::size_t round) const;

  std::vector<std::string> problems;

 private:
  std::unordered_map<std::uint64_t, Entry> map_;
  std::vector<bool> formed_;
};

/// lo ≤ hi component by component — the benchmark's own loop over the clock
/// words, deliberately not hpd::vc_leq.
bool lo_le_hi(const VectorClock& lo, const VectorClock& hi);

/// Definitely(Φ) safety of one solution: lo(x) ≤ hi(y) for every ordered
/// member pair. Empty when it holds.
std::optional<std::string> safety_violation(const std::vector<Interval>& xs);

struct Verdict {
  std::vector<std::string> violations;
  std::uint64_t failed_rounds = 0;
  /// A check failed that no single round accounts for (an oracle, the
  /// transport accounting, the engines disagreeing, a wrong occurrence
  /// count, a bad detection of unknown round); every round then fails.
  bool whole_run = false;
  /// Detection latency of every root detection that passed its checks.
  std::vector<SimTime> latencies;
  /// Rounds wholly outside the outage that the execution did not form, so
  /// that no detection was required of them (check_root_detections).
  std::uint64_t unformed_rounds = 0;
};

/// Daemon ingestion of an R-round, n-process stream: exactly R occurrences,
/// the i-th from round i with one member per process, each member equal to
/// the generator's interval, every member pair safe, and the reader at END
/// after exactly the number of events written.
Verdict check_ingest(const RoundTable& table, std::size_t n,
                     const PulseShape& shape,
                     const std::vector<OccurrenceRecord>& occ,
                     std::uint64_t events_read, std::uint64_t events_written,
                     bool saw_end);

/// A crash of `node` at `down` and its revival at `up`; `settle` extends the
/// window for the revived node to reattach.
struct Outage {
  ProcessId node = hpd::kNoProcess;
  SimTime down = 0.0;
  SimTime up = 0.0;
  SimTime settle = 0.0;
};

/// Root detections of a tree run (simulated or live). A root detection is a
/// detection at `root` whose coverage — the origins of its aggregate's base
/// intervals — equals the live set at its time (the program's `global`
/// flag also counts orphans and is not used). Each must take every member
/// from one round, match the generator's record and be safe; every round
/// that lies wholly outside the outage and that the execution formed (see
/// RoundTable::formed) must be detected exactly once; no round may be
/// detected twice.
Verdict check_root_detections(const RoundTable& table, std::size_t n,
                              const PulseShape& shape, ProcessId root,
                              const std::vector<OccurrenceRecord>& occ,
                              const std::optional<Outage>& outage);

/// Session-layer accounting of a failure-free, chaos-free live run: every
/// accepted message delivered exactly once and no loss surfaced.
std::vector<std::string> check_transport(const hpd::TransportCounters& t);

/// Order-sensitive fingerprint of one occurrence (index, member identities,
/// aggregate clocks), used to show a timed pass reproduced a fully checked
/// one.
std::uint64_t fingerprint(const OccurrenceRecord& rec);

}  // namespace perfbench
