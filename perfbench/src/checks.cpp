#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "interval/interval.hpp"

namespace perfbench {

namespace {

std::uint64_t key(ProcessId origin, SeqNum seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin))
          << 40) ^
         static_cast<std::uint64_t>(seq);
}

bool same_words(const VectorClock& a, const VectorClock& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(hpd::ClockValue)) == 0;
}

bool same_interval(const Interval& a, const Interval& b) {
  return a.origin == b.origin && a.seq == b.seq && same_words(a.lo, b.lo) &&
         same_words(a.hi, b.hi);
}

std::string where(const OccurrenceRecord& rec) {
  return "occurrence " + std::to_string(rec.index) + " at node " +
         std::to_string(rec.detector);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mix_clock(std::uint64_t h, const VectorClock& c) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    h = mix(h, c.data()[i]);
  }
  return h;
}

}  // namespace

long PulseShape::round_at(SimTime t) const {
  return static_cast<long>(std::floor((t - start) / period));
}

RoundTable::RoundTable(const hpd::trace::ExecutionRecord& exec,
                       const PulseShape& shape) {
  for (std::size_t p = 0; p < exec.procs.size(); ++p) {
    const std::vector<hpd::trace::EventRecord>& events = exec.procs[p].events;
    std::vector<bool> seen(shape.rounds, false);
    for (const Interval& x : exec.procs[p].intervals) {
      // lo is the clock of the event that raised the predicate; its own
      // component identifies that event, whose time gives the round (the
      // completion time does not: an orphan completes late).
      const hpd::ClockValue own = x.lo[p];
      const auto ev = std::lower_bound(
          events.begin(), events.end(), own,
          [p](const hpd::trace::EventRecord& e, hpd::ClockValue v) {
            return e.vc[p] < v;
          });
      const long r = ev == events.end() || ev->vc[p] != own
                         ? -1
                         : shape.round_at(ev->time);
      if (r < 0 || r >= static_cast<long>(shape.rounds)) {
        problems.push_back("generator: process " + std::to_string(p) +
                           " raised an interval outside every round");
        continue;
      }
      if (seen[static_cast<std::size_t>(r)]) {
        problems.push_back("generator: process " + std::to_string(p) +
                           " has two intervals in round " + std::to_string(r));
      }
      seen[static_cast<std::size_t>(r)] = true;
      map_[key(x.origin, x.seq)] = Entry{r, &x};
    }
  }

  // Round r is formed when every process raised an interval in it and
  // lo(x) <= hi(y) for every pair of them, which holds component by
  // component exactly when the largest lo is at most the smallest hi.
  const std::size_t n = exec.procs.size();
  std::vector<std::size_t> count(shape.rounds, 0);
  std::vector<std::vector<hpd::ClockValue>> max_lo(
      shape.rounds, std::vector<hpd::ClockValue>(n, 0));
  std::vector<std::vector<hpd::ClockValue>> min_hi(
      shape.rounds,
      std::vector<hpd::ClockValue>(
          n, std::numeric_limits<hpd::ClockValue>::max()));
  for (const auto& [k, e] : map_) {
    const auto r = static_cast<std::size_t>(e.round);
    ++count[r];
    for (std::size_t i = 0; i < n && i < e.x->lo.size(); ++i) {
      max_lo[r][i] = std::max(max_lo[r][i], e.x->lo.data()[i]);
      min_hi[r][i] = std::min(min_hi[r][i], e.x->hi.data()[i]);
    }
  }
  formed_.assign(shape.rounds, false);
  for (std::size_t r = 0; r < shape.rounds; ++r) {
    bool ok = count[r] == n;
    for (std::size_t i = 0; ok && i < n; ++i) {
      ok = max_lo[r][i] <= min_hi[r][i];
    }
    formed_[r] = ok;
  }
}

bool RoundTable::formed(std::size_t round) const {
  return round < formed_.size() && formed_[round];
}

const RoundTable::Entry* RoundTable::find(ProcessId origin,
                                          SeqNum seq) const {
  const auto it = map_.find(key(origin, seq));
  return it == map_.end() ? nullptr : &it->second;
}

bool lo_le_hi(const VectorClock& lo, const VectorClock& hi) {
  if (lo.size() != hi.size()) {
    return false;
  }
  const hpd::ClockValue* a = lo.data();
  const hpd::ClockValue* b = hi.data();
  for (std::size_t i = 0; i < lo.size(); ++i) {
    if (a[i] > b[i]) {
      return false;
    }
  }
  return true;
}

std::optional<std::string> safety_violation(const std::vector<Interval>& xs) {
  for (const Interval& x : xs) {
    for (const Interval& y : xs) {
      if (!lo_le_hi(x.lo, y.hi)) {
        return "lo of (" + std::to_string(x.origin) + "," +
               std::to_string(x.seq) + ") is not <= hi of (" +
               std::to_string(y.origin) + "," + std::to_string(y.seq) + ")";
      }
    }
  }
  return std::nullopt;
}

Verdict check_ingest(const RoundTable& table, std::size_t n,
                     const PulseShape& shape,
                     const std::vector<OccurrenceRecord>& occ,
                     std::uint64_t events_read, std::uint64_t events_written,
                     bool saw_end) {
  Verdict v;
  // A reader that stops early, or an occurrence count other than R, is not
  // the fault of one round: it fails them all.
  if (!saw_end || events_read != events_written) {
    v.violations.push_back("end: reader stopped after " +
                           std::to_string(events_read) + " of " +
                           std::to_string(events_written) + " events" +
                           (saw_end ? "" : " without reaching END"));
    v.whole_run = true;
  }
  if (occ.size() != shape.rounds) {
    v.violations.push_back("count: " + std::to_string(occ.size()) +
                           " occurrences on a " +
                           std::to_string(shape.rounds) + "-round stream");
    v.whole_run = true;
  }
  std::vector<bool> good(shape.rounds, false);
  for (std::size_t i = 0; i < occ.size(); ++i) {
    const OccurrenceRecord& rec = occ[i];
    const std::size_t before = v.violations.size();
    if (rec.solution.size() != n) {
      v.violations.push_back("members: " + where(rec) + " has " +
                             std::to_string(rec.solution.size()) +
                             " members for " + std::to_string(n) +
                             " processes");
    }
    std::vector<bool> origin_seen(n, false);
    for (const Interval& x : rec.solution) {
      const auto o = static_cast<std::size_t>(x.origin);
      if (x.origin < 0 || o >= n || origin_seen[o]) {
        v.violations.push_back("members: " + where(rec) +
                               " repeats or invents process " +
                               std::to_string(x.origin));
        continue;
      }
      origin_seen[o] = true;
      const RoundTable::Entry* e = table.find(x.origin, x.seq);
      if (e == nullptr || !same_interval(*e->x, x)) {
        v.violations.push_back("record: " + where(rec) + " member (" +
                               std::to_string(x.origin) + "," +
                               std::to_string(x.seq) +
                               ") differs from the generator's interval");
        continue;
      }
      if (e->round != static_cast<long>(i)) {
        v.violations.push_back("round: " + where(rec) + " (position " +
                               std::to_string(i + 1) + ") holds member (" +
                               std::to_string(x.origin) + "," +
                               std::to_string(x.seq) + ") of round " +
                               std::to_string(e->round + 1));
      }
    }
    if (auto bad = safety_violation(rec.solution)) {
      v.violations.push_back("safety: " + where(rec) + ": " + *bad);
    }
    if (v.violations.size() == before && i < good.size()) {
      good[i] = true;
    }
  }
  v.failed_rounds =
      v.whole_run ? shape.rounds
                  : static_cast<std::uint64_t>(
                        std::count(good.begin(), good.end(), false));
  return v;
}

Verdict check_root_detections(const RoundTable& table, std::size_t n,
                              const PulseShape& shape, ProcessId root,
                              const std::vector<OccurrenceRecord>& occ,
                              const std::optional<Outage>& outage) {
  Verdict v;
  std::vector<int> valid(shape.rounds, 0);
  std::vector<bool> bad_round(shape.rounds, false);
  for (const OccurrenceRecord& rec : occ) {
    if (rec.detector != root) {
      continue;
    }
    const bool node_down = outage.has_value() && rec.time >= outage->down &&
                           rec.time < outage->up;
    const std::size_t live = node_down ? n - 1 : n;
    const auto bases = hpd::base_intervals(rec.aggregate);
    std::vector<bool> covered(n, false);
    std::size_t coverage = 0;
    for (const auto& [origin, seq] : bases) {
      const auto o = static_cast<std::size_t>(origin);
      if (origin >= 0 && o < n && !covered[o] &&
          !(node_down && origin == outage->node)) {
        covered[o] = true;
        ++coverage;
      }
    }
    if (coverage != live || bases.size() != live) {
      continue;  // not a root detection: the root covers a partial tree
    }
    const std::size_t before = v.violations.size();
    long round = -2;
    for (const auto& [origin, seq] : bases) {
      const RoundTable::Entry* e = table.find(origin, seq);
      if (e == nullptr) {
        v.violations.push_back("record: " + where(rec) + " base (" +
                               std::to_string(origin) + "," +
                               std::to_string(seq) +
                               ") is not in the generator's record");
        break;
      }
      if (round == -2) {
        round = e->round;
      } else if (e->round != round) {
        v.violations.push_back("round: " + where(rec) +
                               " mixes rounds " + std::to_string(round + 1) +
                               " and " + std::to_string(e->round + 1));
        break;
      }
    }
    for (const Interval& x : rec.solution) {
      const auto xb = hpd::base_intervals(x);
      if (x.aggregated || xb.size() != 1) {
        continue;  // an aggregate: identified through its bases above
      }
      const RoundTable::Entry* e = table.find(xb[0].first, xb[0].second);
      if (e == nullptr || !same_interval(*e->x, x)) {
        v.violations.push_back("record: " + where(rec) + " member (" +
                               std::to_string(x.origin) + "," +
                               std::to_string(x.seq) +
                               ") differs from the generator's interval");
      }
    }
    if (auto bad = safety_violation(rec.solution)) {
      v.violations.push_back("safety: " + where(rec) + ": " + *bad);
    }
    if (round < 0 || round >= static_cast<long>(shape.rounds)) {
      // A bad detection whose round is unknown fails the whole run.
      v.whole_run = v.whole_run || v.violations.size() != before;
      continue;
    }
    const auto r = static_cast<std::size_t>(round);
    if (v.violations.size() != before) {
      bad_round[r] = true;
    } else {
      valid[r] += 1;
      v.latencies.push_back(rec.latency());
    }
  }
  for (std::size_t r = 0; r < shape.rounds; ++r) {
    const SimTime from = shape.start + static_cast<SimTime>(r) * shape.period;
    const SimTime to = from + shape.period;
    const bool outside = !outage.has_value() || to <= outage->down ||
                         from >= outage->up + outage->settle;
    // A round the execution did not form has no detection to make: see
    // RoundTable::formed.
    if (outside && !table.formed(r)) {
      ++v.unformed_rounds;
    }
    const bool required = outside && table.formed(r);
    if (valid[r] > 1) {
      v.violations.push_back("twice: round " + std::to_string(r + 1) +
                             " detected " + std::to_string(valid[r]) +
                             " times at the root");
      bad_round[r] = true;
    } else if (required && valid[r] == 0 && !bad_round[r]) {
      v.violations.push_back("missing: round " + std::to_string(r + 1) +
                             " has no root detection with full coverage");
      bad_round[r] = true;
    }
  }
  v.failed_rounds =
      v.whole_run ? shape.rounds
                  : static_cast<std::uint64_t>(std::count(
                        bad_round.begin(), bad_round.end(), true));
  return v;
}

std::vector<std::string> check_transport(const hpd::TransportCounters& t) {
  std::vector<std::string> out;
  if (t.msgs_delivered != t.reliable_sent) {
    out.push_back("transport: delivered " + std::to_string(t.msgs_delivered) +
                  " of " + std::to_string(t.reliable_sent) +
                  " reliably sent messages");
  }
  if (t.surfaced_losses != 0) {
    out.push_back("transport: " + std::to_string(t.surfaced_losses) +
                  " losses surfaced on a failure-free run");
  }
  return out;
}

std::uint64_t fingerprint(const OccurrenceRecord& rec) {
  std::uint64_t h = mix(0, rec.index);
  for (const Interval& x : rec.solution) {
    h = mix(h, key(x.origin, x.seq));
  }
  h = mix_clock(h, rec.aggregate.lo);
  return mix_clock(h, rec.aggregate.hi);
}

}  // namespace perfbench
