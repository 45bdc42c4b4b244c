// Daemon ingestion: a recorded pulse stream read back through the durable
// event-stream reader into each detection engine, the way `hpd_sim --daemon`
// does it (process 0 is the sink / star root; everyone else's intervals
// arrive as reports).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "ckpt/event_stream.hpp"
#include "ckpt/interval_codec.hpp"
#include "core/hier_engine.hpp"
#include "detect/centralized.hpp"
#include "detect/offline/replay.hpp"
#include "detect/slicing.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace perfbench {

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A timed pass must reproduce the checked pass: every event read, the
/// same occurrences in the same order. A stopped reader or another count
/// fails every round; otherwise each differing occurrence fails its round.
Verdict check_repeat(const IngestPass& p,
                     const std::vector<std::uint64_t>& reference,
                     const Stream& s, Engine e) {
  Verdict v;
  if (!p.saw_end || p.events != s.events ||
      p.fingerprints.size() != reference.size()) {
    v.whole_run = true;
    v.failed_rounds = s.shape.rounds;
  } else {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      v.failed_rounds += p.fingerprints[i] != reference[i] ? 1 : 0;
    }
  }
  if (v.failed_rounds != 0) {
    v.violations.push_back(std::string("repeat: timed ") + engine_name(e) +
                           " pass differs from the checked pass");
  }
  return v;
}

}  // namespace

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kCentral:
      return "central";
    case Engine::kHier:
      return "hier";
    case Engine::kSlicing:
      return "slicing";
  }
  return "?";
}

std::unique_ptr<Stream> record_stream(const Workload& w, Context& ctx,
                                      const std::string& path) {
  auto s = std::make_unique<Stream>();
  const hpd::mc::McCase c =
      pulse_case(w.stream_d, w.stream_h, w.stream_rounds, 40.0, ctx.seed);
  hpd::runner::ExperimentConfig cfg = build_config(c, ctx);
  // As `hpd_sim --dump-stream` records: no provenance rides the intervals.
  cfg.track_provenance = false;
  cfg.keep_occurrence_records = false;
  cfg.occurrence_solutions = false;
  hpd::runner::ExperimentResult res;
  {
    Span span(ctx.tracer, ctx.tracer ? ctx.tracer->id("runner.record") : 0);
    res = hpd::runner::run_experiment(cfg);
  }
  s->exec = std::move(res.execution);
  s->shape = shape_of(c);
  s->processes = s->exec.procs.size();
  s->path = path;
  {
    Span span(ctx.tracer, ctx.tracer ? ctx.tracer->id("ckpt.write") : 0);
    hpd::ckpt::EventStreamWriter out(path, s->processes);
    for (const auto& [p, i] :
         hpd::detect::offline::arrival_order(s->exec, std::nullopt)) {
      out.append(s->exec.procs[p].intervals[i]);
    }
    out.finish();
    s->events = out.events_written();
  }
  s->bytes = std::filesystem::file_size(path);
  s->table = std::make_unique<RoundTable>(s->exec, s->shape);
  return s;
}

IngestPass ingest_pass(const Stream& s, Engine e, bool keep_records,
                       Context& ctx) {
  IngestPass out;
  out.fingerprints.reserve(s.shape.rounds);
  auto on_occurrence = [&out, keep_records](const OccurrenceRecord& rec) {
    out.fingerprints.push_back(fingerprint(rec));
    if (keep_records) {
      out.records.push_back(rec);
    }
  };
  Tracer* tr = ctx.tracer;
  const std::string engine_span = e == Engine::kHier ? "core.hier.feed"
                                  : e == Engine::kCentral
                                      ? "detect.central.feed"
                                      : "detect.slicing.feed";
  const std::uint32_t pass_id =
      tr ? tr->id(std::string("ingest.") + engine_name(e)) : 0;
  const std::uint32_t next_id = tr ? tr->id("ckpt.next") : 0;
  const std::uint32_t feed_id = tr ? tr->id(engine_span) : 0;

  std::vector<ProcessId> procs(s.processes);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<ProcessId>(i);
  }

  // The whole pass is timed: engine construction, reader open, every
  // next() and every feed, as one daemon run pays them.
  const Clock::time_point t0 = Clock::now();
  Span pass(tr, pass_id);
  auto drain = [&](auto&& feed) {
    hpd::ckpt::EventStreamReader reader(s.path);
    Interval x;
    for (;;) {
      hpd::ckpt::EventStreamReader::Status st;
      {
        Span span(tr, next_id);
        st = reader.next(x);
      }
      if (st != hpd::ckpt::EventStreamReader::Status::kEvent) {
        out.saw_end = st == hpd::ckpt::EventStreamReader::Status::kEnd;
        break;
      }
      Span span(tr, feed_id);
      feed(x);
    }
    out.events = reader.events_read();
  };
  switch (e) {
    case Engine::kCentral: {
      hpd::detect::CentralSink sink(0, procs, {on_occurrence, nullptr});
      drain([&sink](const Interval& x) {
        x.origin == sink.self() ? sink.local_interval(x) : sink.report(x);
      });
      out.seconds = seconds_since(t0);
      out.vc_comparisons = sink.engine().comparisons();
      out.stored_peak = sink.engine().stored_peak();
      break;
    }
    case Engine::kSlicing: {
      hpd::detect::SlicingDetector sink(0, procs, {on_occurrence, nullptr});
      drain([&sink](const Interval& x) {
        x.origin == sink.self() ? sink.local_interval(x) : sink.report(x);
      });
      out.seconds = seconds_since(t0);
      out.vc_comparisons = sink.engine().comparisons();
      out.slice_comparisons = sink.slicer().slice_comparisons();
      out.stored_peak = sink.engine().stored_peak();
      break;
    }
    case Engine::kHier: {
      hpd::core::HierNodeEngine::Config cfg;
      cfg.self = 0;
      cfg.has_parent = false;
      hpd::core::HierNodeEngine::Hooks hooks;
      hooks.on_occurrence = on_occurrence;
      hpd::core::HierNodeEngine root(cfg, std::move(hooks));
      for (std::size_t j = 1; j < s.processes; ++j) {
        root.add_child(static_cast<ProcessId>(j), 1);
      }
      drain([&root](const Interval& x) {
        x.origin == root.self() ? root.local_interval(x)
                                : root.child_report(x.origin, x);
      });
      out.seconds = seconds_since(t0);
      out.vc_comparisons = root.engine().comparisons();
      out.stored_peak = root.engine().stored_peak();
      break;
    }
  }
  return out;
}

std::uint64_t decode_pass(const std::vector<std::uint8_t>& file_bytes,
                          Context& ctx) {
  Tracer* tr = ctx.tracer;
  const std::uint32_t frame_id = tr ? tr->id("wire.frame") : 0;
  const std::uint32_t decode_id = tr ? tr->id("wire.decode") : 0;
  // The event-stream layout of src/ckpt/event_stream.cpp: an 8-byte magic,
  // then frames whose first payload byte tags them (0x01 for an event).
  // The caller compares the events decoded here with the events written,
  // so a change of layout fails the run instead of timing something else.
  constexpr std::size_t kMagic = 8;
  constexpr std::uint8_t kTagEvent = 0x01;
  hpd::wire::FrameReader frames;
  {
    // The bulk hand-over of the file is not a per-event cost.
    Span span(tr, tr ? tr->id("wire.feed") : 0);
    frames.feed({file_bytes.data() + kMagic, file_bytes.size() - kMagic});
  }
  std::uint64_t events = 0;
  for (;;) {
    std::optional<std::vector<std::uint8_t>> payload;
    {
      Span span(tr, frame_id);
      payload = frames.next();
    }
    if (!payload.has_value()) {
      break;
    }
    if (payload->empty() || (*payload)[0] != kTagEvent) {
      continue;  // HEADER / END
    }
    Span span(tr, decode_id);
    hpd::wire::Decoder d({payload->data() + 1, payload->size() - 1});
    hpd::ckpt::internal::get_interval_full(d);
    ++events;
  }
  return events;
}

void run_ingest(Context& ctx, const Stream& s, double budget_s, Metrics& m) {
  constexpr Engine kEngines[] = {Engine::kCentral, Engine::kHier,
                                 Engine::kSlicing};
  // One fully checked pass per engine (untimed and untraced: it copies
  // every solution), whose fingerprints every timed pass must reproduce.
  std::vector<std::uint64_t> reference;
  std::map<Engine, IngestPass> checked;
  Context untraced = ctx;
  untraced.tracer = nullptr;
  for (const Engine e : kEngines) {
    IngestPass p = ingest_pass(s, e, true, untraced);
    Verdict v = check_ingest(*s.table, s.processes, s.shape, p.records,
                             p.events, s.events, p.saw_end);
    for (std::string& msg : v.violations) {
      msg = std::string(engine_name(e)) + " " + msg;
    }
    if (e == Engine::kCentral) {
      reference = p.fingerprints;
    } else if (p.fingerprints != reference) {
      v.violations.push_back(std::string("engines: ") + engine_name(e) +
                             " occurrence sequence differs from central's");
      v.whole_run = true;
    }
    m.fail(v, s.shape.rounds);
    p.records.clear();
    checked.emplace(e, std::move(p));
  }

  std::vector<std::uint8_t> bytes;
  if (ctx.tracer != nullptr) {
    bytes = read_file(s.path);
  }
  std::map<Engine, std::vector<double>> times;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  do {
    for (const Engine e : kEngines) {
      const IngestPass p = ingest_pass(s, e, false, ctx);
      times[e].push_back(p.seconds);
      m.fail(check_repeat(p, reference, s, e), s.shape.rounds);
    }
    if (ctx.tracer != nullptr) {
      const std::uint64_t decoded = decode_pass(bytes, ctx);
      if (decoded != s.events) {
        Verdict v;
        v.violations.push_back("decode: " + std::to_string(decoded) + " of " +
                               std::to_string(s.events) +
                               " events decoded frame by frame");
        v.whole_run = true;
        v.failed_rounds = s.shape.rounds;
        m.fail(v, 0);
      }
    }
  } while (Clock::now() < deadline);

  auto fastest = [&](Engine e) {
    return *std::min_element(times[e].begin(), times[e].end());
  };
  const auto ev = static_cast<double>(s.events);
  m.set("central_ingest_eps", ev / fastest(Engine::kCentral), "events/s");
  m.set("hier_ingest_eps", ev / fastest(Engine::kHier), "events/s");
  m.set("slicing_ingest_eps", ev / fastest(Engine::kSlicing), "events/s");
  m.set("stream_bytes_per_event",
        static_cast<double>(s.bytes) / ev, "B/event");
  m.passes["ingest"] = times[Engine::kCentral].size();

  if (ctx.tracer == nullptr) {
    return;
  }
  // Spans hold one call each: one next(), frame, decode or feed per event.
  const Tracer& t = *ctx.tracer;
  m.set("ckpt.next_ns_per_event", t.mean_ns("ckpt.next"), "ns/event");
  m.set("wire.frame_ns_per_event", t.mean_ns("wire.frame"), "ns/event");
  m.set("wire.decode_ns_per_event", t.mean_ns("wire.decode"), "ns/event");
  m.set("detect.central_ns_per_event", t.mean_ns("detect.central.feed"),
        "ns/event");
  m.set("core.hier_ns_per_event", t.mean_ns("core.hier.feed"), "ns/event");
  m.set("detect.slicing_ns_per_event", t.mean_ns("detect.slicing.feed"),
        "ns/event");
  auto cmp = [&](Engine e, std::uint64_t IngestPass::*field) {
    return static_cast<double>(checked.at(e).*field) / ev;
  };
  m.set("detect.central_vc_comparisons_per_event",
        cmp(Engine::kCentral, &IngestPass::vc_comparisons), "count/event");
  m.set("core.hier_vc_comparisons_per_event",
        cmp(Engine::kHier, &IngestPass::vc_comparisons), "count/event");
  m.set("detect.slicing_vc_comparisons_per_event",
        cmp(Engine::kSlicing, &IngestPass::vc_comparisons), "count/event");
  m.set("detect.slice_comparisons_per_event",
        cmp(Engine::kSlicing, &IngestPass::slice_comparisons), "count/event");
  std::uint64_t peak = 0;
  for (const auto& [e, p] : checked) {
    peak = std::max(peak, p.stored_peak);
  }
  m.set("detect.stored_peak", static_cast<double>(peak), "intervals");
}

}  // namespace perfbench
