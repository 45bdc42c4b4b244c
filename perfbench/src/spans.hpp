// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent). Spans are recorded by the benchmark
// around its own calls into hpd layers — the library is not instrumented —
// so per-layer numbers come from outside the program under test. Every span
// feeds per-name totals; the first `kKeep` spans are also kept verbatim and
// written out as TSV when the run ends (the totals stay exact beyond that).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::size_t kKeep = std::size_t{1} << 18;

  struct Total {
    std::string name;
    std::int64_t ns = 0;
    std::uint64_t count = 0;
  };

  /// Interns `name`; the returned id is what Span takes.
  std::uint32_t id(const std::string& name) {
    for (std::size_t i = 0; i < totals_.size(); ++i) {
      if (totals_[i].name == name) {
        return static_cast<std::uint32_t>(i);
      }
    }
    totals_.push_back({name, 0, 0});
    return static_cast<std::uint32_t>(totals_.size() - 1);
  }

  /// Summed duration and count of every span named `name`.
  Total total(const std::string& name) const {
    for (const Total& t : totals_) {
      if (t.name == name) {
        return t;
      }
    }
    return {name, 0, 0};
  }

  /// Mean span duration in ns (0 when no such span was recorded).
  double mean_ns(const std::string& name) const {
    const Total t = total(name);
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.ns) /
                              static_cast<double>(t.count);
  }

  void write_tsv(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "# spans kept " << kept_.size() << " of " << recorded_
        << "; parent -1 = top level; times in ns\nindex\tname\tstart\tend"
           "\tparent\n";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Rec& r = kept_[i];
      out << i << '\t' << totals_[r.name].name << '\t' << r.start << '\t'
          << r.end << '\t' << r.parent << '\n';
    }
    out << "# totals: name\tns\tcount\n";
    for (const Total& t : totals_) {
      out << "#\t" << t.name << '\t' << t.ns << '\t' << t.count << '\n';
    }
  }

 private:
  friend class Span;

  struct Rec {
    std::uint32_t name = 0;
    std::int64_t parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  std::vector<Total> totals_;
  std::vector<Rec> kept_;
  std::uint64_t recorded_ = 0;
  std::int64_t open_ = -1;  ///< kept index of the innermost open span
};

/// RAII span; a no-op when the tracer is null (untraced runs).
class Span {
 public:
  Span(Tracer* t, std::uint32_t name) : t_(t), name_(name) {
    if (t_ == nullptr) {
      return;
    }
    parent_ = t_->open_;
    if (t_->kept_.size() < Tracer::kKeep) {
      slot_ = static_cast<std::int64_t>(t_->kept_.size());
      t_->kept_.push_back({name_, parent_, 0, 0});
      t_->open_ = slot_;
    }
    start_ = now_ns();
  }
  ~Span() {
    if (t_ == nullptr) {
      return;
    }
    const std::int64_t end = now_ns();
    Tracer::Total& tot = t_->totals_[name_];
    tot.ns += end - start_;
    tot.count += 1;
    t_->recorded_ += 1;
    if (slot_ >= 0) {
      Tracer::Rec& r = t_->kept_[static_cast<std::size_t>(slot_)];
      r.start = start_;
      r.end = end;
      t_->open_ = parent_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::uint32_t name_;
  std::int64_t parent_ = -1;
  std::int64_t slot_ = -1;
  std::int64_t start_ = 0;
};

}  // namespace perfbench
