// Shared glue for the bench harnesses that regenerate the paper's tables and
// figures.  Each bench binary prints the same rows/series the paper reports;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Benches that gate CI additionally emit a machine-readable
// `BENCH_<name>.json` (metrics + pass/fail checks) via BenchReport; the
// regression gate (bench/check_regression.py) compares those files against
// the checked-in baselines in bench/baselines/.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/barnes_hut.hpp"
#include "apps/sor.hpp"
#include "apps/synthetic.hpp"
#include "apps/water_spatial.hpp"
#include "apps/workload.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/djvm.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/ingest.hpp"
#include "profiling/tcm.hpp"

namespace djvm::bench {

/// Factory for a fresh workload instance (each run needs its own state).
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// A named application at bench scale.  Paper-scale datasets keep every
/// bench run under a couple of minutes; the overhead *ratios* are what we
/// compare, as discussed in DESIGN.md.
struct AppSpec {
  std::string name;
  WorkloadFactory make;
};

inline AppSpec sor_spec(std::uint32_t rows = 2048, std::uint32_t cols = 2048,
                        std::uint32_t rounds = 10) {
  return {"SOR", [=] {
            SorParams p;
            p.rows = rows;
            p.cols = cols;
            p.rounds = rounds;
            return std::make_unique<SorWorkload>(p);
          }};
}

inline AppSpec barnes_hut_spec(std::uint32_t bodies = 4096, std::uint32_t rounds = 5) {
  return {"Barnes-Hut", [=] {
            BarnesHutParams p;
            p.bodies = bodies;
            p.rounds = rounds;
            return std::make_unique<BarnesHutWorkload>(p);
          }};
}

inline AppSpec water_spec(std::uint32_t molecules = 512, std::uint32_t rounds = 5) {
  return {"Water-Spatial", [=] {
            WaterParams p;
            p.molecules = molecules;
            p.rounds = rounds;
            return std::make_unique<WaterSpatialWorkload>(p);
          }};
}

/// The paper's three benchmarks at paper-scale problem sizes.
inline std::vector<AppSpec> paper_apps() {
  return {sor_spec(), barnes_hut_spec(), water_spec()};
}

/// Variant for the wall-clock overhead tables: Water gets more rounds so its
/// run lasts long enough for stable percentage deltas (its 512-molecule
/// problem finishes in a few ms of native compute; the paper's Kaffe JIT
/// took ~30 s over the same rounds).
inline std::vector<AppSpec> overhead_apps() {
  return {sor_spec(), barnes_hut_spec(), water_spec(512, 25)};
}

/// Reduced sizes for the heavier sweeps (Fig. 9 runs 10 rates x 3 apps).
inline std::vector<AppSpec> sweep_apps() {
  return {sor_spec(512, 1024, 4), barnes_hut_spec(2048, 3), water_spec(512, 3)};
}

/// One complete run: fresh Djvm, threads spawned, workload built + run.
struct RunOutput {
  RunMetrics metrics;
  std::unique_ptr<Djvm> djvm;       ///< kept alive for post-run inspection
  std::unique_ptr<Workload> workload;
};

inline RunOutput run_once(Config cfg, const WorkloadFactory& make) {
  RunOutput out;
  out.djvm = std::make_unique<Djvm>(cfg);
  out.djvm->spawn_threads_round_robin(cfg.threads);
  out.workload = make();
  out.metrics = execute_workload(*out.djvm, *out.workload);
  return out;
}

/// Median run() wall time, with extra repetitions for sub-50 ms runs so the
/// small percentage deltas in the overhead tables are stable.
inline double median_run_seconds(const Config& cfg, const WorkloadFactory& make,
                                 int reps = 3) {
  std::vector<double> times;
  const double probe = run_once(cfg, make).metrics.run_seconds;
  times.push_back(probe);
  if (probe < 0.05) reps = 15;
  for (int i = 1; i < reps; ++i) {
    times.push_back(run_once(cfg, make).metrics.run_seconds);
  }
  return median(times);
}

/// Runs with correlation tracking and returns the whole-run weighted TCM.
inline SquareMatrix run_tcm(Config cfg, const WorkloadFactory& make) {
  cfg.oal_transfer = cfg.oal_transfer == OalTransfer::kDisabled
                         ? OalTransfer::kLocalOnly
                         : cfg.oal_transfer;
  RunOutput out = run_once(cfg, make);
  out.djvm->pump_daemon();
  return out.djvm->daemon().build_full();
}

/// True when rate `rate_x` degenerates to (effectively) full sampling for
/// this application — the paper's "N/A" cells: object granularity so coarse
/// that every object is sampled anyway (e.g. SOR's multi-KB rows).
inline bool rate_degenerates_to_full(const Config& base, const WorkloadFactory& make,
                                     std::uint32_t rate_x) {
  Config cfg = base;
  cfg.oal_transfer = OalTransfer::kDisabled;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  auto w = make();
  w->build(djvm);
  djvm.plan().set_rate_all(rate_x);
  // Fraction of heap *bytes* whose objects are sampled.
  std::uint64_t total = 0, covered = 0;
  for (ObjectId o = 0; o < djvm.heap().object_count(); ++o) {
    const auto sz = djvm.heap().meta(o).size_bytes;
    total += sz;
    if (djvm.plan().is_sampled(o)) covered += sz;
  }
  return total > 0 && static_cast<double>(covered) / static_cast<double>(total) > 0.99;
}

/// Packs interval records into ingest arenas of `capacity` entries each,
/// splitting a closing interval across arenas exactly the way
/// IngestHub::append does (each slice carries a full header).  At the
/// default capacity everything lands in one arena, one slice per non-empty
/// record in record order.  The arenas are heap-allocated so slice
/// references into them stay valid while the vector grows.
inline std::vector<std::unique_ptr<OalArena>> pack_arenas(
    std::span<const IntervalRecord> records,
    std::uint32_t capacity = std::numeric_limits<std::uint32_t>::max()) {
  std::vector<std::unique_ptr<OalArena>> arenas;
  for (const IntervalRecord& r : records) {
    std::size_t off = 0;
    while (off < r.entries.size()) {
      if (arenas.empty() || arenas.back()->entries.size() >= capacity) {
        arenas.push_back(std::make_unique<OalArena>());
      }
      OalArena& a = *arenas.back();
      const std::size_t take = std::min<std::size_t>(
          capacity - a.entries.size(), r.entries.size() - off);
      const auto begin = static_cast<std::uint32_t>(a.entries.size());
      a.entries.insert(a.entries.end(), r.entries.begin() + off,
                       r.entries.begin() + off + take);
      a.intervals.push_back(ArenaInterval{r.thread, r.interval, r.node,
                                          r.start_pc, r.end_pc, begin,
                                          static_cast<std::uint32_t>(begin + take)});
      off += take;
    }
  }
  return arenas;
}

/// Every interval slice of one arena, in order — the input
/// TcmBuilder::reorganize_arena takes.
inline std::vector<ArenaSliceRef> slices_of(const OalArena& arena) {
  std::vector<ArenaSliceRef> slices;
  for (std::uint32_t s = 0; s < arena.intervals.size(); ++s) {
    slices.push_back(ArenaSliceRef{&arena, s});
  }
  return slices;
}

/// Every interval slice of the arenas, in order.
inline std::vector<ArenaSliceRef> slices_of(
    const std::vector<std::unique_ptr<OalArena>>& arenas) {
  std::vector<ArenaSliceRef> slices;
  for (const auto& a : arenas) {
    for (std::uint32_t s = 0; s < a->intervals.size(); ++s) {
      slices.push_back(ArenaSliceRef{a.get(), s});
    }
  }
  return slices;
}

/// Milliseconds with two decimals.
inline std::string ms_cell(double seconds) {
  return TextTable::cell(seconds * 1e3, 2);
}

/// Peak resident set size (VmHWM) in KiB from /proc/self/status, or 0 when
/// unavailable (non-Linux, restricted /proc).  High-water-mark, so it only
/// grows within a process — benches that compare two phases must run the
/// phase expected to use *less* memory second.
inline std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kb = 0;
      std::istringstream is(line.substr(6));
      is >> kb;
      return kb;
    }
  }
  return 0;
}

/// "12.34 (+5.67%)" relative to a baseline in seconds.
inline std::string ms_pct_cell(double seconds, double baseline_seconds) {
  return TextTable::cell_with_pct(seconds * 1e3, baseline_seconds * 1e3, 2);
}

/// Machine-readable bench output: named metrics plus pass/fail acceptance
/// checks, written as `BENCH_<name>.json` next to the human-readable tables.
///
/// Metrics carry a regression *goal* so the CI gate knows how to compare a
/// fresh run against the checked-in baseline without bench-specific logic:
///   "min"  — lower is better; regression when current > baseline*(1+slack)
///   "max"  — higher is better; regression when current < baseline*(1-slack)
///   "none" — informational only (default)
/// Baselines are just previously emitted JSONs (bench/baselines/), so
/// regenerating one intentionally is a copy of the fresh artifact.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  /// `slack` is relative to the baseline value; `abs_slack` is an additive
  /// floor so near-zero metrics (error distances) don't gate on FP dust.
  /// `min_improvement` (when >= 0) marks a *ratio* metric (parity = 1.0)
  /// and adds an absolute parity floor on top of the slack bound: goal
  /// "max" requires value >= 1 + m, goal "min" requires value <= 1 - m.
  /// Use for speedup metrics whose whole point is beating a reference
  /// column — slack alone would let them drift to parity across baseline
  /// regenerations.
  void metric(const std::string& key, double value,
              const std::string& goal = "none", double slack = 0.0,
              double abs_slack = 0.0, double min_improvement = -1.0) {
    metrics_.push_back({key, value, goal, slack, abs_slack, min_improvement, -1});
  }

  /// Latency-style metric gated via the `lower_is_better` shorthand: the
  /// regression gate compares directionally and applies a default +-10%
  /// slack when `slack` is negative (the field is then omitted from the
  /// JSON and the gate's default rules).  Accuracy metrics should keep the
  /// explicit `metric()` goal form, whose slack defaults to 0 (exact
  /// compare).
  void latency_metric(const std::string& key, double value, double slack = -1.0,
                      bool lower_is_better = true) {
    metrics_.push_back(
        {key, value, "none", slack, 0.0, -1.0, lower_is_better ? 1 : 0});
  }

  /// Declares a gated metric as allowed to be absent from a run (a
  /// platform- or configuration-dependent column the bench sometimes
  /// skips).  Emitted as the artifact's top-level `allowed_missing` array,
  /// which the regression gate honors — declare it unconditionally, even on
  /// runs that do emit the metric, so a regenerated baseline keeps the
  /// opt-out.
  void allow_missing(const std::string& key) { allowed_missing_.push_back(key); }

  /// Records an acceptance check and prints the usual [PASS]/[FAIL] line.
  bool check(const std::string& what, bool ok, double value, double threshold,
             const std::string& op) {
    std::cout << (ok ? "[PASS] " : "[FAIL] ") << what << "\n";
    checks_.push_back({what, ok, value, threshold, op});
    if (!ok) ++failures_;
    return ok;
  }

  [[nodiscard]] int failures() const noexcept { return failures_; }

  /// Writes BENCH_<name>.json into $DJVM_BENCH_JSON_DIR (or the cwd) and
  /// returns the failure count — benches `return report.finish();`.
  int finish() const {
    std::string dir = ".";
    if (const char* env = std::getenv("DJVM_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream f(path, std::ios::trunc);
    if (f) {
      f << json();
      std::cout << "\nwrote " << path << "\n";
    } else {
      std::cout << "\n[WARN] could not write " << path << "\n";
    }
    return failures_;
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\n  \"bench\": \"" << esc(name_) << "\",\n";
    if (!allowed_missing_.empty()) {
      os << "  \"allowed_missing\": [";
      for (std::size_t i = 0; i < allowed_missing_.size(); ++i) {
        os << "\"" << esc(allowed_missing_[i]) << "\""
           << (i + 1 < allowed_missing_.size() ? ", " : "");
      }
      os << "],\n";
    }
    os << "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << "    \"" << esc(m.key) << "\": {\"value\": " << num(m.value);
      if (m.lower_is_better >= 0) {
        os << ", \"lower_is_better\": " << (m.lower_is_better ? "true" : "false");
        if (m.slack >= 0.0) os << ", \"slack\": " << num(m.slack);
      } else {
        os << ", \"goal\": \"" << esc(m.goal) << "\", \"slack\": " << num(m.slack)
           << ", \"abs_slack\": " << num(m.abs_slack);
        if (m.min_improvement >= 0.0) {
          os << ", \"min_improvement\": " << num(m.min_improvement);
        }
      }
      os << "},\n";
    }
    // Resource footprint of the bench process itself, always recorded as
    // informational metrics (goal "none", so the regression gate only reports
    // them if a baseline chooses to carry them with a real goal).
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    os << "    \"wall_seconds\": {\"value\": " << num(wall)
       << ", \"goal\": \"none\", \"slack\": 0, \"abs_slack\": 0},\n";
    os << "    \"peak_rss_kb\": {\"value\": "
       << num(static_cast<double>(peak_rss_kb()))
       << ", \"goal\": \"none\", \"slack\": 0, \"abs_slack\": 0}\n";
    os << "  },\n  \"checks\": [\n";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      os << "    {\"name\": \"" << esc(c.what) << "\", \"pass\": "
         << (c.ok ? "true" : "false") << ", \"value\": " << num(c.value)
         << ", \"op\": \"" << esc(c.op) << "\", \"threshold\": " << num(c.threshold)
         << "}" << (i + 1 < checks_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
  }

 private:
  struct Metric {
    std::string key;
    double value;
    std::string goal;
    double slack;
    double abs_slack;
    double min_improvement;  ///< < 0 = no ratchet (field omitted from JSON)
    int lower_is_better;  ///< -1 = goal form, 0/1 = lower_is_better shorthand
  };
  struct Check {
    std::string what;
    bool ok;
    double value;
    double threshold;
    std::string op;
  };

  /// Check labels are arbitrary prose: escape them so one stray quote can't
  /// make the regression gate choke on malformed JSON.
  static std::string esc(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  /// JSON has no inf/nan literals; clamp non-finite values to null.
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::string> allowed_missing_;
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  int failures_ = 0;
};

/// Compact ASCII heat map of a correlation matrix (for Fig. 1).
inline void print_heatmap(std::ostream& os, const SquareMatrix& m,
                          const std::string& title) {
  os << title << " (" << m.size() << "x" << m.size() << ")\n";
  double maxv = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) maxv = std::max(maxv, m.at(i, j));
  }
  static const char* shades = " .:-=+*#%@";
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      const double v = maxv > 0 ? m.at(i, j) / maxv : 0.0;
      const int s = std::min(9, static_cast<int>(v * 9.999));
      os << shades[s] << shades[s];
    }
    os << '\n';
  }
}

}  // namespace djvm::bench
