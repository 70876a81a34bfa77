// perfbench_driver — one run of one benchmark workload (see README.md).
//
//   perfbench_driver --workload=curate-snb|run-bsbm|serve-snb
//                    --snapshot=DATA.snap[,DATA2.snap...] --seed=N
//                    --seconds=S
//                    --trace=0|1 --out=RECORD.json [--cli=rdfparams_cli]
//
// The driver only measures. It opens the snapshot perfbench/run.py
// generated from the seed, runs the workload for --seconds, checks every
// op's output against a reference computed outside the timed region, and
// writes one raw JSON record: setup times, per-op latencies, counters,
// samples, output mismatches and (with --trace=1) the spans. run.py turns
// the record into the metrics.
//
// Spans are recorded here, around calls into the public functions of the
// library's modules; nothing inside src/ is instrumented.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_classifier.h"
#include "core/workload.h"
#include "core/workload_io.h"
#include "engine/executor.h"
#include "optimizer/cardinality_cache.h"
#include "optimizer/optimizer.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/wire.h"
#include "server/workbench.h"
#include "storage/snapshot.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/string_util.h"

using namespace rdfparams;

namespace {

// ---------------------------------------------------------------------------
// Workload parameters. Dataset scales live in run.py (they shape the
// generated snapshot); everything the driver does with it lives here.
// ---------------------------------------------------------------------------

/// Fewest measured ops per run: p90 then has at least 10 samples beyond it.
constexpr size_t kMinOps = 100;

// curate-snb
constexpr uint64_t kCurateBudget = 1000;
constexpr size_t kCurateSamplesPerClass = 4;
/// Unmeasured warm-up, at least this long: curate-snb rounds (see
/// RunCurateSnb) and serve-snb load (see RunServeSnb).
constexpr double kWarmupSeconds = 2.0;

// run-bsbm: each template gets about this many bindings per dataset,
// max(1, kBsbmPerTemplate / classes) from every class. Weighing templates
// alike keeps p90 inside the dense band of Q5/Q4 runtimes; with one per
// class it sat on a cliff and moved by 25% between seeds.
constexpr size_t kBsbmPerTemplate = 24;

// serve-snb: open-loop sessions, each one connection running kScript.
constexpr double kSessionsPerSecond = 6.0;
constexpr double kLatencyLimitMs = 1000.0;     // goodput limit per request
constexpr int kSeedPool = 4;                   // run/explain seeds per template
constexpr size_t kRunBindings = 4;             // n of the seeded run request
constexpr size_t kInlineBindings = 4;          // bindings in the inline body
/// Four budgets make a 7-request script whose median request is the
/// largest classify, not the edge between two latency groups.
constexpr uint64_t kClassifyBudgets[] = {125, 250, 500, 1000};
constexpr int kPings = 50;
constexpr int kDaemonSetups = 5;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

size_t Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Peak resident set (VmHWM) of a process, in KiB; 0 if unreadable.
double PeakRssKb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written with the record at the end.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
  int64_t op = -1;      ///< op id shared by every span of one op
};

class Tracer {
 public:
  /// Opens a span until the returned scope ends; a no-op while disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t op)
        : tracer_(tracer), open_(tracer->enabled) {
      if (!open_) return;
      index_ = tracer_->spans.size();
      int64_t parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
      if (op < 0 && parent >= 0) op = tracer_->spans[parent].op;
      tracer_->spans.push_back({std::move(name), NowNs(), 0, parent, op});
      tracer_->stack_.push_back(static_cast<int64_t>(index_));
    }
    ~Scope() {
      if (!open_) return;
      tracer_->spans[index_].end_ns = NowNs();
      tracer_->stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    bool open_;
    size_t index_ = 0;
  };

  bool enabled = false;
  std::vector<Span> spans;
  std::vector<int64_t> stack_;
};

// ---------------------------------------------------------------------------
// The raw record run.py reads.
// ---------------------------------------------------------------------------

struct Record {
  std::map<std::string, std::string> info;
  std::vector<double> setup_s;
  /// Measured op latencies: the whole run untraced, or its traced half.
  std::vector<double> op_s;
  /// Trace mode only: the untraced half, for trace.overhead_frac.
  std::vector<double> untraced_op_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t good = 0;   ///< ops that count toward ops_per_s
  double timed_s = 0;  ///< the region ops_per_s divides by
  double peak_rss_kb = 0;
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  /// A workload-validity or setup problem: not an op, but fails the run.
  void Invalid(const std::string& what) {
    errors.push_back("invalid: " + what);
  }
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

Status WriteRecord(const Record& rec, const Tracer& tracer,
                   const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return Status::IOError("cannot write " + path);
  os << "{\"info\":{";
  bool first = true;
  for (const auto& [k, v] : rec.info) {
    os << (first ? "" : ",") << JsonString(k) << ":" << JsonString(v);
    first = false;
  }
  os << "},\n\"setup_s\":" << JsonArray(rec.setup_s)
     << ",\n\"op_s\":" << JsonArray(rec.op_s)
     << ",\n\"untraced_op_s\":" << JsonArray(rec.untraced_op_s)
     << ",\n\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
     << ",\"good\":" << rec.good << ",\"timed_s\":" << JsonNumber(rec.timed_s)
     << ",\"peak_rss_kb\":" << JsonNumber(rec.peak_rss_kb)
     << ",\n\"counters\":{";
  first = true;
  for (const auto& [k, v] : rec.counters) {
    os << (first ? "" : ",") << JsonString(k) << ":" << JsonNumber(v);
    first = false;
  }
  os << "},\n\"samples\":{";
  first = true;
  for (const auto& [k, v] : rec.samples) {
    os << (first ? "" : ",") << JsonString(k) << ":" << JsonArray(v);
    first = false;
  }
  os << "},\n\"errors\":[";
  for (size_t i = 0; i < rec.errors.size(); ++i) {
    os << (i > 0 ? "," : "") << JsonString(rec.errors[i]);
  }
  os << "],\n\"spans\":[";
  for (size_t i = 0; i < tracer.spans.size(); ++i) {
    const Span& s = tracer.spans[i];
    os << (i > 0 ? ",\n" : "") << "[" << JsonString(s.name) << ","
       << s.start_ns << "," << s.end_ns << "," << s.parent << "," << s.op
       << "]";
  }
  os << "]}\n";
  os.close();
  if (!os) return Status::IOError("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Set-up: snapshot open + workbench + per-template domains.
// ---------------------------------------------------------------------------

struct World {
  server::Workbench wb;
  std::vector<core::ParameterDomain> domains;  ///< one per template
};

Result<World> OpenWorld(const std::string& path, Tracer* tracer,
                        Record* rec) {
  storage::OpenStats stats;
  storage::OpenOptions options;
  options.stats = &stats;
  std::optional<storage::OpenedSnapshot> snap;
  {
    Tracer::Scope span(tracer, "storage.open", -1);
    RDFPARAMS_ASSIGN_OR_RETURN(storage::OpenedSnapshot opened,
                               storage::Snapshot::Open(path, options));
    snap.emplace(std::move(opened));
  }
  rec->samples["storage.checksum_ms"].push_back(stats.checksum_seconds * 1e3);
  rec->samples["storage.dict_ms"].push_back(stats.dict_seconds * 1e3);
  rec->samples["storage.runs_ms"].push_back(stats.runs_seconds * 1e3);

  std::error_code ec;
  uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (!ec && snap->store.size() > 0) {
    rec->counters["storage.bytes_per_triple"] =
        static_cast<double>(bytes) / static_cast<double>(snap->store.size());
  }

  World world;
  {
    Tracer::Scope span(tracer, "server.workbench", -1);
    RDFPARAMS_ASSIGN_OR_RETURN(
        world.wb, server::WorkbenchFromSnapshotParts(
                      std::move(snap->dict), std::move(snap->store),
                      snap->app_meta));
  }
  {
    Tracer::Scope span(tracer, "server.domains", -1);
    for (const sparql::QueryTemplate& tmpl : world.wb.templates) {
      RDFPARAMS_ASSIGN_OR_RETURN(core::ParameterDomain domain,
                                 server::MakeDomain(world.wb, tmpl));
      world.domains.push_back(std::move(domain));
    }
  }
  return world;
}

/// Opens the world repeatedly (at least 5 times and for about a second)
/// and records each duration; keeps the last world.
Result<World> TimedSetup(const std::string& path, Tracer* tracer,
                         Record* rec) {
  std::optional<World> world;
  double total = 0;
  for (int rep = 0; rep < 25 && (rep < 5 || total < 1.0); ++rep) {
    world.reset();  // one world in memory at a time
    int64_t t0 = NowNs();
    RDFPARAMS_ASSIGN_OR_RETURN(World opened, OpenWorld(path, tracer, rec));
    double s = Seconds(NowNs() - t0);
    world.emplace(std::move(opened));
    rec->setup_s.push_back(s);
    total += s;
  }
  return std::move(*world);
}

// ---------------------------------------------------------------------------
// Shared op pieces.
// ---------------------------------------------------------------------------

std::string BindingsText(const sparql::QueryTemplate& tmpl,
                         const std::vector<sparql::ParameterBinding>& bindings,
                         const rdf::Dictionary& dict, Tracer* tracer) {
  Tracer::Scope span(tracer, "core.write_bindings", -1);
  std::ostringstream os;
  if (!core::WriteBindings(tmpl, bindings, dict, os).ok()) return {};
  return os.str();
}

/// Reads `text` back through core::ReadBindings; true iff it yields
/// exactly `want`.
bool RoundTrips(const sparql::QueryTemplate& tmpl, const std::string& text,
                const std::vector<sparql::ParameterBinding>& want,
                rdf::Dictionary* dict, Tracer* tracer,
                std::vector<sparql::ParameterBinding>* out = nullptr) {
  Tracer::Scope span(tracer, "core.read_bindings", -1);
  std::istringstream is(text);
  auto read = core::ReadBindings(tmpl, dict, is);
  if (!read.ok() || *read != want) return false;
  if (out != nullptr) *out = std::move(read).value();
  return true;
}

/// WorkloadRunner::RunOnce taken apart at its layer boundaries (bind,
/// optimize, execute) so each call gets its own span. Same calls, same
/// options, same observation.
Result<core::RunObservation> RunLayered(const sparql::QueryTemplate& tmpl,
                                        const sparql::ParameterBinding& b,
                                        const rdf::TripleStore& store,
                                        rdf::Dictionary* dict, Tracer* tracer,
                                        engine::ExecutionStats* stats) {
  std::optional<sparql::SelectQuery> query;
  {
    Tracer::Scope span(tracer, "sparql.bind", -1);
    RDFPARAMS_ASSIGN_OR_RETURN(sparql::SelectQuery q, tmpl.Bind(b, *dict));
    query.emplace(std::move(q));
  }
  std::optional<opt::OptimizedPlan> plan;
  {
    Tracer::Scope span(tracer, "optimizer.optimize", -1);
    RDFPARAMS_ASSIGN_OR_RETURN(opt::OptimizedPlan p,
                               opt::Optimize(*query, store, *dict));
    plan.emplace(std::move(p));
  }
  engine::Executor exec(store, dict);
  {
    Tracer::Scope span(tracer, "engine.execute", -1);
    RDFPARAMS_ASSIGN_OR_RETURN(engine::BindingTable result,
                               exec.Execute(*query, *plan->root, stats));
    (void)result;
  }
  core::RunObservation obs;
  obs.binding = b;
  obs.seconds = stats->wall_seconds;
  obs.observed_cout = stats->intermediate_rows;
  obs.est_cout = plan->est_cout;
  obs.est_cardinality = plan->est_cardinality;
  obs.fingerprint = plan->fingerprint;
  obs.result_rows = stats->result_rows;
  return obs;
}

bool SameObservation(const core::RunObservation& a,
                     const core::RunObservation& b) {
  return a.binding == b.binding && a.fingerprint == b.fingerprint &&
         a.observed_cout == b.observed_cout && a.result_rows == b.result_rows &&
         a.est_cout == b.est_cout;
}

/// Per-execute sample behind engine.rows_per_s (rows the executor moved).
void NoteExecution(const engine::ExecutionStats& stats, Record* rec) {
  rec->samples["engine.rows"].push_back(
      static_cast<double>(stats.scan_rows + stats.intermediate_rows));
}

void AddRowCounters(const engine::ExecutionStats& stats, Record* rec) {
  rec->counters["engine.intermediate_rows"] +=
      static_cast<double>(stats.intermediate_rows);
  rec->counters["engine.scan_rows"] += static_cast<double>(stats.scan_rows);
  rec->counters["engine.result_rows"] += static_cast<double>(stats.result_rows);
}

void AddClassifyCounters(const core::ClassifyStats& s, Record* rec) {
  rec->counters["core.candidates"] += static_cast<double>(s.num_candidates);
  rec->counters["core.distinct_signatures"] +=
      static_cast<double>(s.distinct_signatures);
  rec->counters["core.dp_runs"] += static_cast<double>(s.dp_runs);
  rec->counters["core.dp_runs_saved"] += static_cast<double>(s.dp_runs_saved);
  rec->counters["core.batched_counts"] +=
      static_cast<double>(s.batched_counts);
  rec->counters["core.unbatched_patterns"] +=
      static_cast<double>(s.unbatched_patterns);
}

/// The deterministic ClassifyStats counters, for exact-repeat checks.
std::vector<uint64_t> DeterministicCounters(const core::ClassifyStats& s) {
  return {s.num_candidates,  s.distinct_signatures, s.dp_runs,
          s.dp_runs_saved,   s.batched_counts,      s.unbatched_patterns};
}

/// Runs `op(round, i)` in whole rounds of `round_size` ops until
/// `budget_s` has passed and at least `min_ops` ops ran. A next round
/// starts only if the last one fits into what is left of the budget (at
/// least one round always runs).
template <typename Op>
void MeasureRounds(size_t round_size, double budget_s, size_t min_ops,
                   const Op& op) {
  int64_t start = NowNs();
  double last_round = 0;
  size_t ops = 0;
  for (size_t round = 0;; ++round) {
    double elapsed = Seconds(NowNs() - start);
    if (round > 0 && ops >= min_ops && elapsed + last_round > budget_s) break;
    int64_t round_start = NowNs();
    for (size_t i = 0; i < round_size; ++i, ++ops) op(round, i);
    last_round = Seconds(NowNs() - round_start);
  }
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// curate-snb: classify -> sample per class -> write bindings, closed loop.
// ---------------------------------------------------------------------------

struct Curation {
  core::Classification classes;
  core::ClassifyStats stats;
  std::vector<sparql::ParameterBinding> sampled;
  std::string classification;  ///< FormatClassification bytes
  std::string bindings;        ///< WriteBindings bytes
  double classify_s = 0;       ///< ClassifyParameters wall time
};

Result<Curation> Curate(const World& world, size_t t, int threads,
                        uint64_t seed, Tracer* tracer, Record* rec,
                        double* seconds) {
  const sparql::QueryTemplate& tmpl = world.wb.templates[t];
  int64_t t0 = NowNs();
  core::ClassifyStats stats;
  opt::CardinalityCache cache;  // fresh per call, as the CLI does
  core::ClassifyOptions options;
  options.max_candidates = kCurateBudget;
  options.threads = threads;
  options.stats = &stats;
  options.optimizer.cardinality_cache = &cache;
  Curation out;
  {
    Tracer::Scope span(tracer, "core.classify", -1);
    RDFPARAMS_ASSIGN_OR_RETURN(
        out.classes,
        core::ClassifyParameters(tmpl, world.domains[t], world.wb.store(),
                                 world.wb.dict(), options));
  }
  out.classify_s = Seconds(NowNs() - t0);
  {
    Tracer::Scope span(tracer, "core.sample", -1);
    util::Rng rng(seed * 1000003 + t);
    for (const core::PlanClass& cls : out.classes.classes) {
      auto part = core::SampleFromClass(cls, kCurateSamplesPerClass, &rng);
      out.sampled.insert(out.sampled.end(), part.begin(), part.end());
    }
  }
  out.bindings = BindingsText(tmpl, out.sampled, world.wb.dict(), tracer);
  *seconds = Seconds(NowNs() - t0);
  // Outside the op's time: render the result for the byte check.
  out.classification =
      server::FormatClassification(tmpl, out.classes, world.wb.dict());
  out.stats = stats;
  if (rec != nullptr) {
    rec->samples["optimizer.cache_hits"].push_back(
        static_cast<double>(cache.hits()));
    rec->samples["optimizer.cache_lookups"].push_back(
        static_cast<double>(cache.hits() + cache.misses()));
  }
  return out;
}

int RunCurateSnb(const std::string& snapshot, uint64_t seed, double seconds,
                 bool trace, Tracer* tracer, Record* rec) {
  auto world = TimedSetup(snapshot, tracer, rec);
  if (!world.ok()) {
    rec->Invalid("setup: " + world.status().ToString());
    return 1;
  }
  const size_t n_templates = world->wb.templates.size();
  // Measured ops classify serially: on a shared host a neighbour that
  // takes a core stalls a classify spread over every core, so the
  // parallel classify is the reference below instead (and, traced, the
  // core.classify_nproc_ms metric).
  const int threads = 1;
  const int ref_threads = static_cast<int>(Nproc());
  rec->info["curate.threads"] = std::to_string(threads);
  rec->info["curate.reference_threads"] = std::to_string(ref_threads);
  rec->info["curate.budget"] = std::to_string(kCurateBudget);

  // The op is one curation round: each template curated once, which is
  // the parameter set a benchmark run needs. (Timing single templates
  // would put the median between the two middle templates' latency
  // groups, where it jumps from run to run.) Per op, keep only what the
  // checks need: output digests and deterministic counters per template.
  struct Seen {
    std::vector<uint64_t> digests;
    std::vector<std::vector<uint64_t>> counters;
    bool measured;
  };
  std::vector<Seen> seen;
  int64_t op_id = 0;
  // In a traced run, rounds alternate between untraced and traced, so
  // trace.overhead_frac compares ops that ran under the same conditions.
  auto phase = [&](double budget, bool measured) {
    MeasureRounds(1, budget, measured ? kMinOps : 0, [&](size_t round,
                                                         size_t) {
      const bool traced = measured && trace && round % 2 == 1;
      tracer->enabled = traced;
      double total = 0;
      ++rec->attempted;
      Seen round_seen{{}, {}, measured};
      {
        Tracer::Scope span(tracer, "op", op_id++);
        for (size_t t = 0; t < n_templates; ++t) {
          double s = 0;
          auto c = Curate(*world, t, threads, seed, tracer,
                          traced ? rec : nullptr, &s);
          total += s;
          if (!c.ok()) {
            rec->Fail("curate " + world->wb.templates[t].name() + ": " +
                      c.status().ToString());
            return;
          }
          round_seen.digests.push_back(Fnv1a(c->classification + c->bindings));
          round_seen.counters.push_back(DeterministicCounters(c->stats));
        }
      }
      seen.push_back(std::move(round_seen));
      if (measured) {
        (trace && !traced ? rec->untraced_op_s : rec->op_s).push_back(total);
      }
    });
  };
  // Warm-up: the first rounds of a fresh process run slower (first-touch
  // page faults in the snapshot mapping and the heap); they are checked
  // but not measured.
  phase(kWarmupSeconds, false);
  phase(seconds, true);
  tracer->enabled = trace;
  rec->peak_rss_kb = PeakRssKb("self");
  rec->timed_s = Sum(rec->op_s);

  // Reference: the classify on nproc threads, which the determinism
  // contract makes byte-identical to the serial one.
  std::vector<uint64_t> want(n_templates);
  std::vector<std::vector<uint64_t>> want_counters(n_templates);
  for (size_t t = 0; t < n_templates; ++t) {
    const sparql::QueryTemplate& tmpl = world->wb.templates[t];
    double unused = 0;
    tracer->enabled = false;  // core.* spans time the measured ops only
    auto ref = Curate(*world, t, ref_threads, seed, tracer, nullptr, &unused);
    tracer->enabled = trace;
    if (!ref.ok()) {
      rec->Invalid("reference curate: " + ref.status().ToString());
      return 1;
    }
    if (trace) {
      rec->samples["core.classify_nproc_ms"].push_back(ref->classify_s * 1e3);
    }
    want[t] = Fnv1a(ref->classification + ref->bindings);
    want_counters[t] = DeterministicCounters(ref->stats);
    AddClassifyCounters(ref->stats, rec);
    // Validity: signature dedup saves DP runs on Q1/Q2/Q4, none on Q3.
    uint64_t saved = ref->stats.dp_runs_saved;
    if ((saved > 0) != (t != 2)) {
      rec->Invalid(tmpl.name() + " dp_runs_saved=" + std::to_string(saved) +
                   (t == 2 ? " (expected 0)" : " (expected > 0)"));
    }
    rec->counters["core.dp_runs_saved." + tmpl.name()] =
        static_cast<double>(saved);
    // The written bindings read back to the sampled ids, and each class
    // representative, optimized on its own, gets its class's plan.
    if (!RoundTrips(tmpl, ref->bindings, ref->sampled,
                    world->wb.mutable_dict(), tracer)) {
      rec->Invalid(tmpl.name() + ": written bindings do not read back");
    }
    for (const core::PlanClass& cls : ref->classes.classes) {
      std::optional<sparql::SelectQuery> query;
      {
        Tracer::Scope span(tracer, "sparql.bind", -1);
        auto q = tmpl.Bind(cls.representative, world->wb.dict());
        if (q.ok()) query.emplace(std::move(q).value());
      }
      if (!query) {
        rec->Invalid(tmpl.name() + ": representative does not bind");
        continue;
      }
      Tracer::Scope span(tracer, "optimizer.optimize", -1);
      auto plan = opt::Optimize(*query, world->wb.store(), world->wb.dict());
      if (!plan.ok() || plan->fingerprint != cls.fingerprint) {
        rec->Invalid(tmpl.name() + ": representative plan differs from " +
                     cls.fingerprint);
      }
    }
  }
  for (const Seen& round : seen) {
    if (round.digests != want) {
      rec->Fail("classification or bindings bytes differ from the serial "
                "classify");
    } else if (round.counters != want_counters) {
      rec->Fail("classify counters differ between runs");
    } else if (round.measured) {
      ++rec->good;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// run-bsbm: class-stratified bindings of every template, RunOnce each,
// closed loop, serial execution.
// ---------------------------------------------------------------------------

struct Job {
  size_t w;  ///< dataset (world) index
  size_t t;  ///< template index
  sparql::ParameterBinding binding;
  bool first_of_class;
};

/// Classifies every template, draws bindings from every plan class (see
/// kBsbmPerTemplate), writes them out and reads them back: the bindings
/// file a user of `sample --mode=class` + `run --bindings` would use.
Status AddStratifiedJobs(size_t w, World* world, uint64_t seed,
                         Tracer* tracer, Record* rec, std::vector<Job>* jobs) {
  util::Rng rng(seed * 1000003 + 17 + w);
  for (size_t t = 0; t < world->wb.templates.size(); ++t) {
    const sparql::QueryTemplate& tmpl = world->wb.templates[t];
    core::ClassifyStats stats;
    opt::CardinalityCache cache;
    core::ClassifyOptions options;
    options.threads = 1;  // keeps the heap, and so peak_rss_mb, repeatable
    options.stats = &stats;
    options.optimizer.cardinality_cache = &cache;
    std::optional<core::Classification> classes;
    {
      Tracer::Scope span(tracer, "core.classify", -1);
      RDFPARAMS_ASSIGN_OR_RETURN(
          core::Classification c,
          core::ClassifyParameters(tmpl, world->domains[t], world->wb.store(),
                                   world->wb.dict(), options));
      classes.emplace(std::move(c));
    }
    AddClassifyCounters(stats, rec);
    rec->samples["optimizer.cache_hits"].push_back(
        static_cast<double>(cache.hits()));
    rec->samples["optimizer.cache_lookups"].push_back(
        static_cast<double>(cache.hits() + cache.misses()));
    std::vector<sparql::ParameterBinding> sampled;
    std::vector<bool> first_of_class;
    size_t classes_sampled = 0;
    const size_t per_class =
        std::max<size_t>(1, kBsbmPerTemplate / std::max<size_t>(
                                                  1, classes->classes.size()));
    {
      Tracer::Scope span(tracer, "core.sample", -1);
      for (const core::PlanClass& cls : classes->classes) {
        auto part = core::SampleFromClass(cls, per_class, &rng);
        classes_sampled += part.size() == per_class ? 1 : 0;
        for (size_t i = 0; i < part.size(); ++i) {
          first_of_class.push_back(i == 0);
        }
        sampled.insert(sampled.end(), part.begin(), part.end());
      }
    }
    // Validity: every plan class of every template is in the sample.
    if (classes->classes.empty() ||
        classes_sampled != classes->classes.size()) {
      rec->Invalid(tmpl.name() + ": " + std::to_string(classes_sampled) +
                   " of " + std::to_string(classes->classes.size()) +
                   " classes sampled");
    }
    rec->counters["bsbm.classes." + tmpl.name()] +=
        static_cast<double>(classes->classes.size());
    std::string text = BindingsText(tmpl, sampled, world->wb.dict(), tracer);
    std::vector<sparql::ParameterBinding> read;
    if (!RoundTrips(tmpl, text, sampled, world->wb.mutable_dict(), tracer,
                    &read)) {
      return Status::Internal(tmpl.name() + ": bindings do not read back");
    }
    for (size_t i = 0; i < read.size(); ++i) {
      jobs->push_back({w, t, std::move(read[i]), first_of_class[i]});
    }
  }
  return Status::OK();
}

int RunRunBsbm(const std::vector<std::string>& snapshots, uint64_t seed,
               double seconds, bool trace, Tracer* tracer, Record* rec) {
  // Several datasets per run: which classes a dataset has, and how heavy
  // they are, varies with its seed; mixing datasets keeps one run's
  // latency mix close to the next one's.
  std::vector<World> worlds;
  worlds.reserve(snapshots.size());
  std::vector<Job> jobs;
  for (size_t w = 0; w < snapshots.size(); ++w) {
    auto world = TimedSetup(snapshots[w], tracer, rec);
    if (!world.ok()) {
      rec->Invalid("setup: " + world.status().ToString());
      return 1;
    }
    worlds.push_back(std::move(world).value());
    Status st = AddStratifiedJobs(w, &worlds[w], seed, tracer, rec, &jobs);
    if (!st.ok()) {
      rec->Invalid("bindings: " + st.ToString());
      return 1;
    }
  }
  const size_t n = jobs.size();
  rec->info["bsbm.datasets"] = std::to_string(worlds.size());
  rec->info["bsbm.bindings_per_pass"] = std::to_string(n);

  // The CLI `run` settings: serial (threads=1, exec.threads=1).
  std::vector<core::WorkloadRunner> runners;
  for (World& world : worlds) {
    runners.emplace_back(world.wb.store(), world.wb.mutable_dict());
  }
  core::WorkloadOptions options;
  options.threads = 1;
  options.exec.threads = 1;
  // Observations of the first pass; later passes must repeat them.
  std::vector<std::optional<core::RunObservation>> first(n);
  std::vector<uint64_t> runs(n, 0);      // successful ops per binding
  std::vector<uint64_t> measured(n, 0);  // ... of which measured
  int64_t op_id = 0;
  bool measuring = false;
  // In a traced run, ops alternate between untraced and traced (flipping
  // each pass), so trace.overhead_frac compares like with like and two
  // passes trace every binding exactly once.
  auto op = [&](size_t round, size_t i) {
    const bool traced = measuring && trace && (i + round) % 2 == 1;
    tracer->enabled = traced;
    const Job& job = jobs[i];
    World& world = worlds[job.w];
    const sparql::QueryTemplate& tmpl = world.wb.templates[job.t];
    ++rec->attempted;
    int64_t t0 = NowNs();
    Result<core::RunObservation> obs = Status::Internal("not run");
    engine::ExecutionStats stats;
    if (traced) {
      Tracer::Scope span(tracer, "op", op_id++);
      obs = RunLayered(tmpl, job.binding, world.wb.store(),
                       world.wb.mutable_dict(), tracer, &stats);
    } else {
      obs = runners[job.w].RunOnce(tmpl, job.binding, options);
    }
    double s = Seconds(NowNs() - t0);
    if (!obs.ok()) {
      rec->Fail(tmpl.name() + ": " + obs.status().ToString());
      return;
    }
    if (traced) {
      NoteExecution(stats, rec);
      if (round < 2) AddRowCounters(stats, rec);  // one pass's counts
    }
    if (!first[i]) {
      first[i] = std::move(obs).value();
    } else if (!SameObservation(*first[i], *obs)) {
      rec->Fail(tmpl.name() + " binding " + std::to_string(i) +
                ": observation differs from an earlier pass");
      return;
    }
    ++runs[i];
    if (measuring) {
      ++rec->good;
      ++measured[i];
      (trace && !traced ? rec->untraced_op_s : rec->op_s).push_back(s);
    }
  };
  // Warm-up over one binding per class of the first dataset: a fresh
  // process runs the heavy bindings up to twice as slow (first-touch page
  // faults while the heap grows). Checked, not measured.
  for (size_t i = 0; i < n; ++i) {
    if (jobs[i].w == 0 && jobs[i].first_of_class) op(0, i);
  }
  measuring = true;
  MeasureRounds(n, seconds, trace ? 2 * n : kMinOps, op);
  tracer->enabled = trace;
  rec->peak_rss_kb = PeakRssKb("self");
  rec->timed_s = Sum(rec->op_s);

  // Validity: runtimes span at least three orders of magnitude.
  const std::vector<double>& lat = rec->op_s;
  double lo = *std::min_element(lat.begin(), lat.end());
  double hi = *std::max_element(lat.begin(), lat.end());
  rec->counters["bsbm.latency_span"] = lo > 0 ? hi / lo : 0;
  if (!(lo > 0 && hi / lo >= 1000)) {
    rec->Invalid("op latencies span only " + std::to_string(hi / lo) + "x");
  }

  // Reference: the same bindings through RunAll on every core (read-only
  // executors, a shared cardinality cache), which the determinism contract
  // makes identical in plan, observed C_out and result rows.
  core::WorkloadOptions ref_options;
  ref_options.threads = 0;
  for (size_t w = 0; w < worlds.size(); ++w) {
    const World& world = worlds[w];
    core::WorkloadRunner reference(world.wb.store(), world.wb.dict());
    for (size_t t = 0; t < world.wb.templates.size(); ++t) {
      std::vector<size_t> index;
      std::vector<sparql::ParameterBinding> bindings;
      for (size_t i = 0; i < n; ++i) {
        if (jobs[i].w != w || jobs[i].t != t) continue;
        index.push_back(i);
        bindings.push_back(jobs[i].binding);
      }
      auto want =
          reference.RunAll(world.wb.templates[t], bindings, ref_options);
      if (!want.ok()) {
        rec->Invalid("reference run: " + want.status().ToString());
        return 1;
      }
      for (size_t k = 0; k < index.size(); ++k) {
        const auto& got = first[index[k]];
        if (got && !SameObservation(*got, (*want)[k])) {
          rec->Fail(world.wb.templates[t].name() + " binding " +
                    std::to_string(index[k]) +
                    ": plan, C_out or rows differ from the parallel run");
          rec->failed += runs[index[k]] - 1;
          rec->good -= measured[index[k]];
        }
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve-snb: `rdfparams_cli serve` as its own process under open-loop
// sessions from one generator thread.
// ---------------------------------------------------------------------------

/// A spawned daemon. Killed and reaped if it is still running when the
/// object goes away, so no exit path leaves a process behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns argv on `cpus` and waits (at most 60 s) for its `listening on`
  /// line.
  Status Start(const std::vector<std::string>& argv, const cpu_set_t& cpus) {
    int fds[2];
    if (pipe(fds) != 0) return Status::IOError("pipe failed");
    pid_ = fork();
    if (pid_ < 0) return Status::IOError("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the driver
      sched_setaffinity(0, sizeof(cpus), &cpus);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> args;
      for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    const std::string marker = "listening on ";
    for (;;) {
      size_t at = output_.find(marker);
      size_t eol = at == std::string::npos ? at : output_.find('\n', at);
      if (eol != std::string::npos) {
        std::string addr = output_.substr(at + marker.size(),
                                          eol - at - marker.size());
        std::string port = addr.substr(addr.rfind(':') + 1);
        port_ = static_cast<uint16_t>(std::strtoul(port.c_str(), nullptr, 10));
        return port_ != 0 ? Status::OK()
                          : Status::Internal("bad listening line: " + addr);
      }
      RDFPARAMS_ASSIGN_OR_RETURN(bool more, ReadOutput(60000));
      if (!more) return Status::Internal("daemon exited before listening");
    }
  }

  uint16_t port() const { return port_; }
  std::string pid() const { return std::to_string(pid_); }

  /// Sends kShutdown, collects the rest of stdout and reaps the process.
  Result<std::string> Shutdown() {
    auto reply = server::CallOnce("127.0.0.1", port_,
                                  server::Opcode::kShutdown, "");
    if (!reply.ok()) return reply.status();
    for (;;) {
      RDFPARAMS_ASSIGN_OR_RETURN(bool more, ReadOutput(60000));
      if (!more) break;
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("daemon exited with status " +
                              std::to_string(status));
    }
    return output_;
  }

 private:
  /// Appends available stdout; false at EOF. Fails on timeout.
  Result<bool> ReadOutput(int timeout_ms) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) {
      return Status::Internal("daemon output timed out");
    }
    char buf[4096];
    ssize_t got = read(out_fd_, buf, sizeof(buf));
    if (got <= 0) return false;
    output_.append(buf, static_cast<size_t>(got));
    return true;
  }

  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string output_;
};

struct ScriptRequest {
  server::Opcode opcode;
  std::string payload;
  std::string want;  ///< expected response bytes (direct library calls)
};

/// One session script per (template, seed-pool slot): classify at growing
/// budgets, explain, run with seed-sampled bindings, run with an inline
/// body of curated bindings. Expected responses come from the library
/// calls and protocol formatters directly, not through server::Service.
Result<std::vector<std::vector<ScriptRequest>>> BuildScripts(
    World* world, uint64_t seed, Tracer* tracer, Record* rec) {
  opt::CardinalityCache cache;  // shared, like the daemon's
  const rdf::Dictionary& dict = world->wb.dict();
  const rdf::TripleStore& store = world->wb.store();
  std::vector<std::vector<ScriptRequest>> scripts;
  for (size_t t = 0; t < world->wb.templates.size(); ++t) {
    const sparql::QueryTemplate& tmpl = world->wb.templates[t];
    const core::ParameterDomain& domain = world->domains[t];
    const std::string query = "query=" + std::to_string(t + 1) + "\n";
    std::vector<ScriptRequest> classify;
    std::optional<core::Classification> largest;
    for (uint64_t budget : kClassifyBudgets) {
      core::ClassifyStats stats;
      core::ClassifyOptions options;
      options.max_candidates = budget;
      options.threads = 1;
      options.stats = &stats;
      options.optimizer.cardinality_cache = &cache;
      std::optional<core::Classification> classified;
      {
        Tracer::Scope span(tracer, "core.classify", -1);
        RDFPARAMS_ASSIGN_OR_RETURN(
            core::Classification c,
            core::ClassifyParameters(tmpl, domain, store, dict, options));
        classified.emplace(std::move(c));
      }
      AddClassifyCounters(stats, rec);
      rec->samples["optimizer.cache_hits"].push_back(
          static_cast<double>(stats.cache_hits));
      rec->samples["optimizer.cache_lookups"].push_back(
          static_cast<double>(stats.cache_hits + stats.cache_misses));
      core::Classification c = std::move(*classified);
      classify.push_back({server::Opcode::kClassify,
                          query + "max_candidates=" + std::to_string(budget),
                          server::FormatClassification(tmpl, c, dict)});
      largest.emplace(std::move(c));
    }
    for (int slot = 0; slot < kSeedPool; ++slot) {
      std::vector<ScriptRequest> script = classify;
      const uint64_t run_seed = seed * 100 + static_cast<uint64_t>(slot);
      const std::string seed_field = "seed=" + std::to_string(run_seed);

      // explain: Service samples with Rng(seed + 1000), as the CLI does.
      util::Rng explain_rng(run_seed + 1000);
      sparql::ParameterBinding one = domain.Sample(&explain_rng);
      std::optional<sparql::SelectQuery> bound;
      {
        Tracer::Scope span(tracer, "sparql.bind", -1);
        RDFPARAMS_ASSIGN_OR_RETURN(sparql::SelectQuery q, tmpl.Bind(one, dict));
        bound.emplace(std::move(q));
      }
      std::optional<opt::OptimizedPlan> plan;
      {
        Tracer::Scope span(tracer, "optimizer.optimize", -1);
        RDFPARAMS_ASSIGN_OR_RETURN(opt::OptimizedPlan p,
                                   opt::Optimize(*bound, store, dict));
        plan.emplace(std::move(p));
      }
      script.push_back({server::Opcode::kExplain, query + seed_field,
                        server::FormatExplain(tmpl, *bound, one, *plan, dict)});

      auto observe = [&](const std::vector<sparql::ParameterBinding>& bs)
          -> Result<std::string> {
        std::vector<core::RunObservation> obs;
        for (const sparql::ParameterBinding& b : bs) {
          engine::ExecutionStats stats;
          RDFPARAMS_ASSIGN_OR_RETURN(
              core::RunObservation o,
              RunLayered(tmpl, b, store, world->wb.mutable_dict(), tracer,
                         &stats));
          NoteExecution(stats, rec);
          AddRowCounters(stats, rec);
          obs.push_back(std::move(o));
        }
        return server::FormatObservations(tmpl, obs, dict);
      };
      util::Rng run_rng(run_seed + 1000);
      RDFPARAMS_ASSIGN_OR_RETURN(
          std::string run_want,
          observe(domain.SampleN(&run_rng, kRunBindings)));
      script.push_back({server::Opcode::kRun,
                        query + "n=" + std::to_string(kRunBindings) + "\n" +
                            seed_field,
                        std::move(run_want)});

      // Inline body: bindings curated from the largest budget's classes.
      util::Rng pick(seed * 7919 + t * 101 + static_cast<uint64_t>(slot));
      std::vector<sparql::ParameterBinding> curated;
      {
        Tracer::Scope span(tracer, "core.sample", -1);
        for (size_t i = 0; i < kInlineBindings; ++i) {
          const core::PlanClass& cls =
              largest->classes[pick.Uniform(largest->classes.size())];
          auto part = core::SampleFromClass(cls, 1, &pick);
          curated.insert(curated.end(), part.begin(), part.end());
        }
      }
      std::string body = BindingsText(tmpl, curated, dict, tracer);
      if (!RoundTrips(tmpl, body, curated, world->wb.mutable_dict(), tracer)) {
        return Status::Internal(tmpl.name() +
                                ": inline body does not read back");
      }
      server::Request inline_request;
      inline_request.fields["query"] = std::to_string(t + 1);
      inline_request.body = body;
      RDFPARAMS_ASSIGN_OR_RETURN(std::string inline_want, observe(curated));
      script.push_back({server::Opcode::kRun,
                        server::EncodeRequest(inline_request),
                        std::move(inline_want)});
      scripts.push_back(std::move(script));
    }
  }
  return scripts;
}

/// Outcome of one request of the load.
struct Sent {
  size_t session = 0;
  size_t script = 0;
  size_t index = 0;  ///< position within the script
  int64_t due_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

struct LoadResult {
  std::vector<Sent> requests;
  std::vector<double> lag_ms;
  int64_t first_due_ns = 0;
  int64_t last_sent_ns = 0;
  int64_t last_done_ns = 0;
};

/// Drives one open-loop schedule: sessions arrive at kSessionsPerSecond
/// (one per period, at a seeded offset inside it) over `budget_s`. Each
/// session takes one of at most `conns` connections (waiting for a free
/// one if needed) and writes its whole script at once: every request is
/// due at the session's arrival, whether or not earlier replies arrived.
LoadResult DriveLoad(uint16_t port,
                     const std::vector<std::vector<ScriptRequest>>& scripts,
                     uint64_t seed, double budget_s, size_t conns,
                     Record* rec) {
  util::Rng rng(seed * 31 + 7);
  const size_t sessions =
      std::max<size_t>(1, static_cast<size_t>(budget_s * kSessionsPerSecond));
  const int64_t start = NowNs() + 20'000'000;
  const double period_ns = 1e9 / kSessionsPerSecond;
  LoadResult load;
  load.first_due_ns = start;
  std::vector<int64_t> arrival(sessions);
  std::vector<size_t> script_of(sessions);
  std::vector<size_t> first_request(sessions);
  // Templates rotate through seeded permutations, so every run has the
  // same template mix; the seed-pool slot is drawn per session.
  const size_t templates = scripts.size() / kSeedPool;
  std::vector<size_t> order(templates);
  for (size_t i = 0; i < sessions; ++i) {
    if (i % templates == 0) {
      for (size_t k = 0; k < templates; ++k) order[k] = k;
      for (size_t k = templates; k > 1; --k) {
        std::swap(order[k - 1], order[rng.Uniform(k)]);
      }
    }
    arrival[i] = start + static_cast<int64_t>(
                             (static_cast<double>(i) + rng.NextDouble()) *
                             period_ns);
    script_of[i] = order[i % templates] * kSeedPool + rng.Uniform(kSeedPool);
    first_request[i] = load.requests.size();
    for (size_t j = 0; j < scripts[script_of[i]].size(); ++j) {
      load.requests.push_back({i, script_of[i], j, arrival[i], 0, false});
    }
  }

  struct Conn {
    size_t session = 0;
    size_t sent = 0;
    size_t received = 0;
    int64_t connected_ns = 0;
    server::Client client;
    server::FrameDecoder decoder;
  };
  std::vector<std::unique_ptr<Conn>> slots(conns);
  std::vector<size_t> waiting;  // arrived sessions without a connection
  size_t next_arrival = 0;
  size_t finished = 0;
  const int64_t give_up = start + static_cast<int64_t>(budget_s * 1e9) +
                          60'000'000'000LL;
  auto end_session = [&](std::unique_ptr<Conn>& slot, const std::string& why) {
    const auto& script = scripts[script_of[slot->session]];
    for (size_t j = slot->received; j < script.size(); ++j) {
      rec->Fail("session " + std::to_string(slot->session) + " request " +
                std::to_string(j) + ": " + why);
    }
    slot.reset();
    ++finished;
  };
  char buf[64 * 1024];
  while (finished < sessions) {
    int64_t now = NowNs();
    while (next_arrival < sessions && arrival[next_arrival] <= now) {
      waiting.push_back(next_arrival++);
    }
    for (auto& slot : slots) {
      if (slot || waiting.empty()) continue;
      slot = std::make_unique<Conn>();
      slot->session = waiting.front();
      waiting.erase(waiting.begin());
      Status st = slot->client.Connect("127.0.0.1", port);
      slot->connected_ns = NowNs();
      if (!st.ok()) end_session(slot, "connect: " + st.ToString());
    }
    int64_t wake = next_arrival < sessions ? arrival[next_arrival] : -1;
    std::vector<pollfd> fds;
    std::vector<size_t> fd_slot;
    for (size_t k = 0; k < slots.size(); ++k) {
      auto& slot = slots[k];
      if (!slot) continue;
      const auto& script = scripts[script_of[slot->session]];
      while (slot->sent < script.size()) {
        Sent& req = load.requests[first_request[slot->session] + slot->sent];
        if (req.due_ns > NowNs()) {
          wake = wake < 0 ? req.due_ns : std::min(wake, req.due_ns);
          break;
        }
        Status st = slot->client.Send(script[slot->sent].opcode,
                                      script[slot->sent].payload);
        int64_t sent_ns = NowNs();
        if (!st.ok()) break;  // the read side reports the drop
        load.lag_ms.push_back(
            static_cast<double>(sent_ns - std::max(req.due_ns,
                                                   slot->connected_ns)) *
            1e-6);
        load.last_sent_ns = std::max(load.last_sent_ns, sent_ns);
        ++slot->sent;
      }
      fds.push_back({slot->client.fd(), POLLIN, 0});
      fd_slot.push_back(k);
    }
    now = NowNs();
    if (now > give_up) {
      for (auto& slot : slots) {
        if (slot) end_session(slot, "no reply within the run");
      }
      while (next_arrival < sessions) waiting.push_back(next_arrival++);
      for (size_t session : waiting) {
        for (size_t j = 0; j < scripts[script_of[session]].size(); ++j) {
          rec->Fail("session " + std::to_string(session) + " never started");
        }
        ++finished;
      }
      break;
    }
    int64_t wait_ns = wake < 0 ? 100'000'000 : std::max<int64_t>(0, wake - now);
    wait_ns = std::min<int64_t>(wait_ns, 100'000'000);
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      auto& slot = slots[fd_slot[f]];
      auto got = util::ReadSome(slot->client.fd(), buf, sizeof(buf));
      int64_t done_ns = NowNs();
      if (!got.ok() || *got == 0) {
        end_session(slot, "connection dropped");
        continue;
      }
      if (!slot->decoder.Feed(std::string_view(buf, *got)).ok()) {
        end_session(slot, "undecodable frame");
        continue;
      }
      const auto& script = scripts[script_of[slot->session]];
      while (auto frame = slot->decoder.Next()) {
        if (slot->received >= script.size()) break;
        Sent& req =
            load.requests[first_request[slot->session] + slot->received];
        const ScriptRequest& want = script[slot->received];
        ++slot->received;
        req.done_ns = done_ns;
        load.last_done_ns = std::max(load.last_done_ns, done_ns);
        if (frame->opcode != static_cast<uint8_t>(server::Opcode::kOk)) {
          rec->Fail("request " + std::to_string(req.index) + ": error reply " +
                    server::DecodeErrorPayload(frame->payload).ToString());
        } else if (frame->payload != want.want) {
          rec->Fail("request " + std::to_string(req.index) + " of script " +
                    std::to_string(req.script) +
                    ": response bytes differ from the in-process result");
        } else {
          req.ok = true;
        }
      }
      if (slot->received == script.size()) {
        slot.reset();
        ++finished;
      }
    }
  }
  return load;
}

int RunServeSnb(const std::string& snapshot, const std::string& cli,
                uint64_t seed, double seconds, bool trace, Tracer* tracer,
                Record* rec) {
  const size_t conns = std::max<size_t>(2, Nproc());
  const size_t workers = std::max<size_t>(1, conns / 2);
  rec->info["serve.connections"] = std::to_string(conns);
  rec->info["serve.workers"] = std::to_string(workers);
  rec->info["serve.sessions_per_s"] = std::to_string(kSessionsPerSecond);
  rec->info["serve.latency_limit_ms"] = std::to_string(kLatencyLimitMs);

  // In-process world: the expected responses and (traced) the replay.
  auto world = OpenWorld(snapshot, tracer, rec);
  if (!world.ok()) {
    rec->Invalid("open: " + world.status().ToString());
    return 1;
  }
  auto scripts = BuildScripts(&*world, seed, tracer, rec);
  if (!scripts.ok()) {
    rec->Invalid("scripts: " + scripts.status().ToString());
    return 1;
  }

  // The generator gets a CPU of its own and the daemon the others: a
  // daemon worker woken onto the generator's CPU would otherwise delay
  // sends by a whole time slice.
  cpu_set_t daemon_cpus;
  sched_getaffinity(0, sizeof(daemon_cpus), &daemon_cpus);
  if (CPU_COUNT(&daemon_cpus) >= 2) {
    int last = CPU_SETSIZE - 1;
    while (!CPU_ISSET(last, &daemon_cpus)) --last;
    CPU_CLR(last, &daemon_cpus);
    cpu_set_t mine;
    CPU_ZERO(&mine);
    CPU_SET(last, &mine);
    sched_setaffinity(0, sizeof(mine), &mine);
  }

  // Set-up: spawn to `listening on`, several times; the last one serves.
  const std::vector<std::string> argv = {
      cli, "serve", "--snapshot=" + snapshot, "--port=0",
      "--threads=" + std::to_string(workers), "--max-conns=64",
      "--queue-depth=64"};
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kDaemonSetups; ++rep) {
    if (daemon) {
      auto out = daemon->Shutdown();
      if (!out.ok()) {
        rec->Invalid("shutdown: " + out.status().ToString());
        return 1;
      }
    }
    daemon = std::make_unique<Daemon>();
    int64_t t0 = NowNs();
    Status st = daemon->Start(argv, daemon_cpus);
    rec->setup_s.push_back(Seconds(NowNs() - t0));
    if (!st.ok()) {
      rec->Invalid("serve: " + st.ToString());
      return 1;
    }
  }

  // Round trip of an idle connection.
  {
    server::Client client;
    if (!client.Connect("127.0.0.1", daemon->port()).ok()) {
      rec->Invalid("ping connect failed");
      return 1;
    }
    for (int i = 0; i < kPings; ++i) {
      int64_t t0 = NowNs();
      auto frame = client.Call(server::Opcode::kPing, "ping");
      if (!frame.ok() || frame->payload != "ping") {
        rec->Invalid("ping failed");
        return 1;
      }
      rec->samples["server.ping_rtt_us"].push_back(
          static_cast<double>(NowNs() - t0) * 1e-3);
    }
  }

  // Warm-up load, checked but not measured: the first sessions of a
  // fresh daemon fill its shared cardinality cache and touch the snapshot
  // mapping for the first time.
  LoadResult warm = DriveLoad(daemon->port(), *scripts, seed + 0x9e3779b9,
                              kWarmupSeconds, conns, rec);
  rec->attempted += warm.requests.size();

  LoadResult load =
      DriveLoad(daemon->port(), *scripts, seed, seconds, conns, rec);
  // In a traced run, every other rotation of the templates is traced: its
  // requests get `op` spans (recorded after the load, from the same
  // timestamps). Both halves then hold every template equally often.
  const size_t rotation = world->wb.templates.size();
  int64_t op_id = 0;
  for (const Sent& r : load.requests) {
    ++rec->attempted;
    if (!r.ok) continue;
    double ms = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
    const bool traced = trace && (r.session / rotation) % 2 == 1;
    (trace && !traced ? rec->untraced_op_s : rec->op_s).push_back(ms * 1e-3);
    if (traced) {
      tracer->spans.push_back({"op", r.due_ns, r.done_ns, -1, op_id++});
    }
    if (ms <= kLatencyLimitMs) ++rec->good;
  }
  rec->timed_s = Seconds(load.last_done_ns - load.first_due_ns);
  rec->samples["loadgen.lag_ms"] = load.lag_ms;
  if (load.last_sent_ns > load.first_due_ns) {
    rec->counters["loadgen.offered_rps"] =
        static_cast<double>(load.lag_ms.size()) /
        Seconds(load.last_sent_ns - load.first_due_ns);
  }
  rec->peak_rss_kb = PeakRssKb(daemon->pid());
  auto summary = daemon->Shutdown();
  if (!summary.ok()) {
    rec->Invalid("shutdown: " + summary.status().ToString());
    return 1;
  }
  unsigned long long served = 0, connections = 0, rejected = 0;
  size_t at = summary->rfind("served ");
  if (at == std::string::npos ||
      std::sscanf(summary->c_str() + at,
                  "served %llu requests over %llu connections (%llu rejected)",
                  &served, &connections, &rejected) != 3) {
    rec->Invalid("no shutdown summary from the daemon");
  }
  rec->counters["server.served_requests"] = static_cast<double>(served);
  rec->counters["server.rejected"] = static_cast<double>(rejected);

  if (!trace) return 0;
  // Replay each script in-process through server::Service, twice (the
  // first pass warms the shared cache as the daemon's was); the second
  // pass's Handle times are the service times.
  server::Service service(world->wb);
  std::map<std::pair<size_t, size_t>, double> service_s;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < scripts->size(); ++k) {
      server::Service::Session session(service.base_dict());
      for (size_t j = 0; j < (*scripts)[k].size(); ++j) {
        const ScriptRequest& req = (*scripts)[k][j];
        static const char* const kNames[] = {"", "", "classify", "run",
                                             "explain"};
        tracer->enabled = pass == 1;
        int64_t t0 = NowNs();
        Result<std::string> got = [&] {
          Tracer::Scope span(
              tracer,
              std::string("server.service.") +
                  kNames[static_cast<int>(req.opcode)],
              -1);
          return service.Handle(static_cast<uint8_t>(req.opcode), req.payload,
                                &session);
        }();
        service_s[{k, j}] = Seconds(NowNs() - t0);
        if (!got.ok() || *got != req.want) {
          rec->Invalid("replay of script " + std::to_string(k) + " request " +
                       std::to_string(j) + " differs from the expected bytes");
        }
      }
    }
  }
  tracer->enabled = true;
  std::vector<double> rtt = rec->samples["server.ping_rtt_us"];
  std::sort(rtt.begin(), rtt.end());
  double rtt_s = rtt[rtt.size() / 2] * 1e-6;
  for (const Sent& r : load.requests) {
    if (!r.ok) continue;
    double wait = Seconds(r.done_ns - r.due_ns) -
                  service_s[{r.script, r.index}] - rtt_s;
    rec->samples["server.queue_wait_ms"].push_back(std::max(0.0, wait) * 1e3);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string snapshot;
  std::string cli;
  std::string out;
  int64_t seed = 1;
  double seconds = 10;
  int64_t trace = 0;
  util::FlagParser flags;
  flags.AddString("workload", &workload, "curate-snb | run-bsbm | serve-snb");
  flags.AddString("snapshot", &snapshot, "dataset snapshot to open");
  flags.AddString("cli", &cli, "rdfparams_cli binary (serve-snb)");
  flags.AddString("out", &out, "raw record to write");
  flags.AddInt64("seed", &seed, "benchmark seed");
  flags.AddDouble("seconds", &seconds, "measured time budget");
  flags.AddInt64("trace", &trace, "1 = record spans (per-layer run)");
  Status st = flags.Parse(argc, argv);
  if (!st.ok() || snapshot.empty() || out.empty()) {
    std::fprintf(stderr, "usage: perfbench_driver --workload=W "
                         "--snapshot=F --out=F [--seed --seconds --trace "
                         "--cli]\n%s\n",
                 st.ToString().c_str());
    return 2;
  }

  Record rec;
  Tracer tracer;
  tracer.enabled = trace != 0;
  rec.info["workload"] = workload;
  rec.info["seed"] = std::to_string(seed);
  rec.info["nproc"] = std::to_string(Nproc());
  rec.info["build_type"] = PERFBENCH_BUILD_TYPE;
  int rc = 2;
  if (workload == "curate-snb") {
    rc = RunCurateSnb(snapshot, static_cast<uint64_t>(seed), seconds,
                      trace != 0, &tracer, &rec);
  } else if (workload == "serve-snb") {
    rc = RunServeSnb(snapshot, cli, static_cast<uint64_t>(seed), seconds,
                     trace != 0, &tracer, &rec);
  } else if (workload == "run-bsbm") {
    rc = RunRunBsbm(util::Split(snapshot, ','), static_cast<uint64_t>(seed),
                    seconds, trace != 0, &tracer, &rec);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  Status written = WriteRecord(rec, tracer, out);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return rc;
}
