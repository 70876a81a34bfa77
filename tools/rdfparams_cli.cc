// rdfparams — command-line workload generator implementing the paper's
// pipeline end to end:
//
//   rdfparams generate --workload=bsbm --products=10000 --out=data.nt
//       Generate a dataset and write it as N-Triples.
//
//   rdfparams classify --workload=bsbm --query=4
//       Partition the query's parameter domain into plan classes
//       (Section III, conditions a/b/c) and print the class table.
//
//   rdfparams sample --workload=bsbm --query=4 --mode=class --n=100 \
//             --out=bindings.tsv
//       Emit parameter bindings: uniform baseline, step-shaped
//       (TPC-DS-style related work), or stratified per plan class.
//
//   rdfparams run --workload=bsbm --query=4 --bindings=bindings.tsv
//       Execute the workload from a bindings file and report the
//       aggregate runtimes (q10 / median / q90 / average, P1-P3 checks).
//
//   rdfparams load --input=data.nt --load-threads=0
//       Load an N-Triples file through the sharded parallel loader,
//       finalize the indexes on the same pool, and report throughput.
//
//   rdfparams save --workload=bsbm --products=10000 --out=data.snap
//       Generate (or load, with --input=FILE.nt) a dataset and write it
//       as one checksummed paged snapshot file; opening it restores the
//       byte-identical store without re-parsing or re-sorting.
//
//   rdfparams open --input=data.snap
//       Verify a snapshot's checksums and print its layout and contents.
//
//   rdfparams serve --port=0 --threads=0 --max-conns=64 --queue-depth=64
//       Start the workload daemon: classify/run/explain served over the
//       length-prefixed wire protocol until a client sends shutdown.
//       The chosen port (the point of --port=0) is printed on stdout.
//
//   rdfparams client --port=N --op=classify --query=4
//       One request against a running daemon; prints the response
//       payload (byte-identical to the equivalent in-process call).
//
// Every subcommand regenerates the dataset deterministically from
// --seed/--products/--persons, so binding files remain valid across runs;
// --snapshot=FILE.snap skips the regeneration and opens a saved snapshot
// instead (same store, same ids, same output bytes).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>

#include "bsbm/generator.h"
#include "bsbm/queries.h"
#include "core/analysis.h"
#include "core/plan_classifier.h"
#include "core/step_distribution.h"
#include "core/workload.h"
#include "core/workload_io.h"
#include "rdf/describe.h"
#include "rdf/ntriples.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "server/workbench.h"
#include "snb/generator.h"
#include "snb/queries.h"
#include "storage/snapshot.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace rdfparams;

namespace {

struct Options {
  std::string workload = "bsbm";
  int64_t query = 4;
  int64_t products = 6000;
  int64_t persons = 8000;
  int64_t seed = 42;
  int64_t n = 100;
  int64_t max_candidates = 2000;
  int64_t threads = 1;
  int64_t exec_threads = 1;
  int64_t morsel_size = 1024;
  int64_t chunk_rows = 1024;
  int64_t load_threads = 0;
  bool parallel_group_by = true;
  bool parallel_sort = true;
  bool merge_join = true;
  bool all_indexes = false;
  bool stats = false;
  double bucket_width = 1.0;
  std::string strategy = "batched";  // batched | per-candidate
  std::string mode = "uniform";  // uniform | step | class | class:K
  std::string out;
  std::string bindings;
  std::string input;
  std::string snapshot;
  int64_t page_size = storage::kDefaultPageSize;
  int64_t format = storage::kFormatVersion;
  std::string mmap = "auto";  // off | on | auto
  // serve / client
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t max_conns = 64;
  int64_t queue_depth = 64;
  std::string op = "ping";  // ping | classify | run | explain | shutdown
};

// The workbench (dataset + templates + domains) moved into src/server/ so
// the daemon and the CLI build the exact same world; these aliases keep
// the subcommand bodies reading as before.
using Context = server::Workbench;
using server::MakeDomain;
using server::PickTemplate;

Result<storage::MmapMode> ParseMmapMode(const std::string& name) {
  if (name == "off") return storage::MmapMode::kOff;
  if (name == "on") return storage::MmapMode::kOn;
  if (name == "auto") return storage::MmapMode::kAuto;
  return Status::InvalidArgument("--mmap must be off, on, or auto (got '" +
                                 name + "')");
}

Result<Context> MakeContext(const Options& opt) {
  if (!opt.snapshot.empty()) {
    // Fast path: restore the saved world instead of regenerating it. The
    // restored workbench is byte-identical to the generated one, so every
    // downstream subcommand produces the same output either way — in
    // copied and mmap'd open modes alike.
    RDFPARAMS_ASSIGN_OR_RETURN(storage::MmapMode mode,
                               ParseMmapMode(opt.mmap));
    storage::OpenOptions options;
    options.mmap = mode;
    return server::OpenWorkbenchSnapshot(opt.snapshot, options);
  }
  server::WorkbenchConfig config;
  config.workload = opt.workload;
  config.products = static_cast<uint64_t>(opt.products);
  config.persons = static_cast<uint64_t>(opt.persons);
  config.seed = static_cast<uint64_t>(opt.seed);
  return server::BuildWorkbench(config);
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int CmdGenerate(const Options& opt) {
  auto ctx = MakeContext(opt);
  if (!ctx.ok()) return Fail(ctx.status());
  std::printf("generated %s dataset: %s triples, %zu terms\n",
              opt.workload.c_str(),
              util::FormatCount(ctx->store().size()).c_str(),
              ctx->dict().size());
  if (opt.out.empty()) {
    std::printf("(no --out given; dataset not written)\n");
    return 0;
  }
  std::ofstream os(opt.out, std::ios::trunc);
  if (!os) return Fail(Status::IOError("cannot open " + opt.out));
  Status st = rdf::WriteNTriples(ctx->dict(), ctx->store(), os);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s\n", opt.out.c_str());
  return 0;
}

int CmdLoad(const Options& opt) {
  if (opt.input.empty()) {
    return Fail(Status::InvalidArgument("load requires --input=FILE.nt"));
  }
  size_t threads =
      util::ThreadPool::ResolveThreads(static_cast<int>(opt.load_threads));
  util::ThreadPool pool(threads - 1);

  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::LoadOptions load_options;
  load_options.pool = &pool;

  util::WallTimer parse_timer;
  auto data = util::ReadFileToString(opt.input);
  if (!data.ok()) return Fail(data.status());
  double mb = static_cast<double>(data->size()) / (1024.0 * 1024.0);
  Status st = rdf::LoadNTriples(*data, &dict, &store, load_options);
  if (!st.ok()) {
    return Fail(Status::ParseError(opt.input + ": " + st.message()));
  }
  std::string().swap(*data);  // the loader is done with the raw bytes
  double parse_seconds = parse_timer.ElapsedSeconds();

  util::WallTimer finalize_timer;
  if (opt.all_indexes) store.BuildAllIndexes();
  store.Finalize(&pool);
  double finalize_seconds = finalize_timer.ElapsedSeconds();

  std::printf("loaded %s: %s triples, %zu terms at load-threads=%zu\n",
              opt.input.c_str(), util::FormatCount(store.size()).c_str(),
              dict.size(), threads);
  std::printf("  read+parse+merge: %s (%.1f MB/s)\n",
              util::FormatDuration(parse_seconds).c_str(),
              parse_seconds > 0 ? mb / parse_seconds : 0.0);
  std::printf("  finalize (%s indexes): %s\n",
              opt.all_indexes ? "6" : "3",
              util::FormatDuration(finalize_seconds).c_str());
  return 0;
}

int CmdSave(const Options& opt) {
  if (opt.out.empty()) {
    return Fail(Status::InvalidArgument("save requires --out=FILE.snap"));
  }
  storage::SaveOptions options;
  options.page_size = static_cast<uint32_t>(opt.page_size);
  options.format_version = static_cast<uint32_t>(opt.format);

  if (!opt.input.empty()) {
    // Raw N-Triples load -> bare snapshot (store + dictionary, no workload
    // metadata). `classify`/`serve` need a workload snapshot; this one is
    // for load-once-open-often pipelines over arbitrary data.
    size_t threads =
        util::ThreadPool::ResolveThreads(static_cast<int>(opt.load_threads));
    util::ThreadPool pool(threads - 1);
    rdf::Dictionary dict;
    rdf::TripleStore store;
    rdf::LoadOptions load_options;
    load_options.pool = &pool;
    auto data = util::ReadFileToString(opt.input);
    if (!data.ok()) return Fail(data.status());
    Status st = rdf::LoadNTriples(*data, &dict, &store, load_options);
    if (!st.ok()) {
      return Fail(Status::ParseError(opt.input + ": " + st.message()));
    }
    std::string().swap(*data);
    if (opt.all_indexes) store.BuildAllIndexes();
    store.Finalize(&pool);
    st = storage::Snapshot::Save(dict, store, {}, opt.out, options);
    if (!st.ok()) return Fail(st);
    std::printf("saved %s: %s triples, %zu terms (no workload metadata)\n",
                opt.out.c_str(), util::FormatCount(store.size()).c_str(),
                dict.size());
    return 0;
  }

  auto ctx = MakeContext(opt);  // --snapshot here re-saves an opened one
  if (!ctx.ok()) return Fail(ctx.status());
  Status st = server::SaveWorkbenchSnapshot(*ctx, opt.out, options);
  if (!st.ok()) return Fail(st);
  std::printf("saved %s: %s triples, %zu terms, %zu templates\n",
              opt.out.c_str(), util::FormatCount(ctx->store().size()).c_str(),
              ctx->dict().size(), ctx->templates.size());
  return 0;
}

int CmdOpen(const Options& opt) {
  std::string path = !opt.input.empty() ? opt.input : opt.snapshot;
  if (path.empty()) {
    return Fail(Status::InvalidArgument("open requires --input=FILE.snap"));
  }
  auto info = storage::Snapshot::Inspect(path);
  if (!info.ok()) return Fail(info.status());
  std::printf("%s: format v%u, %llu pages of %u bytes (%s), checksums OK\n",
              path.c_str(), info->header.version,
              static_cast<unsigned long long>(info->header.page_count),
              info->header.page_size,
              util::FormatCount(info->file_size).c_str());
  util::TablePrinter table({"section", "pages", "bytes", "items"});
  for (const storage::SectionInfo& s : info->header.sections) {
    std::string name;
    if (s.kind == storage::kSectionDictionary) {
      name = "dictionary";
    } else if (s.kind == storage::kSectionDictArena) {
      name = "dict arena";
    } else if (s.kind == storage::kSectionDictRecords) {
      name = "dict records";
    } else if (s.kind == storage::kSectionDictHash) {
      name = "dict hash";
    } else if (s.kind == storage::kSectionAppMeta) {
      name = "app meta";
    } else {
      name = std::string("index ") +
             rdf::IndexOrderName(static_cast<rdf::IndexOrder>(
                 s.kind - storage::kSectionIndexBase));
    }
    table.AddRow({name, std::to_string(s.page_count),
                  std::to_string(s.byte_length), std::to_string(s.item_count)});
  }
  std::printf("%s", table.ToText().c_str());

  auto mode = ParseMmapMode(opt.mmap);
  if (!mode.ok()) return Fail(mode.status());
  storage::OpenOptions open_options;
  open_options.mmap = *mode;
  storage::OpenStats stats;
  open_options.stats = &stats;
  auto snap = storage::Snapshot::Open(path, open_options);
  if (!snap.ok()) return Fail(snap.status());
  std::printf("open path: %s; phases: checksum %s, dictionary %s, "
              "index runs %s, meta %s\n",
              stats.mmap_used ? "mmap (zero-copy)" : "copied",
              util::FormatDuration(stats.checksum_seconds).c_str(),
              util::FormatDuration(stats.dict_seconds).c_str(),
              util::FormatDuration(stats.runs_seconds).c_str(),
              util::FormatDuration(stats.meta_seconds).c_str());
  std::printf("restored: %s triples, %zu terms, %s indexes, %s\n",
              util::FormatCount(snap->store.size()).c_str(),
              snap->dict.size(),
              snap->store.all_indexes_built() ? "6" : "3",
              snap->has_app_meta ? "workload metadata present"
                                 : "no workload metadata");
  return 0;
}

int CmdDescribe(const Options& opt) {
  auto ctx = MakeContext(opt);
  if (!ctx.ok()) return Fail(ctx.status());
  rdf::DescribeOptions options;
  options.max_predicates = 30;
  std::printf("%s", rdf::DescribeStore(ctx->store(), ctx->dict(),
                                       options).c_str());
  return 0;
}

Result<core::ClassifyStrategy> ParseStrategy(const std::string& name) {
  if (name == "batched") return core::ClassifyStrategy::kBatched;
  if (name == "per-candidate" || name == "per_candidate") {
    return core::ClassifyStrategy::kPerCandidate;
  }
  return Status::InvalidArgument(
      "unknown --strategy '" + name + "' (use batched or per-candidate)");
}

int CmdClassify(const Options& opt) {
  auto ctx = MakeContext(opt);
  if (!ctx.ok()) return Fail(ctx.status());
  auto tmpl = PickTemplate(*ctx, opt.query);
  if (!tmpl.ok()) return Fail(tmpl.status());
  auto domain = MakeDomain(*ctx, **tmpl);
  if (!domain.ok()) return Fail(domain.status());
  auto strategy = ParseStrategy(opt.strategy);
  if (!strategy.ok()) return Fail(strategy.status());

  core::ClassifyOptions options;
  options.cost_bucket_log2_width = opt.bucket_width;
  options.max_candidates = static_cast<uint64_t>(opt.max_candidates);
  options.threads = static_cast<int>(opt.threads);
  options.strategy = *strategy;
  core::ClassifyStats stats;
  options.stats = &stats;
  ::rdfparams::opt::CardinalityCache cache;
  options.optimizer.cardinality_cache = &cache;
  util::WallTimer timer;
  auto classes = core::ClassifyParameters(**tmpl, *domain, ctx->store(),
                                          ctx->dict(), options);
  if (!classes.ok()) return Fail(classes.status());
  double elapsed = timer.ElapsedSeconds();

  std::printf("%s: %llu candidates -> %zu classes\n",
              (*tmpl)->name().c_str(),
              static_cast<unsigned long long>(classes->num_candidates),
              classes->classes.size());
  std::printf(
      "(%.2fs at threads=%zu, strategy=%s; cardinality cache: %llu hits / "
      "%llu misses, %.1f%% hit rate)\n\n",
      elapsed,
      util::ThreadPool::ResolveThreads(static_cast<int>(opt.threads)),
      opt.strategy.c_str(),
      static_cast<unsigned long long>(cache.hits()),
      static_cast<unsigned long long>(cache.misses()),
      cache.HitRate() * 100);
  if (opt.stats) {
    util::TablePrinter stat_table({"stat", "value"});
    auto row = [&](const char* name, uint64_t value) {
      stat_table.AddRow({name, std::to_string(value)});
    };
    row("candidates", stats.num_candidates);
    row("distinct signatures", stats.distinct_signatures);
    row("dp runs", stats.dp_runs);
    row("dp runs saved", stats.dp_runs_saved);
    row("batch-swept leaf counts", stats.batched_counts);
    row("unbatched patterns", stats.unbatched_patterns);
    row("prefilled pair joins", stats.prefilled_pair_joins);
    stat_table.AddRow(
        {"cache hit rate",
         util::StringPrintf("%.1f%% (%llu / %llu)", stats.CacheHitRate() * 100,
                            static_cast<unsigned long long>(stats.cache_hits),
                            static_cast<unsigned long long>(
                                stats.cache_hits + stats.cache_misses))});
    std::printf("%s\n", stat_table.ToText().c_str());
  }
  util::TablePrinter table(
      {"class", "size", "share", "cost bucket", "est C_out range", "plan"});
  for (size_t i = 0; i < classes->classes.size(); ++i) {
    const core::PlanClass& cls = classes->classes[i];
    std::string bucket =
        cls.cost_bucket == std::numeric_limits<int64_t>::min()
            ? "empty-join"
            : std::to_string(cls.cost_bucket);
    table.AddRow({"S" + std::to_string(i),
                  std::to_string(cls.members.size()),
                  util::StringPrintf("%.1f%%", cls.fraction * 100),
                  bucket,
                  util::StringPrintf("[%.3g, %.3g]", cls.min_cout,
                                     cls.max_cout),
                  cls.fingerprint});
  }
  std::printf("%s", table.ToText().c_str());
  return 0;
}

int CmdSample(const Options& opt) {
  auto ctx = MakeContext(opt);
  if (!ctx.ok()) return Fail(ctx.status());
  auto tmpl = PickTemplate(*ctx, opt.query);
  if (!tmpl.ok()) return Fail(tmpl.status());
  auto domain = MakeDomain(*ctx, **tmpl);
  if (!domain.ok()) return Fail(domain.status());

  util::Rng rng(static_cast<uint64_t>(opt.seed) + 1000);
  std::vector<sparql::ParameterBinding> bindings;
  size_t n = static_cast<size_t>(opt.n);

  if (opt.mode == "uniform") {
    bindings = domain->SampleN(&rng, n);
  } else if (opt.mode == "step") {
    // Related-work baseline: down-weight the front of the ordered domain
    // (in BSBM the generic types come first) with a 1:2:4:8 step shape.
    auto sampler = core::StepSampler::Create(&domain.value(), {1, 2, 4, 8});
    if (!sampler.ok()) return Fail(sampler.status());
    bindings = sampler->SampleN(&rng, n);
  } else if (util::StartsWith(opt.mode, "class")) {
    size_t which = 0;
    if (util::StartsWith(opt.mode, "class:")) {
      which = static_cast<size_t>(std::strtoull(
          opt.mode.c_str() + 6, nullptr, 10));
    }
    core::ClassifyOptions options;
    options.cost_bucket_log2_width = opt.bucket_width;
    options.max_candidates = static_cast<uint64_t>(opt.max_candidates);
    options.threads = static_cast<int>(opt.threads);
    auto classes = core::ClassifyParameters(**tmpl, *domain, ctx->store(),
                                            ctx->dict(), options);
    if (!classes.ok()) return Fail(classes.status());
    if (which >= classes->classes.size()) {
      return Fail(Status::InvalidArgument(
          "class index out of range (have " +
          std::to_string(classes->classes.size()) + " classes)"));
    }
    bindings = core::SampleFromClass(classes->classes[which], n, &rng);
    std::printf("sampling from class S%zu (plan %s, share %.1f%%)\n", which,
                classes->classes[which].fingerprint.c_str(),
                classes->classes[which].fraction * 100);
  } else {
    return Fail(Status::InvalidArgument(
        "unknown --mode (use uniform, step, class, or class:K)"));
  }

  if (opt.out.empty()) {
    Status st = core::WriteBindings(**tmpl, bindings, ctx->dict(),
                                    std::cout);
    return st.ok() ? 0 : Fail(st);
  }
  Status st =
      core::WriteBindingsFile(**tmpl, bindings, ctx->dict(), opt.out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu bindings to %s\n", bindings.size(),
              opt.out.c_str());
  return 0;
}

int CmdRun(const Options& opt) {
  auto ctx = MakeContext(opt);
  if (!ctx.ok()) return Fail(ctx.status());
  auto tmpl = PickTemplate(*ctx, opt.query);
  if (!tmpl.ok()) return Fail(tmpl.status());

  std::vector<sparql::ParameterBinding> bindings;
  if (!opt.bindings.empty()) {
    auto read =
        core::ReadBindingsFile(**tmpl, ctx->mutable_dict(), opt.bindings);
    if (!read.ok()) return Fail(read.status());
    bindings = std::move(read).value();
  } else {
    auto domain = MakeDomain(*ctx, **tmpl);
    if (!domain.ok()) return Fail(domain.status());
    util::Rng rng(static_cast<uint64_t>(opt.seed) + 1000);
    bindings = domain->SampleN(&rng, static_cast<size_t>(opt.n));
    std::printf("(no --bindings file; using %zu uniform bindings)\n",
                bindings.size());
  }

  core::WorkloadRunner runner(ctx->store(), ctx->mutable_dict());
  core::WorkloadOptions run_options;
  run_options.threads = static_cast<int>(opt.threads);
  run_options.exec.threads = static_cast<int>(opt.exec_threads);
  run_options.exec.morsel_size = static_cast<uint64_t>(opt.morsel_size);
  run_options.exec.parallel_group_by = opt.parallel_group_by;
  run_options.exec.parallel_sort = opt.parallel_sort;
  run_options.exec.chunk_rows = static_cast<uint64_t>(opt.chunk_rows);
  run_options.exec.enable_merge_join = opt.merge_join;
  auto obs = runner.RunAll(**tmpl, bindings, run_options);
  if (!obs.ok()) return Fail(obs.status());

  core::ClassQuality quality = core::AnalyzeClass(*obs);
  const stats::Summary& s = quality.runtime_summary;
  std::printf("\n%s over %zu bindings:\n", (*tmpl)->name().c_str(),
              bindings.size());
  util::TablePrinter table({"q10", "Median", "q90", "Average"});
  table.AddRow({util::FormatDuration(s.q10), util::FormatDuration(s.median),
                util::FormatDuration(s.q90), util::FormatDuration(s.mean)});
  std::printf("%s", table.ToText().c_str());
  std::printf("\nP1 runtime cv: %.2f   P3 distinct plans: %zu%s\n",
              quality.runtime_cv, quality.distinct_plans,
              quality.distinct_plans == 1 ? " (stable)" : " (plan-unstable!)");
  return 0;
}

int CmdServe(const Options& opt) {
  auto ctx = MakeContext(opt);
  if (!ctx.ok()) return Fail(ctx.status());
  std::printf("serving %s dataset: %s triples, %zu terms, %zu templates\n",
              ctx->bsbm_ds ? "bsbm" : "snb",
              util::FormatCount(ctx->store().size()).c_str(),
              ctx->dict().size(), ctx->templates.size());

  server::Service service(*ctx);
  server::ServerConfig config;
  config.host = opt.host;
  config.port = static_cast<uint16_t>(opt.port);
  config.threads = static_cast<int>(opt.threads);
  config.max_conns = static_cast<int>(opt.max_conns);
  config.queue_depth = static_cast<int>(opt.queue_depth);
  server::Server srv(&service, config);
  Status st = srv.Start();
  if (!st.ok()) return Fail(st);

  // Scripts (and the CI smoke test) wait for this exact line to learn the
  // ephemeral port, so flush it immediately.
  std::printf("listening on %s:%u\n", opt.host.c_str(), srv.port());
  std::fflush(stdout);

  srv.AwaitShutdown();  // until a client sends kShutdown (or Stop below)
  srv.Stop();
  std::printf("served %llu requests over %llu connections (%llu rejected)\n",
              static_cast<unsigned long long>(srv.served_requests()),
              static_cast<unsigned long long>(srv.accepted_connections()),
              static_cast<unsigned long long>(srv.rejected_connections()));
  return 0;
}

int CmdClient(const Options& opt) {
  server::Opcode opcode;
  server::Request request;
  if (opt.op == "ping") {
    opcode = server::Opcode::kPing;
  } else if (opt.op == "shutdown") {
    opcode = server::Opcode::kShutdown;
  } else if (opt.op == "classify" || opt.op == "run" || opt.op == "explain") {
    opcode = opt.op == "classify" ? server::Opcode::kClassify
             : opt.op == "run"    ? server::Opcode::kRun
                                  : server::Opcode::kExplain;
    request.fields["query"] = std::to_string(opt.query);
    if (opt.op == "classify") {
      request.fields["max_candidates"] = std::to_string(opt.max_candidates);
      request.fields["bucket_width"] = util::StringPrintf("%.17g",
                                                          opt.bucket_width);
      request.fields["strategy"] = opt.strategy;
    } else {
      request.fields["seed"] = std::to_string(opt.seed);
      if (opt.op == "run") request.fields["n"] = std::to_string(opt.n);
      if (!opt.bindings.empty()) {
        auto body = util::ReadFileToString(opt.bindings);
        if (!body.ok()) return Fail(body.status());
        request.body = std::move(body).value();
      }
    }
  } else {
    return Fail(Status::InvalidArgument(
        "unknown --op '" + opt.op +
        "' (use ping, classify, run, explain, or shutdown)"));
  }

  std::string payload = opcode == server::Opcode::kPing
                            ? std::string("ping")
                            : server::EncodeRequest(request);
  if (opcode == server::Opcode::kShutdown) payload.clear();
  auto response = server::CallOnce(
      opt.host, static_cast<uint16_t>(opt.port), opcode, payload);
  if (!response.ok()) return Fail(response.status());
  std::fwrite(response->data(), 1, response->size(), stdout);
  if (!response->empty() && response->back() != '\n') std::printf("\n");
  return 0;
}

int CmdHelp(const char* prog) {
  std::printf(
      "usage: %s <generate|load|save|open|describe|classify|sample|run|"
      "serve|client> [flags]\n\n"
      "common flags:\n"
      "  --workload=bsbm|snb     which generator/templates (default bsbm)\n"
      "  --snapshot=FILE.snap    open a saved snapshot instead of\n"
      "                          regenerating (classify/sample/run/serve/\n"
      "                          describe; byte-identical results)\n"
      "  --mmap=auto|on|off      snapshot open mode: memory-map and borrow\n"
      "                          pages/dictionary bytes (auto falls back to\n"
      "                          copied reads; identical output either way)\n"
      "  --query=N               template number within the workload\n"
      "  --products=N --persons=N --seed=N    dataset shape (deterministic)\n"
      "  --threads=N             curation worker threads (0 = all cores;\n"
      "                          results are identical for every N)\n"
      "  --exec-threads=N        intra-query worker threads for `run`\n"
      "                          (morsel scans, partitioned hash joins,\n"
      "                          group-by reduction, ORDER BY merge sort;\n"
      "                          0 = all cores; results identical for all N)\n"
      "  --morsel-size=N         probe rows per intra-query morsel\n"
      "  --chunk-rows=N          vectorization chunk width for the columnar\n"
      "                          operators (0 = row-at-a-time reference\n"
      "                          kernels; results identical for every N)\n"
      "  --merge-join=B          merge join over sorted index runs when the\n"
      "                          optimizer hints it (default true; purely a\n"
      "                          perf switch)\n"
      "  --parallel-group-by=B   group-by slice-merge reduction on the pool\n"
      "                          (default true; purely a perf switch)\n"
      "  --parallel-sort=B       ORDER BY parallel merge sort on the pool\n"
      "                          (default true; purely a perf switch)\n"
      "  --load-threads=N        sharded N-Triples load + parallel index\n"
      "                          finalize for `load` (0 = all cores;\n"
      "                          identical store/dictionary for every N)\n"
      "subcommand flags:\n"
      "  generate: --out=FILE.nt\n"
      "  classify: --bucket_width=W --max-candidates=N --stats\n"
      "            --strategy=batched|per-candidate (identical results;\n"
      "            batched dedups the optimizer DP by cardinality signature)\n"
      "  sample:   --mode=uniform|step|class|class:K --n=N --out=FILE.tsv\n"
      "  run:      --bindings=FILE.tsv | --n=N (uniform fallback)\n"
      "  load:     --input=FILE.nt --all-indexes=B\n"
      "  save:     --out=FILE.snap --page-size=N --format=1|2, plus either\n"
      "            the dataset flags (workload snapshot) or --input=FILE.nt\n"
      "            (bare store, no workload metadata)\n"
      "  open:     --input=FILE.snap --mmap=auto|on|off (verify checksums,\n"
      "            print layout, open-phase timings)\n"
      "  serve:    --host=H --port=N (0 = ephemeral, printed on stdout)\n"
      "            --threads=N --max-conns=N --queue-depth=N\n"
      "  client:   --host=H --port=N --op=ping|classify|run|explain|shutdown\n"
      "            plus the matching request flags (--query, --n, --seed,\n"
      "            --max-candidates, --bucket_width, --strategy,\n"
      "            --bindings=FILE.tsv for inline run/explain bindings)\n",
      prog);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return CmdHelp(argv[0]);
  std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return CmdHelp(argv[0]);

  Options opt;
  util::FlagParser flags;
  flags.AddString("workload", &opt.workload, "bsbm or snb");
  flags.AddInt64("query", &opt.query, "template number");
  flags.AddInt64("products", &opt.products, "BSBM products");
  flags.AddInt64("persons", &opt.persons, "SNB persons");
  flags.AddInt64("seed", &opt.seed, "generator seed");
  flags.AddInt64("n", &opt.n, "number of bindings");
  flags.AddInt64("max_candidates", &opt.max_candidates,
                 "classification candidate budget");
  flags.AddInt64("threads", &opt.threads,
                 "worker threads for classify/run (0 = all cores)");
  flags.AddInt64("exec_threads", &opt.exec_threads,
                 "intra-query worker threads (0 = all cores)");
  flags.AddInt64("morsel_size", &opt.morsel_size,
                 "probe rows per intra-query morsel");
  flags.AddInt64("chunk_rows", &opt.chunk_rows,
                 "vectorization chunk width (0 = row-at-a-time kernels)");
  flags.AddBool("merge_join", &opt.merge_join,
                "merge join over sorted index runs when hinted");
  flags.AddInt64("load_threads", &opt.load_threads,
                 "worker threads for the sharded loader (0 = all cores)");
  flags.AddBool("all_indexes", &opt.all_indexes,
                "build all six permutation indexes in `load`");
  flags.AddBool("stats", &opt.stats,
                "print classification statistics (signature dedup, DP runs "
                "saved, cache hit rate)");
  flags.AddString("strategy", &opt.strategy,
                  "classification stage-1 strategy: batched | per-candidate");
  flags.AddBool("parallel_group_by", &opt.parallel_group_by,
                "run group-by through the parallel slice-merge reduction");
  flags.AddBool("parallel_sort", &opt.parallel_sort,
                "run ORDER BY through the parallel merge sort");
  flags.AddDouble("bucket_width", &opt.bucket_width,
                  "log2 C_out bucket width (condition b)");
  flags.AddString("mode", &opt.mode, "uniform | step | class | class:K");
  flags.AddString("out", &opt.out, "output file");
  flags.AddString("bindings", &opt.bindings, "bindings file to run");
  flags.AddString("input", &opt.input,
                  "input file: N-Triples for load/save, snapshot for open");
  flags.AddString("snapshot", &opt.snapshot,
                  "open this snapshot instead of regenerating the dataset");
  flags.AddInt64("page_size", &opt.page_size,
                 "snapshot page size in bytes for `save` (power of two, "
                 "512..1M)");
  flags.AddInt64("format", &opt.format,
                 "snapshot format version for `save` (1 = legacy byte-stream "
                 "dictionary, 2 = raw arena/records/hash)");
  flags.AddString("mmap", &opt.mmap,
                  "snapshot open mode: auto (mmap when available), on "
                  "(require mmap), off (always copy)");
  flags.AddString("host", &opt.host, "bind/connect address for serve/client");
  flags.AddInt64("port", &opt.port,
                 "TCP port for serve/client (0 = ephemeral for serve)");
  flags.AddInt64("max_conns", &opt.max_conns,
                 "serve: max admitted (queued + serving) connections");
  flags.AddInt64("queue_depth", &opt.queue_depth,
                 "serve: max connections waiting for a worker");
  flags.AddString("op", &opt.op,
                  "client request: ping | classify | run | explain | "
                  "shutdown");
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) return Fail(st);
  if (flags.help_requested()) return CmdHelp(argv[0]);

  if (cmd == "generate") return CmdGenerate(opt);
  if (cmd == "load") return CmdLoad(opt);
  if (cmd == "save") return CmdSave(opt);
  if (cmd == "open") return CmdOpen(opt);
  if (cmd == "describe") return CmdDescribe(opt);
  if (cmd == "classify") return CmdClassify(opt);
  if (cmd == "sample") return CmdSample(opt);
  if (cmd == "run") return CmdRun(opt);
  if (cmd == "serve") return CmdServe(opt);
  if (cmd == "client") return CmdClient(opt);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  CmdHelp(argv[0]);
  return 1;
}
