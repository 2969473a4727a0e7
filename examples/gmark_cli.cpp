// gmark_cli: the command-line front end of Fig. 1, mirroring the
// original gMark tool's workflow:
//
//   gmark_cli -c <graph-config.xml>        graph configuration (input)
//             [-w <workload-config.xml>]   workload configuration
//             [-g <graph.out>]             write the instance
//             [--format nt|csv]            instance format (default nt)
//             [-q <workload.xml>]          write UCRPQs as XML
//             [-o <dir>]                   write per-language query files
//             [-n <nodes>]                 override the graph size (>= 1)
//             [--use-case Bib|LSN|SP|WD]   built-in config instead of -c
//             [--threads <k>]              graph AND workload generation
//                                          threads, 0..1024 (0 = all cores,
//                                          default 1); output is identical
//                                          at any thread count
//             [--stats]                    print instance statistics plus the
//                                          metric-registry snapshot table
//                                          (gen.* phase counters, CSR group
//                                          counts and bytes, query metrics
//                                          when --evaluate ran)
//             [--evaluate CODES]           generate + index the graph (one
//                                          generation also writes -g), run
//                                          the workload through the engine
//                                          simulators named by CODES (e.g.
//                                          PD, or "all" = PGSD), and print
//                                          per-query timings with their
//                                          evaluation profiles
//             [--plan on|off]              selectivity-driven planning for
//                                          --evaluate: conjunct order,
//                                          traversal direction, and Kleene
//                                          seed side chosen from the schema's
//                                          degree distributions (default off;
//                                          results identical either way)
//             [--metrics-json FILE]        write the metric-registry snapshot
//                                          as JSON (also --metrics-json=FILE)
//             [--trace-json FILE]          record hierarchical spans and
//                                          write Chrome trace_event JSON —
//                                          loads in chrome://tracing and
//                                          https://ui.perfetto.dev
//
// Example:
//   ./build/examples/gmark_cli --use-case Bib -n 10000 ...
//       -g /tmp/bib.nt -q /tmp/workload.xml -o /tmp/queries --stats

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "analysis/runner.h"
#include "core/config_xml.h"
#include "core/consistency.h"
#include "core/use_cases.h"
#include "engine/engines.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"
#include "plan/planner.h"
#include "graph/stats.h"
#include "query/query_xml.h"
#include "util/string_util.h"
#include "translate/translator.h"
#include "workload/parallel_workload.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

namespace {

/// Upper bound of --threads and --eval-threads: far above any core
/// count this runs on, low enough that a typo cannot ask the OS for
/// millions of threads.
constexpr int64_t kMaxThreads = 1024;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (-c config.xml | --use-case NAME) [-n nodes]\n"
      "          [-w workload-config.xml] [-g graph.out] [--format nt|csv]\n"
      "          [-q workload.xml] [-o query-dir] [--threads k] [--stats]\n"
      "          [--evaluate CODES] [--eval-threads k] [--plan on|off]\n"
      "          [--metrics-json FILE] [--trace-json FILE]\n"
      "\n"
      "  -n nodes               graph size, at least 1\n"
      "  --threads k            graph and workload generation threads,\n"
      "                         0..1024 (0 = all cores, default 1); output\n"
      "                         is byte-identical at any thread count\n"
      "  --eval-threads k       parallel query evaluation for --evaluate,\n"
      "                         0..1024 (0 = all cores, default 1); counts\n"
      "                         and profiles are byte-identical at any\n"
      "                         thread count\n"
      "  --evaluate CODES       run the generated workload through the\n"
      "                         engine simulators named by CODES (subset\n"
      "                         of PGSD, or \"all\") and print per-query\n"
      "                         timings with evaluation profiles\n"
      "  --plan on|off          selectivity-driven query planning for\n"
      "                         --evaluate (default off): reorder\n"
      "                         conjuncts cheapest-first, pick traversal\n"
      "                         direction and Kleene seed side from the\n"
      "                         schema's degree distributions; results\n"
      "                         are byte-identical either way\n"
      "  --metrics-json FILE    write the metric-registry snapshot as JSON\n"
      "  --trace-json FILE      record spans; write Chrome trace_event\n"
      "                         JSON (chrome://tracing, Perfetto)\n",
      argv0);
  return 2;
}

/// Final observability exports (the `--stats` table, `--metrics-json`,
/// `--trace-json`); returns the process exit code.
int FinishObs(bool stats, const std::string& metrics_json,
              const std::string& trace_json, MetricRegistry* registry,
              Tracer* tracer) {
  if (stats && registry != nullptr) {
    std::printf("%s", registry->Snapshot().ToTable().c_str());
  }
  if (!metrics_json.empty() && registry != nullptr) {
    std::ofstream out(metrics_json, std::ios::trunc);
    out << registry->Snapshot().ToJson() << "\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_json.c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_json.c_str());
  }
  if (!trace_json.empty() && tracer != nullptr) {
    std::ofstream out(trace_json, std::ios::trunc);
    Status st = out ? tracer->WriteChromeTrace(out)
                    : Status::IOError("cannot open trace file");
    out.flush();
    if (st.ok() && !out) st = Status::IOError("stream write failed");
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", trace_json.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s\n", tracer->event_count(),
                trace_json.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path, workload_path, graph_out, queries_out, out_dir,
      use_case;
  std::string format = "nt";
  std::string metrics_json, trace_json, evaluate_codes;
  int64_t nodes_override = -1;
  bool stats = false;
  // Graph and workload generation threads (1 = inline).
  int threads = 1;
  // Intra-query evaluation threads for --evaluate (1 = serial).
  int eval_threads = 1;
  bool eval_threads_set = false;
  // "" = flag absent (off); validated against {"on", "off"} below.
  std::string plan_mode;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // String-valued flags accepting both "--flag VALUE" and
    // "--flag=VALUE".
    auto take = [&](const std::string& flag, std::string* out) -> bool {
      if (arg == flag) {
        if (const char* v = next()) {
          *out = v;
          return true;
        }
        return false;
      }
      if (arg.rfind(flag + "=", 0) == 0) {
        *out = arg.substr(flag.size() + 1);
        return !out->empty();
      }
      return false;
    };
    if (arg.rfind("--metrics-json", 0) == 0) {
      if (!take("--metrics-json", &metrics_json)) return Usage(argv[0]);
    } else if (arg.rfind("--trace-json", 0) == 0) {
      if (!take("--trace-json", &trace_json)) return Usage(argv[0]);
    } else if (arg.rfind("--evaluate", 0) == 0) {
      if (!take("--evaluate", &evaluate_codes)) return Usage(argv[0]);
    } else if (arg.rfind("--plan", 0) == 0) {
      if (!take("--plan", &plan_mode)) return Usage(argv[0]);
    } else if (arg == "-c") {
      if (const char* v = next()) config_path = v; else return Usage(argv[0]);
    } else if (arg == "-w") {
      if (const char* v = next()) workload_path = v; else return Usage(argv[0]);
    } else if (arg == "-g") {
      if (const char* v = next()) graph_out = v; else return Usage(argv[0]);
    } else if (arg == "-q") {
      if (const char* v = next()) queries_out = v; else return Usage(argv[0]);
    } else if (arg == "-o") {
      if (const char* v = next()) out_dir = v; else return Usage(argv[0]);
    } else if (arg == "-n") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto parsed = ParseInt(v);
      if (!parsed.ok() || parsed.ValueOrDie() < 1) return Usage(argv[0]);
      nodes_override = parsed.ValueOrDie();
    } else if (arg == "--use-case") {
      if (const char* v = next()) use_case = v; else return Usage(argv[0]);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto parsed = ParseInt(v);
      if (!parsed.ok() || parsed.ValueOrDie() < 0 ||
          parsed.ValueOrDie() > kMaxThreads) {
        return Usage(argv[0]);
      }
      threads = static_cast<int>(parsed.ValueOrDie());
    } else if (arg == "--eval-threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto parsed = ParseInt(v);
      if (!parsed.ok() || parsed.ValueOrDie() < 0 ||
          parsed.ValueOrDie() > kMaxThreads) {
        return Usage(argv[0]);
      }
      eval_threads = static_cast<int>(parsed.ValueOrDie());
      eval_threads_set = true;
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      format = v;
      if (format != "nt" && format != "csv") return Usage(argv[0]);
    } else if (arg == "--stats") {
      stats = true;
    } else {
      return Usage(argv[0]);
    }
  }

  // Evaluation-flag validation: contradictory or unknown combinations
  // fail loudly instead of being silently ignored.
  if (!plan_mode.empty() && plan_mode != "on" && plan_mode != "off") {
    std::fprintf(stderr, "error: --plan expects 'on' or 'off', got '%s'\n",
                 plan_mode.c_str());
    return 2;
  }
  if (!plan_mode.empty() && evaluate_codes.empty()) {
    std::fprintf(stderr,
                 "error: --plan requires --evaluate (planning only applies "
                 "to engine evaluation)\n");
    return 2;
  }
  if (eval_threads_set && evaluate_codes.empty()) {
    std::fprintf(stderr, "error: --eval-threads requires --evaluate\n");
    return 2;
  }
  if (evaluate_codes == "all") evaluate_codes = "PGSD";
  for (char c : evaluate_codes) {
    if (c != 'P' && c != 'G' && c != 'S' && c != 'D') {
      std::fprintf(stderr,
                   "error: --evaluate: unknown engine code '%c' (valid: a "
                   "subset of PGSD, or \"all\")\n",
                   c);
      return 2;
    }
  }

  // Observability: install a registry whenever any surface needs one; a
  // tracer only when a trace file was requested. With neither, the
  // global pointers stay null and the instrumented paths are no-ops.
  std::optional<MetricRegistry> registry;
  std::optional<ScopedGlobalMetrics> scoped_metrics;
  if (stats || !metrics_json.empty() || !evaluate_codes.empty()) {
    registry.emplace();
    scoped_metrics.emplace(&*registry);
  }
  std::optional<Tracer> tracer;
  std::optional<ScopedGlobalTracer> scoped_tracer;
  if (!trace_json.empty()) {
    tracer.emplace();
    scoped_tracer.emplace(&*tracer);
  }

  // Resolve the graph configuration.
  GraphConfiguration config;
  if (!config_path.empty()) {
    auto loaded = LoadGraphConfig(config_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    config = std::move(loaded).ValueOrDie();
  } else if (use_case == "Bib") {
    config = MakeBibConfig(10000);
  } else if (use_case == "LSN") {
    config = MakeLsnConfig(10000);
  } else if (use_case == "SP") {
    config = MakeSpConfig(10000);
  } else if (use_case == "WD") {
    config = MakeWdConfig(10000);
  } else {
    return Usage(argv[0]);
  }
  if (nodes_override >= 1) config.num_nodes = nodes_override;

  auto report = CheckConsistency(config);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  if (!report->all_consistent) {
    std::fprintf(stderr, "warning: schema has inconsistent constraints "
                         "(generation will relax them):\n%s",
                 report->ToString().c_str());
  }

  GeneratorOptions gen_options;
  gen_options.num_threads = threads;

  // Graph generation: one walk of the generator, whatever is asked
  // for. With -g the edges stream into the file's sink; with --stats or
  // --evaluate the same walk also builds the indexed graph, and the
  // file holds the same bytes either way.
  const bool want_graph = stats || !evaluate_codes.empty();
  std::optional<std::ofstream> out;
  std::optional<NTriplesSink> nt_sink;
  std::optional<CsvSink> csv_sink;
  EdgeSink* sink = nullptr;
  if (!graph_out.empty()) {
    out.emplace(graph_out, std::ios::binary | std::ios::trunc);
    if (!*out) {
      std::fprintf(stderr, "error: cannot write %s\n", graph_out.c_str());
      return 1;
    }
    // Construct only the chosen sink: CsvSink emits its header row from
    // the constructor.
    if (format == "csv") {
      sink = &csv_sink.emplace(&*out, &config.schema);
    } else {
      sink = &nt_sink.emplace(&*out, &config.schema);
    }
  }
  std::optional<Graph> indexed;
  Status gen_status;
  // Stats publish the gen.* metrics.
  GenerateStats gen_stats;
  if (want_graph) {
    Result<Graph> graph =
        ParallelGenerateGraph(config, gen_options, &gen_stats, sink);
    if (graph.ok()) {
      indexed = std::move(graph).ValueOrDie();
    } else {
      gen_status = graph.status();
    }
  } else if (sink != nullptr) {
    gen_status = ParallelGenerateToSink(config, sink, gen_options, &gen_stats);
  }
  if (out.has_value()) {
    // Flush before testing the stream: a failure in the final buffered
    // block would otherwise surface only in the destructor, silently.
    out->flush();
    if (gen_status.ok() && !*out) {
      gen_status = Status::IOError("stream write failed");
    }
  }
  if (!gen_status.ok()) {
    std::fprintf(stderr, "error: %s\n", gen_status.ToString().c_str());
    return 1;
  }
  if (sink != nullptr) {
    std::printf("wrote %zu %s to %s\n", sink->count(),
                format == "csv" ? "csv rows" : "triples", graph_out.c_str());
  }
  if (stats) {
    std::printf("%s", ComputeStats(*indexed).ToString(config.schema).c_str());
  }

  // Workload generation.
  const bool want_workload =
      !queries_out.empty() || !out_dir.empty() || !evaluate_codes.empty();
  if (!want_workload) {
    // Phase counters (gen.*) are already recorded; fall through to the
    // observability exports.
    return FinishObs(stats, metrics_json, trace_json, registry ? &*registry
                                                               : nullptr,
                     tracer ? &*tracer : nullptr);
  }
  WorkloadConfiguration wconfig = MakePresetWorkload(WorkloadPreset::kCon);
  if (!workload_path.empty()) {
    auto content = ReadFileToString(workload_path);
    if (!content.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   content.status().ToString().c_str());
      return 1;
    }
    auto parsed = ParseWorkloadConfigXml(*content);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    wconfig = std::move(parsed).ValueOrDie();
  }
  QueryGenerator generator(&config.schema);
  // The workload is byte-identical at any --threads value.
  ParallelWorkloadOptions woptions;
  woptions.num_threads = threads;
  auto workload = ParallelGenerateWorkload(generator, wconfig, woptions);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  for (const std::string& skipped : workload->skipped) {
    std::fprintf(stderr, "warning: skipped %s\n", skipped.c_str());
  }

  if (!queries_out.empty()) {
    Status st = WriteStringToFile(
        QueriesToXml(workload->RawQueries(), config.schema), queries_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu queries to %s\n", workload->queries.size(),
                queries_out.c_str());
  }

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    TranslateOptions options;
    for (QueryLanguage lang : AllQueryLanguages()) {
      std::string path = out_dir + "/workload." +
                         std::string(QueryLanguageName(lang)) + ".txt";
      std::string content;
      for (const GeneratedQuery& gq : workload->queries) {
        auto text = TranslateQuery(gq.query, config.schema, lang, options);
        content += "-- " + gq.query.name + "\n";
        content += text.ok() ? *text : "-- " + text.status().ToString() + "\n";
        content += "\n";
      }
      Status st = WriteStringToFile(content, path);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
  }

  // Engine evaluation: the generated workload against the indexed
  // graph, one engine per code, §7.1 timing protocol with one warm run
  // (the profile rides the cold run, so timings stay unperturbed).
  if (!evaluate_codes.empty()) {
    const ResourceBudget budget = ResourceBudget::Limited(5.0, 20'000'000);
    TimingProtocol protocol;
    protocol.warm_runs = 1;
    // One executor for every engine run; counts/profiles are identical
    // at any --eval-threads value (the identity tests pin this).
    Executor eval_executor(eval_threads);
    // The planner reads only the immutable schema; one instance serves
    // every engine. Plan-on changes execution order/direction but never
    // results (the parallel_eval identity tests pin this).
    std::optional<Planner> planner;
    if (plan_mode == "on") planner.emplace(&config.schema);
    EvalOptions eval_opts;
    eval_opts.executor = &eval_executor;
    eval_opts.planner = planner ? &*planner : nullptr;
    std::printf(
        "engine evaluation (budget: %.0fs / %zu tuples, %d eval %s, "
        "plan %s):\n",
        budget.timeout_seconds, budget.max_tuples, eval_executor.workers(),
        eval_executor.workers() == 1 ? "thread" : "threads",
        planner ? "on" : "off");
    for (char code : evaluate_codes) {
      const EngineKind kind = code == 'P'   ? EngineKind::kRelational
                              : code == 'G' ? EngineKind::kCypher
                              : code == 'S' ? EngineKind::kSparql
                                            : EngineKind::kDatalog;
      auto engine = MakeEngine(kind, eval_opts);
      for (const GeneratedQuery& gq : workload->queries) {
        TimingResult r =
            TimeQuery(*engine, *indexed, gq.query, budget, protocol);
        if (r.ok()) {
          std::printf("  %c %-20s %8ss count=%llu | %s\n", code,
                      gq.query.name.c_str(), r.ToCell().c_str(),
                      static_cast<unsigned long long>(r.count),
                      r.profile.ToString().c_str());
        } else {
          std::printf("  %c %-20s        - (%s) | %s\n", code,
                      gq.query.name.c_str(), r.status.ToString().c_str(),
                      r.profile.ToString().c_str());
        }
      }
    }
  }

  return FinishObs(stats, metrics_json, trace_json,
                   registry ? &*registry : nullptr,
                   tracer ? &*tracer : nullptr);
}
