// End-to-end benchmark of serelin: whole retimes and Table-I rows.
//
//   serelin_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--threads <n>] [--smoke]
//
// Set-up generates the workload's Table-I stand-ins with
// generate_suite_circuit(row, seed) and renders them to .bench text; the
// timed passes start from that text. A pass runs every input once through
// the workload's flow, and passes repeat while the next one still fits in
// --seconds (at least one runs). With --trace 1 each input's first timed
// run is followed by a traced run that calls each layer's public function
// directly, timed from outside, with counter deltas from
// metrics_snapshot(); its answers must equal the timed runs'. The
// program's own tracer is never started.
//
// stdout carries an input-identity line ("inputs: {...}"), the per-layer
// table of a traced run, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Diagnostics go to stderr. Exit 0 when every check passed, 1 when one
// failed (the JSON is still printed), 2 on usage errors.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/oracle.hpp"
#include "core/initializer.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "flow/experiment.hpp"
#include "flow/pipeline.hpp"
#include "gen/paper_suite.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/cell_library.hpp"
#include "rgraph/apply.hpp"
#include "rgraph/retiming_graph.hpp"
#include "ser/ser_analyzer.hpp"
#include "sim/observability.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace serelin;

// ---------------------------------------------------------------- workloads

enum class Flow { kRetime, kTable1 };

struct Workload {
  const char* name;
  Flow flow;
  std::vector<std::string> rows;  ///< paper_suite() rows, in run order
};

// retime_mid is the typical single-circuit job: 8k-23k gates, where
// observability takes the largest share. retime_large is the one row where
// the solver's per-iteration O(|V|) work takes 36-45% of a retime.
// table1_rows is the Table-I harness, which runs both solvers and three
// SER re-analyses per row, so it uses sim and ser differently.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"retime_mid",
       Flow::kRetime,
       {"s13207", "b15_opt", "b20_opt", "b22_opt", "s38417", "b17_opt"}},
      {"retime_large", Flow::kRetime, {"b18_opt"}},
      {"table1_rows",
       Flow::kTable1,
       {"s13207", "b15_opt", "b21_1_opt", "s38417"}},
  };
  return kWorkloads;
}

/// --smoke runs every workload's flow on this one 4k-gate row; every run
/// warms up on it.
const char* const kSmokeRow = "b14_1_opt";

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;

// ------------------------------------------------------------------ helpers

std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// VmHWM of this process in MB (0 when /proc is unavailable).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Restarts the VmHWM high-water mark so the reported peak belongs to the
/// timed passes, not to set-up. Best effort: kernels before 4.0 lack it.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// ------------------------------------------------------------------- inputs

struct Input {
  std::string name;
  std::string bench;  ///< rendered .bench text the timed run starts from
  std::size_t gates = 0;
  std::size_t edges = 0;  ///< retiming-graph |E|
  std::size_t ffs = 0;
  std::uint64_t hash = 0;  ///< FNV-1a of `bench`
};

std::vector<Input> make_inputs(const std::vector<std::string>& rows,
                               std::uint64_t seed, const CellLibrary& lib) {
  std::vector<Input> inputs;
  for (const std::string& row : rows) {
    const Netlist nl = generate_suite_circuit(suite_circuit(row), seed);
    std::ostringstream text;
    write_bench(text, nl);
    Input in;
    in.name = row;
    in.bench = std::move(text).str();
    in.gates = nl.gate_count();
    in.edges = RetimingGraph(nl, lib).edge_count();
    in.ffs = nl.dff_count();
    in.hash = fnv1a(in.bench.data(), in.bench.size());
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::string identity_line(const std::string& workload, std::uint64_t seed,
                          int threads, const std::vector<Input>& inputs) {
  std::string line = "inputs: {\"workload\": \"" + workload +
                     "\", \"seed\": " + std::to_string(seed) +
                     ", \"threads\": " + std::to_string(threads) +
                     ", \"circuits\": [";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(inputs[i].hash));
    line += std::string(i ? ", " : "") + "{\"name\": \"" + inputs[i].name +
            "\", \"gates\": " + std::to_string(inputs[i].gates) +
            ", \"edges\": " + std::to_string(inputs[i].edges) +
            ", \"ffs\": " + std::to_string(inputs[i].ffs) +
            ", \"fnv1a\": \"" + hash + "\"}";
  }
  return line + "]}";
}

Netlist parse(const Input& in) {
  std::istringstream text(in.bench);
  return read_bench(text, in.name);
}

std::string render(const Netlist& nl) {
  std::ostringstream text;
  write_bench(text, nl);
  return std::move(text).str();
}

// ----------------------------------------------------------------- outcomes

/// One solver run's answer. Repeated passes and the traced run must
/// reproduce it exactly.
struct Answer {
  std::uint64_t r_hash = 0;  ///< FNV-1a of the retiming vector
  std::int64_t gain = 0;     ///< K-scaled Eq.-5 gain
  int commits = 0;
  std::int64_t iterations = 0;
  bool operator==(const Answer&) const = default;
};

Answer answer_of(const SolverResult& s) {
  return {fnv1a(s.r.data(), s.r.size() * sizeof(s.r[0])), s.objective_gain,
          s.commits, s.iterations};
}

/// One input through one flow.
struct Outcome {
  double seconds = 0.0;  ///< the flow's wall time; checks excluded
  /// MinObsWin first; table1_rows adds MinObs.
  std::vector<Answer> answers;
  /// table1_rows: Eq.-4 SER of the original, MinObsWin and MinObs circuits.
  std::vector<double> sers;
  /// Traced runs: -ΔSER of MinObsWin in percent, from `sers` on
  /// table1_rows and from a re-analysis on the retime workloads.
  double ser_reduction_pct = 0.0;
  int attempted = 0;  ///< retimes this outcome stands for
  int failed = 0;

  bool same_answer(const Outcome& o) const {
    return answers == o.answers && sers == o.sers;
  }
};

void fail(Outcome& out, const std::string& circuit, const std::string& why) {
  ++out.failed;
  std::fprintf(stderr, "perfbench: FAILED %s: %s\n", circuit.c_str(),
               why.c_str());
}

/// A solver result passes when the oracle accepted it and it converged.
void check_solver(Outcome& out, const std::string& circuit, const char* algo,
                  const SolverResult& s, const Verdict& verdict) {
  if (!verdict.ok())
    fail(out, circuit, std::string(algo) + ": " + verdict.summary());
  else if (s.partial() || s.exited_early)
    fail(out, circuit, std::string(algo) + ": stopped early");
}

/// The written .bench must re-parse with the flip-flop count the flow
/// reported for the retiming.
void check_written(Outcome& out, const std::string& circuit,
                   const std::string& text, std::int64_t reported_ffs) {
  std::istringstream in(text);
  const Netlist back = read_bench(in, circuit + "_rt");
  if (static_cast<std::int64_t>(back.dff_count()) != reported_ffs)
    fail(out, circuit,
         "written .bench re-parses to " + std::to_string(back.dff_count()) +
             " flip-flops, the flow reported " +
             std::to_string(reported_ffs));
}

double reduction_pct(double before, double after) {
  return -100.0 * (after - before) / before;
}

// -------------------------------------------------------------- timed flows

/// The path of `serelin_cli retime --fallback` and serelin_serve: parse,
/// graph, run_pipeline with the oracle on, apply, write.
Outcome timed_retime(const Input& in, const CellLibrary& lib) {
  Outcome out;
  out.attempted = 1;
  const Stopwatch watch;
  const Netlist nl = parse(in);
  const RetimingGraph g(nl, lib);
  PipelineOptions po;
  po.verify = true;
  const PipelineResult pr = run_pipeline(nl, lib, po);
  const std::string written =
      render(apply_retiming(g, pr.solver.r, nl.name() + "_rt"));
  out.seconds = watch.seconds();

  out.answers = {answer_of(pr.solver)};
  if (!pr.ok || pr.stage != PipelineStage::kMinObsWin || pr.degraded)
    fail(out, in.name,
         std::string("pipeline accepted stage ") +
             pipeline_stage_name(pr.stage) + (pr.degraded ? ", degraded" : ""));
  else
    check_solver(out, in.name, "minobswin", pr.solver, pr.verdict);
  check_written(out, in.name, written, g.shared_register_count(pr.solver.r));
  return out;
}

/// The Table-I harness: run_experiment with the oracle on.
Outcome timed_table1(const Input& in, const CellLibrary& lib) {
  Outcome out;
  out.attempted = 2;
  const Stopwatch watch;
  const Netlist nl = parse(in);
  FlowConfig fc;
  fc.verify = true;
  const ExperimentRow row = run_experiment(nl, lib, fc);
  out.seconds = watch.seconds();

  out.answers = {answer_of(row.minobswin.solver),
                 answer_of(row.minobs.solver)};
  out.sers = {row.ser_original, row.minobswin.ser, row.minobs.ser};
  for (const auto& [algo, o] :
       {std::pair{"minobswin", &row.minobswin}, {"minobs", &row.minobs}}) {
    if (!o->verified)
      fail(out, in.name, std::string(algo) + ": not verified");
    else
      check_solver(out, in.name, algo, o->solver, o->verdict);
  }
  const RetimingGraph g(nl, lib);
  check_written(
      out, in.name,
      render(apply_retiming(g, row.minobswin.solver.r, nl.name() + "_rt")),
      row.minobswin.ffs);
  return out;
}

// ------------------------------------------------------------- traced flows

enum Layer {
  kParse,
  kWrite,
  kBuild,
  kApply,
  kInit,
  kObs,
  kSolver,
  kOracle,
  kSer,
  kLayerCount
};

const char* const kLayerNames[kLayerCount] = {
    "netlist.parse", "netlist.write", "rgraph.build", "rgraph.apply", "init",
    "sim.obs",       "solver",        "oracle",       "ser"};

struct LayerStat {
  int calls = 0;
  double wall = 0.0;
  double cpu = 0.0;
  MetricsSnapshot counters;  ///< summed metrics_snapshot() deltas

  void add(const LayerStat& o) {
    calls += o.calls;
    wall += o.wall;
    cpu += o.cpu;
    for (std::size_t c = 0; c < kCounterCount; ++c)
      counters.values[c] += o.counters.values[c];
  }
};

/// Times calls into the layers' public functions from outside. flow()
/// wraps the calls the timed flow makes too; check() wraps calls that only
/// check or evaluate its answer, which lie outside wall_s.
class LayerTimer {
 public:
  template <class F>
  auto flow(Layer layer, F&& f) {
    return timed(flow_[layer], f);
  }
  template <class F>
  auto check(Layer layer, F&& f) {
    return timed(check_[layer], f);
  }

  const LayerStat& flow_stat(int l) const { return flow_[l]; }
  const LayerStat& check_stat(int l) const { return check_[l]; }

 private:
  template <class F>
  static auto timed(LayerStat& stat, F& f) {
    LayerStat call;
    const MetricsSnapshot before = metrics_snapshot();
    const double cpu0 = cpu_seconds();
    const Stopwatch watch;
    auto result = f();
    call.wall = watch.seconds();
    call.cpu = cpu_seconds() - cpu0;
    call.counters = metrics_snapshot() - before;
    call.calls = 1;
    stat.add(call);
    return result;
  }

  LayerStat flow_[kLayerCount];
  LayerStat check_[kLayerCount];
};

/// timed_retime one layer call at a time, with the options run_pipeline
/// gives its first (minobswin) stage. The retime path has no SER step, so
/// the Eq.-4 re-analysis of the original and retimed circuits is a check.
Outcome traced_retime(const Input& in, const CellLibrary& lib,
                      LayerTimer& t) {
  Outcome out;
  out.attempted = 1;
  const PipelineOptions po;
  const Netlist nl = t.flow(kParse, [&] { return parse(in); });
  const RetimingGraph g =
      t.flow(kBuild, [&] { return RetimingGraph(nl, lib); });
  const InitResult init =
      t.flow(kInit, [&] { return initialize_retiming(g, po.init); });
  const ObsGains gains = t.flow(kObs, [&] {
    ObservabilityAnalyzer engine(nl, po.sim);
    return compute_gains(g, engine.run().obs, po.sim.patterns,
                         po.area_weight);
  });
  SolverOptions so;
  so.timing = init.timing;
  so.rmin = init.rmin;
  so.enforce_elw = true;
  const SolverResult s = t.flow(
      kSolver, [&] { return MinObsWinSolver(g, gains, so).solve(init.r); });
  OracleOptions oo;
  oo.timing = init.timing;
  oo.rmin = init.rmin;
  oo.check_elw = init.rmin > 0 && !s.exited_early;
  const Verdict verdict = t.flow(
      kOracle, [&] { return RetimingOracle(g, oo).verify(s, init.r, gains); });
  const Netlist retimed = t.flow(
      kApply, [&] { return apply_retiming(g, s.r, nl.name() + "_rt"); });
  const std::string written = t.flow(kWrite, [&] { return render(retimed); });

  out.answers = {answer_of(s)};
  check_solver(out, in.name, "minobswin", s, verdict);
  check_written(out, in.name, written, g.shared_register_count(s.r));
  SerOptions ser;
  ser.timing = init.timing;
  ser.sim = po.sim;
  const double before =
      t.check(kSer, [&] { return analyze_ser(nl, lib, ser).total; });
  const double after =
      t.check(kSer, [&] { return analyze_ser(retimed, lib, ser).total; });
  out.ser_reduction_pct = reduction_pct(before, after);
  return out;
}

/// timed_table1 one layer call at a time, in run_experiment's order.
Outcome traced_table1(const Input& in, const CellLibrary& lib,
                      LayerTimer& t) {
  Outcome out;
  out.attempted = 2;
  const FlowConfig fc;
  const Netlist nl = t.flow(kParse, [&] { return parse(in); });
  const RetimingGraph g =
      t.flow(kBuild, [&] { return RetimingGraph(nl, lib); });
  const InitResult init =
      t.flow(kInit, [&] { return initialize_retiming(g, fc.init); });
  const ObsGains gains = t.flow(kObs, [&] {
    ObservabilityAnalyzer engine(nl, fc.sim);
    return compute_gains(g, engine.run().obs, fc.sim.patterns,
                         fc.area_weight);
  });
  SerOptions ser;
  ser.timing = init.timing;
  ser.sim = fc.sim;
  out.sers = {t.flow(kSer, [&] { return analyze_ser(nl, lib, ser).total; })};
  for (const bool elw : {true, false}) {
    SolverOptions so;
    so.timing = init.timing;
    so.rmin = init.rmin;
    so.enforce_elw = elw;
    const SolverResult s = t.flow(
        kSolver, [&] { return MinObsWinSolver(g, gains, so).solve(init.r); });
    OracleOptions oo;
    oo.timing = init.timing;
    oo.rmin = init.rmin;
    oo.check_elw = elw && init.rmin > 0 && !s.exited_early;
    const Verdict verdict = t.flow(kOracle, [&] {
      return RetimingOracle(g, oo).verify(s, init.r, gains);
    });
    const Netlist retimed = t.flow(
        kApply, [&] { return apply_retiming(g, s.r, nl.name() + "_rt"); });
    out.sers.push_back(
        t.flow(kSer, [&] { return analyze_ser(retimed, lib, ser).total; }));
    out.answers.push_back(answer_of(s));
    check_solver(out, in.name, elw ? "minobswin" : "minobs", s, verdict);
    if (elw)
      check_written(out, in.name,
                    t.check(kWrite, [&] { return render(retimed); }),
                    g.shared_register_count(s.r));
  }
  out.ser_reduction_pct = reduction_pct(out.sers[0], out.sers[1]);
  return out;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int threads = 2;  ///< BENCHMARK.json's command passes the same count
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: serelin_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--threads <n>] "
               "[--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--threads") {
      a.threads = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      usage("unknown option " + flag);
    }
    if (end && (*end || v.empty())) usage("bad value for " + flag + ": " + v);
  }
  if (a.workload.empty() || !have_seed)
    usage("--workload and --seed are required");
  if (!(a.seconds > 0)) usage("--seconds must be > 0");
  if (a.threads < 1) usage("--threads must be >= 1");
  return a;
}

using Metrics = std::map<std::string, std::pair<double, const char*>>;

/// Per-layer metrics of the traced pass; prints the report table.
/// `wall_s` is the wall time of the timed runs paired with the traced ones.
Metrics layer_metrics(const LayerTimer& t, double wall_s, double reduction,
                      const std::string& workload) {
  LayerStat total[kLayerCount];
  double attributed = 0.0;
  std::int64_t pattern_words = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    attributed += t.flow_stat(l).wall;
    pattern_words += t.flow_stat(l).counters[Counter::kSimPatternWords];
    total[l].add(t.flow_stat(l));
    total[l].add(t.check_stat(l));
  }
  const auto count = [&](Layer l, Counter c) {
    return static_cast<double>(total[l].counters[c]);
  };
  // A run whose flows all threw has nothing to divide by; JSON has no NaN.
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double unattributed = wall_s - attributed;
  const double iterations = count(kSolver, Counter::kSolverIterations);
  const double commits = count(kSolver, Counter::kSolverCommits);

  Metrics m;
  m["netlist.parse_s"] = {total[kParse].wall, "s"};
  m["netlist.write_s"] = {total[kWrite].wall, "s"};
  m["rgraph.build_s"] = {total[kBuild].wall, "s"};
  m["rgraph.apply_s"] = {total[kApply].wall, "s"};
  m["init.s"] = {total[kInit].wall, "s"};
  m["init.feas_passes"] = {count(kInit, Counter::kFeasPasses), "count"};
  m["sim.obs_s"] = {total[kObs].wall, "s"};
  m["sim.obs_parallelism"] = {ratio(total[kObs].cpu, total[kObs].wall),
                              "ratio"};
  m["sim.pattern_words"] = {static_cast<double>(pattern_words), "count"};
  m["solver.s"] = {total[kSolver].wall, "s"};
  m["solver.us_per_iteration"] = {
      ratio(1e6 * total[kSolver].wall, iterations), "us"};
  m["solver.iterations"] = {iterations, "count"};
  m["solver.commits"] = {commits, "count"};
  m["solver.commit_ratio"] = {ratio(commits, iterations), "ratio"};
  m["solver.forest_constraints"] = {
      count(kSolver, Counter::kForestConstraints), "count"};
  m["solver.incr_nodes_touched"] = {
      count(kSolver, Counter::kIncrNodesTouched), "count"};
  m["oracle.s"] = {total[kOracle].wall, "s"};
  m["oracle.checks"] = {count(kOracle, Counter::kOracleChecks), "count"};
  m["ser.s"] = {total[kSer].wall, "s"};
  m["ser.terms"] = {count(kSer, Counter::kSerTerms), "count"};
  m["ser.reduction_pct"] = {reduction, "%"};
  m["flow.unattributed_s"] = {unattributed, "s"};

  std::printf("per-layer report: %s; each input's first timed run (%.3f s "
              "in all) against the traced run right after it\n",
              workload.c_str(), wall_s);
  std::printf("  %-20s %5s %9s %9s %7s  %s\n", "layer", "calls", "wall_s",
              "cpu_s", "share", "counters");
  const auto row = [wall_s](const std::string& name, const LayerStat& s) {
    std::string counters;
    for (std::size_t c = 0; c < kCounterCount; ++c)
      if (s.counters.values[c] != 0)
        counters += std::string(counters.empty() ? "" : " ") +
                    counter_name(static_cast<Counter>(c)) + "=" +
                    std::to_string(s.counters.values[c]);
    std::printf("  %-20s %5d %9.3f %9.3f %6.1f%%  %s\n", name.c_str(),
                s.calls, s.wall, s.cpu, 100.0 * s.wall / wall_s,
                counters.c_str());
  };
  for (int l = 0; l < kLayerCount; ++l)
    if (t.flow_stat(l).calls > 0) row(kLayerNames[l], t.flow_stat(l));
  std::printf("  %-20s %5s %9.3f %9s %6.1f%%%s\n", "flow.unattributed", "",
              unattributed, "", 100.0 * unattributed / wall_s,
              std::abs(unattributed) > 0.10 * wall_s
                  ? "  <-- beyond the ~10% unattributed mark"
                  : "");
  for (int l = 0; l < kLayerCount; ++l)
    if (t.check_stat(l).calls > 0)
      row(std::string(kLayerNames[l]) + " (check)", t.check_stat(l));
  std::printf("  (check) rows verify or evaluate the answer and lie outside "
              "wall_s; ser.reduction_pct %.4g\n",
              reduction);
  return m;
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (w.name == args.workload) wl = &w;
  if (!wl) usage("unknown workload " + args.workload);
  const std::vector<std::string> rows =
      args.smoke ? std::vector<std::string>{kSmokeRow} : wl->rows;
  const int threads = std::min(args.threads, hardware_threads());
  if (threads != args.threads)
    std::fprintf(stderr, "perfbench: %d hardware threads, using %d\n",
                 hardware_threads(), threads);
  const CellLibrary lib;

  // Set-up: start the worker pool, generate and render the inputs. Every
  // repetition must render byte-identical text.
  std::vector<double> setup_times;
  std::vector<Input> inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Stopwatch watch;
    set_execution_threads(threads);
    parallel_for(0, static_cast<std::size_t>(threads), 1,
                 [](std::size_t, std::size_t) {});
    std::vector<Input> made = make_inputs(rows, args.seed, lib);
    setup_times.push_back(watch.seconds());
    for (std::size_t i = 0; rep > 0 && i < made.size(); ++i)
      if (made[i].hash != inputs[i].hash)
        throw std::runtime_error("set-up rendered different inputs for " +
                                 made[i].name + " on repetition " +
                                 std::to_string(rep));
    inputs = std::move(made);
  }
  std::printf("%s\n",
              identity_line(args.workload, args.seed, threads, inputs).c_str());

  int attempted = 0;
  int failed = 0;
  const auto guarded = [&](const Input& in, auto&& flow) {
    Outcome out;
    try {
      out = flow(in, lib);
    } catch (const std::exception& e) {
      out = Outcome{};
      out.attempted = out.failed = wl->flow == Flow::kTable1 ? 2 : 1;
      std::fprintf(stderr, "perfbench: FAILED %s: %s\n", in.name.c_str(),
                   e.what());
    }
    attempted += out.attempted;
    failed += out.failed;
    return out;
  };

  const auto timed_flow =
      wl->flow == Flow::kTable1 ? timed_table1 : timed_retime;
  LayerTimer tracer;
  const auto traced_flow = [&](const Input& in, const CellLibrary& l) {
    return wl->flow == Flow::kTable1 ? traced_table1(in, l, tracer)
                                     : traced_retime(in, l, tracer);
  };

  // One untimed run of the flow on a small circuit first, so the worker
  // pool, the allocator and the processor clocks are warm when timing
  // starts.
  guarded(make_inputs({kSmokeRow}, args.seed, lib).front(), timed_flow);

  // Timed passes: the flow as users run it, with no layer timing. The
  // peak memory is the first pass's, so it does not depend on how many
  // passes fit. With --trace 1 each input's first timed run is followed at
  // once by its traced run, so host drift between the two stays out of
  // flow.unattributed_s.
  reset_peak_rss();
  std::vector<Outcome> traced;
  std::vector<std::vector<Outcome>> passes;
  const Stopwatch run_watch;
  double last_pass = 0.0;
  double rss = 0.0;
  do {
    const Stopwatch pass_watch;
    double traced_seconds = 0.0;
    std::vector<Outcome> pass;
    for (const Input& in : inputs) {
      pass.push_back(guarded(in, timed_flow));
      if (!args.trace || !passes.empty()) continue;
      const Stopwatch traced_watch;
      traced.push_back(guarded(in, traced_flow));
      traced_seconds += traced_watch.seconds();
    }
    passes.push_back(std::move(pass));
    last_pass = pass_watch.seconds() - traced_seconds;
    if (passes.size() == 1) rss = peak_rss_mb();
  } while (run_watch.seconds() + last_pass <= args.seconds);

  // Every pass must give the first pass's answers.
  const std::vector<Outcome>& first = passes.front();
  for (std::size_t p = 1; p < passes.size(); ++p)
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (!passes[p][i].same_answer(first[i])) {
        ++failed;
        std::fprintf(stderr,
                     "perfbench: FAILED %s: pass %zu answers differ from "
                     "pass 0\n",
                     inputs[i].name.c_str(), p);
      }

  // wall_s sums per-circuit medians over the passes; the geometric mean
  // weighs each circuit equally, so fixed per-call costs show.
  double wall = 0.0;
  double log_sum = 0.0;
  std::int64_t gain = 0;
  std::string per_pass = "perfbench: set-up seconds";
  for (const double t : setup_times) per_pass += " " + fmt(t);
  per_pass += "; circuit seconds per pass:";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<double> t;
    per_pass += " " + inputs[i].name;
    for (const auto& pass : passes) {
      t.push_back(pass[i].seconds);
      per_pass += " " + fmt(pass[i].seconds);
    }
    wall += median(t);
    log_sum += std::log(median(t));
    if (!first[i].answers.empty()) gain += first[i].answers[0].gain;
  }
  std::fprintf(stderr, "%s\n", per_pass.c_str());
  const double geomean =
      std::exp(log_sum / static_cast<double>(inputs.size()));

  Metrics metrics;
  if (!args.trace) {
    metrics["wall_s"] = {wall, "s"};
    metrics["retime_geomean_s"] = {geomean, "s"};
    metrics["setup_s"] = {median(setup_times), "s"};
    metrics["peak_rss_mb"] = {rss, "MB"};
    metrics["objective_gain"] = {static_cast<double>(gain), "count"};
    metrics["verified_ratio"] = {
        1.0 - static_cast<double>(failed) / attempted, "ratio"};
  } else {
    double paired_wall = 0.0;
    double reduction = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (!traced[i].same_answer(first[i])) {
        ++failed;
        std::fprintf(stderr,
                     "perfbench: FAILED %s: the traced run's answers differ "
                     "from the timed run's\n",
                     inputs[i].name.c_str());
      }
      paired_wall += first[i].seconds;
      reduction +=
          traced[i].ser_reduction_pct / static_cast<double>(inputs.size());
    }
    metrics = layer_metrics(tracer, paired_wall, reduction, args.workload);
  }

  std::string json = std::string("{\"correct\": ") +
                     (failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    json += std::string(sep) + "\"" + name + "\": {\"value\": " +
            fmt(value.first) + ", \"unit\": \"" + value.second + "\"}";
    sep = ", ";
  }
  std::printf("%s}}\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
