// drlnoc_perfbench: runs one benchmark workload in this process, repeating
// (set-up, measured call, check) until the requested time is spent, and
// prints one JSON line with a record per repetition. perfbench/run.py builds
// this binary, aggregates the records into the benchmark's metrics and
// checks the digests; see perfbench/README.md for the workloads and metrics.
//
//   drlnoc_perfbench --workload train_qos_8x8 --seed 1 --seconds 50
//                    --trace 0 --workdir .bench_out --spans spans.json
//
// The binary calls only the library's public entry points and times them
// from outside. In a traced run (--trace 1) repetitions alternate untraced /
// traced; a traced repetition switches obs::Profiler on for its measured
// call only and records the per-phase totals.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "fleet/scorecard.h"
#include "obs/profiler.h"
#include "rl/dqn.h"
#include "scenario/scenario.h"
#include "trace/generators.h"

#ifndef DRLNOC_GIT_DESCRIBE
#define DRLNOC_GIT_DESCRIBE "unknown"
#endif

using namespace drlnoc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ spans ---

/// The benchmark's own spans (name, start, end, parent), kept in memory and
/// written out once at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, now_ns(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  void write_json(std::ostream& os) const {
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n " : "\n ") << "{\"id\": " << i << ", \"parent\": "
         << s.parent << ", \"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << "}";
    }
    os << "\n]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    long long start_ns;
    long long end_ns;
  };
  long long now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ----------------------------------------------------------------- digest ---

/// FNV-1a 64 over a byte stream, rendered as 16 hex digits.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add(const std::vector<double>& xs) {
    add(xs.data(), xs.size() * sizeof(double));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Training digest: episode returns and losses bit for bit, then the trained
/// weights without the drlpol header (its `git` line changes per commit).
std::string training_digest(const core::TrainResult& result,
                            const rl::DqnAgent& agent) {
  Digest d;
  d.add(result.episode_returns);
  d.add(result.episode_loss);
  std::ostringstream weights;
  agent.save(weights);
  const std::string blob = weights.str();
  const std::size_t end = blob.find("\nend\n");
  if (end == std::string::npos) {
    throw std::runtime_error("policy checkpoint has no header terminator");
  }
  d.add(blob.substr(end + 5));
  return d.hex();
}

// ------------------------------------------------------------ repetitions ---

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_out";
  std::string spans;
};

/// One repetition: set-up, measured call, check.
struct Rep {
  bool traced = false;
  std::vector<double> setup_s;  ///< each set-up of this repetition
  double env_setup_s = 0.0;  ///< NocConfigEnv + power calibration
  double call_s = 0.0;       ///< the measured library call
  double score_s = 0.0;      ///< fleet: load_results + score_fleet
  std::uint64_t ops = 0;     ///< episodes or fleet scenarios
  std::uint64_t decisions = 0;
  std::uint64_t decision_cycles = 0;
  std::uint64_t learn_steps = 0;
  std::uint64_t points = 0;
  std::uint64_t rerouted_hops = 0;
  std::uint64_t retries = 0;
  std::uint64_t flits_dropped = 0;
  std::string digest;
  std::string error;
  obs::Profiler::PhaseTotals phases[static_cast<int>(obs::Phase::kCount)];
};

double peak_rss_mb_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Set-ups per repetition: each builds every input of the measured call
/// from scratch; the last one's inputs are used.
constexpr int kSetupsPerRep = 3;

/// Runs `setup` kSetupsPerRep times, recording each duration. The run's
/// first set-up is timed from `first_start` (process start).
void timed_setups(Rep& rep, SpanLog& spans, int parent,
                  std::optional<Clock::time_point> first_start,
                  const std::function<void()>& setup) {
  for (int k = 0; k < kSetupsPerRep; ++k) {
    const auto t0 = k == 0 && first_start ? *first_start : Clock::now();
    {
      const ScopedSpan span(spans, "setup", parent);
      setup();
    }
    rep.setup_s.push_back(seconds_since(t0));
  }
}

/// Runs the measured call, with the profiler on for it alone when traced.
void measured_call(Rep& rep, SpanLog& spans, int parent,
                   const std::function<void()>& call) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.reset();
  prof.set_enabled(rep.traced);
  const ScopedSpan span(spans, "call", parent);
  const auto t0 = Clock::now();
  call();
  rep.call_s = seconds_since(t0);
  prof.set_enabled(false);
  for (int p = 0; p < static_cast<int>(obs::Phase::kCount); ++p) {
    rep.phases[p] = prof.totals(static_cast<obs::Phase>(p));
  }
}

/// DQN hyper-parameters of the repo's experiments (bench/bench_common.h),
/// including their fixed agent seed: the workload seed drives the traffic,
/// not the agent's initial weights and exploration draws.
rl::DqnParams dqn_params(std::uint64_t total_env_steps) {
  rl::DqnParams dp;
  dp.hidden = {64, 64};
  dp.gamma = 0.9;
  dp.lr = 1e-3;
  dp.min_replay = 128;
  dp.batch_size = 32;
  dp.target_sync_every = 250;
  dp.double_dqn = true;
  dp.epsilon_decay_steps = total_env_steps * 3 / 4;
  dp.seed = 7;
  return dp;
}

// train_qos_8x8: the multi-actor collector (the `scenarioctl train` path) on
// the T6 QoS scenario.
constexpr int kQosSize = 8;
constexpr int kQosEpisodes = 8;
constexpr int kQosEpochs = 48;
constexpr std::uint64_t kQosEpochCycles = 512;
constexpr int kQosRound = 8;
constexpr int kQosActors = 2;

void rep_train_qos(const Options& opt, Rep& rep, SpanLog& spans, int parent,
                   std::optional<Clock::time_point> first_start) {
  core::NocEnvParams calibrated;
  std::unique_ptr<rl::DqnAgent> agent;
  timed_setups(rep, spans, parent, first_start, [&] {
    auto s = std::make_shared<scenario::Scenario>();
    s->name = "qos_dnn_vs_background";
    s->net.width = s->net.height = kQosSize;
    s->net.seed = opt.seed;
    scenario::TenantSpec dnn;
    dnn.name = "dnn";
    dnn.kind = scenario::WorkloadKind::kTrace;
    trace::DnnPipelineParams dp;
    dp.nodes = 16;
    dp.batches = 4;
    dnn.trace =
        std::make_shared<const trace::Trace>(trace::generate_dnn_pipeline(dp));
    dnn.loop = true;
    dnn.nodes = scenario::parse_node_set("0-15", kQosSize * kQosSize);
    dnn.qos = scenario::QosClass::kLatencyCritical;
    dnn.p95_target = 300.0;
    s->tenants.push_back(std::move(dnn));
    scenario::TenantSpec bg;
    bg.name = "background";
    bg.kind = scenario::WorkloadKind::kSteady;
    bg.pattern = "uniform";
    bg.rate = 0.05;
    bg.qos = scenario::QosClass::kBackground;
    s->tenants.push_back(std::move(bg));
    s->duration = 1e6;

    core::NocEnvParams ep;
    ep.scenario = s;
    ep.net.seed = opt.seed;
    ep.epoch_cycles = kQosEpochCycles;
    ep.epochs_per_episode = kQosEpochs;
    const auto te = Clock::now();
    calibrated = core::with_calibrated_power_ref(ep);
    const core::NocConfigEnv probe(calibrated);
    rep.env_setup_s = seconds_since(te);
    agent = std::make_unique<rl::DqnAgent>(
        probe.state_size(), probe.num_actions(),
        dqn_params(kQosEpisodes * kQosEpochs));
  });

  core::ParallelTrainParams tp;
  tp.episodes = kQosEpisodes;
  tp.round = kQosRound;
  tp.actors = kQosActors;
  tp.eval_every = 0;
  core::TrainResult result;
  rep.ops = kQosEpisodes;
  measured_call(rep, spans, parent, [&] {
    result = core::train_dqn_parallel(calibrated, *agent, tp);
  });
  const ScopedSpan span(spans, "check", parent);
  if (result.episode_returns.size() != kQosEpisodes) {
    throw std::runtime_error("collector returned a short learning curve");
  }
  rep.decisions = static_cast<std::uint64_t>(kQosEpisodes) * kQosEpochs;
  rep.decision_cycles = rep.decisions * kQosEpochCycles;
  rep.learn_steps = agent->learn_steps();
  rep.digest = training_digest(result, *agent);
}

// train_fine_4x4: the serial trainer every paper figure and table uses, on
// the standard phased workload with fine-grained (64-cycle) epochs.
constexpr int kFineSize = 4;
constexpr int kFineEpisodes = 50;
constexpr int kFineEpochs = 48;
constexpr std::uint64_t kFineEpochCycles = 64;

void rep_train_fine(const Options& opt, Rep& rep, SpanLog& spans, int parent,
                    std::optional<Clock::time_point> first_start) {
  std::unique_ptr<core::NocConfigEnv> env;
  std::unique_ptr<rl::DqnAgent> agent;
  timed_setups(rep, spans, parent, first_start, [&] {
    core::NocEnvParams ep;
    ep.net.width = ep.net.height = kFineSize;
    ep.net.seed = opt.seed;
    ep.epoch_cycles = kFineEpochCycles;
    ep.epochs_per_episode = kFineEpochs;
    const auto te = Clock::now();
    env = std::make_unique<core::NocConfigEnv>(ep);
    rep.env_setup_s = seconds_since(te);
    agent = std::make_unique<rl::DqnAgent>(
        env->state_size(), env->num_actions(),
        dqn_params(kFineEpisodes * kFineEpochs));
  });

  core::TrainParams tp;
  tp.episodes = kFineEpisodes;
  tp.eval_every = 0;
  core::TrainResult result;
  rep.ops = kFineEpisodes;
  measured_call(rep, spans, parent,
                [&] { result = core::train_dqn(*env, *agent, tp); });
  const ScopedSpan span(spans, "check", parent);
  if (result.episode_returns.size() != kFineEpisodes) {
    throw std::runtime_error("trainer returned a short learning curve");
  }
  rep.decisions = static_cast<std::uint64_t>(kFineEpisodes) * kFineEpochs;
  rep.decision_cycles = rep.decisions * kFineEpochCycles;
  rep.learn_steps = agent->learn_steps();
  rep.digest = training_digest(result, *agent);
}

// fleet_16x16: the heuristic controller over an 8-point churned/faulted
// space on a mostly idle 16x16 mesh, then load_results + score_fleet.
constexpr int kFleetEpochs = 24;
constexpr std::uint64_t kFleetEpochCycles = 512;
constexpr int kFleetWorkers = 2;

/// The workload seed drives the traffic and the fault draws; the churn
/// schedule is part of the workload definition, because the number of churn
/// arrivals sets how much traffic a scenario carries.
std::string fleet_base_text(std::uint64_t seed) {
  std::ostringstream os;
  os << "drlsc 1\n"
     << "name = fleet16_base\n"
     << "topology = mesh\n"
     << "width = 16\n"
     << "height = 16\n"
     << "seed = " << seed << "\n"
     << "duration = 60000\n"
     << "tenants = 2\n"
     << "tenant0.name = critical\n"
     << "tenant0.workload = steady\n"
     << "tenant0.pattern = uniform\n"
     << "tenant0.rate = 0.004\n"
     << "tenant0.qos = latency_critical\n"
     << "tenant0.p95_target = 300\n"
     << "tenant1.name = background\n"
     << "tenant1.workload = steady\n"
     << "tenant1.pattern = uniform\n"
     << "tenant1.rate = 0.005\n"
     << "tenant1.qos = background\n"
     << "\n[churn]\n"
     << "seed = 11\n"
     << "arrival_rate = 0.00005\n"
     << "capacity = 3\n"
     << "max_arrivals = 64\n"
     << "templates = 1\n"
     << "template0.tenant = 1\n"
     << "template0.lifetime = exponential\n"
     << "template0.lifetime_mean = 8000\n"
     << "\n[faults]\n"
     << "seed = " << seed + 20 << "\n"
     << "link_fault_rate = 0\n"
     << "events = 1\n"
     << "event0.kind = link_down\n"
     << "event0.at_cycle = 1000\n"
     << "event0.node = 119\n"
     << "event0.port = 1\n";
  return os.str();
}

constexpr char kFleetSpec[] =
    "drlfs 1\n"
    "name = fleet16\n"
    "base = base.drlsc\n"
    "seeds = 1\n"
    "axes = 3\n"
    "axis0.key = tenant1.rate\n"
    "axis0.values = 0.005,0.015\n"
    "axis1.key = churn.arrival_rate\n"
    "axis1.values = 0.00005,0.0002\n"
    "axis2.key = faults.link_fault_rate\n"
    "axis2.values = 0,0.0005\n";

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

/// Removes a fleet repetition's work directory on every exit path, so no
/// later repetition can resume from its result files.
class WorkDir {
 public:
  explicit WorkDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

void rep_fleet(const Options& opt, Rep& rep, SpanLog& spans, int parent,
               std::optional<Clock::time_point> first_start, int index) {
  const WorkDir dir(std::filesystem::path(opt.workdir) /
                    ("fleet-" + std::to_string(::getpid()) + "-" +
                     std::to_string(index)));
  {
    // The inputs a fleet user already has on disk; not part of set-up.
    const ScopedSpan span(spans, "inputs", parent);
    write_text(dir.path() / "base.drlsc", fleet_base_text(opt.seed));
    write_text(dir.path() / "fleet16.drlfs", kFleetSpec);
  }
  fleet::ScenarioSpace space;
  fleet::FleetParams fp;
  timed_setups(rep, spans, parent, first_start, [&] {
    space = fleet::ScenarioSpaceReader::read_file(
        (dir.path() / "fleet16.drlfs").string());
    // Expanding every point up front rejects a bad space before any
    // simulation starts.
    for (std::size_t i = 0; i < space.size(); ++i) space.expand(i);
    fp.controller = "heuristic";
    fp.epochs = kFleetEpochs;
    fp.epoch_cycles = kFleetEpochCycles;
    fp.results_dir = (dir.path() / "results").string();
  });

  const core::ExperimentRunner runner(kFleetWorkers);
  fleet::FleetRunOutcome outcome;
  rep.ops = space.size();
  measured_call(rep, spans, parent,
                [&] { outcome = fleet::run_fleet(space, fp, runner); });
  if (outcome.ran != space.size() || outcome.skipped != 0) {
    throw std::runtime_error("fleet ran " + std::to_string(outcome.ran) +
                             " and skipped " +
                             std::to_string(outcome.skipped) + " of " +
                             std::to_string(space.size()) + " scenarios");
  }
  fleet::Scorecard card;
  {
    const ScopedSpan span(spans, "score", parent);
    const auto t0 = Clock::now();
    card = fleet::score_fleet(fleet::load_results(space, fp), space.size(),
                              space.name);
    rep.score_s = seconds_since(t0);
  }
  const ScopedSpan span(spans, "check", parent);
  if (card.scored != space.size() || card.missing != 0) {
    throw std::runtime_error("scorecard covers " +
                             std::to_string(card.scored) + " of " +
                             std::to_string(space.size()) + " scenarios");
  }
  std::ostringstream json;
  fleet::write_scorecard_json(json, card);
  Digest d;
  d.add(json.str());
  rep.digest = d.hex();
  rep.points = space.size();
  rep.decisions = space.size() * kFleetEpochs;
  rep.decision_cycles = rep.decisions * kFleetEpochCycles;
  rep.rerouted_hops = card.rerouted_hops;
  rep.retries = card.retries;
  rep.flits_dropped = card.flits_dropped;
}

int workload_threads(const std::string& workload) {
  if (workload == "train_qos_8x8") return kQosActors;
  if (workload == "train_fine_4x4") return 1;
  if (workload == "fleet_16x16") return kFleetWorkers;
  throw std::invalid_argument("unknown workload: " + workload);
}

// ----------------------------------------------------------------- output ---

void write_rep(std::ostream& os, const Rep& r) {
  os << "{\"traced\": " << (r.traced ? "true" : "false")
     << ", \"setup_s\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    os << (i ? ", " : "") << r.setup_s[i];
  }
  os << "], \"env_setup_s\": "
     << r.env_setup_s << ", \"call_s\": " << r.call_s
     << ", \"score_s\": " << r.score_s << ", \"ops\": " << r.ops
     << ", \"decisions\": " << r.decisions
     << ", \"decision_cycles\": " << r.decision_cycles
     << ", \"learn_steps\": " << r.learn_steps << ", \"points\": " << r.points
     << ", \"rerouted_hops\": " << r.rerouted_hops
     << ", \"retries\": " << r.retries
     << ", \"flits_dropped\": " << r.flits_dropped << ", \"digest\": \""
     << r.digest << "\", \"error\": \"";
  for (const char c : r.error) {
    os << (c == '"' || c == '\\' || c == '\n' ? '\'' : c);
  }
  os << "\", \"phases\": {";
  for (int p = 0; p < static_cast<int>(obs::Phase::kCount); ++p) {
    os << (p ? ", " : "") << "\"" << obs::to_string(static_cast<obs::Phase>(p))
       << "\": [" << r.phases[p].ns << ", " << r.phases[p].count << "]";
  }
  os << "}}";
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = std::stoi(value) != 0;
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--spans") {
      opt.spans = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  workload_threads(opt.workload);  // validates the name
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::cerr << "drlnoc_perfbench: refusing to run a Debug or sanitizer build "
               "(it measures a different program); build with "
               "-DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "drlnoc_perfbench: " << e.what() << "\n";
    return 2;
  }

  SpanLog spans(process_start);
  std::vector<Rep> reps;
  double peak_rss_mb = 0.0;
  {
    const ScopedSpan run(spans, "run", -1);
    const auto loop_start = Clock::now();
    // A traced run alternates untraced / traced repetitions, so it needs at
    // least one of each to state the tracing overhead.
    const std::size_t min_reps = opt.trace ? 2 : 1;
    while (reps.size() < min_reps || seconds_since(loop_start) < opt.seconds) {
      Rep rep;
      rep.traced = opt.trace && reps.size() % 2 == 1;
      const int index = static_cast<int>(reps.size());
      const ScopedSpan span(spans, rep.traced ? "rep.traced" : "rep",
                            run.id());
      // The run's first set-up is timed from process start.
      const std::optional<Clock::time_point> first_start =
          reps.empty() ? std::optional(process_start) : std::nullopt;
      try {
        if (opt.workload == "train_qos_8x8") {
          rep_train_qos(opt, rep, spans, span.id(), first_start);
        } else if (opt.workload == "train_fine_4x4") {
          rep_train_fine(opt, rep, spans, span.id(), first_start);
        } else {
          rep_fleet(opt, rep, spans, span.id(), first_start, index);
        }
      } catch (const std::exception& e) {
        rep.error = e.what();
      }
      reps.push_back(rep);
      // Peak memory of one repetition in a fresh process: later ones only
      // add allocator fragmentation, and their number depends on speed.
      if (reps.size() == 1) peak_rss_mb = peak_rss_mb_now();
      if (!reps.back().error.empty()) break;
    }
  }

  std::ostringstream stamp;
  stamp << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"threads\": " << workload_threads(opt.workload)
        << ", \"git\": \"" << DRLNOC_GIT_DESCRIBE << "\", \"traced\": "
        << (opt.trace ? "true" : "false") << "}";

  if (!opt.spans.empty()) {
    std::ofstream os(opt.spans);
    os << "{\"stamp\": " << stamp.str() << ",\n\"spans\": ";
    spans.write_json(os);
    os << "}\n";
    if (!os) {
      std::cerr << "drlnoc_perfbench: cannot write " << opt.spans << "\n";
    }
  }

  std::cout.precision(17);
  std::cout << "{\"stamp\": " << stamp.str() << ", \"peak_rss_mb\": "
            << peak_rss_mb
            << ", \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i) std::cout << ", ";
    write_rep(std::cout, reps[i]);
  }
  std::cout << "]}\n";
  return 0;
}
