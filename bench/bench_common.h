// Shared helpers for the experiment harnesses in bench/. Each binary prints
// one paper table/figure; these helpers keep the training and evaluation
// protocol identical across experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "obs/session.h"
#include "rl/dqn.h"
#include "scenario/runtime.h"
#include "util/config.h"
#include "util/table.h"

namespace drlnoc::bench {

/// Resolves the shared `--jobs N` flag (also accepted as `jobs=N`). The
/// default 0 means one worker per hardware thread. Every experiment is
/// bit-identical at any jobs value — the flag only buys wall-clock.
inline core::ExperimentRunner runner_from(const util::Config& cfg) {
  return core::ExperimentRunner(cfg.get("jobs", 0));
}

/// Parses a bench command line. The bare `--smoke` / `smoke` flag becomes
/// `smoke=true`; it is stripped before Config parsing, which would otherwise
/// take the next token (`--smoke out=X`) as its value. `smoke=<bool>` works
/// too, so benches read the mode as cfg.get("smoke", false).
inline util::Config parse_args(int argc, char** argv) {
  std::vector<const char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    const std::string tok = argv[i];
    if (i > 0 && (tok == "--smoke" || tok == "smoke")) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  util::Config cfg =
      util::Config::from_args(static_cast<int>(args.size()), args.data());
  if (smoke) cfg.set("smoke", "true");
  return cfg;
}

/// A trained agent's policy as an in-memory DqnAgent::save blob — the form
/// scenario::controller_factory("drl", blob) serves, one private copy per
/// evaluation task, exactly as `.drlsc` schedules and fleets load it.
inline std::string policy_blob(const rl::DqnAgent& agent) {
  std::ostringstream os;
  agent.save(os);
  return os.str();
}

/// DQN hyper-parameters used by every experiment (kept in one place so the
/// tables are comparable).
inline rl::DqnParams standard_dqn(std::uint64_t total_env_steps,
                                  std::uint64_t seed = 7) {
  rl::DqnParams dp;
  dp.hidden = {64, 64};
  dp.gamma = 0.9;
  dp.lr = 1e-3;
  dp.min_replay = 128;
  dp.batch_size = 32;
  dp.target_sync_every = 250;
  dp.double_dqn = true;
  dp.epsilon_decay_steps = total_env_steps * 3 / 4;
  dp.seed = seed;
  return dp;
}

/// Trains a fresh agent on `env` and returns it.
inline std::unique_ptr<rl::DqnAgent> train_agent(core::NocConfigEnv& env,
                                                 int episodes,
                                                 std::uint64_t seed = 7) {
  const auto steps =
      static_cast<std::uint64_t>(episodes) *
      static_cast<std::uint64_t>(env.params().epochs_per_episode);
  auto agent = std::make_unique<rl::DqnAgent>(
      env.state_size(), env.num_actions(), standard_dqn(steps, seed));
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.eval_every = 0;
  core::train_dqn(env, *agent, tp);
  return agent;
}

/// Trains a fresh agent with the multi-actor collector
/// (core::train_dqn_parallel). `round` is part of the experiment definition
/// (changing it changes the curve, like a seed); `actors` only fans the
/// environment stepping across threads — results are bit-identical at any
/// value, so tables stay actors-invariant while training buys wall-clock.
inline std::unique_ptr<rl::DqnAgent> train_agent_parallel(
    const core::NocEnvParams& ep, int episodes, int round, int actors,
    std::uint64_t seed = 7) {
  const auto steps = static_cast<std::uint64_t>(episodes) *
                     static_cast<std::uint64_t>(ep.epochs_per_episode);
  core::NocConfigEnv probe(ep);  // observation/action dims only
  auto agent = std::make_unique<rl::DqnAgent>(
      probe.state_size(), probe.num_actions(), standard_dqn(steps, seed));
  core::ParallelTrainParams tp;
  tp.episodes = episodes;
  tp.round = round;
  tp.actors = actors;
  tp.eval_every = 0;
  core::train_dqn_parallel(ep, *agent, tp);
  return agent;
}

/// One controller of a comparison: its table label, its
/// scenario::controller_factory type, the environment it is evaluated on
/// and, for `drl`, the policy blob it serves.
struct ComparisonEntry {
  std::string label;
  std::string type;
  core::NocEnvParams params;
  std::string policy;  ///< DqnAgent::save blob; `drl` only
};

/// Per-tenant mean + 95% CI over the replicas of one entry.
struct TenantCi {
  core::MetricSummary latency;
  core::MetricSummary p95;
  core::MetricSummary throughput;  ///< delivered pkt/node/core-cycle
  core::MetricSummary slo_hit_rate;
};

struct ComparisonResult {
  std::string label;
  core::ReplicationResult rep;
  std::vector<TenantCi> tenants;  ///< by scenario tenant id
};

/// The controller-comparison harness behind the multi-tenant tables: runs
/// core::evaluate_many for each entry (traffic seeds params.net.seed + i
/// for i < replicas) and summarises every tenant across the replicas.
/// Results are in entry order and bit-identical at any runner jobs value.
inline std::vector<ComparisonResult> compare_controllers(
    const std::vector<ComparisonEntry>& entries, int replicas,
    const core::ExperimentRunner& runner) {
  std::vector<ComparisonResult> out;
  out.reserve(entries.size());
  for (const ComparisonEntry& e : entries) {
    ComparisonResult r;
    r.label = e.label;
    r.rep = core::evaluate_many(
        e.params, scenario::controller_factory(e.type, e.policy), replicas,
        runner);
    const std::vector<core::Replica>& reps = r.rep.replicas;
    const std::size_t num_tenants =
        reps.empty() ? 0 : reps.front().result.tenants.size();
    for (std::size_t t = 0; t < num_tenants; ++t) {
      std::vector<double> lat, p95, thru, slo;
      for (const core::Replica& rep : reps) {
        const core::TenantEpisodeSummary& s = rep.result.tenants[t];
        lat.push_back(s.mean_latency);
        p95.push_back(s.p95_latency);
        thru.push_back(s.accepted_rate);
        slo.push_back(s.slo_hit_rate);
      }
      r.tenants.push_back({core::summarize_metric(lat),
                           core::summarize_metric(p95),
                           core::summarize_metric(thru),
                           core::summarize_metric(slo)});
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Honors `--trace-out=` / `--metrics-out=` / `--trace-sample=` on the table
/// benches: when any flag is set, runs `scenario` once more with the
/// observability taps attached and writes the artifacts. Runs AFTER the
/// measured comparisons so every timed/aggregated cell stays observer-free;
/// `duration_cap` bounds the extra run. Returns false when an artifact
/// could not be written (benches fold this into their exit code).
inline bool maybe_traced_run(const util::Config& cfg,
                             const scenario::Scenario& scenario,
                             double duration_cap = 20000.0) {
  obs::ObsSession session(obs::ObsOptions::from_config(cfg));
  if (!session.enabled()) return true;
  scenario.validate();
  auto net = scenario::build_network(scenario);
  auto workload = scenario::build_workload(scenario, net->topology());
  session.attach(*net);
  session.annotate_scenario(scenario);
  scenario::ScenarioRunParams rp;
  rp.cycle_limit = scenario.cycle_limit;
  rp.duration = scenario.duration > 0.0
                    ? std::min(scenario.duration, duration_cap)
                    : duration_cap;
  scenario::run_scenario(*net, *workload, rp);
  return session.finish();
}

/// Appends one controller-comparison row.
inline void result_row(util::Table& table, const core::EpisodeResult& r) {
  table.row()
      .cell(r.controller)
      .cell(r.total_reward, 2)
      .cell(r.mean_latency, 1)
      .cell(r.p95_latency, 1)
      .cell(r.mean_power_mw, 1)
      .cell(r.mean_edp / 1e6, 3)
      .cell(static_cast<long long>(r.backlog_end));
}

inline std::vector<std::string> result_headers() {
  return {"controller", "reward",       "latency", "p95",
          "power_mW",   "EDP(1e6pJcyc)", "backlog"};
}

}  // namespace drlnoc::bench
