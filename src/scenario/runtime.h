// Scenario runtime: turns a Scenario description into live simulation
// objects (Network + CompositeWorkload), runs it to completion with
// per-tenant accounting, derives per-tenant reports from epoch statistics,
// and executes scenario-level controller schedules ([controller] blocks) so
// `scenarioctl run` can replay controller-vs-workload paper rows without
// the bench binaries. This is the layer scenarioctl, traffic_explorer and
// the multi-tenant benches share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/trainer.h"
#include "noc/simulator.h"
#include "scenario/composite_workload.h"
#include "scenario/scenario.h"

namespace drlnoc::obs {
class FlightRecorder;
class NetworkMetrics;
}  // namespace drlnoc::obs

namespace drlnoc::scenario {

/// Builds the scenario's fabric (topology/seed/etc. from `scenario.net`).
std::unique_ptr<noc::Network> build_network(const Scenario& scenario);

/// Builds the merged injector for `scenario` over `topo` (the fabric's
/// topology — synthetic tenants draw destinations from it). Tenant ids are
/// the declaration indices. The scenario must already be validated (the
/// loader, the env, and run_scenario(Scenario) all do so); this runs on
/// every RL episode reset and skips the O(records) re-walk.
std::unique_ptr<CompositeWorkload> build_workload(const Scenario& scenario,
                                                  const noc::Topology& topo);

/// Peak synthetic-equivalent offered rate across tenants (packets/node/
/// core-cycle); the scenario counterpart of the phased workload's busiest
/// phase, used to calibrate the reward's power normaliser.
double peak_offered_rate(const Scenario& scenario);

struct ScenarioRunParams {
  std::uint64_t cycle_limit = 2000000;  ///< router-cycle safety limit
  /// Run horizon in core cycles (caps every tenant window); 0 = run until
  /// every tenant finishes.
  double duration = 0.0;
};

/// Steps `net` under `workload` until every tenant is quiet and the fabric
/// drains (or the cycle limit trips); see noc::run_until_drained. Enables
/// per-tenant tracking on `net`, so the result's stats carry per-tenant
/// slices.
noc::RunResult run_scenario(noc::Network& net, CompositeWorkload& workload,
                            const ScenarioRunParams& params = {});

/// Convenience: build network + workload from the scenario and run it with
/// the scenario's duration/cycle_limit.
noc::RunResult run_scenario(const Scenario& scenario);

/// Human/JSON-facing per-tenant slice derived from one epoch window.
struct TenantReport {
  std::string name;
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t flits_ejected = 0;
  double avg_latency = 0.0;     ///< core cycles, measured deliveries
  double p95_latency = 0.0;
  double throughput = 0.0;      ///< delivered packets / node / core-cycle
  double energy_share_pj = 0.0; ///< epoch energy attributed by flit share
};

/// Derives per-tenant reports from an epoch's TenantEpochStats (names taken
/// from the scenario's tenants; sizes must match). Energy is attributed
/// proportionally to ejected flits.
std::vector<TenantReport> tenant_reports(const Scenario& scenario,
                                         const noc::EpochStats& stats);

// --- controller schedules ---------------------------------------------------

/// The one name -> controller mapping: `drl`, `heuristic`, `static-max` or
/// `static-min`, as `.drlsc` [controller] blocks, scenarioctl, fleetctl and
/// the paper benches name them. The factory builds the controller against
/// each environment it is handed (safe to call concurrently): the heuristic
/// normalises by that environment's fabric size, and `drl` serves a private
/// copy of `policy_blob` (DqnAgent::save output, drlpol or legacy mlp)
/// after checking its dimensions against the environment; the policy-free
/// types ignore the policy arguments. A non-empty `policy_pin` must equal
/// rl::policy_fingerprint(policy_blob); it is checked before the blob is
/// parsed. `policy_name` labels the controller `drl[<name>]` (plain `drl`
/// when empty) and names the file in warnings.
/// Throws std::invalid_argument for an unknown type, a `drl` without a
/// blob, a pin mismatch, an unparsable blob, and (per environment) a policy
/// whose dimensions do not fit.
core::ControllerFactory controller_factory(const std::string& type,
                                           const std::string& policy_blob = {},
                                           const std::string& policy_pin = {},
                                           const std::string& policy_name = {});

/// Builds the controller named by `scenario.controller` against `env` via
/// controller_factory. Throws std::invalid_argument when no schedule is set
/// and wherever controller_factory does.
std::unique_ptr<core::Controller> build_scheduled_controller(
    const Scenario& scenario, const core::NocConfigEnv& env);

/// Result of running a scenario under its controller schedule.
struct ScheduledRunResult {
  core::EpisodeResult episode;  ///< per-tenant summaries incl. SLO hit rates
  double power_ref_mw = 0.0;    ///< the reward's auto-calibrated normalizer
};

/// Runs the scenario under its [controller] schedule: `controller.epochs`
/// epochs of `controller.epoch_cycles` router cycles, the scheduled
/// controller reconfiguring the fabric between epochs, per-tenant QoS
/// objectives active when the scenario declares them. Optional (non-owning)
/// observability taps are attached to the fabric on every episode reset.
ScheduledRunResult run_scheduled(const Scenario& scenario,
                                 obs::FlightRecorder* recorder = nullptr,
                                 obs::NetworkMetrics* metrics = nullptr);

}  // namespace drlnoc::scenario
