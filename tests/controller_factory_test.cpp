// scenario::controller_factory — the one name -> controller mapping shared by
// `.drlsc` schedules, fleets and the paper benches. Pins that every name
// builds exactly the controller the benches used to construct by hand (bit-
// identical replicated evaluations, including a save/load clone of a DQN
// policy) and that bad requests are refused with a diagnosable message.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/env_noc.h"
#include "core/parallel.h"
#include "rl/dqn.h"
#include "rl/policy_io.h"
#include "scenario/runtime.h"
#include "scenario/scenario.h"

namespace drlnoc {
namespace {

/// A small two-tenant QoS scenario on a 4x4 mesh, as the tables use.
core::NocEnvParams small_env() {
  auto s = std::make_shared<scenario::Scenario>();
  s->name = "factory_pair";
  s->net.width = s->net.height = 4;
  s->net.seed = 42;
  scenario::TenantSpec svc;
  svc.name = "service";
  svc.rate = 0.03;
  svc.qos = scenario::QosClass::kLatencyCritical;
  svc.p95_target = 60.0;
  s->tenants.push_back(svc);
  scenario::TenantSpec bg;
  bg.name = "background";
  bg.rate = 0.08;
  bg.qos = scenario::QosClass::kBackground;
  s->tenants.push_back(bg);
  s->duration = 1e6;
  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = s->net.seed;
  ep.epoch_cycles = 128;
  ep.epochs_per_episode = 6;
  return ep;
}

void expect_identical(const core::ReplicationResult& a,
                      const core::ReplicationResult& b) {
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    const core::EpisodeResult& x = a.replicas[i].result;
    const core::EpisodeResult& y = b.replicas[i].result;
    EXPECT_EQ(x.controller, y.controller);
    EXPECT_EQ(x.actions, y.actions);
    EXPECT_EQ(x.total_reward, y.total_reward);
    EXPECT_EQ(x.mean_latency, y.mean_latency);
    EXPECT_EQ(x.p95_latency, y.p95_latency);
    EXPECT_EQ(x.mean_power_mw, y.mean_power_mw);
    EXPECT_EQ(x.mean_edp, y.mean_edp);
    EXPECT_EQ(x.backlog_end, y.backlog_end);
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (std::size_t t = 0; t < x.tenants.size(); ++t) {
      EXPECT_EQ(x.tenants[t].mean_latency, y.tenants[t].mean_latency);
      EXPECT_EQ(x.tenants[t].p95_latency, y.tenants[t].p95_latency);
      EXPECT_EQ(x.tenants[t].accepted_rate, y.tenants[t].accepted_rate);
      EXPECT_EQ(x.tenants[t].slo_hit_rate, y.tenants[t].slo_hit_rate);
    }
  }
  EXPECT_EQ(a.reward.mean, b.reward.mean);
  EXPECT_EQ(a.reward.ci95, b.reward.ci95);
  EXPECT_EQ(a.power_mw.mean, b.power_mw.mean);
}

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<no std::invalid_argument thrown>";
}

constexpr int kReplicas = 3;

TEST(ControllerFactory, PolicyFreeTypesMatchHandBuiltControllers) {
  const core::NocEnvParams ep = small_env();
  const core::ExperimentRunner runner(2);
  const core::ControllerFactory heuristic =
      [](const core::NocConfigEnv& e) -> std::unique_ptr<core::Controller> {
    core::HeuristicParams hp;
    hp.num_nodes = 4 * 4;
    return std::make_unique<core::HeuristicController>(e.actions(), hp);
  };
  const core::ControllerFactory smax =
      [](const core::NocConfigEnv& e) -> std::unique_ptr<core::Controller> {
    return core::StaticController::maximal(e.actions());
  };
  const core::ControllerFactory smin =
      [](const core::NocConfigEnv& e) -> std::unique_ptr<core::Controller> {
    return core::StaticController::minimal(e.actions());
  };
  const std::pair<const char*, core::ControllerFactory> cases[] = {
      {"heuristic", heuristic}, {"static-max", smax}, {"static-min", smin}};
  for (const auto& [type, by_hand] : cases) {
    SCOPED_TRACE(type);
    expect_identical(
        core::evaluate_many(ep, scenario::controller_factory(type), kReplicas,
                            runner),
        core::evaluate_many(ep, by_hand, kReplicas, runner));
  }
}

TEST(ControllerFactory, DrlMatchesASaveLoadClone) {
  const core::NocEnvParams ep = small_env();
  const core::NocConfigEnv probe(ep);
  rl::DqnParams dp;
  dp.hidden = {16};
  dp.seed = 3;
  const rl::DqnAgent agent(probe.state_size(), probe.num_actions(), dp);
  std::ostringstream blob;
  agent.save(blob);

  // The clone the benches used to hand every evaluation task.
  const core::ControllerFactory by_hand =
      [&](const core::NocConfigEnv& e) -> std::unique_ptr<core::Controller> {
    std::stringstream weights;
    agent.save(weights);
    auto copy = std::make_unique<rl::DqnAgent>(e.state_size(),
                                               e.num_actions(), agent.params());
    copy->load_weights(weights);
    return std::make_unique<core::OwningDrlController>(e.actions(),
                                                       std::move(copy));
  };
  const core::ExperimentRunner runner(2);
  const core::ReplicationResult built = core::evaluate_many(
      ep, scenario::controller_factory("drl", blob.str()), kReplicas, runner);
  expect_identical(built,
                   core::evaluate_many(ep, by_hand, kReplicas, runner));
  EXPECT_EQ(built.replicas.front().result.controller, "drl");
  // The policy reacts to its observations, so matching actions is a real
  // check rather than two constant controllers agreeing.
  const std::vector<int>& acts = built.replicas.front().result.actions;
  EXPECT_NE(std::count(acts.begin(), acts.end(), acts.front()),
            static_cast<std::ptrdiff_t>(acts.size()));

  // A policy name labels the controller the way schedules report it.
  const auto named =
      scenario::controller_factory("drl", blob.str(), "", "p.drlpol")(probe);
  EXPECT_EQ(named->name(), "drl[p.drlpol]");
}

TEST(ControllerFactory, UnknownTypeIsNamed) {
  const std::string msg =
      message_of([] { scenario::controller_factory("oracle"); });
  EXPECT_NE(msg.find("unknown controller type 'oracle'"), std::string::npos)
      << msg;
}

TEST(ControllerFactory, DrlNeedsAPolicy) {
  const std::string msg =
      message_of([] { scenario::controller_factory("drl"); });
  EXPECT_NE(msg.find("'drl' needs a trained policy"), std::string::npos)
      << msg;
}

TEST(ControllerFactory, PinMismatchIsRefusedBeforeParsing) {
  // Not a policy at all: a parse would fail with a different message, so
  // seeing the pin message proves the pin is checked first.
  const std::string msg = message_of([] {
    scenario::controller_factory("drl", "not a policy", "0000000000000000");
  });
  EXPECT_NE(msg.find("does not match the pinned version 0000000000000000"),
            std::string::npos)
      << msg;

  const core::NocEnvParams ep = small_env();
  const core::NocConfigEnv env(ep);
  const rl::DqnAgent agent(env.state_size(), env.num_actions(),
                           rl::DqnParams{});
  std::ostringstream blob;
  agent.save(blob);
  const std::string pin = rl::policy_fingerprint(blob.str());
  EXPECT_NO_THROW(scenario::controller_factory("drl", blob.str(), pin)(env));
  EXPECT_NE(message_of([&] {
              scenario::controller_factory("drl", "not a policy");
            }).find("not a DqnAgent::save artifact"),
            std::string::npos);
}

TEST(ControllerFactory, DrlRejectsAPolicyOfTheWrongShape) {
  const core::NocEnvParams ep = small_env();
  const core::NocConfigEnv env(ep);
  const rl::DqnAgent small(env.state_size() - 1, env.num_actions(),
                           rl::DqnParams{});
  std::ostringstream blob;
  small.save(blob);
  const core::ControllerFactory factory =
      scenario::controller_factory("drl", blob.str());
  EXPECT_NE(message_of([&] { factory(env); }).find("controller policy expects"),
            std::string::npos);
}

}  // namespace
}  // namespace drlnoc
