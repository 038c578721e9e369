#include "noc/simulator.h"

#include "util/thread_pool.h"

namespace drlnoc::noc {

SteadyResult run_steady_state(Network& net, TrafficInjector& workload,
                              const SteadyRunParams& params) {
  SteadyResult result;

  // Warm-up: populate queues, do not measure.
  net.set_measuring(false);
  for (std::uint64_t i = 0; i < params.warmup_cycles; ++i) net.step(&workload);
  const std::uint64_t backlog_pre = net.drain_epoch_stats().source_queue_total;

  // Measurement: tag generated packets. Throughput counts deliveries inside
  // the window only (drain-phase deliveries would otherwise inflate it).
  const std::uint64_t recv_before = net.total_packets_received();
  const std::uint64_t offered_before = net.total_packets_offered();
  net.set_measuring(true);
  for (std::uint64_t i = 0; i < params.measure_cycles; ++i)
    net.step(&workload);
  const std::uint64_t recv_in_window =
      net.total_packets_received() - recv_before;
  const std::uint64_t offered_in_window =
      net.total_packets_offered() - offered_before;

  // Saturation heuristic: source backlog grew substantially across the
  // measured window (offered load beyond sustainable throughput).
  // Peek at the live counters before the drain phase perturbs them.
  std::uint64_t backlog_post = 0;
  for (int node = 0; node < net.num_nodes(); ++node)
    backlog_post += net.nic(node).source_queue_len();
  const double per_node_growth =
      (static_cast<double>(backlog_post) - static_cast<double>(backlog_pre)) /
      static_cast<double>(net.num_nodes());
  result.saturated = per_node_growth > 4.0;

  // Drain: stop generating, let measured packets retire so their latencies
  // are recorded. Under saturation the backlog itself must also clear, which
  // the drain limit caps.
  net.set_measuring(false);
  std::uint64_t extra = 0;
  while (!net.drained() && extra < params.drain_limit) {
    net.step(nullptr);
    ++extra;
  }
  result.drained = net.drained();

  result.stats = net.drain_epoch_stats();
  // The drain phase is excluded from rate computations: recompute rates over
  // the measurement window only.
  const double node_cycles =
      static_cast<double>(params.measure_cycles) *
      net.power().clock_divisor(net.config().dvfs_level) *
      static_cast<double>(net.num_nodes());
  if (node_cycles > 0.0) {
    result.stats.offered_rate =
        static_cast<double>(offered_in_window) / node_cycles;
    result.stats.accepted_rate =
        static_cast<double>(recv_in_window) / node_cycles;
  }
  return result;
}

RunResult run_until_drained(Network& net, TrafficInjector& workload,
                            std::uint64_t cycle_limit) {
  RunResult out;
  while (out.cycles < cycle_limit &&
         !(workload.done(net.core_time()) && net.drained())) {
    net.step(&workload);
    ++out.cycles;
  }
  out.completed = workload.done(net.core_time()) && net.drained();
  out.stats = net.drain_epoch_stats();
  return out;
}

SteadyResult measure_point(const NetworkParams& net_params,
                           const std::string& pattern, double rate,
                           const SteadyRunParams& run_params,
                           const FaultParams& faults) {
  Network net(net_params);
  if (faults.enabled()) net.set_fault_model(faults);
  SteadyWorkload workload =
      SteadyWorkload::make(net.topology(), pattern, rate);
  SteadyResult result = run_steady_state(net, workload, run_params);
  result.offered_rate = rate;
  return result;
}

std::vector<SteadyResult> measure_points(const std::vector<SweepPoint>& points,
                                         int jobs) {
  return util::parallel_map<SteadyResult>(
      static_cast<int>(points.size()), jobs, [&points](int i) {
        const SweepPoint& p = points[static_cast<std::size_t>(i)];
        return measure_point(p.net, p.pattern, p.rate, p.run, p.faults);
      });
}

}  // namespace drlnoc::noc
