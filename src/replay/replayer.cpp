#include "replay/replayer.hpp"

#include "platform/topology.hpp"
#include "support/error.hpp"

namespace tir::replay {

Replayer::Replayer(const plat::Platform& platform,
                   std::vector<int> process_hosts,
                   const trace::TraceSet& traces, ReplayConfig config) {
  spec_.platform = share_platform(platform);
  spec_.process_hosts = std::move(process_hosts);
  spec_.traces = traces;
  spec_.config = config;
  if (static_cast<int>(spec_.process_hosts.size()) != traces.nprocs())
    throw SimError("replay: deployment has " +
                   std::to_string(spec_.process_hosts.size()) +
                   " processes but the trace set has " +
                   std::to_string(traces.nprocs()));
}

ReplayResult Replayer::run() { return run_scenario(spec_, registry_); }

ReplayResult replay_files(const std::filesystem::path& platform_xml,
                          const std::filesystem::path& deployment_xml,
                          const std::vector<std::filesystem::path>& traces,
                          ReplayConfig config,
                          trace::DecodePolicy decode) {
  // Both arguments are spec-aware: the platform resolves through the
  // topology registry ("dragonfly:groups=9,..." or a platform file), the
  // deployment accepts "block"/"roundrobin" besides a deployment file.
  const auto platform = std::make_shared<const plat::Platform>(
      plat::load_platform_spec(platform_xml.string()));
  ScenarioSpec spec;
  spec.name = platform_xml.stem().string();
  spec.platform = platform;
  spec.platform_label = platform_xml.string();
  spec.traces = trace::TraceSet::per_process_files(
      trace::expand_trace_paths(traces), trace::DecodeMode::strict, decode);
  spec.process_hosts = plat::resolve_deployment_spec(
      deployment_xml.string(), *platform, spec.traces.nprocs());
  spec.config = config;
  return run_scenario(spec);
}

}  // namespace tir::replay
