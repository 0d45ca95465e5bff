// Microbenchmarks (google-benchmark): throughput of the two simulators and
// the PRA engine's building blocks. These calibrate the DSA_* scale knobs —
// the figure benches' wall-clock cost is (simulations) x (time/run) measured
// here.
//
// The round-model benchmarks run the sparse production engine and the dense
// reference engine side-by-side, and main() first asserts both produce
// bit-for-bit identical outcomes on a churning mixed population — a cheap guard against silent divergence that
// runs every time the bench does.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "core/pra.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/simulator.hpp"

namespace {

using namespace dsa;

swarming::SimEngine engine_arg(std::int64_t value) {
  return value == 1 ? swarming::SimEngine::kDense
                    : swarming::SimEngine::kSparse;
}

void BM_RoundSimHomogeneous(benchmark::State& state) {
  const auto rounds = static_cast<std::size_t>(state.range(0));
  swarming::SimulationConfig config;
  config.rounds = rounds;
  config.engine = engine_arg(state.range(1));
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(swarming::run_homogeneous_throughput(
        swarming::bittorrent_protocol(), 50, config, bandwidths));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rounds) * 50);
}
BENCHMARK(BM_RoundSimHomogeneous)
    ->ArgNames({"rounds", "engine"})  // engine: 0 sparse, 1 dense
    ->Args({120, 0})
    ->Args({120, 1})
    ->Args({500, 0})
    ->Args({500, 1});

void BM_RoundSimEncounter(benchmark::State& state) {
  swarming::SimulationConfig config;
  config.rounds = static_cast<std::size_t>(state.range(0));
  config.engine = engine_arg(state.range(1));
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(
        swarming::run_encounter(swarming::bittorrent_protocol(),
                                swarming::loyal_when_needed_protocol(), 25, 25,
                                config, bandwidths));
  }
}
BENCHMARK(BM_RoundSimEncounter)
    ->ArgNames({"rounds", "engine"})  // engine: 0 sparse, 1 dense
    ->Args({120, 0})
    ->Args({120, 1})
    ->Args({500, 0})
    ->Args({500, 1});

void BM_SwarmDownload(benchmark::State& state) {
  swarm::SwarmConfig config;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(
        swarm::run_mixed_swarm(swarm::ClientVariant::kBitTorrent,
                               swarm::ClientVariant::kBirds, 25, 50, config));
  }
}
BENCHMARK(BM_SwarmDownload);

void BM_ProtocolCodec(benchmark::State& state) {
  std::uint32_t id = 0;
  for (auto _ : state) {
    const auto spec = swarming::decode_protocol(id);
    benchmark::DoNotOptimize(swarming::encode_protocol(spec));
    id = (id + 1) % swarming::kProtocolCount;
  }
}
BENCHMARK(BM_ProtocolCodec);

/// Runs one churning mixed-population config on both engines and aborts
/// on any outcome difference — the engines' contract is bitwise identity,
/// not mere closeness, so compare with == rather than a tolerance.
void assert_engines_match() {
  swarming::SimulationConfig config;
  config.rounds = 200;
  config.churn_rate = 0.02;
  config.intake_factor = 1.5;
  config.seed = 77;
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  swarming::ProtocolSpec freerider = swarming::bittorrent_protocol();
  freerider.allocation = swarming::AllocationPolicy::kFreeride;
  std::vector<swarming::ProtocolSpec> protocols;
  protocols.insert(protocols.end(), 20, swarming::bittorrent_protocol());
  protocols.insert(protocols.end(), 20,
                   swarming::loyal_when_needed_protocol());
  protocols.insert(protocols.end(), 10, freerider);
  const std::vector<double> capacities =
      bandwidths.stratified_sample(protocols.size());

  config.engine = swarming::SimEngine::kSparse;
  const auto sparse =
      simulate_rounds(protocols, capacities, config, &bandwidths);
  config.engine = swarming::SimEngine::kDense;
  const auto dense =
      simulate_rounds(protocols, capacities, config, &bandwidths);

  if (sparse.peer_throughput != dense.peer_throughput ||
      sparse.peers_replaced != dense.peers_replaced) {
    std::fprintf(stderr,
                 "FATAL: sparse and dense engines diverged on the guard "
                 "config (seed=%llu)\n",
                 static_cast<unsigned long long>(config.seed));
    std::abort();
  }
  std::fprintf(stderr, "[guard] sparse and dense engine outcomes identical\n");
}

}  // namespace

int main(int argc, char** argv) {
  ::dsa::bench::MetricsScope metrics_scope("micro");
  dsa::bench::runtime_banner();
  assert_engines_match();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
