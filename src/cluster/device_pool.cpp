#include "cluster/device_pool.hpp"

#include <optional>
#include <stdexcept>

#include "sim/hash.hpp"
#include "sim/parallel.hpp"

namespace vfpga::cluster {

OsOptions DeviceNode::withFaults(OsOptions options, fault::FaultPlan* plan,
                                 SimDuration scrubInterval) {
  options.policy = FpgaPolicy::kPartitionedVariable;
  options.ft.plan = plan;
  options.ft.scrubInterval = plan ? scrubInterval : 0;
  return options;
}

DeviceNode::DeviceNode(Simulation& sim, const DeviceNodeSpec& spec,
                       OsOptions options)
    : name_(spec.name),
      profile_(spec.profile),
      dev_(profile_.makeDevice()),
      port_(dev_, profile_.port),
      compiler_(dev_),
      plan_(spec.faulty ? std::make_unique<fault::FaultPlan>(spec.faultSpec)
                        : nullptr),
      kernel_(sim, dev_, port_, compiler_,
              withFaults(options, plan_.get(), spec.scrubInterval)),
      heatmap_(profile_.geometry.cols) {
  kernel_.attachHeatmap(&heatmap_);
}

std::uint16_t DeviceNode::usableColumns() const {
  const PartitionManager* pm = kernel_.partitionManager();
  return pm ? pm->allocator().largestUsableSpan() : 0;
}

DevicePool::DevicePool(Simulation& sim,
                       const std::vector<DeviceNodeSpec>& specs,
                       BitstreamCache& cache, OsOptions baseOptions)
    : sim_(&sim), cache_(&cache) {
  if (specs.empty()) throw std::invalid_argument("DevicePool: no devices");
  nodes_.reserve(specs.size());
  for (const auto& spec : specs)
    nodes_.push_back(std::make_unique<DeviceNode>(sim, spec, baseOptions));
}

WorkloadId DevicePool::registerWorkload(const std::string& name,
                                        const Netlist& nl,
                                        std::uint16_t width) {
  WorkloadId id = kNoConfig;
  std::vector<bool> cachedPerNode;
  cachedPerNode.reserve(nodes_.size());
  std::vector<std::shared_ptr<const CompiledCircuit>> circuitPerNode;
  circuitPerNode.reserve(nodes_.size());
  for (auto& nodePtr : nodes_) {
    DeviceNode& node = *nodePtr;
    const std::uint64_t digest =
        compileDigest(nl, node.profile().geometry, node.profile().frameBits,
                      width);
    const std::uint64_t hitsBefore = cache_->stats().hits;
    auto circuit = cache_->getOrCompile(digest, [&] {
      CompileOptions opt;
      CompiledCircuit c = node.compiler().compile(
          nl, Region::columns(node.device().geometry(), 0, width), opt);
      c.name = name;
      return c;
    });
    cachedPerNode.push_back(cache_->stats().hits > hitsBefore);
    circuitPerNode.push_back(circuit);
    const ConfigId got = node.kernel().registerConfig(*circuit);
    if (id == kNoConfig) {
      id = got;
    } else if (got != id) {
      // Registration order is identical on every node, so ids must agree;
      // a mismatch means a kernel was used outside the pool's control.
      throw std::logic_error("DevicePool: ConfigId skew across nodes");
    }
  }
  widths_.push_back(width);
  cached_.push_back(std::move(cachedPerNode));
  circuits_.push_back(std::move(circuitPerNode));
  return id;
}

FabricReplayResult DevicePool::replayFabrics(const FabricReplaySpec& spec) {
  const auto& circuits = circuits_.at(spec.workload);
  FabricReplayResult result;
  result.devices.resize(nodes_.size());

  // Each worker touches only its own node's device and its own result
  // slot; the only shared mutable state is the mutexed kernel cache, so
  // the digests — and therefore the merged report — do not depend on the
  // thread count or on scheduling order.
  parallelFor(
      nodes_.size(),
      [&](std::size_t d) {
        DeviceNode& node = *nodes_[d];
        Device& dev = node.device();
        const CompiledCircuit& c = *circuits[d];
        dev.clearConfig();
        dev.applyBitstream(c.fullBitstream());
        dev.resetFfs();

        const Elaboration& e = dev.elaboration();
        const std::vector<std::uint32_t> inputSlots = e.inputSlots;
        std::vector<std::uint32_t> outSlots;
        outSlots.reserve(e.padOuts.size());
        for (const Elaboration::PadOut& po : e.padOuts)
          outSlots.push_back(po.slot);

        std::optional<compiled::CompiledFabric> engine;
        if (spec.compiledFastPath) engine.emplace(dev, &kernelCache_);

        FabricReplayResult::PerDevice& out = result.devices[d];
        out.device = node.name();
        std::uint64_t h = hash::kFnvOffset;
        for (std::uint64_t cyc = 0; cyc < spec.cycles; ++cyc) {
          for (std::size_t pos = 0; pos < inputSlots.size(); ++pos) {
            const std::uint64_t w = hash::splitmix64(
                spec.seed ^ 0xd1342543de82ef95ull * (cyc + 1) ^
                0x9e6c63d0876a9a47ull * (d + 1) ^ (pos >> 6));
            dev.setPadSlotInput(inputSlots[pos], (w >> (pos & 63)) & 1);
          }
          dev.evaluate();
          std::uint64_t outs = 0;
          for (std::size_t i = 0; i < outSlots.size(); ++i) {
            if (dev.padSlotOutput(outSlots[i])) outs |= 1ull << (i & 63);
            if ((i & 63) == 63) {
              h = hash::fnv1aU64(h, outs);
              outs = 0;
            }
          }
          h = hash::fnv1aU64(h, outs);
          dev.tick();
          const bool syncPoint =
              (spec.syncEvery != 0 && (cyc + 1) % spec.syncEvery == 0) ||
              cyc + 1 == spec.cycles;
          if (syncPoint) {
            const std::vector<bool> ff = dev.ffState();
            std::uint64_t word = 0;
            for (std::size_t i = 0; i < ff.size(); ++i) {
              if (ff[i]) word |= 1ull << (i & 63);
              if ((i & 63) == 63) {
                h = hash::fnv1aU64(h, word);
                word = 0;
              }
            }
            h = hash::fnv1aU64(h, word);
            ++out.syncPoints;
          }
        }
        out.digest = h;
        out.cycles = spec.cycles;
        if (engine) out.stats = engine->stats();
      },
      spec.threads == 0 ? 1 : spec.threads);

  std::uint64_t merged = hash::kFnvOffset;
  for (const FabricReplayResult::PerDevice& pd : result.devices) {
    merged = hash::fnv1aU64(merged, pd.digest);
  }
  result.mergedDigest = merged;
  return result;
}

}  // namespace vfpga::cluster
