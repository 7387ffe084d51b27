#include "cluster/bitstream_cache.hpp"

#include <string>

#include "netlist/text_io.hpp"
#include "sim/hash.hpp"

namespace vfpga::cluster {

std::uint64_t compileDigest(const Netlist& nl, const FabricGeometry& g,
                            std::uint32_t frameBits, std::uint16_t width) {
  const std::string text = writeNetlistText(nl);
  std::uint64_t h = hash::fnv1a(
      hash::kFnvOffset,
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  h = hash::fnv1aU64(h, g.rows);
  h = hash::fnv1aU64(h, g.cols);
  h = hash::fnv1aU64(h, g.lutInputs);
  h = hash::fnv1aU64(h, g.wiresPerChannel);
  h = hash::fnv1aU64(h, g.slotsPerPad);
  h = hash::fnv1aU64(h, frameBits);
  return hash::fnv1aU64(h, width);
}

BitstreamCache::BitstreamCache(std::size_t maxEntries)
    : maxEntries_(maxEntries) {}

std::shared_ptr<const CompiledCircuit> BitstreamCache::getOrCompile(
    std::uint64_t digest, const CompileFn& compile) {
  if (seen_.emplace(digest, true).second) ++stats_.uniqueDigests;

  auto it = map_.find(digest);
  if (it != map_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.circuit;
  }

  ++stats_.misses;
  ++stats_.compiles;
  auto circuit = std::make_shared<const CompiledCircuit>(compile());

  if (maxEntries_ > 0 && map_.size() >= maxEntries_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
  }

  lru_.push_front(digest);
  map_.emplace(digest, Entry{circuit, lru_.begin()});
  return circuit;
}

}  // namespace vfpga::cluster
