#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "fabric/bitstream.hpp"
#include "fabric/config_map.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device.hpp"
#include "fabric/device_family.hpp"
#include "fabric/routing_graph.hpp"

namespace vfpga {
namespace {

FabricGeometry tinyGeom() { return FabricGeometry{4, 4, 4, 4, 2}; }

TEST(Geometry, Counts) {
  FabricGeometry g = tinyGeom();
  EXPECT_EQ(g.clbCount(), 16u);
  EXPECT_EQ(g.lutBits(), 16u);
  EXPECT_EQ(g.padCount(), 16u);       // 4 per side
  EXPECT_EQ(g.padSlotCount(), 32u);
}

TEST(Geometry, PadLocationsCoverAllSides) {
  FabricGeometry g = tinyGeom();
  std::set<std::pair<int, int>> seen;
  int north = 0, south = 0, west = 0, east = 0;
  for (std::size_t p = 0; p < g.padCount(); ++p) {
    PadLocation loc = padLocation(g, p);
    seen.insert({static_cast<int>(loc.side), loc.offset});
    switch (loc.side) {
      case PadSide::kNorth: ++north; break;
      case PadSide::kSouth: ++south; break;
      case PadSide::kWest: ++west; break;
      case PadSide::kEast: ++east; break;
    }
  }
  EXPECT_EQ(seen.size(), g.padCount());  // no duplicates
  EXPECT_EQ(north, 4);
  EXPECT_EQ(south, 4);
  EXPECT_EQ(west, 4);
  EXPECT_EQ(east, 4);
}

TEST(Geometry, PadColumnOwnership) {
  FabricGeometry g = tinyGeom();
  EXPECT_EQ(padColumn(g, 2), 2);                 // north pad of column 2
  EXPECT_EQ(padColumn(g, g.cols + 1u), 1);       // south pad of column 1
  EXPECT_EQ(padColumn(g, 2u * g.cols), 0);       // west pads -> column 0
  EXPECT_EQ(padColumn(g, 2u * g.cols + g.rows), g.cols - 1);  // east pads
}

TEST(RoutingGraph, NodeLookupsRoundTrip) {
  RoutingGraph rrg(tinyGeom());
  const FabricGeometry& g = rrg.geometry();
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      const RRNode& out = rrg.node(rrg.clbOut(x, y));
      EXPECT_EQ(out.kind, RRKind::kClbOut);
      EXPECT_EQ(out.x, x);
      EXPECT_EQ(out.y, y);
      for (int p = 0; p < g.lutInputs; ++p) {
        const RRNode& in = rrg.node(rrg.clbIn(x, y, p));
        EXPECT_EQ(in.kind, RRKind::kClbIn);
        EXPECT_EQ(in.index, p);
      }
    }
  }
  const RRNode& w = rrg.node(rrg.wireH(1, 2, 3));
  EXPECT_EQ(w.kind, RRKind::kWireH);
  EXPECT_EQ(w.x, 1);
  EXPECT_EQ(w.y, 2);
  EXPECT_EQ(w.index, 3);
}

TEST(RoutingGraph, ClbOutHasNoIncomingAndClbInNoOutgoing) {
  RoutingGraph rrg(tinyGeom());
  EXPECT_TRUE(rrg.edgesInto(rrg.clbOut(1, 1)).empty());
  EXPECT_TRUE(rrg.edgesFrom(rrg.clbIn(1, 1, 0)).empty());
  EXPECT_FALSE(rrg.edgesFrom(rrg.clbOut(1, 1)).empty());
  EXPECT_FALSE(rrg.edgesInto(rrg.clbIn(1, 1, 0)).empty());
}

TEST(RoutingGraph, EdgeEndpointsConsistentWithCsr) {
  RoutingGraph rrg(tinyGeom());
  std::size_t total = 0;
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    for (RREdgeId e : rrg.edgesFrom(n)) {
      EXPECT_EQ(rrg.edge(e).from, n);
      ++total;
    }
  }
  EXPECT_EQ(total, rrg.edgeCount());
  total = 0;
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    for (RREdgeId e : rrg.edgesInto(n)) {
      EXPECT_EQ(rrg.edge(e).to, n);
      ++total;
    }
  }
  EXPECT_EQ(total, rrg.edgeCount());
}

TEST(RoutingGraph, SwitchboxConnectsSameIndexWires) {
  RoutingGraph rrg(tinyGeom());
  // Interior junction (1,1): H(0,1,w) <-> H(1,1,w) must be connected.
  const RRNodeId a = rrg.wireH(0, 1, 2);
  const RRNodeId b = rrg.wireH(1, 1, 2);
  bool found = false;
  for (RREdgeId e : rrg.edgesFrom(a)) {
    if (rrg.edge(e).to == b) found = true;
    // never to a different wire index
    const RRNode& to = rrg.node(rrg.edge(e).to);
    if (to.kind == RRKind::kWireH || to.kind == RRKind::kWireV) {
      EXPECT_EQ(to.index, 2);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RoutingGraph, OwnerColumnPartitionsNodes) {
  RoutingGraph rrg(tinyGeom());
  const FabricGeometry& g = rrg.geometry();
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    EXPECT_LT(rrg.ownerColumn(n), g.cols);
  }
  // Rightmost vertical channel belongs to the last column.
  EXPECT_EQ(rrg.ownerColumn(rrg.wireV(g.cols, 0, 0)), g.cols - 1);
  EXPECT_EQ(rrg.ownerColumn(rrg.wireV(0, 0, 0)), 0);
}

TEST(ConfigMap, BitsAreUniqueAndInRange) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  std::set<std::uint32_t> seen;
  const FabricGeometry& g = rrg.geometry();
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      for (std::uint32_t i = 0; i < g.lutBits(); ++i) {
        EXPECT_TRUE(seen.insert(map.clbLutBit(x, y, i)).second);
      }
      EXPECT_TRUE(seen.insert(map.clbFfEnableBit(x, y)).second);
      EXPECT_TRUE(seen.insert(map.clbEnableBit(x, y)).second);
    }
  }
  for (std::size_t s = 0; s < g.padSlotCount(); ++s) {
    EXPECT_TRUE(seen.insert(map.padSlotEnableBit(s)).second);
    EXPECT_TRUE(seen.insert(map.padSlotOutputBit(s)).second);
  }
  for (RREdgeId e = 0; e < rrg.edgeCount(); ++e) {
    EXPECT_TRUE(seen.insert(map.edgeBit(e)).second);
  }
  EXPECT_EQ(seen.size(), map.usedBits());
  EXPECT_LE(map.usedBits(), map.totalBits());
  for (std::uint32_t b : seen) EXPECT_LT(b, map.totalBits());
}

TEST(ConfigMap, ColumnsAlignToFrames) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  const FabricGeometry& g = rrg.geometry();
  std::uint32_t prevEnd = 0;
  for (std::uint16_t c = 0; c < g.cols; ++c) {
    auto [first, last] = map.framesOfColumn(c);
    EXPECT_EQ(first, prevEnd);
    EXPECT_GT(last, first);
    prevEnd = last;
    for (std::uint32_t f = first; f < last; ++f) {
      EXPECT_EQ(map.columnOfFrame(f), c);
    }
  }
  EXPECT_EQ(prevEnd, map.frameCount());
  auto [f0, f1] = map.framesOfColumns(1, 2);
  EXPECT_EQ(f0, map.framesOfColumn(1).first);
  EXPECT_EQ(f1, map.framesOfColumn(2).second);
}

TEST(ConfigMap, ColumnBitsStayInColumnFrames) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  const FabricGeometry& g = rrg.geometry();
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      auto [first, last] = map.framesOfColumn(static_cast<std::uint16_t>(x));
      const std::uint32_t f = map.frameOfBit(map.clbEnableBit(x, y));
      EXPECT_GE(f, first);
      EXPECT_LT(f, last);
    }
  }
}

TEST(Bitstream, FullRoundTrip) {
  ConfigImage img(256);
  img.set(3, true);
  img.set(200, true);
  Bitstream bs = makeFullBitstream(img, 64);
  EXPECT_TRUE(bs.full);
  EXPECT_EQ(bs.frameCount(), 4u);
  EXPECT_TRUE(bs.crcOk());
  ConfigImage img2(256);
  applyBitstream(img2, bs);
  EXPECT_EQ(img, img2);
}

TEST(Bitstream, PartialCoversOnlyRequestedFrames) {
  ConfigImage img(256);
  img.set(65, true);   // frame 1
  img.set(130, true);  // frame 2
  std::vector<std::uint32_t> want{1};
  Bitstream bs = makePartialBitstream(img, 64, want);
  EXPECT_FALSE(bs.full);
  EXPECT_EQ(bs.frameCount(), 1u);
  ConfigImage img2(256);
  applyBitstream(img2, bs);
  EXPECT_TRUE(img2.get(65));
  EXPECT_FALSE(img2.get(130));
}

TEST(Bitstream, DiffFramesFindsChangedFramesOnly) {
  ConfigImage a(256), b(256);
  b.set(0, true);    // frame 0
  b.set(255, true);  // frame 3
  auto diff = diffFrames(a, b, 64);
  EXPECT_EQ(diff, (std::vector<std::uint32_t>{0, 3}));
}

TEST(Bitstream, CrcDetectsCorruption) {
  ConfigImage img(128);
  img.set(5, true);
  Bitstream bs = makeFullBitstream(img, 64);
  EXPECT_TRUE(bs.crcOk());
  bs.frames[0].payload[5] = 0;  // corrupt in transit
  EXPECT_FALSE(bs.crcOk());
  Device dev(tinyGeom());
  EXPECT_THROW(dev.applyBitstream(bs), std::runtime_error);
}

// ---- CRC-16/CCITT-FALSE ------------------------------------------------------

TEST(Crc16, CheckValueThroughBytesAndBits) {
  const std::string_view check = "123456789";
  std::vector<std::uint8_t> bytes(check.begin(), check.end());
  EXPECT_EQ(crc16Bytes(bytes), 0x29B1);
  std::vector<std::uint8_t> bits;  // MSB-first unpacking, one bit per byte
  for (const std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) bits.push_back((b >> i) & 1);
  }
  EXPECT_EQ(crc16Bits(bits), 0x29B1);
  // Continuing a CRC over a split sequence equals one pass over the whole.
  const std::span<const std::uint8_t> all(bits);
  EXPECT_EQ(crc16Bits(all.subspan(29), crc16Bits(all.first(29))), 0x29B1);
}

TEST(Bitstream, CrcCoversConcatenatedPayloadsInFrameOrder) {
  ConfigImage img(320);
  for (std::uint32_t i = 0; i < img.size(); i += 7) img.set(i, true);
  Bitstream bs = makeFullBitstream(img, 64);
  ASSERT_EQ(bs.frameCount(), 5u);
  std::vector<std::uint8_t> all;
  for (const Frame& f : bs.frames) {
    all.insert(all.end(), f.payload.begin(), f.payload.end());
  }
  EXPECT_EQ(bs.crc, crc16Bits(all));
  EXPECT_TRUE(bs.crcOk());
  std::swap(bs.frames[1], bs.frames[3]);  // same bits, wrong order
  EXPECT_FALSE(bs.crcOk());
}

// Hand-wires an inverter through the fabric without the CAD flow:
//   west pad slot -> V(0, y) wire -> CLB(0, y) pin 2 -> LUT(NOT) ->
//   CLB out -> V(1, y) wire -> ... there is no pad on V(1), so route back
//   via the south channel H(0, 0) to the south pad of column 0.
class HandWiredInverter : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<Device>(tinyGeom(), DeviceTiming{}, 64u);
    const RoutingGraph& rrg = dev_->rrg();
    const ConfigMap& map = dev_->configMap();
    const FabricGeometry& g = dev_->geometry();

    // Pads: west pad of row 0 is pad index 2*cols + 0; south pad of
    // column 0 is pad index cols + 0.
    inSlotIdx_ = (2u * g.cols) * g.slotsPerPad;      // west row0, slot 0
    outSlotIdx_ = (g.cols + 0u) * g.slotsPerPad;     // south col0, slot 0
    const RRNodeId inSlot = rrg.padSlot(2u * g.cols, 0);
    const RRNodeId outSlot = rrg.padSlot(g.cols, 0);

    // Enable pads: input (direction 0) and output (direction 1).
    dev_->setConfigBit(map.padSlotEnableBit(inSlotIdx_), true);
    dev_->setConfigBit(map.padSlotEnableBit(outSlotIdx_), true);
    dev_->setConfigBit(map.padSlotOutputBit(outSlotIdx_), true);

    // CLB(0,0): enabled, LUT = NOT of pin 2 (pin 2 listens to the west
    // channel V(0, 0)). Truth table bit i = !(bit 2 of i).
    std::uint32_t lut = 0;
    for (std::uint32_t i = 0; i < 16; ++i) {
      if (((i >> 2) & 1) == 0) lut |= 1u << i;
    }
    for (std::uint32_t i = 0; i < 16; ++i) {
      dev_->setConfigBit(map.clbLutBit(0, 0, i), (lut >> i) & 1);
    }
    dev_->setConfigBit(map.clbEnableBit(0, 0), true);

    // Route: inSlot -> V(0,0,w0); V(0,0,w0) -> CLB(0,0) pin 2.
    enableEdge(inSlot, rrg.wireV(0, 0, 0));
    enableEdge(rrg.wireV(0, 0, 0), rrg.clbIn(0, 0, 2));
    // Route: CLB out -> H(0,0,w1) (south channel) -> outSlot.
    enableEdge(rrg.clbOut(0, 0), rrg.wireH(0, 0, 1));
    enableEdge(rrg.wireH(0, 0, 1), outSlot);
  }

  void enableEdge(RRNodeId from, RRNodeId to) {
    const RoutingGraph& rrg = dev_->rrg();
    for (RREdgeId e : rrg.edgesFrom(from)) {
      if (rrg.edge(e).to == to) {
        dev_->setConfigBit(dev_->configMap().edgeBit(e), true);
        return;
      }
    }
    FAIL() << "no such edge " << rrg.describe(from) << " -> "
           << rrg.describe(to);
  }

  std::unique_ptr<Device> dev_;
  std::size_t inSlotIdx_ = 0;
  std::size_t outSlotIdx_ = 0;
};

TEST_F(HandWiredInverter, ElaboratesCleanly) {
  const Elaboration& e = dev_->elaboration();
  ASSERT_TRUE(e.ok()) << e.faults.front();
  EXPECT_EQ(e.cells.size(), 1u);
  EXPECT_EQ(e.padOuts.size(), 1u);
  EXPECT_EQ(e.inputSlots.size(), 1u);
  EXPECT_EQ(e.ffCount, 0u);
}

TEST_F(HandWiredInverter, ComputesNot) {
  ASSERT_TRUE(dev_->configOk());
  dev_->setPadSlotInput(inSlotIdx_, false);
  dev_->evaluate();
  EXPECT_TRUE(dev_->padSlotOutput(outSlotIdx_));
  dev_->setPadSlotInput(inSlotIdx_, true);
  dev_->evaluate();
  EXPECT_FALSE(dev_->padSlotOutput(outSlotIdx_));
}

TEST_F(HandWiredInverter, CriticalPathIncludesHops) {
  ASSERT_TRUE(dev_->configOk());
  const DeviceTiming& t = dev_->timing();
  // Input: pad -> wire -> pin = 2 hops + padDelay, then LUT, then
  // out -> wire -> pad = 2 hops + padDelay.
  const SimDuration expect =
      t.padDelay + 2 * t.switchDelay + t.lutDelay + 2 * t.switchDelay +
      t.padDelay;
  EXPECT_EQ(dev_->criticalPathDelay(), expect);
  EXPECT_EQ(dev_->minClockPeriod(), expect + t.clockMargin);
}

TEST_F(HandWiredInverter, ContentionIsAFault) {
  const RoutingGraph& rrg = dev_->rrg();
  // Second driver onto the same wire the CLB output already drives, via the
  // switchbox at junction (1, 0). The second source wire is undriven, but
  // two enabled switches into one wire is contention regardless.
  enableEdge(rrg.wireV(1, 0, 1), rrg.wireH(0, 0, 1));
  EXPECT_FALSE(dev_->configOk());
}

TEST_F(HandWiredInverter, ClearConfigRemovesEverything) {
  dev_->clearConfig();
  const Elaboration& e = dev_->elaboration();
  EXPECT_TRUE(e.ok());
  EXPECT_TRUE(e.cells.empty());
  EXPECT_TRUE(e.padOuts.empty());
}

TEST_F(HandWiredInverter, UndrivenOutputPadIsAFault) {
  const ConfigMap& map = dev_->configMap();
  const std::size_t orphan = outSlotIdx_ + 1;  // next slot of the same pad
  dev_->setConfigBit(map.padSlotEnableBit(orphan), true);
  dev_->setConfigBit(map.padSlotOutputBit(orphan), true);
  EXPECT_FALSE(dev_->configOk());
}

TEST(Device, FfStateRoundTripThroughRegisteredCell) {
  // CLB(0,0) as a DFF: LUT = identity of pin 2, FF enabled, fed from a
  // west pad, observed at a south pad.
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  const RoutingGraph& rrg = dev.rrg();
  const ConfigMap& map = dev.configMap();
  const FabricGeometry& g = dev.geometry();
  const std::size_t inSlot = (2u * g.cols) * g.slotsPerPad;
  const std::size_t outSlot = (g.cols + 0u) * g.slotsPerPad;
  dev.setConfigBit(map.padSlotEnableBit(inSlot), true);
  dev.setConfigBit(map.padSlotEnableBit(outSlot), true);
  dev.setConfigBit(map.padSlotOutputBit(outSlot), true);
  std::uint32_t lut = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    if ((i >> 2) & 1) lut |= 1u << i;
  }
  for (std::uint32_t i = 0; i < 16; ++i) {
    dev.setConfigBit(map.clbLutBit(0, 0, i), (lut >> i) & 1);
  }
  dev.setConfigBit(map.clbEnableBit(0, 0), true);
  dev.setConfigBit(map.clbFfEnableBit(0, 0), true);
  auto enable = [&](RRNodeId from, RRNodeId to) {
    for (RREdgeId e : rrg.edgesFrom(from)) {
      if (rrg.edge(e).to == to) {
        dev.setConfigBit(map.edgeBit(e), true);
        return;
      }
    }
    FAIL() << "edge missing";
  };
  enable(rrg.padSlot(2u * g.cols, 0), rrg.wireV(0, 0, 0));
  enable(rrg.wireV(0, 0, 0), rrg.clbIn(0, 0, 2));
  enable(rrg.clbOut(0, 0), rrg.wireH(0, 0, 1));
  enable(rrg.wireH(0, 0, 1), rrg.padSlot(g.cols, 0));
  ASSERT_TRUE(dev.configOk());
  ASSERT_EQ(dev.ffCount(), 1u);

  dev.setPadSlotInput(inSlot, true);
  dev.evaluate();
  EXPECT_FALSE(dev.padSlotOutput(outSlot));  // not clocked yet
  dev.tick();
  dev.evaluate();
  EXPECT_TRUE(dev.padSlotOutput(outSlot));
  EXPECT_EQ(dev.cyclesTicked(), 1u);

  // Save, perturb, restore.
  auto saved = dev.ffState();
  EXPECT_EQ(saved, std::vector<bool>{true});
  dev.setPadSlotInput(inSlot, false);
  dev.evaluate();
  dev.tick();
  dev.evaluate();
  EXPECT_FALSE(dev.padSlotOutput(outSlot));
  dev.setFfState(saved);
  dev.evaluate();
  EXPECT_TRUE(dev.padSlotOutput(outSlot));
  dev.resetFfs();
  dev.evaluate();
  EXPECT_FALSE(dev.padSlotOutput(outSlot));
}

TEST(ConfigPort, CostsMatchSpecArithmetic) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.bitPeriod = nanos(10);
  spec.frameOverhead = nanos(100);
  spec.fullOverhead = nanos(1000);
  ConfigPort port(dev, spec);
  Bitstream full = makeFullBitstream(dev.image(), 64);
  EXPECT_EQ(port.downloadCost(full),
            nanos(1000) + full.bitCount() * nanos(10));
  EXPECT_EQ(port.fullDownloadCost(), port.downloadCost(full));
  std::vector<std::uint32_t> one{0};
  Bitstream part = makePartialBitstream(dev.image(), 64, one);
  EXPECT_EQ(port.downloadCost(part), nanos(100) + 64 * nanos(10));
  EXPECT_EQ(port.stateReadCost(10),
            spec.stateOverhead + 10 * spec.stateBitPeriod);
}

TEST(ConfigPort, SerialFullPortRejectsPartial) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.partialReconfig = false;
  ConfigPort port(dev, spec);
  std::vector<std::uint32_t> one{0};
  Bitstream part = makePartialBitstream(dev.image(), 64, one);
  EXPECT_THROW(port.download(part), std::logic_error);
  Bitstream full = makeFullBitstream(dev.image(), 64);
  EXPECT_GT(port.download(full), 0u);
  EXPECT_EQ(port.stats().fullDownloads, 1u);
}

TEST(ConfigPort, StatsAccumulate) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  Bitstream full = makeFullBitstream(dev.image(), 64);
  port.download(full);
  std::vector<std::uint32_t> one{1};
  port.download(makePartialBitstream(dev.image(), 64, one));
  std::vector<bool> state;
  port.readState(state);
  EXPECT_EQ(port.stats().fullDownloads, 1u);
  EXPECT_EQ(port.stats().partialDownloads, 1u);
  EXPECT_EQ(port.stats().bitsWritten, full.bitCount() + 64u);
  EXPECT_EQ(port.stats().stateReads, 1u);
  EXPECT_GT(port.stats().busyTime, 0u);
}

TEST(ConfigPort, NoStateAccessThrows) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.stateAccess = false;
  ConfigPort port(dev, spec);
  std::vector<bool> state;
  EXPECT_THROW(port.readState(state), std::logic_error);
  EXPECT_THROW(port.writeState(state), std::logic_error);
}

TEST(DeviceFamily, ProfilesAreWellFormed) {
  for (const DeviceProfile& p : allProfiles()) {
    EXPECT_FALSE(p.name.empty());
    Device dev = p.makeDevice();
    EXPECT_GT(dev.configMap().totalBits(), 0u);
    EXPECT_TRUE(dev.configOk());  // blank config is valid (empty design)
  }
  EXPECT_EQ(profileByName("tiny").name, "tiny");
  EXPECT_THROW(profileByName("nope"), std::out_of_range);
}

TEST(DeviceFamily, Xc4000FullConfigNear200ms) {
  DeviceProfile p = xc4000SerialProfile();
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  const double ms = toMilliseconds(port.fullDownloadCost());
  // Paper, §2: "no more than 200 ms" for a full serial download.
  EXPECT_GT(ms, 100.0);
  EXPECT_LE(ms, 220.0);
}

TEST(DeviceFamily, PartialPortMakesSmallUpdatesCheap) {
  DeviceProfile p = xc4000PartialProfile();
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  std::vector<std::uint32_t> one{0};
  Bitstream part = makePartialBitstream(dev.image(), p.frameBits, one);
  EXPECT_LT(port.downloadCost(part), port.fullDownloadCost() / 100);
}

}  // namespace
}  // namespace vfpga
