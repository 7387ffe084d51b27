// LoadedCircuit's name-based port I/O: every lookup order must resolve the
// slot CompiledCircuit::padSlotOf (the linear reference scan) returns, for
// every library circuit, after relocation and across copies; bus helpers
// must drive and read the wires they name on a configured device.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/device_family.hpp"
#include "netlist/builder.hpp"
#include "sim/rng.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

std::vector<std::string> portNames(const CompiledCircuit& c) {
  std::vector<std::string> names;
  for (const PortBinding& p : c.ports) names.push_back(p.name);
  return names;
}

/// Every library circuit, compiled once into its narrowest strip.
class LibraryPorts : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dev_ = new Device(mediumPartialProfile().makeDevice());
    Compiler compiler(*dev_);
    circuits_ = new std::vector<CompiledCircuit>(
        workloads::compileSuite(compiler, workloads::allSuites()));
  }
  static void TearDownTestSuite() {
    delete circuits_;
    delete dev_;
  }

  /// Resolves `names` in the given order through one LoadedCircuit and
  /// checks each against the reference scan.
  static void expectSameSlots(LoadedCircuit& lc,
                              const std::vector<std::string>& names) {
    for (const std::string& n : names) {
      EXPECT_EQ(lc.padSlotOf(n), lc.circuit().padSlotOf(n))
          << lc.circuit().name << " port " << n;
    }
  }

  static Device* dev_;
  static std::vector<CompiledCircuit>* circuits_;
};

Device* LibraryPorts::dev_ = nullptr;
std::vector<CompiledCircuit>* LibraryPorts::circuits_ = nullptr;

TEST_F(LibraryPorts, InOrderReverseAndShuffledLookupsMatchReferenceScan) {
  ASSERT_EQ(circuits_->size(), workloads::allSuites().size());
  Rng rng(20261017);
  for (const CompiledCircuit& c : *circuits_) {
    std::vector<std::string> names = portNames(c);
    ASSERT_FALSE(names.empty()) << c.name;
    LoadedCircuit lc(*dev_, c);
    // Twice in order: the second pass wraps from the last output back to
    // the first input.
    expectSameSlots(lc, names);
    expectSameSlots(lc, names);
    std::reverse(names.begin(), names.end());
    expectSameSlots(lc, names);
    for (std::size_t i = names.size(); i > 1; --i) {
      std::swap(names[i - 1], names[rng.below(i)]);
    }
    expectSameSlots(lc, names);
    // A fresh LoadedCircuit whose first lookup is not the first port.
    LoadedCircuit fresh(*dev_, c);
    expectSameSlots(fresh, names);
  }
}

TEST_F(LibraryPorts, UnknownPortThrowsTheReferenceMessage) {
  const CompiledCircuit& c = circuits_->front();
  LoadedCircuit lc(*dev_, c);
  for (int round = 0; round < 2; ++round) {  // before and after the index
    try {
      lc.setInput("no_such_pin", true);
      FAIL() << "unknown port accepted";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "no such port: no_such_pin");
    }
    EXPECT_THROW((void)lc.output("no_such_pin"), std::out_of_range);
    // A prefix of a real name is not that name.
    const std::string& first = c.ports.front().name;
    EXPECT_THROW((void)lc.padSlotOf(first.substr(0, first.size() - 1)),
                 std::out_of_range);
    (void)lc.padSlotOf(first);
  }
}

TEST_F(LibraryPorts, CopiedLoadedCircuitKeepsResolving) {
  Rng rng(7);
  for (const CompiledCircuit& c : *circuits_) {
    std::vector<std::string> names = portNames(c);
    LoadedCircuit lc(*dev_, c);
    // Build the index and leave the in-order cursor mid-list.
    for (std::size_t i = 0; i < names.size() / 2; ++i) (void)lc.padSlotOf(names[i]);
    LoadedCircuit copy = lc;
    LoadedCircuit assigned(*dev_, circuits_->front());
    (void)assigned.padSlotOf(circuits_->front().ports.front().name);
    assigned = lc;
    for (std::size_t i = names.size(); i > 1; --i) {
      std::swap(names[i - 1], names[rng.below(i)]);
    }
    expectSameSlots(copy, names);
    expectSameSlots(assigned, names);
    expectSameSlots(lc, names);
  }
}

TEST(LoadedCircuitLookup, RepeatedNameResolvesToItsFirstPort) {
  // An input and an output may share a name; the reference scan returns
  // the first binding, so walking in order must not pick the second.
  Device dev = tinyProfile().makeDevice();
  CompiledCircuit c;
  c.ports = {{"a", 1, true}, {"b", 2, true}, {"a", 9, false}, {"c", 7, false}};
  LoadedCircuit lc(dev, c);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(lc.padSlotOf("a"), 1u);
    EXPECT_EQ(lc.padSlotOf("b"), 2u);
    EXPECT_EQ(lc.padSlotOf("a"), 1u);
    EXPECT_EQ(lc.padSlotOf("c"), 7u);
  }
}

// ------------------------------------------------ driven through a device

/// q = d ^ k (8-bit buses) plus a width-1 bus "s" passed straight to "t".
Netlist xorBuses() {
  Netlist nl("xor_buses");
  Builder b(nl);
  const Bus d = b.inputBus("d", 8);
  const Bus k = b.inputBus("k", 8);
  Bus q;
  for (std::size_t i = 0; i < 8; ++i) q.push_back(nl.addGate(GateKind::kXor, {d[i], k[i]}));
  b.outputBus("q", q);
  const Bus s = b.inputBus("s", 1);
  b.outputBus("t", s);
  return nl;
}

void expectBusRoundTrip(LoadedCircuit& lc, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t d = rng.below(256), k = rng.below(256);
    const bool s = rng.bernoulli(0.5);
    lc.setInputBus("d", 8, d);
    lc.setInputBus("k", 8, k);
    lc.setInputBus("s", 1, s ? 1 : 0);
    lc.evaluate();
    EXPECT_EQ(lc.outputBus("q", 8), d ^ k);
    EXPECT_EQ(lc.outputBus("t", 1), s ? 1u : 0u);
    EXPECT_EQ(lc.output("t"), s);
    EXPECT_EQ(lc.output("q3"), (((d ^ k) >> 3) & 1) != 0);
  }
}

TEST(LoadedCircuitBus, RoundTripsAtHomeAndAfterRelocation) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  CompiledCircuit c = workloads::compileMinimal(compiler, xorBuses());
  dev.clearConfig();
  dev.applyBitstream(c.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  LoadedCircuit lc(dev, c);
  expectBusRoundTrip(lc, 1);

  // Relocate in place: `lc` keeps pointing at `c`, whose port slots move
  // while names and order stay; the index built above must follow.
  const std::vector<std::string> names = portNames(c);
  const std::uint32_t homeSlot = c.ports.front().padSlot;
  const std::uint16_t x0 = static_cast<std::uint16_t>(c.region.w + 1);
  c = compiler.relocate(c, x0);
  ASSERT_EQ(c.region.x0, x0);
  ASSERT_NE(c.ports.front().padSlot, homeSlot);
  dev.clearConfig();
  dev.applyBitstream(c.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    EXPECT_EQ(lc.padSlotOf(*it), c.padSlotOf(*it)) << *it;
  }
  expectBusRoundTrip(lc, 2);
  LoadedCircuit copy = lc;
  expectBusRoundTrip(copy, 3);
}

}  // namespace
}  // namespace vfpga
