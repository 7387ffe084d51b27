// Convenience harness for driving a compiled circuit that is currently
// configured on a device: name-based port access (with bus helpers) and
// FF-state translation between the mapped-netlist order and the device's
// dense FF order. Used by tests, examples and the OS execution engine.
//
// Cost model of name-based port I/O. Every call resolves its name to a pad
// slot in O(1), and after the first lookup without heap allocation:
//  * in-order fast path: the port after the previous hit (wrapping from
//    the last output to the first input) is tried first with one string
//    compare. CompiledCircuit::ports is inputs-then-outputs in port order,
//    so bus helpers and replay loops that walk ports in that order resolve
//    almost every lookup this way;
//  * otherwise a name -> position-in-ports index, built lazily on the first
//    lookup (the OS managers, which build a LoadedCircuit only for
//    save/restore, never pay for it). Positions rather than slots are
//    stored, so the index stays valid when relocate() rewrites padSlot;
//  * a name the index lacks falls back to CompiledCircuit::padSlotOf,
//    which throws std::out_of_range("no such port: <name>").
// The index lives here, not in the shared CompiledCircuit, because worker
// threads read one const CompiledCircuit concurrently. Hot loops that
// already know their ports can skip names altogether: resolve each with
// padSlotOf once, then drive Device::setPadSlotInput/padSlotOutput.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "compile/compiler.hpp"
#include "netlist/netlist.hpp"

namespace vfpga {

class LoadedCircuit {
 public:
  /// The circuit's bitstream must already be in the device (this class
  /// never configures; the OS layer owns download policy and cost).
  LoadedCircuit(Device& dev, const CompiledCircuit& circuit)
      : dev_(&dev), c_(&circuit) {}

  const CompiledCircuit& circuit() const { return *c_; }

  /// Pad slot of a named port, as CompiledCircuit::padSlotOf but O(1) (see
  /// the cost model above); the slot setInput/output drive and read.
  std::uint32_t padSlotOf(std::string_view port);

  void setInput(std::string_view port, bool v);
  /// Drives input bits base0..base{w-1} (bare name when w == 1).
  void setInputBus(const std::string& base, std::size_t width,
                   std::uint64_t value);
  bool output(std::string_view port);
  std::uint64_t outputBus(const std::string& base, std::size_t width);

  void evaluate() { dev_->evaluate(); }
  void tick() { dev_->tick(); }

  /// FF state in mapped-netlist order (stable across relocation), as the
  /// OS stores it when preempting a task.
  std::vector<bool> saveState();
  void restoreState(const std::vector<bool>& mappedOrderState);
  /// Writes the circuit's declared initial FF values into the device.
  void applyInitialState();

 private:
  /// Name of bit i of bus `base`, built in busName_ (busBitName's format).
  std::string_view busBit(const std::string& base, std::size_t i,
                          std::size_t width);

  Device* dev_;
  const CompiledCircuit* c_;
  std::size_t next_ = 0;  ///< position tried first by the next lookup
  bool inOrder_ = true;   ///< false when a port name repeats (no fast path)
  NameMap<std::uint32_t> index_;  ///< name -> first position in ports
  std::string busName_;           ///< reused bus-bit name buffer
};

}  // namespace vfpga
