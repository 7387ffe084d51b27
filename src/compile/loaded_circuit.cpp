#include "compile/loaded_circuit.hpp"

#include <charconv>
#include <stdexcept>

namespace vfpga {

std::uint32_t LoadedCircuit::padSlotOf(std::string_view port) {
  const std::vector<PortBinding>& ports = c_->ports;
  if (index_.empty()) {
    index_.reserve(ports.size());
    for (std::uint32_t i = 0; i < ports.size(); ++i) {
      if (!index_.emplace(ports[i].name, i).second) inOrder_ = false;
    }
  }
  std::size_t pos = next_;
  if (!inOrder_ || pos >= ports.size() || ports[pos].name != port) {
    const auto it = index_.find(port);
    if (it == index_.end()) return c_->padSlotOf(std::string(port));
    pos = it->second;
  }
  next_ = pos + 1 == ports.size() ? 0 : pos + 1;
  return ports[pos].padSlot;
}

std::string_view LoadedCircuit::busBit(const std::string& base, std::size_t i,
                                       std::size_t width) {
  if (width == 1) return base;
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), i).ptr;
  busName_.assign(base).append(digits, end);
  return busName_;
}

void LoadedCircuit::setInput(std::string_view port, bool v) {
  dev_->setPadSlotInput(padSlotOf(port), v);
}

void LoadedCircuit::setInputBus(const std::string& base, std::size_t width,
                                std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    setInput(busBit(base, i, width), ((value >> i) & 1) != 0);
  }
}

bool LoadedCircuit::output(std::string_view port) {
  return dev_->padSlotOutput(padSlotOf(port));
}

std::uint64_t LoadedCircuit::outputBus(const std::string& base,
                                       std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    if (output(busBit(base, i, width))) v |= std::uint64_t{1} << i;
  }
  return v;
}

std::vector<bool> LoadedCircuit::saveState() {
  std::vector<bool> mapped(c_->ffSites.size());
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    mapped[i] = dev_->ffStateAt(c_->ffSites[i].x, c_->ffSites[i].y);
  }
  return mapped;
}

void LoadedCircuit::restoreState(const std::vector<bool>& mappedOrderState) {
  if (mappedOrderState.size() != c_->ffSites.size()) {
    throw std::invalid_argument("state size mismatch");
  }
  for (std::size_t i = 0; i < mappedOrderState.size(); ++i) {
    dev_->setFfStateAt(c_->ffSites[i].x, c_->ffSites[i].y,
                       mappedOrderState[i]);
  }
}

void LoadedCircuit::applyInitialState() {
  for (std::size_t i = 0; i < c_->ffSites.size(); ++i) {
    dev_->setFfStateAt(c_->ffSites[i].x, c_->ffSites[i].y,
                       c_->initialState[i]);
  }
}

}  // namespace vfpga
