#include "spice/netlist.h"

#include <stdexcept>

namespace ntr::spice {

CircuitNode Circuit::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  return node_names_.size() - 1;
}

void Circuit::check_nodes(CircuitNode a, CircuitNode b) const {
  if (a >= node_names_.size() || b >= node_names_.size())
    throw std::out_of_range("Circuit: node index out of range");
  if (a == b) throw std::invalid_argument("Circuit: element shorts a node to itself");
}

void Circuit::add_resistor(std::string name, CircuitNode a, CircuitNode b, double ohms) {
  check_nodes(a, b);
  if (ohms <= 0.0) throw std::invalid_argument("Circuit: resistance must be positive");
  elements_.push_back({ElementKind::kResistor, std::move(name), a, b, ohms,
                       SourceWaveform::kDc});
}

void Circuit::add_capacitor(std::string name, CircuitNode a, CircuitNode b, double farads) {
  check_nodes(a, b);
  if (farads <= 0.0) throw std::invalid_argument("Circuit: capacitance must be positive");
  elements_.push_back({ElementKind::kCapacitor, std::move(name), a, b, farads,
                       SourceWaveform::kDc});
}

void Circuit::add_inductor(std::string name, CircuitNode a, CircuitNode b, double henries) {
  check_nodes(a, b);
  if (henries <= 0.0) throw std::invalid_argument("Circuit: inductance must be positive");
  elements_.push_back({ElementKind::kInductor, std::move(name), a, b, henries,
                       SourceWaveform::kDc});
}

void Circuit::add_voltage_source(std::string name, CircuitNode pos, CircuitNode neg,
                                 double volts, SourceWaveform waveform) {
  check_nodes(pos, neg);
  elements_.push_back({ElementKind::kVoltageSource, std::move(name), pos, neg, volts,
                       waveform});
}

std::size_t Circuit::element_count(ElementKind kind) const {
  std::size_t count = 0;
  for (const Element& e : elements_)
    if (e.kind == kind) ++count;
  return count;
}

double Circuit::total_capacitance() const {
  double sum = 0.0;
  for (const Element& e : elements_)
    if (e.kind == ElementKind::kCapacitor) sum += e.value;
  return sum;
}

}  // namespace ntr::spice
