// Fixture: downcasts the strategy seam to a concrete engine outside
// src/serialize/, once actively and once with a justification.
namespace dpmm {

bool IsKron(const LinearStrategy& a) {
  return dynamic_cast<const KronStrategy*>(&a) != nullptr;  // finding
}

bool IsDense(const LinearStrategy& a) {
  // lint:allow(engine-downcast): fixture exercises the suppression path
  return dynamic_cast<const Strategy*>(&a) != nullptr;
}

}  // namespace dpmm
