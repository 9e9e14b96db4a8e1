// Fixture: parses numbers with the throwing std::sto* family, once actively
// and once with a justification.
#include <string>

namespace dpmm {

std::size_t Bucket(const std::string& s) {
  return std::stoull(s);  // finding
}

double Scale(const std::string& s) {
  // lint:allow(throwing-number-parse): fixture exercises the suppression path
  return std::stod(s);
}

}  // namespace dpmm
