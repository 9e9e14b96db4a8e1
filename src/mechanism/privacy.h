// Privacy parameters and noise calibration (Sec. 2.2): the Gaussian
// mechanism for (eps, delta)-differential privacy calibrated to L2
// sensitivity (Prop. 2), and the Laplace mechanism for eps-differential
// privacy calibrated to L1 sensitivity.
#ifndef DPMM_MECHANISM_PRIVACY_H_
#define DPMM_MECHANISM_PRIVACY_H_

#include <cstddef>

namespace dpmm {

/// (eps, delta) privacy budget. The Gaussian calibration needs eps > 0 and
/// 0 < delta < 1; pure eps-DP (Laplace) is selected by the mechanism's
/// noise kind (Mechanism::NoiseKind), which reads only epsilon.
struct PrivacyParams {
  double epsilon = 0.5;
  double delta = 1e-4;
};

/// Gaussian noise scale sigma = sens_2 * sqrt(2 ln(2/delta)) / eps (Prop. 2).
double GaussianNoiseScale(const PrivacyParams& p, double l2_sensitivity);

/// Laplace noise scale b = sens_1 / eps.
double LaplaceNoiseScale(double epsilon, double l1_sensitivity);

}  // namespace dpmm

#endif  // DPMM_MECHANISM_PRIVACY_H_
