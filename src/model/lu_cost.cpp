#include "src/model/lu_cost.h"

#include <algorithm>

namespace calu::model {

double lu_flops(double m, double n) {
  const double k = std::min(m, n);
  // Sum over steps of (m-j)(n-j) multiply-adds * 2 plus the divisions:
  // leading order m*n*k - (m+n)k^2/2 + k^3/3, times 2.
  return 2.0 * (m * n * k - (m + n) * k * k / 2.0 + k * k * k / 3.0);
}

}  // namespace calu::model
