// Checks the benchmark's metric arithmetic: nearest-rank quantiles and the
// ">= 10 samples beyond" tail rule. Exits non-zero when any check fails.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "metric_math.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want << "\n";
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::quantile;
  using perfbench::tail_quantile;

  std::vector<std::uint32_t> empty;
  expect_near(quantile(empty, 0.5), 0, "quantile of no samples");

  // 1..100 shuffled: nearest rank puts p50 at 50, p99 at 99, p100 at 100.
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 100; i >= 1; --i) v.push_back((i * 37) % 101);
  expect_near(quantile(v, 0.5), 50, "p50 of 1..100");
  expect_near(quantile(v, 0.99), 99, "p99 of 1..100");
  expect_near(quantile(v, 1.0), 100, "p100 of 1..100");
  expect_near(quantile(v, 0.0), 1, "p0 clamps to the minimum");

  std::vector<double> one{7.5};
  expect_near(quantile(one, 0.99), 7.5, "single sample");

  // Tail rule: the highest percentile with at least 10 samples beyond it.
  expect_near(tail_quantile(0), 0, "no samples: no percentile");
  expect_near(tail_quantile(19), 0, "19 samples: median has only 9.5 beyond");
  expect_near(tail_quantile(20), 0.5, "20 samples: median");
  expect_near(tail_quantile(99), 0.5, "99 samples: p90 has 9.9 beyond");
  expect_near(tail_quantile(100), 0.9, "100 samples: p90");
  expect_near(tail_quantile(999), 0.9, "999 samples: p99 has 9.99 beyond");
  expect_near(tail_quantile(1000), 0.99, "1000 samples: p99");
  expect_near(tail_quantile(6'400'000), 0.99999, "6.4M samples: p99.999");
  if (perfbench::has_tail(999, 0.99) || !perfbench::has_tail(1000, 0.99)) {
    std::cerr << "FAIL has_tail boundary at p99\n";
    ++failures;
  }

  if (failures == 0) std::cout << "metric_math_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
