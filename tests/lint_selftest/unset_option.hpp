// lint.py --self-test fixture: O1 (an option that nothing sets) in a mock
// pacer.  NOT compiled; scanned by the linter.
#pragma once

#include <cstddef>

namespace lint_fixture {

struct PacerConfig {
  /// Set below: a real knob, not a finding.
  std::size_t fixture_burst_limit{8};
  /// BUG: no caller ever assigns it, so every run uses 0.5 — it is a
  /// constant wearing an option's clothes.
  double fixture_drain_rate{0.5};   // expect-lint: O1

  [[nodiscard]] bool bursty() const { return fixture_burst_limit > 1; }
};

inline PacerConfig tuned_pacer() {
  PacerConfig config;
  config.fixture_burst_limit = 16;
  return config;
}

}  // namespace lint_fixture
