// Differential oracle over generated instances: the P2 workspace in the
// reference configuration (cold, fail-fast, dense Newton path), cold-started
// and warm-started must agree on every ROA trajectory; simplex and PDHG must
// agree on the P1 window LP. A forced mismatch must leave a loadable
// sora-repro file.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "testing/differential.hpp"
#include "testing/generator.hpp"
#include "testing/repro.hpp"

namespace sora::testing {
namespace {

constexpr std::uint64_t kSeedsPerRegime = 6;

TEST(PropertyDifferential, RoaBackendsAgreeAcrossRegimes) {
  DiffOptions options;
  options.dump_on_failure = false;  // gtest output is the report here
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);
      const DiffReport report =
          differential_roa(inst, cfg.describe(), options);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(PropertyDifferential, LpBackendsAgreeAcrossRegimes) {
  DiffOptions options;
  options.dump_on_failure = false;
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);
      const DiffReport report = differential_lp(inst, cfg.describe(), options);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(PropertyDifferential, ForcedMismatchDumpsLoadableRepro) {
  // An impossible tolerance forces a mismatch deterministically; the report
  // must carry a repro path whose file parses back to the exact instance.
  ASSERT_EQ(setenv("SORA_REPRO_DIR", ::testing::TempDir().c_str(), 1), 0);
  GeneratorConfig cfg;
  cfg.seed = 4;
  const auto inst = generate_instance(cfg);

  DiffOptions options;
  options.primal_tol = -1.0;  // max_abs_diff >= 0 always exceeds this
  options.cost_tol = -1.0;
  const DiffReport report = differential_roa(inst, "forced/mismatch", options);
  ASSERT_FALSE(report.ok());
  const std::string& path = report.mismatches.front().repro_path;
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find(::testing::TempDir()), std::string::npos);

  const auto back = load_instance(path);
  EXPECT_EQ(serialize_instance(back), serialize_instance(inst));
  std::remove(path.c_str());
  unsetenv("SORA_REPRO_DIR");
}

TEST(PropertyDifferential, CleanRunLeavesNoDump) {
  ASSERT_EQ(setenv("SORA_REPRO_DIR", ::testing::TempDir().c_str(), 1), 0);
  GeneratorConfig cfg;
  cfg.seed = 11;
  const auto inst = generate_instance(cfg);
  const DiffReport report = differential_roa(inst, "clean/run");
  EXPECT_TRUE(report.ok()) << report.summary();
  FILE* f = std::fopen(default_repro_path("clean/run").c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f) std::fclose(f);
  unsetenv("SORA_REPRO_DIR");
}

}  // namespace
}  // namespace sora::testing
