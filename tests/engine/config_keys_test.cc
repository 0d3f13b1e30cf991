// The config-key table (engine/config_keys.h): the one parser and formatter
// behind the daemon's wire keys, both CLIs and the sweep axes.

#include "engine/config_keys.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace dasched {
namespace {

TEST(ConfigKeys, SeedAboveTwoToThe32SurvivesParsing) {
  // Seeds once went through a 32-bit int on the command line, so
  // --seed 4294967297 ran as --seed 1.
  const std::uint64_t seed = (std::uint64_t{1} << 32) + 1;
  ExperimentConfig cfg;
  find_config_flag("--seed")->set(cfg, "4294967297");
  EXPECT_EQ(cfg.seed, seed);
  cfg.seed = 0;
  find_config_key("seed")->set(cfg, "18446744073709551615");
  EXPECT_EQ(cfg.seed, UINT64_MAX);
  EXPECT_THROW(find_config_key("seed")->set(cfg, "-1"), ConfigError);
}

TEST(ConfigKeys, EveryRowRoundTripsThroughItsFormatter) {
  ExperimentConfig cfg;
  cfg.app = "madbench2";
  cfg.policy = PolicyKind::kStaggered;
  cfg.use_scheme = true;
  cfg.scale.num_processes = 12;
  cfg.scale.factor = 0.1 + 0.2;  // not exactly 0.3: rounding would show
  cfg.storage.num_io_nodes = 3;
  cfg.compile.sched.delta = 9;
  cfg.compile.sched.theta = 0;
  cfg.runtime.buffer_capacity = mib(7);
  cfg.storage.node.cache_capacity = mib(5);
  cfg.seed = 123456789012345;
  cfg.max_slack = 0;
  cfg.audit = true;
  cfg.telemetry.level = TraceLevel::kFull;
  cfg.telemetry.dir = "trace/out";
  for (const ConfigKey& row : config_keys()) {
    std::string text;
    ASSERT_TRUE(row.format(cfg, text)) << row.key;
    ExperimentConfig back;
    row.set(back, text);
    std::string again;
    ASSERT_TRUE(row.format(back, again)) << row.key;
    EXPECT_EQ(text, again) << row.key;
    EXPECT_EQ(find_config_key(row.key), &row);
    if (!row.flag.empty()) {
      EXPECT_EQ(find_config_flag(row.flag), &row);
    }
  }
  EXPECT_EQ(find_config_key("shards"), nullptr);
  EXPECT_EQ(find_config_flag(""), nullptr);
}

}  // namespace
}  // namespace dasched
