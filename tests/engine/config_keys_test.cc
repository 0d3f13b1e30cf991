// The config-key tables (engine/config_keys.h): the one parser and formatter
// behind the daemon's wire keys, both CLIs and the sweep axes, and behind
// the trace-upload header and the --replay-* flags.

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
  find_flag(config_keys(), "--seed")->set(cfg, "4294967297");
  EXPECT_EQ(cfg.seed, seed);
  cfg.seed = 0;
  find_key(config_keys(), "seed")->set(cfg, "18446744073709551615");
  EXPECT_EQ(cfg.seed, UINT64_MAX);
  EXPECT_THROW(find_key(config_keys(), "seed")->set(cfg, "-1"), ConfigError);
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
    EXPECT_EQ(find_key(config_keys(), row.key), &row);
    if (!row.flag.empty()) {
      EXPECT_EQ(find_flag(config_keys(), row.flag), &row);
    }
  }
  EXPECT_EQ(find_key(config_keys(), "shards"), nullptr);
  EXPECT_EQ(find_flag(config_keys(), ""), nullptr);
}

TEST(ConfigKeys, ReplayRowsRoundTripInUploadOrder) {
  ReplayOptions opts;
  opts.format = TraceFormat::kNativeJsonl;
  opts.slot_us = 2500;
  opts.min_compute_us = 0;
  opts.max_compute_us = 1 << 30;
  opts.granularity = 4;
  opts.seed = (std::uint64_t{1} << 32) + 3;
  opts.jitter_frac = 0.1 + 0.2;
  std::string text;
  format_keys(replay_keys(), opts, text);
  EXPECT_EQ(text,
            "format=jsonl\nslot_us=2500\nmin_compute_us=0\n"
            "max_compute_us=1073741824\ngranularity=4\nseed=4294967299\n"
            "jitter=0.30000000000000004\n");
  ReplayOptions back;
  for (const ReplayKey& row : replay_keys()) {
    std::string value;
    ASSERT_TRUE(row.format(opts, value)) << row.key;
    row.set(back, value);
    EXPECT_EQ(find_key(replay_keys(), row.key), &row);
  }
  EXPECT_EQ(back, opts);
  // Only format, slot_us and seed have a --replay-* flag.
  EXPECT_EQ(find_flag(replay_keys(), "--replay-format")->key, "format");
  EXPECT_EQ(find_flag(replay_keys(), "--replay-slot-us")->key, "slot_us");
  EXPECT_EQ(find_flag(replay_keys(), "--replay-seed")->key, "seed");
  int flags = 0;
  for (const ReplayKey& row : replay_keys()) flags += !row.flag.empty();
  EXPECT_EQ(flags, 3);
  // Integer options are range-checked, never narrowed.
  EXPECT_THROW(find_key(replay_keys(), "granularity")->set(back, "4294967297"),
               ConfigError);
  EXPECT_THROW(find_key(replay_keys(), "seed")->set(back, "-1"), ConfigError);
  EXPECT_THROW(find_key(replay_keys(), "format")->set(back, "xml"), ConfigError);
}

}  // namespace
}  // namespace dasched
