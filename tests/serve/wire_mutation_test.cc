// Seeded mutation test of the daemon's untrusted-input parsers: the run and
// grid request parsers, the trace-upload header parser with the trace parser
// behind it, the result decoder, the error-reply parser and the hello a
// session answers.
//
// Each case starts from a valid input, applies a few random byte-level
// edits (overwrite, insert, delete, truncate, duplicate, plant a boundary
// count) and feeds the mutant to the parser.  Every mutant must either
// decode or throw the parser's structured error (ConfigError,
// TraceParseError or ProtocolError); anything else (another exception
// type, a crash, or under ASan/UBSan an out-of-bounds read or an overflow)
// fails the test and prints the mutant.  A hello mutant goes through
// `TenantSession::handle` instead and must get exactly the one reply frame
// the test expects from its own reading of the text.  The seed and the
// mutant count are fixed, so the run is the same on every build.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "driver/experiment.h"
#include "engine/experiment_grid.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload/trace_replay.h"

namespace dasched::serve {
namespace {

constexpr std::uint64_t kSeed = 0x6d75'7461'6e74;  // "mutant"
constexpr int kMutantsPerInput = 4000;

class Mutator {
 public:
  std::string mutate(std::string_view valid) {
    std::string s(valid);
    const int edits = 1 + static_cast<int>(rng_.next_below(4));
    for (int e = 0; e < edits; ++e) edit(s);
    return s;
  }

 private:
  std::size_t pos(const std::string& s) {
    return s.empty() ? 0 : static_cast<std::size_t>(rng_.next_below(s.size()));
  }

  char interesting() {
    static constexpr std::string_view kChars{"\n=,:-+.eE019 \"{}\0\xff", 18};
    return kChars[rng_.next_below(kChars.size())];
  }

  void edit(std::string& s) {
    switch (rng_.next_below(7)) {
      case 0:
        if (!s.empty()) s[pos(s)] = static_cast<char>(rng_.next_below(256));
        break;
      case 1:
        if (!s.empty()) s[pos(s)] = interesting();
        break;
      case 2:
        s.insert(s.begin() + static_cast<long>(pos(s)), interesting());
        break;
      case 3:
        if (!s.empty()) s.erase(pos(s), 1 + rng_.next_below(8));
        break;
      case 4:
        s.resize(pos(s));
        break;
      case 5: {
        if (s.empty()) break;
        const std::size_t from = pos(s);
        const std::string slice = s.substr(from, 1 + rng_.next_below(16));
        s.insert(pos(s), slice);
        break;
      }
      default: {
        // A boundary value over four bytes: a count or length field of the
        // binary frame, or four digits of a text one.
        static constexpr std::uint32_t kCounts[] = {
            0, 1, 2, 0xff, 0xffff, 1u << 20, 0x7fffffffu, 0xffffffffu};
        const std::uint32_t v = kCounts[rng_.next_below(std::size(kCounts))];
        if (s.size() < 4) break;
        const std::size_t at = static_cast<std::size_t>(rng_.next_below(s.size() - 3));
        for (int k = 0; k < 4; ++k) {
          s[at + static_cast<std::size_t>(k)] = static_cast<char>(v >> (8 * k));
        }
        break;
      }
    }
  }

  Rng rng_{kSeed};
};

std::string escaped(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (b >= 0x20 && b < 0x7f && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", b);
      out += buf;
    }
  }
  return out;
}

/// Feeds kMutantsPerInput mutants of `valid` to `decode`; each must decode
/// or throw one of `Allowed`.
template <typename... Allowed, typename Decode>
void survives_mutants(std::string_view valid, Decode decode) {
  decode(valid);  // the unmutated input is valid
  Mutator mutator;
  int decoded = 0;
  int rejected = 0;
  for (int k = 0; k < kMutantsPerInput; ++k) {
    const std::string input = mutator.mutate(valid);
    try {
      decode(input);
      ++decoded;
    } catch (const std::exception& e) {
      if ((dynamic_cast<const Allowed*>(&e) || ...)) {
        ++rejected;
      } else {
        ADD_FAILURE() << "mutant " << k << " threw an unstructured error ("
                      << e.what() << "): \"" << escaped(input) << '"';
      }
    }
  }
  // Both outcomes occur, so the mutants reach past the first check.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

ExperimentConfig sample_config() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.telemetry.level = TraceLevel::kRequest;
  cfg.telemetry.dir = "t/d";
  return cfg;
}

TEST(WireMutation, RunRequest) {
  std::string valid;
  format_run_request(sample_config(), valid);
  ExperimentConfig cfg;
  survives_mutants<ConfigError>(
      valid, [&](std::string_view text) { parse_run_request(text, cfg); });
}

TEST(WireMutation, GridRequest) {
  ExperimentGrid grid;
  grid.base = sample_config();
  grid.apps = {"sar", "hf"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kStaggered};
  grid.schemes = {false, true};
  grid.sweep = sweep_axis_by_name("theta", {0, 4});
  std::string valid;
  format_grid_request(grid, valid);
  ExperimentGrid parsed;
  survives_mutants<ConfigError>(valid, [&](std::string_view text) {
    parse_grid_request(text, parsed);
  });
}

TEST(WireMutation, TraceUpload) {
  ReplayOptions opts;
  opts.slot_us = 5000;
  opts.seed = 7;
  opts.jitter_frac = 0.25;
  const std::string_view bodies[] = {
      "ts_us,proc,file,offset,bytes,op\n"
      "0,0,b.dat,0,65536,R\n"
      "0,1,a.dat,0,65536,R\n"
      "10000,1,a.dat,65536,65536,W\n",
      "{\"ts_us\":0,\"proc\":0,\"file\":\"b.dat\",\"offset\":0,"
      "\"bytes\":65536,\"op\":\"R\"}\n"
      "{\"proc\":1,\"ts_us\":10,\"file\":\"a.dat\",\"offset\":0,"
      "\"bytes\":4096,\"op\":\"W\"}\n",
      "0.000000,0,0,65536,R\n"
      "0.010000,1,65536,65536,W\n",
  };
  const TraceFormat formats[] = {TraceFormat::kNativeCsv,
                                 TraceFormat::kNativeJsonl, TraceFormat::kBlk};
  for (int f = 0; f < 3; ++f) {
    opts.format = formats[f];
    std::string valid;
    format_trace_upload(opts, "upload.trace", bodies[f], valid);
    SCOPED_TRACE(to_string(opts.format));
    survives_mutants<ConfigError, TraceParseError>(
        valid, [](std::string_view payload) {
          ReplayOptions got;
          std::string name;
          const std::string_view body = parse_trace_upload(payload, got, name);
          (void)parse_replay_trace(body, name, got);
        });
  }
}

TEST(WireMutation, ResultFrame) {
  ExperimentResult r;
  r.app = "sar";
  r.policy = PolicyKind::kHistory;
  r.scheme = true;
  r.events = 12345;
  r.storage.idle_periods.add_msec(7.0);
  r.storage.per_node.resize(2);
  r.storage.per_node[1].idle_periods.add_msec(70.0);
  CellHeader cell;
  cell.has_sweep = true;
  cell.sweep_name = "theta";
  std::vector<std::uint8_t> wire;
  serialize_result(cell, r, wire);
  const std::string valid(wire.begin(), wire.end());
  CellHeader cell2;
  ExperimentResult out;
  survives_mutants<ProtocolError>(valid, [&](std::string_view payload) {
    deserialize_result(bytes(payload), cell2, out);
  });
}

TEST(WireMutation, ErrorReply) {
  std::string valid;
  format_error({"trace", "bytes", "bad.csv:2: field 'bytes': must be > 0"},
               valid);
  survives_mutants<ProtocolError>(
      valid, [](std::string_view payload) { (void)parse_error(payload); });
}

/// Whether a session must accept `text` as a hello, read without the
/// protocol's key=value scanner: every non-empty line holds '=', and the
/// value of the last `version` line is exactly the protocol version.
bool hello_accepted(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::string version;
  bool has_version = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    if (line.compare(0, eq, "version") == 0) {
      version = line.substr(eq + 1);
      has_version = true;
    }
  }
  return has_version && version == std::to_string(kProtocolVersion);
}

/// Counts the reply frames of one request.
class CountingSink : public TenantSession::Sink {
 public:
  bool write_frame(FrameType t, std::span<const std::uint8_t>) override {
    ++frames;
    last = t;
    return true;
  }
  int frames = 0;
  FrameType last = FrameType::kDone;
};

TEST(WireMutation, Hello) {
  const std::string valid = "version=" + std::to_string(kProtocolVersion) +
                            "\nclient=test\nfeatures=\n";
  ASSERT_TRUE(hello_accepted(valid));
  Mutator mutator;
  int accepted = 0;
  int refused = 0;
  for (int k = 0; k < kMutantsPerInput; ++k) {
    const std::string input = mutator.mutate(valid);
    const bool expect_ok = hello_accepted(input);
    TenantSession session(/*tenant_id=*/1);
    CountingSink sink;
    try {
      (void)session.handle(FrameType::kHello, bytes(input), sink);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << k << " escaped handle (" << e.what()
                    << "): \"" << escaped(input) << '"';
      continue;
    }
    ASSERT_EQ(sink.frames, 1) << "mutant " << k << ": \"" << escaped(input)
                              << '"';
    EXPECT_EQ(sink.last, expect_ok ? FrameType::kHelloOk : FrameType::kError)
        << "mutant " << k << ": \"" << escaped(input) << '"';
    ++(expect_ok ? accepted : refused);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace dasched::serve
