// Wire-protocol unit tests: frame layout, request round-trips, the
// bit-exact result codec, and structured errors (DESIGN.md §17).
//
// The codec tests compare *serialized bytes*, not fields: if
// serialize(deserialize(serialize(r))) differs anywhere from
// serialize(r), some field was dropped, reordered, or rounded — exactly
// the class of bug that would silently break the daemon's bit-identity
// guarantee.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "driver/experiment.h"
#include "driver/workspace.h"
#include "engine/experiment_grid.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "workload/trace_replay.h"

namespace dasched::serve {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  cfg.seed = 7;
  return cfg;
}

TEST(ServeProtocol, FrameLayoutIsLengthTypePayload) {
  std::vector<std::uint8_t> out;
  append_frame(out, FrameType::kPing, std::string_view("abc"));
  ASSERT_EQ(out.size(), 4u + 1u + 3u);
  std::uint32_t len = 0;
  std::memcpy(&len, out.data(), 4);
  EXPECT_EQ(len, 4u);  // type byte + 3 payload bytes
  EXPECT_EQ(out[4], static_cast<std::uint8_t>(FrameType::kPing));
  EXPECT_EQ(std::memcmp(out.data() + 5, "abc", 3), 0);

  // Frames append; the writer never truncates a batched reply.
  append_frame(out, FrameType::kDone, std::string_view(""));
  EXPECT_EQ(out.size(), 8u + 4u + 1u);
}

TEST(ServeProtocol, RunRequestRoundTrips) {
  ExperimentConfig cfg = small_cfg();
  cfg.storage.num_io_nodes = 5;
  cfg.compile.sched.delta = 17;
  cfg.compile.sched.theta = 3;
  cfg.max_slack = 123;
  cfg.scale.factor = 0.3;
  cfg.audit = true;
  // Above 2^32: a seed must cross whole, not through a 32-bit int.
  cfg.seed = (std::uint64_t{1} << 32) + 7;

  std::string text;
  format_run_request(cfg, text);

  ExperimentConfig got;
  parse_run_request(text, got);
  EXPECT_TRUE(got.audit);

  // Round-tripping the parsed config must reproduce the same wire text:
  // format∘parse is the identity on the wire representation.
  std::string text2;
  format_run_request(got, text2);
  EXPECT_EQ(text, text2);

  EXPECT_EQ(got.app, "sar");
  EXPECT_EQ(got.policy, PolicyKind::kHistory);
  EXPECT_EQ(got.storage.num_io_nodes, 5);
  EXPECT_EQ(got.compile.sched.delta, 17);
  EXPECT_EQ(got.compile.sched.theta, 3);
  EXPECT_EQ(got.seed, (std::uint64_t{1} << 32) + 7);
  // scale.factor crosses as %.17g — bit-exact for doubles.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.scale.factor),
            std::bit_cast<std::uint64_t>(0.3));
}

TEST(ServeProtocol, RunRequestParseReusesConfigAndResets) {
  ExperimentConfig req;
  std::string text;
  ExperimentConfig cfg = small_cfg();
  cfg.telemetry.level = TraceLevel::kRequest;
  format_run_request(cfg, text);
  parse_run_request(text, req);
  ASSERT_EQ(req.telemetry.level, TraceLevel::kRequest);

  // A second parse without trace_level= must reset to defaults, not inherit
  // the previous request's value (the config object is reused for
  // allocation reasons, never for state).
  ExperimentConfig plain = small_cfg();
  format_run_request(plain, text);
  ASSERT_EQ(text.find("trace_level="), std::string::npos);
  parse_run_request(text, req);
  EXPECT_EQ(req.telemetry.level, TraceLevel::kOff);
}

TEST(ServeProtocol, UnknownKeyAndBadValueThrowConfigErrorWithField) {
  ExperimentConfig req;
  try {
    parse_run_request("app=sar\nbogus_knob=1\n", req);
    FAIL() << "unknown key accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "bogus_knob");
  }
  try {
    // Protocol version 1 carried a lane placement key; version 2 has one
    // placement only, so a stale frame must fail loudly, naming the key.
    parse_run_request("app=sar\nlane_assign=balanced\n", req);
    FAIL() << "retired lane_assign key accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "lane_assign");
    EXPECT_NE(std::string(e.what()).find("lane_assign"), std::string::npos);
  }
  try {
    // Protocol version 3 retired the engine selector along with the sharded
    // engine; a version-2 frame carrying it must fail loudly, naming the key.
    parse_run_request("app=sar\nshards=2\n", req);
    FAIL() << "retired shards key accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "shards");
    EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos);
  }
  try {
    parse_run_request("app=sar\nprocs=notanumber\n", req);
    FAIL() << "bad int accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "procs");
  }
  try {
    parse_run_request("app=sar\npolicy=imaginary\n", req);
    FAIL() << "bad policy accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "policy");
  }
  // Integer fields are range-checked, never narrowed: 2^32 + 8 is not 8.
  try {
    parse_run_request("app=sar\nprocs=4294967304\n", req);
    FAIL() << "procs overflow accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "procs");
  }
  try {
    parse_run_request("app=sar\nseed=-1\n", req);
    FAIL() << "negative seed accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "seed");
  }
  // Sweep axes are integer fields: a fractional or out-of-range value is
  // rejected, not truncated into a cell that its label misdescribes.
  ExperimentGrid grid;
  for (const char* bad : {"sweep=nodes:2.5,2\n", "sweep=theta:1e20\n"}) {
    try {
      parse_grid_request(
          std::string("app=sar\napps=sar\npolicies=default\nschemes=1\n") +
              bad,
          grid);
      FAIL() << "sweep value accepted: " << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), "sweep") << bad;
    }
  }
}

TEST(ServeProtocol, GridRequestRoundTrips) {
  ExperimentGrid grid;
  grid.base = small_cfg();
  grid.apps = {"sar", "hf"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  grid.sweep = sweep_axis_by_name("delta", {10.0, 20.0, 40.0});
  grid.base_seed = 99;
  grid.derive_seeds = true;

  std::string text;
  format_grid_request(grid, text);

  ExperimentGrid parsed;
  parse_grid_request(text, parsed);
  EXPECT_EQ(parsed.base.audit, grid.base.audit);

  // The parsed grid must expand to the *same cells*: same labels, same
  // derived seeds, same per-cell wire configs.
  const std::vector<GridCell> want = grid.cells();
  const std::vector<GridCell> got = parsed.cells();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 2u * 2u * 2u * 3u);
  std::string a, b;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].app, want[i].app);
    EXPECT_EQ(got[i].policy, want[i].policy);
    EXPECT_EQ(got[i].scheme, want[i].scheme);
    EXPECT_EQ(got[i].sweep_name, want[i].sweep_name);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].sweep_value),
              std::bit_cast<std::uint64_t>(want[i].sweep_value));
    EXPECT_EQ(got[i].config.seed, want[i].config.seed);
    format_run_request(want[i].config, a);
    format_run_request(got[i].config, b);
    EXPECT_EQ(a, b) << "cell " << i << " config diverged over the wire";
  }
}

TEST(ServeProtocol, RequestTextIsPinned) {
  // The literal wire text: a change here is a protocol change and needs a
  // kProtocolVersion bump.
  ExperimentConfig cfg = small_cfg();
  cfg.audit = false;
  std::string text;
  format_run_request(cfg, text);
  EXPECT_EQ(text,
            "app=sar\npolicy=history\nscheme=1\nprocs=4\n"
            "scale=0.10000000000000001\nnodes=8\ndelta=20\ntheta=4\n"
            "buffer_mib=128\ncache_mib=64\nseed=7\nslack=600\naudit=0\n");

  cfg.audit = true;
  cfg.telemetry.level = TraceLevel::kRequest;
  cfg.telemetry.dir = "t/d";
  format_run_request(cfg, text);
  EXPECT_EQ(text,
            "app=sar\npolicy=history\nscheme=1\nprocs=4\n"
            "scale=0.10000000000000001\nnodes=8\ndelta=20\ntheta=4\n"
            "buffer_mib=128\ncache_mib=64\nseed=7\nslack=600\naudit=1\n"
            "trace_level=request\ntrace_dir=t/d\n");

  ExperimentGrid grid;
  grid.base = small_cfg();
  grid.base.audit = false;
  grid.apps = {"sar", "hf"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kStaggered};
  grid.schemes = {false, true};
  grid.sweep = sweep_axis_by_name("theta", {0, 4});
  grid.base_seed = 99;
  format_grid_request(grid, text);
  const std::string base_text =
      "app=sar\npolicy=history\nscheme=1\nprocs=4\n"
      "scale=0.10000000000000001\nnodes=8\ndelta=20\ntheta=4\n"
      "buffer_mib=128\ncache_mib=64\nseed=99\nslack=600\naudit=0\n"
      "apps=sar,hf\npolicies=default,staggered\nschemes=0,1\n";
  EXPECT_EQ(text, base_text + "sweep=theta:0,4\nderive_seeds=1\n");

  grid.sweep = {};
  grid.derive_seeds = false;
  format_grid_request(grid, text);
  EXPECT_EQ(text, base_text + "derive_seeds=0\n");
}

TEST(ServeProtocol, GridRequestRequiresAxes) {
  ExperimentGrid req;
  try {
    parse_grid_request("app=sar\napps=sar\npolicies=default\n", req);
    FAIL() << "missing schemes= accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "grid");  // "grid needs apps=, policies=, schemes="
  }
  try {
    parse_grid_request(
        "app=sar\napps=sar\npolicies=default\nschemes=1\n"
        "sweep=imaginary:1,2\n",
        req);
    FAIL() << "unknown sweep axis accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "sweep");
  }
}

TEST(ServeProtocol, ResultCodecIsBitExact) {
  // A real run gives the codec real payload: populated histograms,
  // non-trivial doubles, per-field stats.
  ExperimentWorkspace ws;
  const ExperimentResult& r = ws.run(small_cfg());
  ASSERT_GT(r.events, 0);

  CellHeader cell;
  cell.index = 3;
  cell.has_sweep = true;
  cell.sweep_name = "delta";
  cell.sweep_value = 0.1 + 0.2;  // not exactly 0.3: rounding would show

  std::vector<std::uint8_t> wire;
  serialize_result(cell, r, wire);

  CellHeader cell2;
  ExperimentResult r2;
  deserialize_result(wire, cell2, r2);

  EXPECT_EQ(cell2.index, 3u);
  EXPECT_TRUE(cell2.has_sweep);
  EXPECT_EQ(cell2.sweep_name, "delta");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cell2.sweep_value),
            std::bit_cast<std::uint64_t>(cell.sweep_value));
  EXPECT_EQ(r2.app, r.app);
  EXPECT_EQ(r2.exec_time.count(), r.exec_time.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r2.energy_j.value()),
            std::bit_cast<std::uint64_t>(r.energy_j.value()));
  EXPECT_EQ(r2.events, r.events);

  // The authoritative check: re-serializing the decoded result must
  // reproduce every byte, histograms included.
  std::vector<std::uint8_t> wire2;
  serialize_result(cell2, r2, wire2);
  EXPECT_EQ(wire, wire2);
}

TEST(ServeProtocol, ResultCodecRejectsTruncationAndTrailingGarbage) {
  ExperimentWorkspace ws;
  const ExperimentResult& r = ws.run(small_cfg());
  std::vector<std::uint8_t> wire;
  serialize_result(CellHeader{}, r, wire);

  CellHeader cell;
  ExperimentResult out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, wire.size() / 2,
                          wire.size() - 1}) {
    std::vector<std::uint8_t> trunc(wire.begin(),
                                    wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(deserialize_result(trunc, cell, out), ProtocolError)
        << "accepted a result truncated to " << cut << " bytes";
  }
  std::vector<std::uint8_t> padded = wire;
  padded.push_back(0);
  EXPECT_THROW(deserialize_result(padded, cell, out), ProtocolError);
}

TEST(ServeProtocol, ResultCodecRejectsBadHistogramEdges) {
  // The decoder rebuilds histograms whose lookups assume sorted, finite
  // edges; a frame breaking that is a protocol error, not a histogram.
  const std::vector<std::vector<double>> bad = {
      {5.0, 1.0},
      {5.0, 5.0},
      {1.0, std::nan(""), 9.0},
      {-std::numeric_limits<double>::infinity()},
  };
  for (const std::vector<double>& edges : bad) {
    ExperimentResult r;
    r.storage.idle_periods = DurationHistogram(edges);
    std::vector<std::uint8_t> wire;
    serialize_result(CellHeader{}, r, wire);
    CellHeader cell;
    ExperimentResult out;
    EXPECT_THROW(deserialize_result(wire, cell, out), ProtocolError)
        << "accepted edges starting " << edges.front();
  }
  ExperimentResult ok;
  ok.storage.idle_periods = DurationHistogram({1.0, 5.0});
  std::vector<std::uint8_t> wire;
  serialize_result(CellHeader{}, ok, wire);
  CellHeader cell;
  ExperimentResult out;
  EXPECT_NO_THROW(deserialize_result(wire, cell, out));
}

/// FNV-1a over a byte string: the golden digests below pin whole frames.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::span<const std::uint8_t> bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

DurationHistogram histogram(std::vector<double> edges, double first_sample) {
  DurationHistogram h(std::move(edges));
  h.add_msec(first_sample);
  h.add_msec(first_sample * 7.5);
  h.add_msec(1e9);  // the overflow bucket
  return h;
}

/// A result whose every wire field differs from its default and from every
/// other field, so a dropped, swapped or resized field changes the bytes.
ExperimentResult every_field_set() {
  std::int64_t n = 1000;
  const auto next = [&n] { return n += 17; };
  ExperimentResult r;
  r.app = "golden-app";
  r.policy = PolicyKind::kStaggered;
  r.scheme = true;
  r.exec_time = SimTime{next()};
  r.energy_j = Joules{1234.5 + 1.0 / 3.0};
  r.events = next();
  r.audited = true;
  r.audit_violations = next();
  StorageStats& st = r.storage;
  st.energy_j = Joules{987.25 + 1.0 / 7.0};
  st.requests = next();
  st.disk_requests = next();
  st.spin_downs = next();
  st.spin_ups = next();
  st.rpm_changes = next();
  st.cache_hit_rate = 0.1 + 0.2;
  st.idle_periods = histogram({5, 50, 500}, 3.25);
  for (int k = 0; k < 2; ++k) {
    IoNodeStats node;
    node.energy_j = Joules{100.0 * (k + 1) + 1.0 / 9.0};
    node.requests = next();
    node.disk_requests = next();
    node.spin_downs = next();
    node.spin_ups = next();
    node.rpm_changes = next();
    node.cache.hits = next();
    node.cache.misses = next();
    node.cache.insertions = next();
    node.cache.evictions = next();
    node.cache.invalidations = next();
    node.idle_periods = histogram({10.0 * (k + 1), 1000}, 2.5 + k);
    st.per_node.push_back(std::move(node));
  }
  RuntimeStats& rt = r.runtime;
  rt.buffer_hits = next();
  rt.in_flight_hits = next();
  rt.direct_reads = next();
  rt.writes = next();
  rt.prefetches = next();
  rt.skipped_min_lead = next();
  rt.buffer.reservations = next();
  rt.buffer.full_rejections = next();
  rt.buffer.consumed = next();
  rt.buffer.consumed_in_flight = next();
  rt.buffer.wasted = next();
  rt.buffer.peak_bytes = Bytes{next()};
  r.sched.scheduled = next();
  r.sched.forced = next();
  r.sched.theta_fallbacks = next();
  r.sched.mean_advance_slots = 2.0 / 3.0;
  return r;
}

TEST(ServeProtocol, ResultFrameBytesArePinned) {
  // A layout change that the encoder and decoder make together still
  // round-trips; only a golden catches it.  A change here is a protocol
  // change and needs a kProtocolVersion bump.
  CellHeader cell;
  cell.index = 7;
  cell.has_sweep = true;
  cell.sweep_name = "theta";
  cell.sweep_value = 0.1 + 0.2;
  std::vector<std::uint8_t> wire;
  serialize_result(cell, every_field_set(), wire);
  EXPECT_EQ(wire.size(), 627u);
  EXPECT_EQ(fnv1a(wire), 0x8f5c576913ac456ULL);

  CellHeader cell2;
  ExperimentResult back;
  deserialize_result(wire, cell2, back);
  std::vector<std::uint8_t> again;
  serialize_result(cell2, back, again);
  EXPECT_EQ(again, wire);
}

TEST(ServeProtocol, UploadHeaderBytesArePinned) {
  // The client's trace-upload frame for non-default options, captured by a
  // one-shot listener that answers the hello and the upload.
  Listener listener = Listener::open("tcp:0");
  std::string captured;
  std::thread peer([&] {
    Socket s = listener.accept(/*timeout_ms=*/10'000);
    ASSERT_TRUE(s.valid());
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> scratch;
    FrameType type{};
    ASSERT_EQ(read_frame(s, 10'000, type, payload), Socket::IoStatus::kOk);
    ASSERT_EQ(type, FrameType::kHello);
    ASSERT_TRUE(
        write_frame(s, FrameType::kHelloOk, bytes("version=3\ntenant=1\n"),
                    scratch));
    ASSERT_EQ(read_frame(s, 10'000, type, payload), Socket::IoStatus::kOk);
    ASSERT_EQ(type, FrameType::kTraceUpload);
    captured.assign(payload.begin(), payload.end());
    ASSERT_TRUE(write_frame(
        s, FrameType::kTraceOk,
        bytes("app=replay:1\nprocs=2\nfiles=3\nrecords=4\n"), scratch));
  });
  ReplayOptions opts;
  opts.format = TraceFormat::kBlk;
  opts.slot_us = 5000;
  opts.min_compute_us = 250;
  opts.max_compute_us = 9'000'000;
  opts.granularity = 3;
  opts.seed = (std::uint64_t{1} << 40) + 7;
  opts.jitter_frac = 0.1 + 0.2;
  {
    ServeClient client = ServeClient::connect(listener.address());
    const ServeClient::UploadReply reply =
        client.upload_trace("0,0,0,4096,R\n", "dev.blk", opts);
    EXPECT_EQ(reply.app, "replay:1");
    EXPECT_EQ(reply.procs, 2);
    EXPECT_EQ(reply.files, 3);
    EXPECT_EQ(reply.records, 4);
  }
  peer.join();
  EXPECT_EQ(captured,
            "format=blk\nslot_us=5000\nmin_compute_us=250\n"
            "max_compute_us=9000000\ngranularity=3\nseed=1099511627783\n"
            "jitter=0.30000000000000004\nname=dev.blk\n\n0,0,0,4096,R\n");
}

TEST(ServeProtocol, ErrorRoundTripsAndFoldsNewlines) {
  ErrorInfo info;
  info.kind = "trace";
  info.field = "bytes";
  info.message = "bad.csv:2: field 'bytes': op size must be > 0\nsecond line";
  std::string text;
  format_error(info, text);
  const ErrorInfo back = parse_error(text);
  EXPECT_EQ(back.kind, "trace");
  EXPECT_EQ(back.field, "bytes");
  // The line-oriented encoding folds embedded newlines to spaces rather
  // than corrupting the key=value framing.
  EXPECT_NE(back.message.find("second line"), std::string::npos);
  EXPECT_EQ(back.message.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace dasched::serve
