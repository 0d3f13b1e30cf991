#include "workload/app.h"

#include <deque>
#include <mutex>
#include <stdexcept>

#include "compiler/loop_program.h"
#include "compiler/lower.h"
#include "compiler/trace_builder.h"
#include "util/rng.h"

namespace dasched {

namespace {

using AE = AffineExpr;

AE v(const char* name) { return AE::var(name); }

/// A compute-only phase of `usec` microseconds occupying one slot — the
/// inter-phase idle gaps that give power policies something to exploit.
Stmt phase(SimTime usec) {
  return make_loop("_ph", 0, 0, {make_compute(AE(usec.count()))}, /*slot_loop=*/true);
}

/// An I/O step at the paper's iteration granularity: the I/O call (plus a
/// share of the compute) occupies one slot, followed by `pads` compute-only
/// slots.  Iterations without I/O are what give the scheduler room to hoist
/// and cluster accesses — with one access in every slot, the
/// one-access-per-process-per-slot rule would force the identity schedule.
Stmt step(StmtList body, SimTime pad_usec = 0, int pads = 3) {
  StmtList outer;
  outer.push_back(make_loop("_s", 0, 0, std::move(body), /*slot_loop=*/true));
  if (pads > 0 && pad_usec > 0) {
    outer.push_back(make_loop("_pad", 0, pads - 1,
                              {make_compute(AE(pad_usec.count()))},
                              /*slot_loop=*/true));
  }
  return make_loop("_g", 0, 0, std::move(outer), /*slot_loop=*/false);
}

// ---------------------------------------------------------------------------
// hf — Hartree-Fock method.  Iterative SCF: every iteration re-reads the
// two-electron integral file (row- and column-ordered passes) and a partner
// process's density block, then runs a short diagonalization and updates its
// own density block.  Dense millisecond-gap read bursts, a ~3 s
// diagonalization per iteration, and two ~110/60 s restart phases.
// ---------------------------------------------------------------------------
CompiledProgram build_hf(StripingMap& striping, const WorkloadScale& s) {
  const std::int64_t B = s.scaled(300);
  const std::int64_t iters_per_stage = s.scaled(2);
  const std::int64_t P = s.num_processes;
  const std::int64_t rk = kib(128).count();  // integral block
  const std::int64_t dk = kib(128).count();  // density block

  const FileId f_int = striping.create_file("hf.integrals", P * B * rk);
  const FileId f_intT = striping.create_file("hf.integrals_T", P * B * rk);
  const FileId f_dens = striping.create_file("hf.density", P * dk);

  auto scf_stage = [&](StmtList& body) {
    body.push_back(make_loop(
        "i", 0, AE(iters_per_stage - 1),
        {
            make_loop(
                "b", 0, AE(B - 1),
                {
                    // Row pass: process-contiguous.
                    step({make_read(f_int, v("p") * (B * rk) + v("b") * rk, rk),
                          make_compute(AE(3'000) + v("p") * 37)},
                         2'000),
                    // Column pass: interleaved across processes.
                    step({make_read(f_intT, v("b") * (P * rk) + v("p") * rk, rk),
                          make_compute(AE(3'000) + v("p") * 23)},
                         2'000),
                    // Partner density block, produced last iteration by
                    // process P-1-p (affine inter-process dependence).
                    step({make_read(f_dens, AE((P - 1) * dk) - v("p") * dk, dk),
                          make_compute(AE(3'000))},
                         2'000),
                },
                /*slot_loop=*/false),
            // Diagonalization, then the density update closing the iteration.
            step({make_compute(AE(40'000)),
                  make_write(f_dens, v("p") * dk, dk)}),
        },
        /*slot_loop=*/false));
  };

  LoopProgram prog;
  scf_stage(prog.body);
  prog.body.push_back(phase(sec(20.0)));  // basis re-orthogonalization
  scf_stage(prog.body);
  prog.body.push_back(phase(sec(220.0)));  // checkpoint / restart
  scf_stage(prog.body);
  prog.body.push_back(phase(sec(20.0)));
  scf_stage(prog.body);
  prog.body.push_back(phase(sec(160.0)));  // second checkpoint
  scf_stage(prog.body);
  prog.body.push_back(phase(sec(20.0)));
  scf_stage(prog.body);
  return lower(prog, s.num_processes);
}

// ---------------------------------------------------------------------------
// sar — synthetic aperture radar kernel.  Frame pipeline: a streaming burst
// of swath reads per frame, a ~2 s image-formation gap, then result writes;
// two ~100/60 s calibration phases.
// ---------------------------------------------------------------------------
CompiledProgram build_sar(StripingMap& striping, const WorkloadScale& s) {
  const std::int64_t F = s.scaled(24);
  const std::int64_t S = 80;  // swaths per frame
  const std::int64_t W = 10;  // image-write slots per frame
  const std::int64_t P = s.num_processes;
  const std::int64_t swath = kib(256).count();
  const std::int64_t cal = kib(64).count();
  const std::int64_t img = kib(256).count();

  const FileId f_raw = striping.create_file("sar.raw", P * F * S * swath);
  const FileId f_cal = striping.create_file("sar.cal", P * cal);
  const FileId f_img = striping.create_file("sar.img", P * F * W * img);

  auto frames = [&](StmtList& body, std::int64_t lo, std::int64_t hi) {
    body.push_back(make_loop(
        "f", AE(lo), AE(hi),
        {
            make_loop("s", 0, AE(S - 1),
                      {
                          step({make_read(f_raw,
                                          v("p") * (F * S * swath) +
                                              v("f") * (S * swath) +
                                              v("s") * swath,
                                          swath),
                                make_compute(AE(4'000) + v("p") * 23)},
                               2'000),
                          step({make_read(f_cal, v("p") * cal, cal),
                                make_compute(AE(3'000))},
                               1'500),
                      },
                      /*slot_loop=*/false),
            phase(msec(45.0)),  // image formation hand-off
            make_loop("w", 0, AE(W - 1),
                      {
                          make_write(f_img,
                                     v("p") * (F * W * img) + v("f") * (W * img) +
                                         v("w") * img,
                                     img),
                          make_compute(AE(8'000)),
                      },
                      /*slot_loop=*/true),
        },
        /*slot_loop=*/false));
  };

  LoopProgram prog;
  frames(prog.body, 0, F / 4 - 1);
  prog.body.push_back(phase(sec(20.0)));  // geolocation update
  frames(prog.body, F / 4, F / 2 - 1);
  prog.body.push_back(phase(sec(220.0)));  // antenna recalibration
  frames(prog.body, F / 2, 3 * F / 4 - 1);
  prog.body.push_back(phase(sec(20.0)));
  frames(prog.body, 3 * F / 4, F - 1);
  prog.body.push_back(phase(sec(170.0)));  // final mosaicking
  return lower(prog, s.num_processes);
}

// ---------------------------------------------------------------------------
// astro — analysis of astronomical data.  Epoch scans of a column-major
// time-series cube (the 4 MiB inter-sample stride pins each process to a
// fixed I/O-node set: strong vertical reuse), a ~4 s model fit per epoch and
// one ~110 s cross-matching phase mid-run.
// ---------------------------------------------------------------------------
CompiledProgram build_astro(StripingMap& striping, const WorkloadScale& s) {
  const std::int64_t E = s.scaled(32);
  const std::int64_t T = 100;  // samples per epoch
  const std::int64_t P = s.num_processes;
  const std::int64_t samp = kib(128).count();
  const std::int64_t hdr = kib(64).count();
  const std::int64_t out = kib(64).count();

  const FileId f_ts = striping.create_file("astro.timeseries", E * T * P * samp);
  const FileId f_hdr = striping.create_file("astro.catalog", P * hdr);
  const FileId f_out = striping.create_file("astro.results", P * E * out);

  auto epochs = [&](StmtList& body, std::int64_t lo, std::int64_t hi) {
    body.push_back(make_loop(
        "e", AE(lo), AE(hi),
        {
            make_loop("t", 0, AE(T - 1),
                      {
                          // Stride P*samp between consecutive t: the same
                          // node set every slot.
                          step({make_read(f_ts,
                                          v("e") * (T * P * samp) +
                                              v("t") * (P * samp) +
                                              v("p") * samp,
                                          samp),
                                make_compute(AE(4'000) + v("p") * 41)},
                               2'500),
                          step({make_read(f_hdr, v("p") * hdr, hdr),
                                make_compute(AE(3'000))},
                               1'500),
                      },
                      /*slot_loop=*/false),
            // Model fit, then the epoch's result record.
            step({make_compute(AE(40'000)),
                  make_write(f_out, v("p") * (E * out) + v("e") * out, out)}),
        },
        /*slot_loop=*/false));
  };

  LoopProgram prog;
  epochs(prog.body, 0, E / 4 - 1);
  prog.body.push_back(phase(sec(20.0)));  // period-folding checkpoint
  epochs(prog.body, E / 4, E / 2 - 1);
  prog.body.push_back(phase(sec(240.0)));  // catalog cross-matching
  epochs(prog.body, E / 2, 3 * E / 4 - 1);
  prog.body.push_back(phase(sec(20.0)));
  epochs(prog.body, 3 * E / 4, E - 1);
  return lower(prog, s.num_processes);
}

// ---------------------------------------------------------------------------
// apsi — pollutant distribution modeling.  Out-of-core plane sweeps over a
// 3-D grid: each time step re-reads the planes it wrote in the previous step
// (bounded producer-consumer slacks of ~2K slots) plus sequential forcing
// data, then a ~5 s chemistry gap; two ~100/70 s radiation phases.
// ---------------------------------------------------------------------------
CompiledProgram build_apsi(StripingMap& striping, const WorkloadScale& s) {
  const std::int64_t T = s.scaled(18);
  const std::int64_t K = 80;  // planes
  const std::int64_t P = s.num_processes;
  const std::int64_t plane = kib(192).count();
  const std::int64_t flux = kib(64).count();

  const FileId f_grid = striping.create_file("apsi.grid", K * P * plane);
  const FileId f_flux = striping.create_file("apsi.forcing", T * K * flux);

  auto steps = [&](StmtList& body, std::int64_t lo, std::int64_t hi) {
    body.push_back(make_loop(
        "t", AE(lo), AE(hi),
        {
            make_loop(
                "k", 0, AE(K - 1),
                {
                    step({make_read(f_grid,
                                    v("k") * (P * plane) + v("p") * plane,
                                    plane),
                          make_compute(AE(4'000) + v("p") * 29)},
                         2'000),
                    step({make_read(f_flux, v("t") * (K * flux) + v("k") * flux,
                                    flux),
                          make_compute(AE(3'000)),
                          make_write(f_grid,
                                     v("k") * (P * plane) + v("p") * plane,
                                     plane)},
                         1'500),
                },
                /*slot_loop=*/false),
            phase(msec(45.0)),  // chemistry hand-off
        },
        /*slot_loop=*/false));
  };

  LoopProgram prog;
  steps(prog.body, 0, T / 6 - 1);
  prog.body.push_back(phase(sec(20.0)));  // aerosol update
  steps(prog.body, T / 6, T / 3 - 1);
  prog.body.push_back(phase(sec(200.0)));  // radiation
  steps(prog.body, T / 3, T / 2 - 1);
  prog.body.push_back(phase(sec(20.0)));
  steps(prog.body, T / 2, 2 * T / 3 - 1);
  prog.body.push_back(phase(sec(160.0)));  // second radiation pass
  steps(prog.body, 2 * T / 3, 5 * T / 6 - 1);
  prog.body.push_back(phase(sec(20.0)));
  steps(prog.body, 5 * T / 6, T - 1);
  return lower(prog, s.num_processes);
}

// ---------------------------------------------------------------------------
// madbench2 — cosmic microwave background radiation calculation.  Phased
// matrix pipeline: write-out, a ~15 s compute-only phase, then read-back of
// the matrices written earlier (finite cross-phase slacks).  Data-dependent
// jitter makes the nest non-affine, so this app is recorded through the
// profiling front end.
// ---------------------------------------------------------------------------
CompiledProgram build_madbench2(StripingMap& striping, const WorkloadScale& s) {
  const std::int64_t G = s.scaled(4);
  const std::int64_t Wslots = 60;
  const std::int64_t Sslots = 1;  // compute-only slots per phase
  const std::int64_t Cslots = 120;
  const int P = s.num_processes;
  const Bytes chunk = kib(256);

  const Bytes per_proc = G * Wslots * 2 * chunk;
  const FileId f_mat = striping.create_file("madbench2.matrices",
                                            P * per_proc);

  TraceBuilder tb(P);
  Rng rng(0x6d616462ULL);
  for (std::int64_t g = 0; g < G; ++g) {
    if (g == G / 2) {
      // Mid-run map-making checkpoint: the one long idle phase.
      for (int p = 0; p < P; ++p) tb.compute(p, sec(170.0));
      tb.end_iteration();
    }
    for (std::int64_t j = 0; j < Wslots; ++j) {
      for (int p = 0; p < P; ++p) {
        for (int c = 0; c < 2; ++c) {
          const Bytes off = p * per_proc +
                            ((g * Wslots + j) * 2 + c) * chunk;
          tb.write(p, f_mat, off, chunk);
        }
        tb.compute(p, 8'000 + static_cast<SimTime>(rng.next_below(6'000)));
      }
      tb.end_iteration();
    }
    for (std::int64_t j = 0; j < Sslots; ++j) {
      for (int p = 0; p < P; ++p) {
        tb.compute(p, 20'000'000 + static_cast<SimTime>(rng.next_below(800'000)));
      }
      tb.end_iteration();
    }
    for (std::int64_t j = 0; j < Cslots; ++j) {
      for (int p = 0; p < P; ++p) {
        const Bytes off = p * per_proc +
                          (g * Wslots * 2 + j) * chunk;
        tb.read(p, f_mat, off, chunk);
        tb.compute(p, 9'000 + static_cast<SimTime>(rng.next_below(8'000)));
        tb.end_slot(p);
      }
    }
  }
  return tb.build();
}

// ---------------------------------------------------------------------------
// wupwise — physics / quantum chromodynamics.  Out-of-core lattice sweeps:
// each sweep streams the (read-only) gauge field and rewrites the spinor
// field it re-reads next sweep, then a ~4 s gauge-fixing gap; two ~130/90 s
// measurement phases.  Largest dataset, longest run.
// ---------------------------------------------------------------------------
CompiledProgram build_wupwise(StripingMap& striping, const WorkloadScale& s) {
  const std::int64_t I = s.scaled(12);
  const std::int64_t C = 320;  // lattice chunks per sweep
  const std::int64_t P = s.num_processes;
  const std::int64_t gk = kib(256).count();
  const std::int64_t sk = kib(128).count();

  const FileId f_gauge = striping.create_file("wupwise.gauge", C * P * gk);
  const FileId f_spin = striping.create_file("wupwise.spinor", P * C * sk);

  auto sweeps = [&](StmtList& body, std::int64_t lo, std::int64_t hi) {
    body.push_back(make_loop(
        "i", AE(lo), AE(hi),
        {
            make_loop(
                "c", 0, AE(C - 1),
                {
                    step({make_read(f_gauge, v("c") * (P * gk) + v("p") * gk,
                                    gk),
                          make_compute(AE(4'000) + v("p") * 31)},
                         2'500),
                    step({make_read(f_spin, v("p") * (C * sk) + v("c") * sk,
                                    sk),
                          make_compute(AE(4'000)),
                          make_write(f_spin, v("p") * (C * sk) + v("c") * sk,
                                     sk)},
                         2'000),
                },
                /*slot_loop=*/false),
            phase(msec(45.0)),  // gauge-fixing hand-off
        },
        /*slot_loop=*/false));
  };

  LoopProgram prog;
  sweeps(prog.body, 0, I / 4 - 1);
  prog.body.push_back(phase(sec(20.0)));  // plaquette averaging
  sweeps(prog.body, I / 4, I / 2 - 1);
  prog.body.push_back(phase(sec(260.0)));  // measurement
  sweeps(prog.body, I / 2, 3 * I / 4 - 1);
  prog.body.push_back(phase(sec(20.0)));
  sweeps(prog.body, 3 * I / 4, I - 1);
  prog.body.push_back(phase(sec(200.0)));  // final measurement
  return lower(prog, s.num_processes);
}

}  // namespace

const std::vector<App>& all_apps() {
  static const std::vector<App> apps = [] {
    std::vector<App> out;
    out.push_back(App{"hf", "Hartree-Fock Method", 27.9, 3'637.4, false,
                      mib(1), /*fixed_processes=*/0, build_hf});
    out.push_back(App{"sar", "Synthetic Aperture Radar Kernel", 11.1, 1'227.3,
                      false, kib(192), /*fixed_processes=*/0, build_sar});
    out.push_back(App{"astro", "Analysis of Astronomical Data", 16.8, 2'837.6,
                      false, mib(1), /*fixed_processes=*/0, build_astro});
    out.push_back(App{"apsi", "Pollutant Distribution Modeling", 13.7, 3'094.1,
                      false, mib(1), /*fixed_processes=*/0, build_apsi});
    out.push_back(App{"madbench2", "Cosmic Microwave Background Radiation",
                      9.8, 1'955.3, true, kib(512), /*fixed_processes=*/0, build_madbench2});
    out.push_back(App{"wupwise", "Physics / Quantum Chromodynamics", 39.8,
                      4'812.1, false, kib(192), /*fixed_processes=*/0, build_wupwise});
    return out;
  }();
  return apps;
}

namespace {

// Registered (dynamic) apps.  A deque gives every entry a stable address —
// register_app hands out references that must survive later registrations —
// and the mutex covers both registration and lookup, so daemon tenants can
// upload traces while other tenants resolve app names.  Function-local
// statics avoid any global-init ordering hazard with all_apps().
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::deque<App>& registered_apps() {
  static std::deque<App> apps;
  return apps;
}

}  // namespace

const App& register_app(App app) {
  for (const App& builtin : all_apps()) {
    if (builtin.name == app.name) {
      throw std::invalid_argument("register_app: '" + app.name +
                                  "' shadows a built-in application");
    }
  }
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const App& existing : registered_apps()) {
    if (existing.name == app.name) return existing;  // first-wins idempotence
  }
  registered_apps().push_back(std::move(app));
  return registered_apps().back();
}

const App& app_by_name(const std::string& name) {
  for (const App& app : all_apps()) {
    if (app.name == name) return app;
  }
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const App& app : registered_apps()) {
      if (app.name == name) return app;
    }
  }
  throw std::out_of_range("unknown application: " + name);
}

}  // namespace dasched
