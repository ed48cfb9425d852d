#include <gtest/gtest.h>

#include <filesystem>
#include <cmath>

#include "acquisition/acquisition.hpp"
#include "acquisition/gather.hpp"
#include "acquisition/tau2ti.hpp"
#include "apps/lu.hpp"
#include "apps/ring.hpp"
#include "apps/stencil.hpp"
#include "platform/cluster.hpp"
#include "support/error.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using namespace tir::acq;
namespace fs = std::filesystem;

namespace {

class AcquisitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_acq_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

}  // namespace

TEST_F(AcquisitionTest, RingExtractionReproducesFigure1) {
  // Acquire the paper's Figure 1 program and check the extracted
  // time-independent trace matches the figure line for line.
  AcquisitionSpec spec;
  spec.app = apps::make_ring_app(apps::RingConfig{});
  spec.workdir = dir_;
  const AcquisitionReport report = run_acquisition(spec);
  ASSERT_EQ(report.ti_files.size(), 4u);

  const auto p0 = trace::read_all(report.ti_files[0]);
  ASSERT_EQ(p0.size(), 4u);  // comm_size + the three Figure 1 lines
  EXPECT_EQ(trace::to_line(p0[0]), "p0 comm_size 4");
  EXPECT_EQ(trace::to_line(p0[1]), "p0 compute 1000000");
  EXPECT_EQ(trace::to_line(p0[2]), "p0 send p1 1000000");
  EXPECT_EQ(trace::to_line(p0[3]), "p0 recv p3");

  const auto p2 = trace::read_all(report.ti_files[2]);
  ASSERT_EQ(p2.size(), 4u);
  EXPECT_EQ(trace::to_line(p2[1]), "p2 recv p1");
  EXPECT_EQ(trace::to_line(p2[2]), "p2 compute 1000000");
  EXPECT_EQ(trace::to_line(p2[3]), "p2 send p3 1000000");
}

TEST_F(AcquisitionTest, TauFilesFollowNamingScheme) {
  AcquisitionSpec spec;
  spec.app = apps::make_ring_app(apps::RingConfig{});
  spec.workdir = dir_;
  run_acquisition(spec);
  EXPECT_TRUE(fs::exists(dir_ / "tau" / "tautrace.0.0.0.trc"));
  EXPECT_TRUE(fs::exists(dir_ / "tau" / "events.0.edf"));
  EXPECT_TRUE(fs::exists(dir_ / "tau" / "tautrace.3.0.0.trc"));
  EXPECT_TRUE(fs::exists(dir_ / "ti" / "SG_process0.trace"));
}

TEST_F(AcquisitionTest, IrecvLookupResolvesSources) {
  // The stencil uses Irecv/Isend/Wait exclusively: every extracted Irecv
  // placeholder must have been back-patched with the real source.
  AcquisitionSpec spec;
  apps::StencilConfig cfg;
  cfg.nprocs = 4;
  cfg.grid = 64;
  cfg.iterations = 3;
  spec.app = apps::make_stencil_app(cfg);
  spec.workdir = dir_;
  const AcquisitionReport report = run_acquisition(spec);
  int irecvs = 0, waits = 0;
  for (const auto& file : report.ti_files) {
    for (const auto& action : trace::read_all(file)) {
      if (action.type == trace::ActionType::irecv) {
        EXPECT_GE(action.partner, 0) << "unresolved Irecv source";
        EXPECT_GT(action.volume, 0.0);
        ++irecvs;
      }
      if (action.type == trace::ActionType::wait) ++waits;
    }
  }
  EXPECT_GT(irecvs, 0);
  EXPECT_GE(waits, irecvs);  // each Irecv and Isend gets a wait
}

TEST_F(AcquisitionTest, ReduceVcompComesFromCounterDelta) {
  AcquisitionSpec spec;
  apps::AppDesc app;
  app.name = "reduce-probe";
  app.nprocs = 4;
  app.body = [](mpi::MpiApi& mpi) -> sim::Co<void> {
    co_await mpi.compute(5e6);
    co_await mpi.reduce(4096, 12345.0, 0);
  };
  spec.app = app;
  spec.workdir = dir_;
  const AcquisitionReport report = run_acquisition(spec);
  const auto actions = trace::read_all(report.ti_files[1]);
  bool found = false;
  for (const auto& action : actions) {
    if (action.type == trace::ActionType::reduce) {
      EXPECT_DOUBLE_EQ(action.volume, 4096);
      EXPECT_NEAR(action.volume2, 12345.0, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AcquisitionTest, TracingOverheadIsPositiveButSmall) {
  AcquisitionSpec spec;
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 4;
  cfg.iteration_scale = 0.1;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = dir_;
  const AcquisitionReport report = run_acquisition(spec);
  EXPECT_GT(report.instrumented_time, report.app_time);
  EXPECT_LT(report.tracing_overhead, report.app_time);  // not dominating
  EXPECT_GT(report.extraction_wall, 0.0);
  EXPECT_GT(report.gather_time, 0.0);
}

TEST_F(AcquisitionTest, TiTracesAreMuchSmallerThanTau) {
  // Table 3's headline: time-independent traces ~10x smaller than TAU's.
  AcquisitionSpec spec;
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 8;
  cfg.iteration_scale = 0.2;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = dir_;
  const AcquisitionReport report = run_acquisition(spec);
  EXPECT_GT(report.tau_bytes, 4 * report.ti_bytes);
  EXPECT_GT(report.actions, 1000u);
}

TEST_F(AcquisitionTest, FoldingUsesFewerNodesAndRunsSlower) {
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::W;
  cfg.nprocs = 8;
  cfg.iteration_scale = 0.02;

  AcquisitionSpec regular;
  regular.app = apps::make_lu_app(cfg);
  regular.workdir = dir_ / "regular";
  const AcquisitionReport r = run_acquisition(regular);
  EXPECT_EQ(r.mode, "R");
  EXPECT_EQ(r.nodes_used, 8);

  AcquisitionSpec folded = regular;
  folded.mode = Mode::folding;
  folded.folding = 4;
  folded.workdir = dir_ / "folded";
  const AcquisitionReport f = run_acquisition(folded);
  EXPECT_EQ(f.mode, "F-4");
  EXPECT_EQ(f.nodes_used, 2);
  // Folding shares the CPUs; at this small scale part of the slowdown is
  // absorbed by wavefront idle time, so the ratio sits between ~1.7 and
  // the folding factor (Table 2's compute-dominated instances get closer
  // to x — that is exercised by bench_table2_modes).
  EXPECT_GT(f.instrumented_time / r.instrumented_time, 1.6);
  EXPECT_LT(f.instrumented_time / r.instrumented_time, 4.5);
}

TEST_F(AcquisitionTest, ScatteringCrossesTheWan) {
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 8;
  cfg.iteration_scale = 0.1;

  AcquisitionSpec regular;
  regular.app = apps::make_lu_app(cfg);
  regular.workdir = dir_ / "regular";
  const AcquisitionReport r = run_acquisition(regular);

  AcquisitionSpec scattered = regular;
  scattered.mode = Mode::scattering;
  scattered.workdir = dir_ / "scattered";
  const AcquisitionReport s = run_acquisition(scattered);
  EXPECT_EQ(s.mode, "S-2");
  // Scattering is slower (WAN latency + the slower gdx cluster) but, per
  // the paper, the overhead stays below the number of sites.
  EXPECT_GT(s.instrumented_time, r.instrumented_time);
}

TEST_F(AcquisitionTest, ExtractedVolumesAreModeIndependent) {
  // The key claim of the paper: the time-independent trace does not depend
  // on the acquisition scenario. Byte-compare the extracted traces.
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 4;
  cfg.iteration_scale = 0.1;

  AcquisitionSpec a;
  a.app = apps::make_lu_app(cfg);
  a.workdir = dir_ / "a";
  const AcquisitionReport ra = run_acquisition(a);

  AcquisitionSpec b = a;
  b.mode = Mode::folding;
  b.folding = 4;
  b.workdir = dir_ / "b";
  const AcquisitionReport rb = run_acquisition(b);

  for (std::size_t p = 0; p < ra.ti_files.size(); ++p) {
    const auto ta = trace::read_all(ra.ti_files[p]);
    const auto tb = trace::read_all(rb.ti_files[p]);
    EXPECT_EQ(ta, tb) << "trace of process " << p
                      << " differs between R and F-4";
  }
}

TEST_F(AcquisitionTest, ModeLabelsMatchTable2) {
  EXPECT_EQ(mode_label(Mode::regular, 1), "R");
  EXPECT_EQ(mode_label(Mode::folding, 8), "F-8");
  EXPECT_EQ(mode_label(Mode::scattering, 1), "S-2");
  EXPECT_EQ(mode_label(Mode::scatter_folding, 16), "SF-(2,16)");
}

TEST_F(AcquisitionTest, PlatformBuilderValidatesArguments) {
  EXPECT_THROW(build_acquisition_platform(Mode::regular, 0, 1), tir::Error);
  EXPECT_THROW(build_acquisition_platform(Mode::regular, 4, 2), tir::Error);
  EXPECT_THROW(build_acquisition_platform(Mode::folding, 4, 0), tir::Error);
  const auto ap = build_acquisition_platform(Mode::scatter_folding, 16, 4);
  EXPECT_EQ(ap.node_hosts.size(), 4u);
  EXPECT_EQ(ap.rank_hosts.size(), 16u);
}

// ---------------------------------------------------------------------------
// K-nomial gather.
// ---------------------------------------------------------------------------

TEST(Gather, PlanStepsAreLogarithmic) {
  // log_{K+1}(N) steps (paper §4.3).
  for (const int arity : {1, 2, 4}) {
    const std::vector<std::uint64_t> files(64, 1000);
    const GatherPlan plan = plan_knomial_gather(files, arity);
    const double expected =
        std::ceil(std::log(64.0) / std::log(arity + 1.0) - 1e-9);
    EXPECT_EQ(plan.steps, static_cast<int>(expected)) << "arity " << arity;
  }
}

TEST(Gather, EveryByteReachesTheRoot) {
  const std::vector<std::uint64_t> files{10, 20, 30, 40, 50, 60, 70};
  const GatherPlan plan = plan_knomial_gather(files, 2);
  // Rank 0 never sends; every other rank sends at least its own file.
  EXPECT_EQ(plan.bytes_sent[0], 0u);
  std::uint64_t direct_to_root = 0;
  for (std::size_t r = 1; r < files.size(); ++r)
    EXPECT_GE(plan.bytes_sent[r], files[r]);
  (void)direct_to_root;
}

TEST(Gather, SimulatedGatherScalesWithFileCount) {
  plat::Platform p;
  const auto hosts = plat::build_bordereau(p, 64);
  const std::vector<int> nodes8(hosts.begin(), hosts.begin() + 8);
  const std::vector<int> nodes64(hosts.begin(), hosts.begin() + 64);
  const double t8 =
      simulate_gather(p, nodes8, std::vector<std::uint64_t>(8, 1 << 20), 4);
  const double t64 =
      simulate_gather(p, nodes64, std::vector<std::uint64_t>(64, 1 << 20), 4);
  EXPECT_GT(t8, 0.0);
  EXPECT_GT(t64, t8);  // deeper tree, more data into the root
}

TEST(Gather, SingleFileIsFree) {
  plat::Platform p;
  const auto hosts = plat::build_bordereau(p, 2);
  EXPECT_DOUBLE_EQ(simulate_gather(p, {hosts[0]}, {12345}, 4), 0.0);
}

TEST(Gather, RejectsBadArguments) {
  EXPECT_THROW(plan_knomial_gather({}, 4), tir::Error);
  EXPECT_THROW(plan_knomial_gather({1, 2}, 0), tir::Error);
  plat::Platform p;
  const auto hosts = plat::build_bordereau(p, 2);
  EXPECT_THROW(simulate_gather(p, {hosts[0]}, {1, 2}, 4), tir::Error);
}
