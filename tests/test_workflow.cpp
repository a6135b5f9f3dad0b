/// Integration tests: verification physics, trainer convergence on real
/// simulated data, rollout, the AI+ROMS fallback workflow, and the
/// data-parallel trainer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/decode.hpp"
#include "core/perfmodel.hpp"
#include "core/rollout.hpp"
#include "core/trainer.hpp"
#include "core/verification.hpp"
#include "core/workflow.hpp"
#include "data/dataset.hpp"
#include "ocean/bathymetry.hpp"

namespace core = coastal::core;
namespace data = coastal::data;
namespace ocean = coastal::ocean;
using coastal::util::Rng;

namespace {

/// Shared fixture state: one simulated archive + dataset + trained model,
/// built once (training even a mini model takes a few seconds).
struct Pipeline {
  ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  ocean::TidalForcing tides = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams params;
  std::vector<data::CenterFields> fields;        // raw (denormalized)
  std::vector<data::CenterFields> fields_norm;   // normalized copy
  data::Dataset dataset;
  std::unique_ptr<core::SurrogateModel> model;
  double archive_t0 = 0.0;

  Pipeline() {
    params.dt = 10.0;
    ocean::generate_estuary(grid, ocean::EstuaryParams{}, 42);
    ocean::ArchiveConfig acfg;
    acfg.spinup_seconds = 2 * 3600.0;
    acfg.duration_seconds = 30 * 3600.0;
    acfg.interval_seconds = 1800.0;
    auto snaps = ocean::simulate_archive(grid, tides, params, acfg);
    archive_t0 = snaps.front().time;
    fields = data::center_archive(grid, snaps);

    data::DatasetConfig dcfg;
    dcfg.T = 3;
    dcfg.stride = 1;
    dcfg.multiple_hw = 4;
    dcfg.multiple_d = 2;
    auto dir = std::filesystem::temp_directory_path() / "coastal_wf_ds";
    std::filesystem::remove_all(dir);
    dcfg.dir = dir.string();
    dataset = data::build_dataset(fields, dcfg);

    fields_norm = fields;
    for (auto& f : fields_norm) dataset.normalizer.normalize_fields(f);

    core::SurrogateConfig mcfg;
    mcfg.H = dataset.spec.H;
    mcfg.W = dataset.spec.W;
    mcfg.D = dataset.spec.D;
    mcfg.T = dataset.spec.T;
    mcfg.patch_h = 5;
    mcfg.patch_w = 5;
    mcfg.patch_d = 2;
    mcfg.embed_dim = 8;
    mcfg.stages = 3;
    mcfg.heads = {2, 4, 8};
    Rng rng(7);
    model = std::make_unique<core::SurrogateModel>(mcfg, rng);
  }

  static Pipeline& instance() {
    static Pipeline p;
    return p;
  }
};

}  // namespace

TEST(Verification, RomsSnapshotsHaveSmallResidual) {
  auto& p = Pipeline::instance();
  core::MassVerifier verifier(p.grid, 1.0);  // threshold irrelevant here
  auto r = verifier.check_pair(p.fields[4], p.fields[5], 1800.0);
  // Residual from snapshot-level finite differencing is small but nonzero.
  EXPECT_GT(r.mean_residual, 0.0);
  EXPECT_LT(r.mean_residual, 2e-4);
}

TEST(Verification, CorruptedVelocitiesFail) {
  auto& p = Pipeline::instance();
  core::MassVerifier verifier(p.grid, 2e-4);
  auto good = verifier.check_pair(p.fields[6], p.fields[7], 1800.0);
  EXPECT_TRUE(good.pass);
  auto corrupted = p.fields[7];
  for (auto& u : corrupted.u) u += 0.05f;  // uniform bias violates mass
  auto bad = verifier.check_pair(p.fields[6], corrupted, 1800.0);
  EXPECT_FALSE(bad.pass);
  EXPECT_GT(bad.mean_residual, good.mean_residual * 3);
}

TEST(Verification, UniformRiseAtRestTripsTheThresholdExactly) {
  // At rest (zeta = 0, u = v = 0) every face transport vanishes, so a
  // uniform rise delta on the wet cells leaves a residual of exactly
  // delta/dt in each of them, and in their mean.
  auto& p = Pipeline::instance();
  const double threshold = 2e-4, dt = 1800.0;
  core::MassVerifier verifier(p.grid, threshold);
  data::CenterFields rest = p.fields[0];
  for (auto* v : {&rest.u, &rest.v, &rest.w, &rest.zeta}) {
    std::fill(v->begin(), v->end(), 0.0f);
  }
  for (const double frac : {0.999, 1.001}) {
    SCOPED_TRACE(frac);
    // delta as stored: the float nearest frac·threshold·dt.
    const float delta = static_cast<float>(frac * threshold * dt);
    data::CenterFields next = rest;
    for (int iy = 0; iy < p.grid.ny(); ++iy) {
      for (int ix = 0; ix < p.grid.nx(); ++ix) {
        if (p.grid.wet(ix, iy)) next.zeta[next.cell2(iy, ix)] = delta;
      }
    }
    const auto r = verifier.check_pair(rest, next, dt);
    EXPECT_EQ(r.pass, frac < 1.0);
    EXPECT_NEAR(r.mean_residual, delta / dt, 1e-9 * (delta / dt));
  }
}

TEST(Verification, WestBoundaryInflowResidualIsTheHandComputedImbalance) {
  // A flat, all-wet basin (h = 4 m) at rest, except for an eastward
  // current U_j in the open west column and a rise delta there.  Every
  // number below is a short dyadic fraction, so the hand computation and
  // the verifier agree exactly whatever order they add in.
  constexpr int nx = 8, ny = 4, nz = 2;
  constexpr double h = 4.0, dx = 128.0, dy = 256.0, dt = 64.0;
  constexpr float delta = 1.0f / 1024.0f;
  ocean::Grid grid(nx, ny, nz, dx, dy);
  for (int iy = 0; iy < ny; ++iy)
    for (int ix = 0; ix < nx; ++ix) grid.set_h(ix, iy, static_cast<float>(h));
  data::CenterFields a;
  a.nx = nx;
  a.ny = ny;
  a.nz = nz;
  a.u.assign(static_cast<size_t>(nz * ny * nx), 0.0f);
  a.v = a.u;
  a.w = a.u;
  a.zeta.assign(static_cast<size_t>(ny * nx), 0.0f);
  data::CenterFields b = a;
  auto inflow = [](int iy) { return 0.25 * (iy + 1); };  // U_j, m/s
  for (int iy = 0; iy < ny; ++iy) {
    for (int k = 0; k < nz; ++k)
      b.u[b.cell3(k, iy, 0)] = static_cast<float>(inflow(iy));
    b.zeta[b.cell2(iy, 0)] = delta;
  }

  // Column 0 takes H0 U through its open west face and passes the
  // averaged transport 0.5 (H0 + h) * 0.5 U to column 1, which keeps it;
  // only column 0 rises.  Every other cell is balanced at rest.
  const double h0 = h + delta;
  double sum = 0.0, worst = 0.0;
  for (int iy = 0; iy < ny; ++iy) {
    const double west = h0 * inflow(iy);
    const double face1 = 0.5 * (h0 + h) * 0.5 * inflow(iy);
    const double col0 = std::abs(delta / dt + (face1 - west) / dx);
    const double col1 = std::abs((0.0 - face1) / dx);
    sum += col0 + col1;
    worst = std::max({worst, col0, col1});
  }
  const double expected = sum / (nx * ny);
  ASSERT_GT(expected, 0.0);

  core::MassVerifier verifier(grid, expected);
  const auto r = verifier.check_pair(a, b, dt);
  EXPECT_EQ(r.mean_residual, expected);
  EXPECT_EQ(r.max_residual, worst);
  EXPECT_FALSE(r.pass);  // the threshold is strict
  EXPECT_TRUE(core::MassVerifier(grid, 2 * expected).check_pair(a, b, dt).pass);
}

TEST(Verification, SequenceAggregatesWorstCase) {
  auto& p = Pipeline::instance();
  core::MassVerifier verifier(p.grid, 2e-4);
  std::span<const data::CenterFields> seq(p.fields.data() + 2, 4);
  auto r = verifier.check_sequence(seq, 1800.0);
  EXPECT_TRUE(r.pass);
  EXPECT_GE(r.max_residual, r.mean_residual);
}

TEST(Trainer, LossDecreasesOnSimulatedData) {
  auto& p = Pipeline::instance();
  // Baseline loss of the untrained model.
  const double loss_before = core::validation_loss(*p.model, p.dataset);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.lr = 2e-3f;
  cfg.loader.num_workers = 1;
  auto stats = core::train(*p.model, p.dataset, cfg);
  EXPECT_GT(stats.throughput, 0.0);
  EXPECT_EQ(stats.samples_seen, 2 * p.dataset.train_indices.size());
  EXPECT_LT(stats.val_loss, loss_before * 0.8)
      << "training failed to beat the untrained baseline";
}

TEST(Trainer, EvaluateReportsPerVariableMetrics) {
  auto& p = Pipeline::instance();
  auto m = core::evaluate(*p.model, p.dataset, p.dataset.val_indices);
  for (int v = 0; v < data::kNumVariables; ++v) {
    EXPECT_GT(m.rmse[v], 0.0) << data::variable_name(v);
    EXPECT_GE(m.rmse[v], m.mae[v]) << data::variable_name(v);
  }
  // w is physically tiny; its absolute error must be far below u's.
  EXPECT_LT(m.mae[data::kW], m.mae[data::kU] * 0.2);
}

TEST(Trainer, MemoryLimitCouplesBatchToCheckpointing) {
  auto& p = Pipeline::instance();
  core::TrainConfig cfg;
  cfg.enforce_memory_limit = true;
  cfg.batch_size = 2;
  cfg.use_checkpoint = false;  // batch 2 without ckpt must be rejected
  EXPECT_THROW(core::train(*p.model, p.dataset, cfg),
               coastal::util::CheckError);
}

TEST(Rollout, ChainsEpisodesAutoRegressively) {
  auto& p = Pipeline::instance();
  const int episodes = 3;
  std::span<const data::CenterFields> truth(
      p.fields_norm.data(), static_cast<size_t>(episodes * 3 + 1));
  auto pred = core::rollout(*p.model, p.dataset.spec, p.dataset.normalizer,
                            truth, episodes);
  ASSERT_EQ(pred.size(), static_cast<size_t>(episodes * 3));
  // Predictions are physically plausible (post-training, values bounded).
  for (const auto& f : pred)
    for (float z : f.zeta) ASSERT_LT(std::abs(z), 5.0f);
}

TEST(Workflow, StrictThresholdForcesRomsFallback) {
  auto& p = Pipeline::instance();
  core::WorkflowConfig wcfg;
  wcfg.threshold = 1e-9;  // impossible: every episode falls back
  wcfg.snapshot_dt = 1800.0;
  auto r = core::run_workflow(*p.model, p.dataset.spec, p.dataset.normalizer,
                              p.grid, p.tides, p.params,
                              {p.fields_norm.data(), 7}, 2, p.archive_t0,
                              wcfg);
  EXPECT_EQ(r.episodes, 2u);
  EXPECT_EQ(r.fallbacks, 2u);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_GT(r.roms_seconds, 0.0);
  EXPECT_EQ(r.frames.size(), 6u);
  EXPECT_DOUBLE_EQ(r.pass_rate(), 0.0);
}

TEST(Workflow, LooseThresholdAcceptsAI) {
  auto& p = Pipeline::instance();
  core::WorkflowConfig wcfg;
  wcfg.threshold = 10.0;  // everything passes
  auto r = core::run_workflow(*p.model, p.dataset.spec, p.dataset.normalizer,
                              p.grid, p.tides, p.params,
                              {p.fields_norm.data(), 7}, 2, p.archive_t0,
                              wcfg);
  EXPECT_EQ(r.accepted, 2u);
  EXPECT_EQ(r.fallbacks, 0u);
  EXPECT_EQ(r.roms_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.pass_rate(), 1.0);
}

TEST(Workflow, FallbackFramesSatisfyConservation) {
  auto& p = Pipeline::instance();
  core::WorkflowConfig wcfg;
  wcfg.threshold = 1e-9;
  auto r = core::run_workflow(*p.model, p.dataset.spec, p.dataset.normalizer,
                              p.grid, p.tides, p.params,
                              {p.fields_norm.data(), 4}, 1, p.archive_t0,
                              wcfg);
  // The numerical fallback's own frames must verify at the usual bound.
  core::MassVerifier verifier(p.grid, 2e-4);
  std::vector<data::CenterFields> seq;
  seq.push_back(p.fields[0]);
  for (const auto& f : r.frames) seq.push_back(f);
  auto verdict = verifier.check_sequence(seq, 1800.0);
  EXPECT_LT(verdict.mean_residual, 5e-4);
}

TEST(RestartFromFields, ReproducesModelState) {
  auto& p = Pipeline::instance();
  auto model = core::restart_from_fields(p.grid, p.tides, p.params,
                                         p.fields[5], 12345.0);
  EXPECT_DOUBLE_EQ(model.time(), 12345.0);
  auto z = model.zeta();
  // zeta restored exactly on wet cells.
  for (int iy = 0; iy < p.grid.ny(); ++iy)
    for (int ix = 0; ix < p.grid.nx(); ++ix)
      if (p.grid.wet(ix, iy))
        ASSERT_FLOAT_EQ(z[p.grid.rho_index(ix, iy)],
                        p.fields[5].zeta[p.fields[5].cell2(iy, ix)]);
  // And stepping from the restart stays stable.
  model.run_seconds(3600.0);
  for (float zz : model.zeta()) ASSERT_TRUE(std::isfinite(zz));
}

TEST(DataParallel, ReplicasProduceFiniteThroughput) {
  auto& p = Pipeline::instance();
  core::SurrogateConfig mcfg = p.model->config();
  core::TrainConfig cfg;
  cfg.lr = 1e-3f;
  auto stats = core::train_data_parallel(mcfg, p.dataset, cfg, 2, 2);
  EXPECT_EQ(stats.samples_seen, 4u);
  EXPECT_GT(stats.throughput, 0.0);
  EXPECT_GT(stats.allreduce_bytes, 0u);
}

TEST(PerfModel, AnchorsReproducePaperNumbers) {
  // 512-core MPI ROMS, 12 days: the model must land near 9,908 s.
  const double roms = core::PerfModel::roms_seconds(898, 598, 12,
                                                    12.0 * 86400.0, 512);
  EXPECT_NEAR(roms, 9908.0, 9908.0 * 0.25);
  // Dual-model 12-day forecast ~ 22.2 s.
  EXPECT_NEAR(core::PerfModel::forecast_12day_seconds(), 22.2, 0.5);
  // Full pass rate -> the paper's headline ~450x speedup.
  const double speedup = roms / core::PerfModel::workflow_12day_seconds(0.0);
  EXPECT_GT(speedup, 350.0);
  EXPECT_LT(speedup, 560.0);
}

TEST(PerfModel, ScalingShapesAreMonotonic) {
  // Training throughput rises with GPUs but sub-linearly.
  double prev = 0.0;
  for (int n : {1, 2, 4, 8, 16, 32}) {
    const double thr = core::PerfModel::training_throughput(n, true);
    EXPECT_GT(thr, prev);
    EXPECT_LT(thr, n * core::PerfModel::training_throughput(1, true) * 1.01);
    prev = thr;
  }
  // Checkpointing beats no-checkpointing at every scale (bigger batch).
  for (int n : {1, 8, 32})
    EXPECT_GT(core::PerfModel::training_throughput(n, true),
              core::PerfModel::training_throughput(n, false));
  // Workflow time decreases as pass rate rises.
  EXPECT_GT(core::PerfModel::workflow_12day_seconds(0.5),
            core::PerfModel::workflow_12day_seconds(0.1));
}
