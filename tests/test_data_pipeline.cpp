/// Tests for the data pipeline: stagger->center interpolation, z-score
/// normalization, sample packing, FP16 store round trip, device
/// simulation, and the prefetching loader.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/timer.hpp"

#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"
#include "tensor/half.hpp"
#include "test_helpers.hpp"

namespace data = coastal::data;
namespace ocean = coastal::ocean;
namespace ct = coastal::tensor;
using coastal::tensor::Tensor;
using coastal::testing::at;

namespace {

ocean::Grid small_grid() {
  ocean::Grid g(20, 20, 6, 400.0, 400.0);
  ocean::generate_estuary(g, ocean::EstuaryParams{}, 42);
  return g;
}

std::vector<ocean::Snapshot> small_archive(const ocean::Grid& g,
                                           int hours = 6) {
  auto tide = ocean::TidalForcing::gulf_coast_default();
  ocean::PhysicsParams p;
  p.dt = 10.0;
  ocean::ArchiveConfig cfg;
  cfg.spinup_seconds = 3600.0;
  cfg.duration_seconds = hours * 3600.0;
  cfg.interval_seconds = 1800.0;
  return ocean::simulate_archive(g, tide, p, cfg);
}

std::string temp_dir(const std::string& name) {
  auto p = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(p);
  return p.string();
}

}  // namespace

TEST(Half, RoundTripSpecialValues) {
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 65504.0f, 6.103515625e-5f}) {
    EXPECT_EQ(ct::half_to_float(ct::float_to_half(v)), v) << v;
  }
  EXPECT_TRUE(std::isinf(ct::half_to_float(ct::float_to_half(1e10f))));
  EXPECT_TRUE(std::isnan(ct::half_to_float(
      ct::float_to_half(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(Half, RelativeErrorBounded) {
  coastal::util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 3.0));
    const float r = ct::half_to_float(ct::float_to_half(v));
    EXPECT_NEAR(r, v, std::abs(v) * 1e-3 + 1e-7) << v;
  }
}

TEST(Half, SubnormalsPreserved) {
  const float tiny = 3.0e-6f;  // below half's normal range
  const float r = ct::half_to_float(ct::float_to_half(tiny));
  EXPECT_NEAR(r, tiny, tiny * 0.05f);
}

TEST(CenterFields, InterpolationAveragesFaces) {
  ocean::Grid g = small_grid();
  auto snaps = small_archive(g, 2);
  const auto& snap = snaps.back();
  auto f = data::center_from_snapshot(g, snap);
  // Spot-check a wet interior cell on each layer.
  for (int k = 0; k < g.nz(); ++k) {
    for (int iy = 2; iy < g.ny() - 2; iy += 5) {
      for (int ix = 2; ix < g.nx() - 2; ix += 5) {
        const float expected_u =
            0.5f * (snap.u3d[static_cast<size_t>(k)][g.u_index(ix, iy)] +
                    snap.u3d[static_cast<size_t>(k)][g.u_index(ix + 1, iy)]);
        EXPECT_FLOAT_EQ(f.u[f.cell3(k, iy, ix)], expected_u);
        const float expected_v =
            0.5f * (snap.v3d[static_cast<size_t>(k)][g.v_index(ix, iy)] +
                    snap.v3d[static_cast<size_t>(k)][g.v_index(ix, iy + 1)]);
        EXPECT_FLOAT_EQ(f.v[f.cell3(k, iy, ix)], expected_v);
      }
    }
  }
  EXPECT_EQ(f.zeta, snap.zeta);
}

TEST(Normalizer, ZScoreStatistics) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 4));
  data::Normalizer norm;
  for (const auto& f : fields) norm.accumulate(f);
  norm.freeze();
  // Normalized training data must have ~zero mean, ~unit variance.
  coastal::util::RunningStats check;
  for (auto f : fields) {
    norm.normalize_fields(f);
    check.add(std::span<const float>(f.zeta));
  }
  EXPECT_NEAR(check.mean(), 0.0, 0.05);
  EXPECT_NEAR(check.stddev(), 1.0, 0.05);
}

TEST(Normalizer, RoundTripAndWScaleTiny) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 3));
  data::Normalizer norm;
  for (const auto& f : fields) norm.accumulate(f);
  norm.freeze();
  // w has a much smaller scale than u — the per-variable statistics must
  // reflect that (this is why the paper normalizes per variable).
  EXPECT_LT(norm.stddev(data::kW), norm.stddev(data::kU) * 0.1);
  // normalize then denormalize restores values.
  auto f = fields[0];
  const float orig = f.zeta[50];
  norm.normalize_fields(f);
  norm.denormalize(f.zeta, data::kZeta);
  EXPECT_NEAR(f.zeta[50], orig, 1e-4);
}

TEST(Normalizer, RejectsUseBeforeFreeze) {
  data::Normalizer norm;
  data::CenterFields f;
  f.nx = f.ny = f.nz = 1;
  f.u = f.v = f.w = {0.1f};
  f.zeta = {0.2f};
  EXPECT_THROW(norm.normalize_fields(f), coastal::util::CheckError);
}

TEST(SampleSpec, PadsToMultiples) {
  auto spec = data::make_spec(19, 22, 5, 4, 10, 2);
  EXPECT_EQ(spec.H, 20);
  EXPECT_EQ(spec.W, 30);
  EXPECT_EQ(spec.D, 6);
  EXPECT_EQ(spec.src_ny, 19);
}

TEST(Sample, PackingSemantics) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 4));
  data::Normalizer norm;
  for (const auto& f : fields) norm.accumulate(f);
  norm.freeze();
  for (auto& f : fields) norm.normalize_fields(f);

  auto spec = data::make_spec(g.ny(), g.nx(), g.nz(), 3, 4, 2);
  std::span<const data::CenterFields> window(fields.data(), 4);
  auto s = data::make_sample(spec, window);

  EXPECT_EQ(s.volume.shape(), (ct::Shape{3, spec.H, spec.W, spec.D, 4}));
  EXPECT_EQ(s.surface.shape(), (ct::Shape{1, spec.H, spec.W, 4}));

  // t=0 carries the full initial condition.
  const auto& f0 = fields[0];
  EXPECT_FLOAT_EQ(at(s.surface, {0, 5, 7, 0}), f0.zeta[f0.cell2(5, 7)]);
  EXPECT_FLOAT_EQ(at(s.volume, {0, 5, 7, 2, 0}), f0.u[f0.cell3(2, 5, 7)]);

  // t>=1: interior zeroed, boundary ring kept.
  const auto& f1 = fields[1];
  EXPECT_FLOAT_EQ(at(s.surface, {0, 5, 7, 1}), 0.0f);             // interior
  EXPECT_FLOAT_EQ(at(s.surface, {0, 0, 7, 1}), f1.zeta[f1.cell2(0, 7)]);
  EXPECT_FLOAT_EQ(at(s.surface, {0, 5, 0, 1}), f1.zeta[f1.cell2(5, 0)]);
  EXPECT_FLOAT_EQ(
      at(s.surface, {0, static_cast<int64_t>(g.ny() - 1), 7, 2}),
      fields[2].zeta[fields[2].cell2(g.ny() - 1, 7)]);

  // Targets carry full frames at t=1..T.
  EXPECT_FLOAT_EQ(at(s.target_surface, {0, 5, 7, 0}),
                  f1.zeta[f1.cell2(5, 7)]);
  EXPECT_FLOAT_EQ(at(s.target_volume, {1, 5, 7, 3, 2}),
                  fields[3].v[fields[3].cell3(3, 5, 7)]);

  // Padding region stays zero everywhere.
  if (spec.W > g.nx()) {
    EXPECT_FLOAT_EQ(at(s.surface, {0, 0, spec.W - 1, 0}), 0.0f);
    EXPECT_FLOAT_EQ(at(s.target_surface, {0, 0, spec.W - 1, 0}), 0.0f);
  }
}

TEST(Store, Fp16RoundTripAccuracy) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 3));
  data::Normalizer norm;
  for (const auto& f : fields) norm.accumulate(f);
  norm.freeze();
  for (auto& f : fields) norm.normalize_fields(f);
  auto spec = data::make_spec(g.ny(), g.nx(), g.nz(), 2, 4, 2);
  auto sample =
      data::make_sample(spec, {fields.data(), 3});

  data::SampleStore store(temp_dir("coastal_store_test"), spec);
  store.write(0, sample);
  auto loaded = store.read(0);
  // FP16 storage: relative error ~1e-3; normalized values reach several
  // sigma, so the absolute bound is ~1e-2.
  EXPECT_LT(coastal::testing::max_abs_diff(loaded.volume, sample.volume),
            2e-2);
  EXPECT_LT(coastal::testing::max_abs_diff(loaded.target_surface,
                                           sample.target_surface),
            2e-2);
}

TEST(Store, CountsAndRejectsCorruptFiles) {
  auto spec = data::make_spec(8, 8, 2, 2, 4, 2);
  data::SampleStore store(temp_dir("coastal_store_count"), spec);
  EXPECT_EQ(store.count(), 0u);
  data::CenterFields f;
  f.nx = 8;
  f.ny = 8;
  f.nz = 2;
  const size_t n3 = 2 * 8 * 8, n2 = 8 * 8;
  f.u.assign(n3, 0.1f);
  f.v.assign(n3, 0.2f);
  f.w.assign(n3, 0.0f);
  f.zeta.assign(n2, 0.3f);
  std::vector<data::CenterFields> frames(3, f);
  store.write(0, data::make_sample(spec, frames));
  EXPECT_EQ(store.count(), 1u);
  // Corrupt magic.
  {
    std::ofstream bad(store.path_for(1), std::ios::binary);
    bad << "garbage";
  }
  EXPECT_THROW(store.read(1), coastal::util::CheckError);
}

TEST(Store, TruncatedOrCorruptHeadersThrowCheckError) {
  auto spec = data::make_spec(4, 4, 2, 1, 4, 2);
  data::SampleStore store(temp_dir("coastal_store_truncated"), spec);
  data::CenterFields f;
  f.nx = 4;
  f.ny = 4;
  f.nz = 2;
  f.u.assign(2 * 4 * 4, 0.1f);
  f.v.assign(2 * 4 * 4, 0.2f);
  f.w.assign(2 * 4 * 4, 0.0f);
  f.zeta.assign(4 * 4, 0.3f);
  std::vector<data::CenterFields> frames(2, f);
  const std::string good = store.write(0, data::make_sample(spec, frames));
  std::vector<char> bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(bytes.size(), store.sample_bytes());
  ASSERT_NO_THROW(store.read(0));
  auto write_bad = [&](const std::vector<char>& b, size_t len) {
    std::ofstream out(store.path_for(1), std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(len));
  };

  // Layout: magic u32, then H, W, D, T, src_ny, src_nx, src_nz as i32.
  // A header that disagrees with the store's spec is refused before any
  // tensor is read; every read is sized from the spec, never the file.
  for (size_t field = 4; field < 4 + 4 * 4; field += 4) {
    std::vector<char> flipped = bytes;
    flipped[field + 3] = static_cast<char>(flipped[field + 3] ^ 0x7F);
    write_bad(flipped, flipped.size());
    EXPECT_THROW(store.read(1), coastal::util::CheckError)
        << "top byte flipped in the i32 at offset " << field;
  }

  // Cut at every offset: inside the magic, the header, and each tensor.
  for (size_t len = 0; len < bytes.size(); ++len) {
    write_bad(bytes, len);
    EXPECT_THROW(store.read(1), coastal::util::CheckError)
        << "file truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(DeviceSim, TransferTimesFollowBandwidth) {
  data::DeviceSimConfig cfg;
  cfg.ssd_bandwidth = 10e6;         // 10 MB/s -> 1 MB = 100 ms
  cfg.h2d_paged_bandwidth = 20e6;
  cfg.h2d_pinned_bandwidth = 80e6;  // 4x faster pinned
  data::DeviceSim dev(cfg);

  coastal::util::Timer t1;
  dev.ssd_read(1'000'000);
  EXPECT_NEAR(t1.seconds(), 0.1, 0.05);

  coastal::util::Timer t2;
  dev.h2d_copy(1'000'000, /*pinned=*/false);
  const double paged = t2.seconds();
  coastal::util::Timer t3;
  dev.h2d_copy(1'000'000, /*pinned=*/true);
  const double pinned = t3.seconds();
  EXPECT_GT(paged, pinned * 2.0);
  EXPECT_EQ(dev.ssd_bytes(), 1'000'000u);
  EXPECT_EQ(dev.h2d_bytes(), 2'000'000u);
}

TEST(DeviceSim, DisabledIsInstantaneous) {
  data::DeviceSim dev(data::DeviceSimConfig::instantaneous());
  coastal::util::Timer t;
  dev.ssd_read(100'000'000);
  EXPECT_LT(t.seconds(), 0.01);
}

TEST(Dataset, BuildSplitsChronologically) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 8));
  data::DatasetConfig cfg;
  cfg.T = 3;
  cfg.stride = 2;
  cfg.dir = temp_dir("coastal_ds_build");
  auto ds = data::build_dataset(fields, cfg);
  EXPECT_GT(ds.train_indices.size(), 0u);
  EXPECT_GT(ds.val_indices.size(), 0u);
  // Validation indices strictly after training ones (chronological split).
  EXPECT_GT(ds.val_indices.front(), ds.train_indices.back());
  EXPECT_EQ(ds.store().count(),
            ds.train_indices.size() + ds.val_indices.size());
}

TEST(Dataset, ReusesTestNormalizer) {
  ocean::Grid g = small_grid();
  auto train_fields = data::center_archive(g, small_archive(g, 6));
  data::DatasetConfig cfg;
  cfg.T = 3;
  cfg.stride = 3;
  cfg.dir = temp_dir("coastal_ds_train");
  auto train = data::build_dataset(train_fields, cfg);

  cfg.dir = temp_dir("coastal_ds_test");
  auto test = data::build_dataset(train_fields, cfg, &train.normalizer, 0.0);
  EXPECT_EQ(test.normalizer.mean(data::kZeta),
            train.normalizer.mean(data::kZeta));
  EXPECT_TRUE(test.val_indices.empty());
}

TEST(Loader, PreservesEpochOrder) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 8));
  data::DatasetConfig cfg;
  cfg.T = 2;
  cfg.stride = 1;
  cfg.dir = temp_dir("coastal_ds_loader");
  auto ds = data::build_dataset(fields, cfg);
  auto store = ds.store();

  data::LoaderConfig lc;
  lc.num_workers = 3;
  lc.prefetch_factor = 2;
  lc.shuffle = false;
  data::DataLoader loader(store, ds.train_indices, lc, nullptr);
  // Workers race, but delivery must follow index order: compare each
  // delivered sample against a direct read.
  size_t n = 0;
  while (auto s = loader.next()) {
    auto direct = store.read(ds.train_indices[n]);
    ASSERT_EQ(
        coastal::testing::max_abs_diff(s->volume, direct.volume), 0.0);
    ++n;
  }
  EXPECT_EQ(n, ds.train_indices.size());
}

TEST(Loader, ShuffleIsSeededPermutation) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 8));
  data::DatasetConfig cfg;
  cfg.T = 2;
  cfg.stride = 1;
  cfg.dir = temp_dir("coastal_ds_shuffle");
  auto ds = data::build_dataset(fields, cfg);
  auto store = ds.store();

  data::LoaderConfig lc;
  lc.num_workers = 0;
  lc.shuffle = true;
  lc.shuffle_seed = 7;
  auto collect = [&] {
    data::DataLoader loader(store, ds.train_indices, lc, nullptr);
    std::vector<float> firsts;
    while (auto s = loader.next()) firsts.push_back(s->surface.data()[0]);
    return firsts;
  };
  auto a = collect();
  auto b = collect();
  EXPECT_EQ(a, b);  // deterministic for the seed
  EXPECT_EQ(a.size(), ds.train_indices.size());
}

TEST(Loader, SynchronousModeMatchesWorkers) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 6));
  data::DatasetConfig cfg;
  cfg.T = 2;
  cfg.stride = 2;
  cfg.dir = temp_dir("coastal_ds_sync");
  auto ds = data::build_dataset(fields, cfg);
  auto store = ds.store();

  data::LoaderConfig sync;
  sync.num_workers = 0;
  data::LoaderConfig par;
  par.num_workers = 2;
  data::DataLoader a(store, ds.train_indices, sync, nullptr);
  data::DataLoader b(store, ds.train_indices, par, nullptr);
  while (true) {
    auto sa = a.next();
    auto sb = b.next();
    ASSERT_EQ(sa.has_value(), sb.has_value());
    if (!sa) break;
    ASSERT_EQ(coastal::testing::max_abs_diff(sa->volume, sb->volume), 0.0);
  }
}

TEST(Loader, PinFlagPropagates) {
  ocean::Grid g = small_grid();
  auto fields = data::center_archive(g, small_archive(g, 4));
  data::DatasetConfig cfg;
  cfg.T = 2;
  cfg.stride = 2;
  cfg.dir = temp_dir("coastal_ds_pin");
  auto ds = data::build_dataset(fields, cfg);
  auto store = ds.store();
  data::LoaderConfig lc;
  lc.num_workers = 1;
  lc.pin_memory = false;
  data::DataLoader loader(store, ds.train_indices, lc, nullptr);
  auto s = loader.next();
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(s->pinned);
}
