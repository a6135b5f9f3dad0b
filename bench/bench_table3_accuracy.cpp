/// Table III: MAE and RMSE of the surrogate for u, v, w, zeta on held-out
/// test data, at the short horizon (one episode — the paper's "12 hours")
/// and the long horizon (an autoregressive core::rollout across the test
/// span — the paper's "12 days", which it forecasts with a dual model).
///
/// Expected shape (matches the paper): w errors orders of magnitude below
/// u/v (vertical velocity is tiny), zeta errors the largest in absolute
/// units, and long-horizon errors comparable to short-horizon ones because
/// boundary conditions keep the rollout anchored.

#include "bench_common.hpp"
#include "core/rollout.hpp"
#include "core/trainer.hpp"
#include "util/stats.hpp"

using namespace coastal;

int main() {
  bench::print_header("Table III — surrogate MAE / RMSE per variable");
  auto w = bench::make_mini_world("table3", /*train_model=*/true,
                                  /*train_hours=*/36, /*test_hours=*/16);

  // ---- short horizon: single-episode forecasts on non-overlapping test
  // windows (the paper's 12-hour row).
  auto short_metrics =
      core::evaluate(*w.model, w.test_set, w.test_set.train_indices);

  // ---- long horizon: autoregressive rollout across the whole test span
  // (the paper's 12-day row).
  const int T = w.train_set.spec.T;
  const int episodes =
      (static_cast<int>(w.test_fields_norm.size()) - 1) / T;
  auto pred = core::rollout(*w.model, w.train_set.spec,
                            w.train_set.normalizer, w.test_fields_norm,
                            episodes);
  util::ErrorStats err[data::kNumVariables];
  for (size_t t = 0; t < pred.size(); ++t) {
    const auto& truth = w.test_fields[t + 1];
    err[data::kU].add(pred[t].u, truth.u);
    err[data::kV].add(pred[t].v, truth.v);
    err[data::kW].add(pred[t].w, truth.w);
    err[data::kZeta].add(pred[t].zeta, truth.zeta);
  }

  util::CsvWriter csv(bench::results_dir() + "/table3_accuracy.csv",
                      {"horizon", "variable", "mae", "rmse"});
  std::printf("%-16s %-8s %12s %12s\n", "horizon", "variable", "MAE", "RMSE");
  const char* units[] = {"[m/s]", "[m/s]", "[m/s]", "[m]"};
  for (int v = 0; v < data::kNumVariables; ++v) {
    std::printf("%-16s %-2s %-5s %12.3e %12.3e\n", "short (1 episode)",
                data::variable_name(v), units[v], short_metrics.mae[v],
                short_metrics.rmse[v]);
    csv.row("short", data::variable_name(v), short_metrics.mae[v],
            short_metrics.rmse[v]);
  }
  for (int v = 0; v < data::kNumVariables; ++v) {
    std::printf("%-16s %-2s %-5s %12.3e %12.3e\n", "long (rollout)",
                data::variable_name(v), units[v], err[v].mae(),
                err[v].rmse());
    csv.row("long", data::variable_name(v), err[v].mae(), err[v].rmse());
  }

  std::printf("\npaper (12h):  u 1.80e-2  v 1.73e-2  w 9.60e-5  zeta 4.58e-2 "
              "(MAE)\n");
  std::printf("paper (12d):  u 1.49e-2  v 1.40e-2  w 8.27e-5  zeta 4.79e-2 "
              "(MAE)\n");
  std::printf("shape check:  w << u,v and long-horizon ~ short-horizon — "
              "compare rows above.\n");
  return 0;
}
