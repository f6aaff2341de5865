// Reproducibility gate: a job's results are a pure function of (config,
// seed). Each job below runs three times and every run report, metrics
// included, must be byte-identical. Rank bodies run as fibers resumed in
// rank order, so the schedule, and with it the completion order that drives
// virtual time, repeats exactly.
#include <gtest/gtest.h>

#include <string>

#include "apps/graph500/bfs.hpp"
#include "apps/graph500/graph.hpp"
#include "apps/npb/npb.hpp"
#include "mpi/runtime.hpp"
#include "obs/report.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;

std::string report_of(const mpi::JobConfig& config, const mpi::JobBody& body) {
  const auto result = mpi::run_job(config, body);
  obs::ReportContext ctx;
  ctx.deployment = config.deployment.label();
  ctx.seed = config.seed;
  return obs::run_report_json(ctx, result);
}

void expect_reproducible(const mpi::JobConfig& config, const mpi::JobBody& body) {
  const std::string first = report_of(config, body);
  for (int run = 2; run <= 3; ++run)
    EXPECT_EQ(report_of(config, body), first) << "run " << run << " differs from run 1";
}

mpi::JobConfig observed(DeploymentSpec deployment) {
  mpi::JobConfig config;
  config.deployment = deployment;
  config.policy = fabric::LocalityPolicy::ContainerAware;
  config.observe = true;
  return config;
}

void cg_body(mpi::Process& p) {
  apps::npb::CgParams params;
  params.grid = std::max(64, p.size());
  EXPECT_TRUE(apps::npb::run_cg(p, params).verified);
}

TEST(Reproducible, CgReportsAreIdentical) {
  expect_reproducible(observed(DeploymentSpec::containers(2, 2, 4)), cg_body);
}

TEST(Reproducible, FatTreeCgReportsAreIdentical) {
  auto config = observed(DeploymentSpec::native_hosts(4, 1));
  config.fabric = net::FabricConfig::parse("fattree:4");
  expect_reproducible(config, cg_body);
}

TEST(Reproducible, Graph500ReportsAreIdentical) {
  const apps::graph500::EdgeListParams params{10, 16, 1};
  const auto roots = apps::graph500::choose_roots(params, 2);
  expect_reproducible(observed(DeploymentSpec::native_hosts(2, 4)), [&](mpi::Process& p) {
    const auto graph = apps::graph500::build_graph(p, params);
    for (const auto root : roots) apps::graph500::run_bfs(p, graph, root);
  });
}

TEST(Reproducible, FatTreeHaloReportsAreIdentical) {
  auto config = observed(DeploymentSpec::containers(4, 1, 1));
  config.fabric = net::FabricConfig::parse("fattree");
  config.tuning.reg_model = true;
  expect_reproducible(config, [](mpi::Process& p) {
    auto& w = p.world();
    const int left = (p.rank() + p.size() - 1) % p.size();
    const int right = (p.rank() + 1) % p.size();
    std::vector<std::byte> to_left(65536), to_right(65536), from_left(65536),
        from_right(65536);
    for (int iter = 0; iter < 8; ++iter) {
      const std::vector<mpi::Request> reqs{
          w.irecv(std::span<std::byte>(from_left), left, 10),
          w.irecv(std::span<std::byte>(from_right), right, 11),
          w.isend(std::span<const std::byte>(to_right), right, 10),
          w.isend(std::span<const std::byte>(to_left), left, 11)};
      w.wait_all(reqs);
      p.compute(2000.0);
      w.allreduce_value(1.0, mpi::ReduceOp::Sum);
    }
  });
}

}  // namespace
}  // namespace cbmpi
