/// Microbenchmarks for the data substrates the planner leans on: RLS
/// lookups (single vs clubbed), replica selection, the GridFTP fluid
/// model, and XML-RPC wire costs.

#include <benchmark/benchmark.h>

#include <functional>

#include "core/codec.hpp"
#include "data/gridftp.hpp"
#include "data/replication.hpp"
#include "data/rls.hpp"
#include "rpc/xmlrpc.hpp"
#include "workflow/generator.hpp"

namespace {

using namespace sphinx;

data::ReplicaLocationService make_rls(int lfns, int replicas_per) {
  data::ReplicaLocationService rls;
  for (int i = 0; i < lfns; ++i) {
    for (int r = 0; r < replicas_per; ++r) {
      rls.register_replica("lfn://bench/f" + std::to_string(i),
                           SiteId(static_cast<std::uint64_t>(1 + (i + r) % 15)),
                           1e8);
    }
  }
  return rls;
}

void BM_RlsLocateSingle(benchmark::State& state) {
  const auto rls = make_rls(10000, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rls.locate("lfn://bench/f" + std::to_string(i++ % 10000)));
  }
}
BENCHMARK(BM_RlsLocateSingle);

void BM_RlsLocateBulk(benchmark::State& state) {
  // The "clubbed" call SPHINX uses for whole-DAG reduction.
  const auto rls = make_rls(10000, 2);
  std::vector<data::Lfn> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back("lfn://bench/f" + std::to_string(i * 97 % 10000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rls.locate_bulk(batch));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RlsLocateBulk);

void BM_ReplicaSelection(benchmark::State& state) {
  sim::Engine engine;
  data::TransferService transfers(engine);
  for (std::uint64_t s = 1; s <= 15; ++s) {
    transfers.set_link(SiteId(s), {10e6 * static_cast<double>(s), 10e6});
  }
  std::vector<data::Replica> replicas;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    replicas.push_back({"lfn://x", SiteId(s), 1.5e8});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::select_replica(replicas, SiteId(15), transfers));
  }
}
BENCHMARK(BM_ReplicaSelection);

void BM_GridFtpChurn(benchmark::State& state) {
  // Continuous arrivals/completions exercise the fluid rebalancing.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    data::TransferService transfers(engine);
    for (std::uint64_t s = 1; s <= 15; ++s) {
      transfers.set_link(SiteId(s), {20e6, 20e6});
    }
    int done = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<double>(i), "xfer", [&, i] {
        transfers.transfer(SiteId(1 + i % 15), SiteId(1 + (i + 7) % 15), 5e7,
                           [&done](TransferId, Duration) { ++done; });
      });
    }
    engine.run_until();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridFtpChurn)->Range(64, 1024);

void BM_GridFtpInFlight(benchmark::State& state) {
  // Steady concurrency at the paper panels' scale (fig5 keeps ~670
  // transfers in flight): N start at once and every completion starts
  // the next, until 4,096 have run.  Sizes vary so completions stagger,
  // and each start and finish rebalances against ~N flows.
  constexpr int kTransfers = 4096;
  const auto in_flight = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    data::TransferService transfers(engine);
    for (std::uint64_t s = 1; s <= 15; ++s) {
      transfers.set_link(SiteId(s), {20e6, 20e6});
    }
    int started = 0;
    int done = 0;
    std::function<void(TransferId, Duration)> next;
    const auto start = [&] {
      const auto i = static_cast<std::uint64_t>(started++);
      transfers.transfer(SiteId(1 + i % 15), SiteId(1 + (i + 7) % 15),
                         1e7 * static_cast<double>(1 + i % 13), next);
    };
    next = [&](TransferId, Duration) {
      ++done;
      if (started < kTransfers) start();
    };
    for (int i = 0; i < in_flight; ++i) start();
    engine.run_until();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * kTransfers);
}
BENCHMARK(BM_GridFtpInFlight)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_XmlRpcDagRoundTrip(benchmark::State& state) {
  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadGenerator generator(workflow::WorkloadConfig{}, Rng(1),
                                        ids, rls, {SiteId(1), SiteId(2)});
  const workflow::Dag dag = generator.generate("wire");
  for (auto _ : state) {
    rpc::MethodCall call;
    call.method = "sphinx.submit_dag";
    call.params = {rpc::XrValue("client"), rpc::XrValue(1),
                   core::encode_dag(dag)};
    const std::string wire = call.serialize();
    const auto parsed = rpc::MethodCall::parse(wire);
    benchmark::DoNotOptimize(core::decode_dag(parsed->params[2]));
  }
}
BENCHMARK(BM_XmlRpcDagRoundTrip);

void BM_XmlRpcReportRoundTrip(benchmark::State& state) {
  core::TrackerReport report;
  report.job = JobId(42);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(3);
  report.completion_time = 321.5;
  for (auto _ : state) {
    rpc::MethodCall call;
    call.method = "sphinx.report";
    call.params = {core::encode_report(report)};
    const auto parsed = rpc::MethodCall::parse(call.serialize());
    benchmark::DoNotOptimize(core::decode_report(parsed->params[0]));
  }
}
BENCHMARK(BM_XmlRpcReportRoundTrip);

void BM_XmlRpcPlanRoundTrip(benchmark::State& state) {
  // The server-to-client execute_plan payload: a job with three staged
  // inputs.
  core::ExecutionPlan plan;
  plan.job = JobId(4242);
  plan.dag = DagId(97);
  plan.job_name = "wire-job-7";
  plan.site = SiteId(11);
  plan.compute_time = 61.25;
  plan.output = "lfn://wire/out-7";
  plan.output_bytes = 4.2e7;
  plan.attempt = 2;
  plan.batch_priority = 0.5;
  plan.inputs = {{"lfn://wire/in-1", SiteId(3), 1.2e8},
                 {"lfn://wire/in-2", SiteId(5), 9.5e7},
                 {"lfn://wire/in-3", SiteId(11), 3.3e7}};
  for (auto _ : state) {
    rpc::MethodCall call;
    call.method = "sphinx_client.execute_plan";
    call.params = {core::encode_plan(plan)};
    const auto parsed = rpc::MethodCall::parse(call.serialize());
    benchmark::DoNotOptimize(core::decode_plan(parsed->params[0]));
  }
}
BENCHMARK(BM_XmlRpcPlanRoundTrip);

}  // namespace
