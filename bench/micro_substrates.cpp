/// Microbenchmarks for the data substrates the planner leans on: RLS
/// lookups (single vs clubbed), replica selection, the GridFTP fluid
/// model, XML-RPC wire costs, and the submission path under the client
/// (Condor-G gateway and site).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <functional>
#include <utility>

#include "core/codec.hpp"
#include "data/gridftp.hpp"
#include "data/replication.hpp"
#include "data/rls.hpp"
#include "grid/grid.hpp"
#include "submit/condor_g.hpp"
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
  std::vector<data::Lfn> names;
  for (int i = 0; i < 100; ++i) {
    names.push_back("lfn://bench/f" + std::to_string(i * 97 % 10000));
  }
  const std::vector<std::string_view> batch(names.begin(), names.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rls.locate_bulk(batch));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RlsLocateBulk);

void BM_RlsRegister(benchmark::State& state) {
  // A catalog shaped like a fig5 execution's: 12,000 names like the
  // workload generator's external inputs, each at two or three sites,
  // registered into a fresh service (torn down inside the timing: it is
  // part of the cost).
  constexpr int kNames = 12000;
  std::vector<data::Lfn> names;
  names.reserve(kNames);
  for (int i = 0; i < kNames; ++i) {
    names.push_back("lfn://input/f" + std::to_string(10000 + i));
  }
  std::int64_t registrations = 0;
  for (auto _ : state) {
    data::ReplicaLocationService rls;
    for (int i = 0; i < kNames; ++i) {
      for (int r = 0; r < 2 + i % 2; ++r) {
        rls.register_replica(
            names[static_cast<std::size_t>(i)],
            SiteId(static_cast<std::uint64_t>(1 + (i * 7 + r) % 15)), 1e8);
        ++registrations;
      }
    }
    benchmark::DoNotOptimize(rls);
  }
  state.SetItemsProcessed(registrations);
}
BENCHMARK(BM_RlsRegister)->Unit(benchmark::kMillisecond);

void BM_ReplicaSelection(benchmark::State& state) {
  sim::Engine engine;
  data::TransferService transfers(engine);
  for (std::uint64_t s = 1; s <= 15; ++s) {
    transfers.set_link(SiteId(s), {10e6 * static_cast<double>(s), 10e6});
  }
  std::vector<data::Replica> replicas;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    replicas.push_back({.site = SiteId(s), .size_bytes = 1.5e8});
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

/// Steady concurrency at the paper panels' scale (fig5 keeps ~670
/// transfers in flight): N start at once and every completion starts the
/// next, until 4,096 have run.  Sizes vary so completions stagger.
/// `route(i)` is the (src, dst) of transfer i.
template <typename Route>
void gridftp_in_flight(benchmark::State& state, Route route) {
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
      const auto [src, dst] = route(i);
      transfers.transfer(src, dst, 1e7 * static_cast<double>(1 + i % 13),
                         next);
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

void BM_GridFtpInFlight(benchmark::State& state) {
  // 15 link pairs: site s always sends to site s + 7 (mod 15).
  gridftp_in_flight(state, [](std::uint64_t i) {
    return std::pair{SiteId(1 + i % 15), SiteId(1 + (i + 7) % 15)};
  });
}
BENCHMARK(BM_GridFtpInFlight)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_GridFtpInFlightSpread(benchmark::State& state) {
  // All 210 ordered pairs of distinct sites in turn; fig5 spreads its
  // flows over ~126 active pairs.
  gridftp_in_flight(state, [](std::uint64_t i) {
    const std::uint64_t pair = i % 210;
    const std::uint64_t src = pair / 14;
    return std::pair{SiteId(1 + src), SiteId(1 + (src + 1 + pair % 14) % 15)};
  });
}
BENCHMARK(BM_GridFtpInFlightSpread)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// --- the XML-RPC wire ----------------------------------------------------
//
// Each message on the path each side ships: the sender's typed encoder
// writes the whole <methodCall>, the receiver reads it as ClarensService
// does (envelope, typed params decoder, close).  *RoundTrip is struct ->
// bytes -> struct; *Encode and *Decode are its two halves.

/// Reads the whole call `wire` with typed params decoder `decode`.
template <typename P>
Expected<P> decode_call(const std::string& wire,
                        Expected<P> (*decode)(rpc::XrReader&)) {
  rpc::XrReader in(wire);
  std::string_view method;
  if (!in.begin_call(method)) return in.error();
  Expected<P> params = decode(in);
  if (!in.ok() || !in.end_call()) return in.error();
  return params;
}

/// A 10-job DAG submission (about 8.4 KB).
workflow::Dag wire_dag() {
  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadGenerator generator(workflow::WorkloadConfig{}, Rng(1),
                                        ids, rls, {SiteId(1), SiteId(2)});
  return generator.generate("wire");
}

std::string wire_dag_call(const workflow::Dag& dag) {
  return core::encode_dag("sphinx-client/cms", UserId(1), dag, 0.0, kNever);
}

/// A completed-job tracker report.
core::TrackerReport wire_report() {
  core::TrackerReport report;
  report.job = JobId(42);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(3);
  report.completion_time = 321.5;
  report.attempt = 1;
  return report;
}

/// The server-to-client execute_plan payload: a job with three staged
/// inputs.
core::ExecutionPlan wire_plan() {
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
  return plan;
}

void BM_XmlRpcDagRoundTrip(benchmark::State& state) {
  const workflow::Dag dag = wire_dag();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decode_call(wire_dag_call(dag), &core::decode_dag));
  }
}
BENCHMARK(BM_XmlRpcDagRoundTrip);

void BM_XmlRpcDagEncode(benchmark::State& state) {
  const workflow::Dag dag = wire_dag();
  for (auto _ : state) benchmark::DoNotOptimize(wire_dag_call(dag));
}
BENCHMARK(BM_XmlRpcDagEncode);

void BM_XmlRpcDagDecode(benchmark::State& state) {
  const std::string wire = wire_dag_call(wire_dag());
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_call(wire, &core::decode_dag));
  }
}
BENCHMARK(BM_XmlRpcDagDecode);

void BM_XmlRpcReportRoundTrip(benchmark::State& state) {
  const core::TrackerReport report = wire_report();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decode_call(core::encode_report(report), &core::decode_report));
  }
}
BENCHMARK(BM_XmlRpcReportRoundTrip);

void BM_XmlRpcReportEncode(benchmark::State& state) {
  const core::TrackerReport report = wire_report();
  for (auto _ : state) benchmark::DoNotOptimize(core::encode_report(report));
}
BENCHMARK(BM_XmlRpcReportEncode);

void BM_XmlRpcReportDecode(benchmark::State& state) {
  const std::string wire = core::encode_report(wire_report());
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_call(wire, &core::decode_report));
  }
}
BENCHMARK(BM_XmlRpcReportDecode);

void BM_XmlRpcPlanRoundTrip(benchmark::State& state) {
  const core::ExecutionPlan plan = wire_plan();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decode_call(core::encode_plan(plan), &core::decode_plan));
  }
}
BENCHMARK(BM_XmlRpcPlanRoundTrip);

void BM_XmlRpcPlanEncode(benchmark::State& state) {
  const core::ExecutionPlan plan = wire_plan();
  for (auto _ : state) benchmark::DoNotOptimize(core::encode_plan(plan));
}
BENCHMARK(BM_XmlRpcPlanEncode);

void BM_XmlRpcPlanDecode(benchmark::State& state) {
  const std::string wire = core::encode_plan(wire_plan());
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_call(wire, &core::decode_plan));
  }
}
BENCHMARK(BM_XmlRpcPlanDecode);

// --- the submission path ----------------------------------------------------
//
// Staged jobs through one Condor-G gateway to a 16-CPU site: each job
// stages one 50 MB input from a store site, computes for a minute and
// ends; 32 are in flight, and each completion submits the next, so the
// engine, the transfer model and the site queue stay the same size
// however many jobs run.  ns_per_job is the time per job.
// retained_bytes_per_job is the live heap (mallinfo2) a drained world
// holds after N more jobs than before them, per job: what the gateway
// and the site keep of finished work.

[[nodiscard]] double live_heap() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

class SubmissionChurn {
 public:
  SubmissionChurn() {
    grid::SiteSpec spec;
    spec.site.name = "exec";
    spec.site.cpus = 16;
    exec_ = grid_.add_site(spec);
    spec.site.name = "store";
    store_ = grid_.add_site(spec);
    transfers_.set_link(exec_, {20e6, 20e6});
    transfers_.set_link(store_, {20e6, 20e6});
  }

  /// Runs `jobs` more jobs until the world drains; false if any did not
  /// complete or a transfer is left in flight.
  bool run(std::int64_t jobs) {
    const std::int64_t done_before = completed_;
    left_ = jobs;
    for (int i = 0; i < kInFlight && left_ > 0; ++i) submit_next();
    engine_.run_until();
    return completed_ - done_before == jobs && transfers_.active() == 0;
  }

 private:
  static constexpr int kInFlight = 32;

  void submit_next() {
    --left_;
    submit::SubmitRequest request;
    request.job = JobId(++last_job_);
    request.name = "churn";
    request.user = UserId(1);
    request.site = exec_;
    request.compute_time = 60.0;
    request.inputs = {{"lfn://churn/in", store_, 5e7}};
    gateway_.submit(request, [this](const submit::GatewayEvent& event) {
      if (event.state != submit::GatewayJobState::kCompleted) return;
      ++completed_;
      if (left_ > 0) submit_next();
    });
  }

  sim::Engine engine_;
  grid::Grid grid_{engine_, SeedTree(29)};
  data::TransferService transfers_{engine_};
  data::ReplicaLocationService rls_;
  submit::CondorG gateway_{grid_, transfers_, rls_, "churn"};
  SiteId exec_;
  SiteId store_;
  std::uint64_t last_job_ = 0;
  std::int64_t left_ = 0;
  std::int64_t completed_ = 0;
};

void BM_SubmissionChurn(benchmark::State& state) {
  const std::int64_t jobs = state.range(0);
  {
    SubmissionChurn world;
    const bool warm = world.run(jobs);  // containers reach their working size
    const double before = live_heap();
    if (!warm || !world.run(jobs)) {
      state.SkipWithError("the churn did not drain");
      return;
    }
    state.counters["retained_bytes_per_job"] =
        (live_heap() - before) / static_cast<double>(jobs);
  }
  for (auto _ : state) {
    SubmissionChurn world;
    benchmark::DoNotOptimize(world.run(jobs));
  }
  // Seconds over (iterations x jobs x 1e-9): nanoseconds per job.
  state.counters["ns_per_job"] = benchmark::Counter(
      1e-9 * static_cast<double>(jobs),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * jobs);
}
BENCHMARK(BM_SubmissionChurn)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
