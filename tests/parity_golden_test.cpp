// Output parity goldens for the three runners that share the rank-loop
// core: the classic pipeline (healthy, crashing, corrupting, node loss with
// the membership plane, OST interference), the co-tenant runner (solo and a
// faulted two-tenant schedule under SLO guards), and the DAG executor under
// node crashes.  Each run's RepOutcome is hashed with CRC32C over the same
// fields the perfbench correctness gate hashes (per-frame means, makespan,
// fetch samples in event order, every counter by name), so a refactor of
// the shared rank machinery that moves any simulated number — or the order
// in which samples land — fails here.  On an intentional behavior change,
// re-pin the constant from the failure message.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "mdwf/common/crc32c.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf {
namespace {

struct Digest {
  std::uint32_t crc = 0;

  void add(const void* data, std::size_t len) {
    crc = crc32c(data, len, crc);
  }
  void add(double x) { add(&x, sizeof x); }
  void add(std::uint64_t x) { add(&x, sizeof x); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add(s.data(), s.size());
  }
  void add(const Samples& s) {
    add(static_cast<std::uint64_t>(s.count()));
    for (const double x : s.values()) add(x);
  }
  void add(const obs::CounterMap& counters) {
    for (const auto& [name, value] : counters) {
      add(name);
      add(value);
    }
  }
  void add(const workflow::RepOutcome& rep) {
    add(rep.prod_movement_us);
    add(rep.prod_idle_us);
    add(rep.cons_movement_us);
    add(rep.cons_idle_us);
    add(rep.makespan_s);
    add(rep.cons_fetch_us);
    add(rep.counters);
  }
};

KeyValueConfig parse_tokens(const std::string& args) {
  KeyValueConfig cfg;
  std::istringstream in(args);
  for (std::string tok; in >> tok;) {
    const auto eq = tok.find('=');
    cfg.set(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return cfg;
}

struct Case {
  const char* args;
  std::uint32_t digest;
};

// Digest of repetition 1 (rep 0 is the traced one in the aggregate
// runners; rep 1 exercises the per-rep seed strides).
std::uint32_t pipeline_digest(const std::string& args,
                              obs::CounterMap* counters = nullptr) {
  const workflow::EnsembleConfig config =
      workflow::parse_ensemble_config(parse_tokens(args));
  const workflow::RepOutcome out = workflow::run_repetition(config, 1);
  if (counters != nullptr) *counters = out.counters;
  Digest d;
  d.add(out);
  return d.crc;
}

std::uint32_t tenant_digest(const std::string& args) {
  const tenant::MultiTenantConfig config =
      tenant::parse_multi_tenant(parse_tokens(args), {});
  const tenant::TenantRepOutcome out = tenant::run_tenant_repetition(config, 1);
  Digest d;
  for (const auto& t : out.tenants) d.add(t);
  d.add(out.shared);
  // The folded result over both repetitions, through the parallel fan-out.
  const std::string csv = tenant::run_multi_tenant(config).to_csv();
  d.add(csv);
  return d.crc;
}

void expect_cases(const std::vector<Case>& cases,
                  std::uint32_t (*run)(const std::string&)) {
  for (const Case& c : cases) {
    const std::uint32_t got = run(c.args);
    EXPECT_EQ(got, c.digest) << c.args << "\n  re-pin with 0x" << std::hex
                             << got;
  }
}

std::uint32_t pipeline_only(const std::string& args) {
  return pipeline_digest(args);
}

TEST(ParityGolden, PipelineSolutionsByFaultPlan) {
  expect_cases(
      {
          {"solution=dyad pairs=2 nodes=2 frames=16 faults=none", 0x6ee04393u},
          {"solution=dyad pairs=2 nodes=2 frames=16 faults=node-crash",
           0x42bd006cu},
          {"solution=dyad pairs=2 nodes=2 frames=16 faults=bit-flip",
           0x7283474du},
          {"solution=xfs pairs=2 frames=16 faults=none", 0xbaa2b9d2u},
          {"solution=xfs pairs=2 frames=16 faults=node-crash", 0x29e40f8au},
          {"solution=xfs pairs=2 frames=16 faults=bit-flip", 0xddb48233u},
          {"solution=lustre pairs=2 nodes=2 frames=16 faults=none",
           0xf5206627u},
          {"solution=lustre pairs=2 nodes=2 frames=16 faults=node-crash",
           0xfda42c5eu},
          {"solution=lustre pairs=2 nodes=2 frames=16 faults=bit-flip",
           0x93766e4du},
          {"solution=stream pairs=2 nodes=2 frames=16 faults=none",
           0x8d4113eau},
          {"solution=stream pairs=2 nodes=2 frames=16 faults=node-crash",
           0x0f1a308eu},
          {"solution=stream pairs=2 nodes=2 frames=16 faults=bit-flip",
           0xc3de0cddu},
      },
      pipeline_only);
}

TEST(ParityGolden, PipelineNodeLossWithMembership) {
  expect_cases(
      {
          {"solution=dyad pairs=2 nodes=2 frames=16 faults=node-loss "
           "membership=1",
           0x51c3d127u},
          {"solution=lustre pairs=2 nodes=2 frames=16 faults=node-loss "
           "membership=1",
           0xf1707054u},
          // A healed zombie is fenced: remote-fault retries plus the
          // stale-epoch migration path.
          {"solution=dyad pairs=2 nodes=2 frames=16 "
           "faults=heal-after-declare membership=1",
           0xded6d2c1u},
          {"solution=lustre pairs=2 nodes=2 frames=16 "
           "faults=heal-after-declare membership=1",
           0xc9999810u},
      },
      pipeline_only);
}

TEST(ParityGolden, PipelineWithOstInterference) {
  expect_cases({{"solution=lustre pairs=2 nodes=2 frames=16 interference=1",
                 0x07202fc5u}},
               pipeline_only);
}

TEST(ParityGolden, CoTenantRuns) {
  expect_cases(
      {
          {"tenants=dyad/2/2 frames=12 reps=2 threads=2", 0xaa24db63u},
          {"tenants=victim@dyad/2/2,neighbor@stream/2/2/crash:0 slo=1 "
           "frames=12 reps=2 threads=2",
           0x4160079eu},
          // The co-tenant runner spawns OST interference after the ranks.
          {"tenants=a@lustre/2/2,b@dyad/2/2 interference=1 frames=12 reps=2 "
           "threads=2",
           0x63251746u},
      },
      tenant_digest);
}

TEST(ParityGolden, DagMontageUnderNodeCrash) {
  expect_cases(
      {
          {"solution=dyad nodes=2 workload=synth:montage dag_tasks=6 "
           "dag_bytes=4194304 faults=node-crash",
           0x0093633du},
          {"solution=lustre nodes=2 workload=synth:montage dag_tasks=6 "
           "dag_bytes=4194304 faults=node-crash",
           0x7b65575bu},
          {"solution=stream nodes=2 workload=synth:montage dag_tasks=6 "
           "dag_bytes=4194304 faults=node-crash",
           0x7ce142b0u},
      },
      pipeline_only);
}

// The goldens only guard the recovery paths if those paths actually run.
TEST(ParityGolden, FaultedRunsExerciseRecovery) {
  for (const char* args :
       {"solution=dyad pairs=2 nodes=2 frames=16 faults=node-crash",
        "solution=dyad pairs=2 nodes=2 frames=16 faults=node-loss "
        "membership=1",
        "solution=lustre nodes=2 workload=synth:montage dag_tasks=6 "
        "dag_bytes=4194304 faults=node-crash"}) {
    obs::CounterMap counters;
    pipeline_digest(args, &counters);
    EXPECT_GT(counters.get("crash_recoveries"), 0u) << args;
    EXPECT_EQ(counters.get("frames_lost"), 0u) << args;
  }
  obs::CounterMap fenced;
  pipeline_digest(
      "solution=dyad pairs=2 nodes=2 frames=16 faults=heal-after-declare "
      "membership=1",
      &fenced);
  EXPECT_GT(fenced.get("fault_retries"), 0u);
  EXPECT_GT(fenced.get("stale_epoch_rejects"), 0u);
}

}  // namespace
}  // namespace mdwf
