// Online/post-hoc agreement over the shipped scenario files: for every
// fault scenario, the streaming monitor attached to the live run must
// name the same OST/rank the post-hoc diagnoser finds on the captured
// trace (statistically, or via the recovered injected marker); every
// injected fault clause is re-detected online with its onset inside
// the injected window; and healthy scenarios open zero incidents.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/diagnose.h"
#include "monitor/health.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace eio::monitor {
namespace {

struct ScenarioRun {
  std::vector<Incident> incidents;
  std::vector<analysis::Finding> findings;
  fault::Plan plan;
};

ScenarioRun run_scenario(const std::string& name) {
  workloads::ScenarioBuilder scenario = workloads::load_scenario(
      std::string(EIO_SOURCE_DIR) + "/examples/scenarios/" + name + ".json");
  workloads::JobSpec job = scenario.job();
  job.capture = ipm::Mode::kBoth;  // monitor online AND diagnose post hoc

  HealthOptions opt;
  opt.ost_count = scenario.machine_config().ost_count;
  opt.stripe_size = scenario.machine_config().stripe_size;
  std::shared_ptr<HealthKernel> sink;
  job.sink_factory = [&sink, opt](std::size_t) {
    sink = std::make_shared<HealthKernel>(opt);
    return sink;
  };

  workloads::ParallelEnsembleRunner runner({.jobs = 1});
  auto results = runner.run_ensemble(job, 1);
  EXPECT_EQ(results.size(), 1u);
  sink->finish();  // idempotent: the runner already sealed the stream

  analysis::DiagnoserOptions dopt;
  dopt.ost_count = scenario.machine_config().ost_count;
  dopt.stripe_size = scenario.machine_config().stripe_size;
  ScenarioRun out;
  out.incidents = sink->incidents();
  out.findings = analysis::diagnose(results[0].trace, dopt);
  out.plan = scenario.fault_plan();
  return out;
}

bool names_subject(const std::vector<Incident>& incidents,
                   std::initializer_list<IncidentKind> kinds,
                   std::uint64_t subject) {
  return std::any_of(incidents.begin(), incidents.end(),
                     [&](const Incident& inc) {
                       return inc.subject == subject &&
                              std::find(kinds.begin(), kinds.end(),
                                        inc.kind) != kinds.end();
                     });
}

TEST(MonitorAgreementTest, HealthyScenariosOpenZeroIncidents) {
  // fig2_lln_k8 and fig6_gcrm_baseline are exercised by the CI smoke
  // instead: they simulate in ~6 s / ~24 s, too slow for tier 1.
  for (const char* name :
       {"ensemble_stability", "fig1_ior_modes", "fig4_madbench_franklin",
        "fig4_madbench_jaguar", "fig5_madbench_patched", "fig6_gcrm_aligned",
        "fig6_gcrm_collective", "fig6_gcrm_optimized", "interference"}) {
    ScenarioRun r = run_scenario(name);
    EXPECT_TRUE(r.incidents.empty())
        << name << " opened " << r.incidents.size() << " incident(s)";
  }
}

TEST(MonitorAgreementTest, SlowOstScenarioAgreesWithDiagnose) {
  ScenarioRun r = run_scenario("slow_ost");
  ASSERT_FALSE(r.plan.slow_osts.empty());

  // Post-hoc diagnose names a degraded OST; the online monitor must
  // name the same one (statistically or via the recovered marker).
  bool diagnosed = false;
  for (const analysis::Finding& f : r.findings) {
    if (f.code != analysis::FindingCode::kDegradedOst) continue;
    diagnosed = true;
    EXPECT_TRUE(names_subject(
        r.incidents,
        {IncidentKind::kDegradedOst, IncidentKind::kInjectedOstDegraded},
        static_cast<std::uint64_t>(f.metric)))
        << "diagnose found OST " << f.metric << " but the monitor did not";
  }
  EXPECT_TRUE(diagnosed) << "post-hoc diagnose found no degraded OST";

  // Every injected slow-OST clause is recovered online, onset inside
  // its injected window.
  for (const fault::SlowOst& s : r.plan.slow_osts) {
    auto it = std::find_if(
        r.incidents.begin(), r.incidents.end(), [&](const Incident& inc) {
          return inc.kind == IncidentKind::kInjectedOstDegraded &&
                 inc.subject == s.ost;
        });
    ASSERT_NE(it, r.incidents.end()) << "injected OST " << s.ost;
    EXPECT_GE(it->onset_time, s.from);
    EXPECT_LE(it->onset_time, s.until);
  }
}

TEST(MonitorAgreementTest, StragglerScenarioAgreesWithDiagnose) {
  ScenarioRun r = run_scenario("straggler");

  bool diagnosed = false;
  for (const analysis::Finding& f : r.findings) {
    if (f.code != analysis::FindingCode::kStragglerRank) continue;
    diagnosed = true;
    EXPECT_TRUE(names_subject(
        r.incidents,
        {IncidentKind::kStragglerRank, IncidentKind::kInjectedStraggler},
        static_cast<std::uint64_t>(f.metric)))
        << "diagnose found rank " << f.metric << " but the monitor did not";
  }
  EXPECT_TRUE(diagnosed) << "post-hoc diagnose found no straggler";

  // The plan pins straggler rank(s); each is recovered online.
  for (RankId rank : r.plan.stragglers.ranks) {
    EXPECT_TRUE(names_subject(
        r.incidents,
        {IncidentKind::kInjectedStraggler, IncidentKind::kStragglerRank},
        rank))
        << "injected straggler rank " << rank;
  }
}

TEST(MonitorAgreementTest, TransientRetriesAreRecoveredOnline) {
  ScenarioRun r = run_scenario("transient_retries");
  ASSERT_FALSE(r.incidents.empty());
  // Jitter + transient failures surface as injected stall/retry
  // incidents (the statistical detectors stay quiet — transients are
  // too diffuse to dominate a window, which is the point of marker
  // recovery).
  for (const Incident& inc : r.incidents) {
    EXPECT_TRUE(inc.kind == IncidentKind::kInjectedStall ||
                inc.kind == IncidentKind::kInjectedRetry)
        << incident_name(inc.kind);
  }
}

}  // namespace
}  // namespace eio::monitor
