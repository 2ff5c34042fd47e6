// Chaos differential suite: every fault class the injector can produce must
// be survived by the pipeline — train, classify, and score all complete
// without throwing, the degradation is visible in the health report, and the
// §6.2 incident-detection result holds within tolerance under realistic
// (≤1%) loss and reordering. Plus unit coverage of the fault-spec grammar,
// the quarantine primitives, and the sanitization boundaries.
#include "behaviot/chaos/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/deviation_engine.hpp"
#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/ml/dataset.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/runtime/runtime.hpp"

namespace behaviot {
namespace {

using chaos::FaultInjector;
using chaos::FaultSpec;

// ---------------------------------------------------------------------------
// Fault-spec grammar.

TEST(ChaosSpec, ParsesEveryKey) {
  const FaultSpec s = FaultSpec::parse(
      "drop=0.01,dup=0.02,reorder=0.03,regress=0.04,dnsloss=0.05,flap=0.06,"
      "truncate=0.07,nan=0.08,inf=0.09,throw=0.1,skew=-250,seed=42");
  EXPECT_DOUBLE_EQ(s.drop, 0.01);
  EXPECT_DOUBLE_EQ(s.dup, 0.02);
  EXPECT_DOUBLE_EQ(s.reorder, 0.03);
  EXPECT_DOUBLE_EQ(s.regress, 0.04);
  EXPECT_DOUBLE_EQ(s.dns_loss, 0.05);
  EXPECT_DOUBLE_EQ(s.flap, 0.06);
  EXPECT_DOUBLE_EQ(s.truncate, 0.07);
  EXPECT_DOUBLE_EQ(s.nan, 0.08);
  EXPECT_DOUBLE_EQ(s.inf, 0.09);
  EXPECT_DOUBLE_EQ(s.throw_p, 0.1);
  EXPECT_DOUBLE_EQ(s.skew_ppm, -250.0);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_TRUE(s.any_packet_faults());
  EXPECT_TRUE(s.any_feature_faults());
  EXPECT_TRUE(s.enabled());
}

TEST(ChaosSpec, RejectsUnknownKeyListingValidOnes) {
  try {
    (void)FaultSpec::parse("drop=0.1,jitter=0.5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jitter"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("valid:"), std::string::npos);
  }
}

TEST(ChaosSpec, RejectsOutOfRangeAndMalformedValues) {
  EXPECT_THROW((void)FaultSpec::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("drop=abc"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("drop=0.1x"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("drop"), std::invalid_argument);
}

TEST(ChaosSpec, EmptySpecIsDisabledAndTrailingCommasTolerated) {
  const FaultSpec empty = chaos::parse_chaos_spec("");
  EXPECT_FALSE(empty.enabled());
  const FaultSpec s = chaos::parse_chaos_spec("drop=0.5,,");
  EXPECT_DOUBLE_EQ(s.drop, 0.5);
}

TEST(ChaosSpec, SummaryListsOnlyNonZeroFields) {
  const std::string s = FaultSpec::parse("nan=0.25,seed=9").summary();
  EXPECT_NE(s.find("nan=0.25"), std::string::npos);
  EXPECT_NE(s.find("seed=9"), std::string::npos);
  EXPECT_EQ(s.find("drop"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Health registry semantics.

TEST(Health, StateEscalatesAndNeverDowngrades) {
  obs::health().reset();
  obs::health().heartbeat("stage.a");
  auto snap = obs::health().snapshot();
  ASSERT_NE(snap.find("stage.a"), nullptr);
  EXPECT_EQ(snap.find("stage.a")->state, obs::ComponentState::kHealthy);
  EXPECT_EQ(snap.overall(), obs::ComponentState::kHealthy);

  obs::health().degrade("stage.a", "lost-things:3");
  obs::health().degrade("stage.a", "lost-things:3");  // dedup, +1 incident
  obs::health().heartbeat("stage.a");                 // no downgrade
  snap = obs::health().snapshot();
  EXPECT_EQ(snap.find("stage.a")->state, obs::ComponentState::kDegraded);
  ASSERT_EQ(snap.find("stage.a")->reasons.size(), 1u);
  EXPECT_EQ(snap.find("stage.a")->incidents, 2u);

  obs::health().quarantine("stage.a", "dev:grp", "it threw");
  obs::health().degrade("stage.a", "later");  // quarantine sticks
  snap = obs::health().snapshot();
  EXPECT_EQ(snap.find("stage.a")->state, obs::ComponentState::kQuarantined);
  ASSERT_EQ(snap.find("stage.a")->quarantined.size(), 1u);
  EXPECT_EQ(snap.find("stage.a")->quarantined[0].key, "dev:grp");
  EXPECT_EQ(snap.overall(), obs::ComponentState::kQuarantined);

  obs::health().reset();
  EXPECT_TRUE(obs::health().snapshot().empty());
}

TEST(Health, SnapshotIsSortedForDeterministicRendering) {
  obs::health().reset();
  obs::health().heartbeat("zeta");
  obs::health().heartbeat("alpha");
  obs::health().quarantine("mid", "k2", "r");
  obs::health().quarantine("mid", "k1", "r");
  const auto snap = obs::health().snapshot();
  ASSERT_EQ(snap.components.size(), 3u);
  EXPECT_EQ(snap.components[0].component, "alpha");
  EXPECT_EQ(snap.components[1].component, "mid");
  EXPECT_EQ(snap.components[2].component, "zeta");
  EXPECT_EQ(snap.components[1].quarantined[0].key, "k1");
  const std::string json = obs::health_to_json(snap);
  EXPECT_NE(json.find("\"overall\""), std::string::npos);
  const std::string table = obs::render_health_table(snap);
  EXPECT_NE(table.find("quarantined"), std::string::npos);
  obs::health().reset();
}

// ---------------------------------------------------------------------------
// Sanitization boundaries.

TEST(Sanitize, NanAndInfCellsAreClampedInPlace) {
  std::vector<double> row{std::numeric_limits<double>::quiet_NaN(), 1.5,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  EXPECT_EQ(sanitize_features(std::span<double>(row)), 3u);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
  EXPECT_DOUBLE_EQ(row[1], 1.5);
  EXPECT_DOUBLE_EQ(row[2], 1e12);
  EXPECT_DOUBLE_EQ(row[3], -1e12);
  EXPECT_EQ(sanitize_features(std::span<double>(row)), 0u);
}

TEST(Sanitize, CorruptedDatasetBecomesFiniteAgain) {
  Dataset ds;
  for (int i = 0; i < 64; ++i) {
    ds.add(std::vector<double>(8, static_cast<double>(i)), i % 3);
  }
  FaultInjector inj(FaultSpec::parse("nan=0.4,inf=0.4,seed=3"));
  inj.corrupt(ds);
  EXPECT_GT(inj.stats().features_nan.load() + inj.stats().features_inf.load(),
            0u);
  const std::size_t fixed = sanitize(ds);
  EXPECT_EQ(fixed, inj.stats().features_nan.load() +
                       inj.stats().features_inf.load());
  for (const auto& row : ds.X) {
    for (double v : row) EXPECT_TRUE(std::isfinite(v));
  }
}

// ---------------------------------------------------------------------------
// Quarantine primitive.

TEST(TryMap, IsolatesThrowingItemsAndKeepsAlignment) {
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  const auto out = runtime::parallel_try_map(items, [](int v) -> int {
    if (v % 3 == 0) throw std::runtime_error("boom " + std::to_string(v));
    return v * 10;
  });
  ASSERT_EQ(out.size(), items.size());
  for (int v : items) {
    const auto& r = out[static_cast<std::size_t>(v)];
    if (v % 3 == 0) {
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.error, "boom " + std::to_string(v));
    } else {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, v * 10);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-flow fault decisions.

FlowRecord flow_with_port(std::uint16_t src_port) {
  FlowRecord f;
  f.device = 7;
  f.tuple = {{Ipv4Addr(192, 168, 1, 7), src_port},
             {Ipv4Addr(54, 1, 2, 3), 443},
             Transport::kTcp};
  f.start = Timestamp(1'000'000);
  f.end = Timestamp(2'000'000);
  return f;
}

TEST(Chaos, FlowFaultDecisionsAreDeterministicAndDisjoint) {
  FaultInjector inj(FaultSpec::parse("nan=0.5,inf=0.5,seed=11"));
  FaultInjector off(FaultSpec{});
  std::size_t nans = 0;
  std::size_t infs = 0;
  for (std::uint16_t port = 40000; port < 40200; ++port) {
    const FlowRecord f = flow_with_port(port);
    const bool n = inj.flow_fault_fires(f, "nan");
    const bool i = inj.flow_fault_fires(f, "inf");
    // nan + inf partition [0,1): exactly one fires at rates 0.5/0.5.
    EXPECT_NE(n, i);
    // Decisions are a pure function of the flow content.
    EXPECT_EQ(n, inj.flow_fault_fires(f, "nan"));
    EXPECT_FALSE(off.flow_fault_fires(f, "nan"));
    EXPECT_FALSE(off.flow_fault_fires(f, "throw"));
    nans += n ? 1 : 0;
    infs += i ? 1 : 0;
  }
  // Rates are respected roughly (200 draws at p=0.5 each).
  EXPECT_GT(nans, 60u);
  EXPECT_GT(infs, 60u);
}

TEST(Chaos, OnlyOneInjectorMayArmFeatureChaos) {
  FaultInjector a(FaultSpec::parse("nan=0.1"));
  FaultInjector b(FaultSpec::parse("inf=0.1"));
  a.arm_feature_chaos();
  a.arm_feature_chaos();  // re-arming the same injector is a no-op
  EXPECT_THROW(b.arm_feature_chaos(), std::logic_error);
  a.disarm_feature_chaos();
  b.arm_feature_chaos();
  b.disarm_feature_chaos();
  obs::health().reset();
}

// ---------------------------------------------------------------------------
// Assembler tolerance of non-monotonic timestamps.

Packet assembler_packet(std::int64_t us) {
  Packet p;
  p.ts = Timestamp(us);
  p.tuple = {{Ipv4Addr(192, 168, 1, 7), 40000},
             {Ipv4Addr(54, 1, 2, 3), 443},
             Transport::kTcp};
  p.size = 100;
  p.dir = Direction::kOutbound;
  p.device = 7;
  return p;
}

TEST(Assembler, ClampsBackwardsTimestampsAndReportsHealth) {
  obs::health().reset();
  DomainResolver resolver;
  const FlowAssembler assembler;
  // The third packet regresses 800 ms — beyond the 100 ms tolerance — and
  // must be clamped to the running max instead of fracturing the flow.
  const std::vector<Packet> packets{assembler_packet(0),
                                    assembler_packet(1'000'000),
                                    assembler_packet(200'000),
                                    assembler_packet(1'100'000)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets.size(), 4u);
  EXPECT_EQ(flows[0].start, Timestamp(0));
  EXPECT_EQ(flows[0].end, Timestamp(1'100'000));
  for (std::size_t i = 1; i < flows[0].packets.size(); ++i) {
    EXPECT_GE(flows[0].packets[i].ts, flows[0].packets[i - 1].ts);
  }
  // The input vector is untouched (clamping happens on a side copy).
  EXPECT_EQ(packets[2].ts, Timestamp(200'000));
  const auto snap = obs::health().snapshot();
  const auto* asm_health = snap.find("flow.assembler");
  ASSERT_NE(asm_health, nullptr);
  EXPECT_EQ(asm_health->state, obs::ComponentState::kDegraded);
  ASSERT_FALSE(asm_health->reasons.empty());
  EXPECT_EQ(asm_health->reasons[0].rfind("nonmonotonic-ts:", 0), 0u);
  obs::health().reset();
}

TEST(Assembler, SmallRegressionsWithinToleranceAreNotReported) {
  obs::health().reset();
  DomainResolver resolver;
  const FlowAssembler assembler;
  // 50 ms backwards is ordinary capture jitter, not a fault.
  const std::vector<Packet> packets{assembler_packet(0),
                                    assembler_packet(1'000'000),
                                    assembler_packet(950'000)};
  (void)assembler.assemble(packets, resolver);
  const auto snap = obs::health().snapshot();
  const auto* asm_health = snap.find("flow.assembler");
  ASSERT_NE(asm_health, nullptr);
  for (const std::string& r : asm_health->reasons) {
    EXPECT_EQ(r.rfind("nonmonotonic-ts:", 0), std::string::npos) << r;
  }
  obs::health().reset();
}

// ---------------------------------------------------------------------------
// Health embedding in exports and alert reports.

TEST(Export, HealthTravelsWithMetricsAndAlerts) {
  obs::health().reset();
  obs::health().degrade("flow.assembler", "nonmonotonic-ts:5");
  obs::health().quarantine("periodic.infer", "cam:api.example.com|TLS",
                           "kmeans blew up");
  const auto snap = obs::health().snapshot();

  const std::string json = obs::to_json(obs::MetricsSnapshot{}, snap);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("periodic.infer"), std::string::npos);

  const std::string prom = obs::to_prometheus(obs::MetricsSnapshot{}, snap);
  EXPECT_NE(prom.find("behaviot_component_health{component=\"flow_assembler\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("behaviot_component_health{component=\"periodic_infer\"} 2"),
            std::string::npos);

  // Alerts document embeds the snapshot, and readers that predate the field
  // still round-trip the alerts themselves.
  const std::string doc = alerts_to_json({}, &snap);
  EXPECT_NE(doc.find("\"health\""), std::string::npos);
  EXPECT_TRUE(alerts_from_json(doc).empty());
  obs::health().reset();
}

// ---------------------------------------------------------------------------
// Faulted captures still ingest under both parse policies.

TEST(Chaos, FaultedCaptureSurvivesStrictAndLenientIngest) {
  auto capture = testbed::Datasets::idle(17, /*days=*/0.02);
  FaultInjector inj(
      FaultSpec::parse("truncate=0.8,drop=0.1,dup=0.1,reorder=0.1,seed=4"));
  inj.apply(capture);
  EXPECT_GT(inj.stats().payloads_truncated.load(), 0u);
  const auto bytes = serialize_pcap(capture.packets);
  for (const ParsePolicy policy :
       {ParsePolicy::kStrict, ParsePolicy::kLenient}) {
    const auto result = parse_pcap(bytes, policy);
    EXPECT_EQ(result.packets.size(), capture.packets.size());
  }
  obs::health().reset();
}

// ---------------------------------------------------------------------------
// The differential suite proper: shared clean fixtures, then every fault
// class through the full train → classify → score chain.

class ChaosPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    idle_ = new testbed::GeneratedCapture(testbed::Datasets::idle(91, 0.5));
    activity_ =
        new testbed::GeneratedCapture(testbed::Datasets::activity(92, 4));
    routine_ = new testbed::GeneratedCapture(
        testbed::Datasets::routine_week(93, 1.0));
    pipeline_ = new Pipeline();
    models_ = new BehaviorModelSet(train_clean());
  }

  static void TearDownTestSuite() {
    delete models_;
    delete pipeline_;
    delete routine_;
    delete activity_;
    delete idle_;
    obs::health().reset();
  }

  static BehaviorModelSet train_clean() {
    DomainResolver resolver;
    return pipeline_->train(pipeline_->to_flows(*idle_, resolver), 43200.0,
                            pipeline_->to_flows(*activity_, resolver),
                            pipeline_->to_flows(*routine_, resolver));
  }

  /// Full train → classify → score chain with `injector` applied to every
  /// capture (and armed for feature faults). Returns the injected count.
  static std::uint64_t run_chain(FaultInjector& injector) {
    testbed::GeneratedCapture idle = *idle_;
    testbed::GeneratedCapture activity = *activity_;
    testbed::GeneratedCapture routine = *routine_;
    injector.apply(idle);
    injector.apply(activity);
    injector.apply(routine);
    injector.arm_feature_chaos();

    DomainResolver resolver;
    const BehaviorModelSet trained = pipeline_->train(
        pipeline_->to_flows(idle, resolver), 43200.0,
        pipeline_->to_flows(activity, resolver),
        pipeline_->to_flows(routine, resolver));

    const auto flows = pipeline_->to_flows(routine, resolver);
    (void)pipeline_->classify(flows, trained);

    DeviationEngine engine(trained);
    auto day = testbed::Datasets::uncontrolled_day(1, 94);
    injector.apply(day);
    (void)engine.process_window(day);

    injector.disarm_feature_chaos();
    return injector.stats().total();
  }

  static testbed::GeneratedCapture* idle_;
  static testbed::GeneratedCapture* activity_;
  static testbed::GeneratedCapture* routine_;
  static Pipeline* pipeline_;
  static BehaviorModelSet* models_;
};

testbed::GeneratedCapture* ChaosPipelineTest::idle_ = nullptr;
testbed::GeneratedCapture* ChaosPipelineTest::activity_ = nullptr;
testbed::GeneratedCapture* ChaosPipelineTest::routine_ = nullptr;
Pipeline* ChaosPipelineTest::pipeline_ = nullptr;
BehaviorModelSet* ChaosPipelineTest::models_ = nullptr;

TEST_F(ChaosPipelineTest, EveryFaultClassSurvivesTrainClassifyScore) {
  const char* kSpecs[] = {
      "drop=0.05",   "dup=0.05",   "reorder=0.05", "regress=0.02",
      "dnsloss=0.5", "flap=0.5",   "truncate=0.5", "skew=250",
      "nan=0.1",     "inf=0.1",    "throw=0.05",
  };
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    obs::health().reset();
    FaultInjector injector(
        FaultSpec::parse(std::string(spec) + ",seed=7"));
    std::uint64_t injected = 0;
    ASSERT_NO_THROW(injected = run_chain(injector)) << spec;
    EXPECT_GT(injected, 0u) << spec;
    // The degradation must be visible: at minimum the injector reported
    // itself, and the run cannot claim to be fully healthy.
    const auto snap = obs::health().snapshot();
    EXPECT_NE(snap.find("chaos.injector"), nullptr) << spec;
    EXPECT_NE(snap.overall(), obs::ComponentState::kHealthy) << spec;
  }
  obs::health().reset();
}

TEST_F(ChaosPipelineTest, DisabledChaosIsByteIdentical) {
  // A zero spec must leave captures untouched and models byte-for-byte
  // identical — chaos support cannot tax the non-chaos path.
  FaultInjector off(FaultSpec{});
  testbed::GeneratedCapture idle = *idle_;
  off.apply(idle);
  off.arm_feature_chaos();  // no-op for a spec with no feature faults
  const BehaviorModelSet retrained = train_clean();
  off.disarm_feature_chaos();

  // The binary image pins every section, user-action forests included.
  EXPECT_EQ(save_models_binary(*models_), save_models_binary(retrained));
  EXPECT_EQ(off.stats().total(), 0u);
}

TEST_F(ChaosPipelineTest, OutageDetectionSurvivesOnePercentLossAndReorder) {
  // §6.2: the day-30 network outage fires periodic alerts. Realistic capture
  // imperfections — ≤1% loss and reordering — must not mask the incident.
  const auto periodic_alerts = [&](DeviationEngine& engine,
                                   FaultInjector* injector) {
    auto quiet = testbed::Datasets::uncontrolled_day(29, 94);
    auto outage = testbed::Datasets::uncontrolled_day(30, 94);
    if (injector != nullptr) {
      injector->apply(quiet);
      injector->apply(outage);
    }
    (void)engine.process_window(quiet);
    const auto alerts = engine.process_window(outage);
    std::size_t periodic = 0;
    for (const auto& a : alerts) {
      periodic += a.source == DeviationSource::kPeriodic ? 1 : 0;
    }
    return periodic;
  };

  DeviationEngine clean_engine(*models_);
  const std::size_t baseline = periodic_alerts(clean_engine, nullptr);
  EXPECT_GT(baseline, 3u);

  FaultInjector injector(FaultSpec::parse("drop=0.01,reorder=0.01,seed=5"));
  DeviationEngine chaos_engine(*models_);
  const std::size_t under_chaos = periodic_alerts(chaos_engine, &injector);
  EXPECT_GT(injector.stats().packets_dropped.load(), 0u);
  EXPECT_GT(under_chaos, 3u);
  // Within tolerance of the clean run: the incident stays the dominant
  // signal, not an artifact drowned by capture noise.
  EXPECT_GE(under_chaos * 2, baseline);
  obs::health().reset();
}

}  // namespace
}  // namespace behaviot
