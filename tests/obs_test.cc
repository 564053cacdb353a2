// Tests for the observability layer (src/obs): metric primitives and
// registry, trace spans and Chrome-trace export, the autograd profiler,
// training-health telemetry, the JSON lint helper, log-level parsing —
// and the load-bearing guarantee that enabling instrumentation does not
// change training results bitwise.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "core/graphaug.h"
#include "data/synthetic.h"
#include "obs/obs.h"

namespace graphaug {
namespace {

/// Every test runs with a clean slate and leaves instrumentation off, so
/// suites sharing the process never observe each other's state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(false);
    obs::SetTraceEnabled(false);
    obs::ResetAll();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::SetTraceEnabled(false);
    obs::ResetAll();
  }
};

// ------------------------------------------------------------- metrics

TEST_F(ObsTest, HistogramQuantilesInterpolateWithinBuckets) {
  obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "test.quant", {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // empty: no estimate
  // 10 observations in bucket 0 (edges 0..10): the median rank (5 of 10)
  // interpolates to the bucket midpoint.
  for (int i = 0; i < 10; ++i) h->Observe(5.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 10.0);
  // Add 10 in bucket 1 (10..20): p50 lands on the shared edge, p75 at
  // the midpoint of bucket 1, p95 at rank 19 of 20 -> 10 + 10 * 9/10.
  for (int i = 0; i < 10; ++i) h->Observe(15.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.95), 19.0);
  // Overflow observations clamp to the largest bound.
  for (int i = 0; i < 100; ++i) h->Observe(1000.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 40.0);
  // Out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(h->Quantile(-1.0), h->Quantile(0.0));
  EXPECT_DOUBLE_EQ(h->Quantile(2.0), h->Quantile(1.0));
}

TEST_F(ObsTest, HistogramQuantileEdgeCases) {
  obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "test.quant_edge", {10.0, 20.0, 40.0});
  // Empty histogram: every quantile is 0 (no estimate), even the extremes.
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 0.0);
  // A single observation interpolates within its bucket by rank.
  h->Observe(5.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 0.0);   // bucket lower edge
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 5.0);   // bucket midpoint
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 10.0);  // bucket upper edge
  // Observations beyond the last bound clamp to it even when the
  // overflow bucket holds every sample.
  h->Reset();
  for (int i = 0; i < 3; ++i) h->Observe(1e9);
  EXPECT_DOUBLE_EQ(h->Quantile(0.01), 40.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 40.0);
  // A first bucket with a negative bound anchors at that bound, not 0.
  obs::Histogram* neg = obs::MetricsRegistry::Get().GetHistogram(
      "test.quant_neg", {-5.0, 5.0});
  neg->Observe(-10.0);
  EXPECT_DOUBLE_EQ(neg->Quantile(0.5), -5.0);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "test.hist", {1.0, 2.0, 4.0});
  // Bucket i counts bounds[i-1] < v <= bounds[i]; values above the last
  // bound land in the overflow bucket.
  h->Observe(0.5);   // bucket 0
  h->Observe(1.0);   // bucket 0 (inclusive upper edge)
  h->Observe(1.5);   // bucket 1
  h->Observe(2.0);   // bucket 1
  h->Observe(4.0);   // bucket 2
  h->Observe(4.1);   // overflow
  h->Observe(100.);  // overflow
  EXPECT_EQ(h->BucketCount(0), 2);
  EXPECT_EQ(h->BucketCount(1), 2);
  EXPECT_EQ(h->BucketCount(2), 1);
  EXPECT_EQ(h->BucketCount(3), 2);
  EXPECT_EQ(h->TotalCount(), 7);
  EXPECT_NEAR(h->Sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 + 100.0, 1e-9);

  h->Reset();
  EXPECT_EQ(h->TotalCount(), 0);
  EXPECT_EQ(h->BucketCount(3), 0);
}

TEST_F(ObsTest, RegistryReturnsStableObjects) {
  obs::Counter* c1 = obs::MetricsRegistry::Get().GetCounter("test.c");
  obs::Counter* c2 = obs::MetricsRegistry::Get().GetCounter("test.c");
  EXPECT_EQ(c1, c2);
  // Histogram bounds are fixed at first registration.
  obs::Histogram* h1 =
      obs::MetricsRegistry::Get().GetHistogram("test.h", {1.0, 2.0});
  obs::Histogram* h2 =
      obs::MetricsRegistry::Get().GetHistogram("test.h", {9.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds().size(), 2u);
}

TEST_F(ObsTest, CounterAtomicUnderParallelFor) {
  const int prev_threads = NumThreads();
  SetNumThreads(4);
  obs::Counter* c = obs::MetricsRegistry::Get().GetCounter("test.atomic");
  obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "test.atomic_hist", {0.5});
  constexpr int64_t kN = 200000;
  ParallelFor(0, kN, 1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      c->Inc();
      h->Observe(static_cast<double>(i % 2));
    }
  });
  EXPECT_EQ(c->value(), kN);
  EXPECT_EQ(h->TotalCount(), kN);
  EXPECT_EQ(h->BucketCount(0) + h->BucketCount(1), kN);
  SetNumThreads(prev_threads);
}

// ---------------------------------------------------------------- trace

TEST_F(ObsTest, TraceSpansRecordAndExportWellFormedJson) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  obs::SetTraceEnabled(true);
  {
    GA_TRACE_SPAN("outer_span");
    GA_TRACE_SPAN("inner_span");
  }
  obs::RecordTraceEvent("direct_span", obs::TraceClockNs(), 42);

  const std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(obs::TraceEventTotal(), 3);
  EXPECT_EQ(obs::TraceDroppedTotal(), 0);

  const std::string json = obs::ChromeTraceJson();
  std::string err;
  EXPECT_TRUE(obs::JsonLint(json, &err)) << err;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("outer_span"), std::string::npos);
  EXPECT_NE(json.find("inner_span"), std::string::npos);
  EXPECT_NE(json.find("direct_span"), std::string::npos);
  // Chrome trace format: complete events with microsecond timestamps.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, TraceDisabledRecordsNothing) {
  obs::SetEnabled(true);  // master switch alone does not record spans
  {
    GA_TRACE_SPAN("should_not_appear");
  }
  EXPECT_EQ(obs::TraceEventTotal(), 0);
  const std::string json = obs::ChromeTraceJson();
  std::string err;
  EXPECT_TRUE(obs::JsonLint(json, &err)) << err;
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
}

TEST_F(ObsTest, TraceOverflowCountsDroppedEvents) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  obs::SetTraceEnabled(true);
  // One past-capacity burst on a single thread: every overwritten event
  // must show up in the dropped totals, the trace.dropped_events counter
  // (what the CLI's truncation warning reads), and the exported JSON.
  constexpr int64_t kCapacity = int64_t{1} << 16;  // per-thread ring size
  constexpr int64_t kOverflow = 5;
  for (int64_t i = 0; i < kCapacity + kOverflow; ++i) {
    obs::RecordTraceEvent("flood", /*ts_ns=*/i, /*dur_ns=*/1);
  }
  EXPECT_EQ(obs::TraceEventTotal(), kCapacity + kOverflow);
  EXPECT_EQ(obs::TraceDroppedTotal(), kOverflow);
  const auto counters = obs::MetricsRegistry::Get().CounterSnapshot();
  ASSERT_TRUE(counters.count("trace.dropped_events"));
  EXPECT_EQ(counters.at("trace.dropped_events"), kOverflow);
  const std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_events\": 5"), std::string::npos);
}

// ---------------------------------------------------- autograd profiler

TEST_F(ObsTest, ProfilerAccumulatesForwardAndBackward) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  Rng rng(3);
  ParamStore store;
  Parameter* a = store.CreateNormal("a", 6, 5, &rng);
  Parameter* b = store.CreateNormal("b", 5, 4, &rng);
  for (int i = 0; i < 2; ++i) {
    Tape tape;
    Var y = ag::MeanAll(ag::MatMul(ag::Leaf(&tape, a), ag::Leaf(&tape, b)));
    tape.Backward(y);
  }
  const std::map<std::string, obs::OpStats> snap =
      obs::AutogradProfiler::Get().Snapshot();
  ASSERT_TRUE(snap.count("MatMul"));
  const obs::OpStats& mm = snap.at("MatMul");
  EXPECT_EQ(mm.fwd_calls, 2);
  EXPECT_EQ(mm.bwd_calls, 2);
  EXPECT_GE(mm.fwd_ns, 0);
  // Analytic estimate: 2*m*k*n flops per forward call.
  EXPECT_DOUBLE_EQ(mm.flops, 2.0 * (2.0 * 6 * 5 * 4));
  ASSERT_TRUE(snap.count("MeanAll"));
  EXPECT_EQ(snap.at("MeanAll").bwd_calls, 2);

  std::string err;
  EXPECT_TRUE(obs::JsonLint(obs::AutogradProfiler::Get().ToJson(), &err))
      << err;
}

TEST_F(ObsTest, ProfilerIdleWhenDisabled) {
  Rng rng(3);
  ParamStore store;
  Parameter* a = store.CreateNormal("a", 3, 3, &rng);
  Tape tape;
  tape.Backward(ag::MeanAll(ag::Square(ag::Leaf(&tape, a))));
  EXPECT_TRUE(obs::AutogradProfiler::Get().Snapshot().empty());
}

// ------------------------------------------------------------- health

TEST_F(ObsTest, HealthTrackerFoldsBatchesIntoEpochs) {
  obs::HealthTracker& ht = obs::HealthTracker::Get();
  ht.RecordLossComponent("bpr", 1.0);
  ht.RecordLossComponent("bpr", 3.0);
  ht.RecordBatchGrad(4.0, 0);   // norm 2
  ht.RecordBatchGrad(16.0, 2);  // norm 4, two bad entries
  const obs::EpochHealth h = ht.EndEpoch(1, 7.5, 2.0);
  EXPECT_EQ(h.epoch, 1);
  EXPECT_DOUBLE_EQ(h.loss, 2.0);
  EXPECT_DOUBLE_EQ(h.grad_norm, 3.0);  // mean of 2 and 4
  EXPECT_DOUBLE_EQ(h.param_norm, 7.5);
  EXPECT_EQ(h.nonfinite_grads, 2);
  EXPECT_DOUBLE_EQ(h.loss_components.at("bpr"), 2.0);

  // Batch accumulators reset between epochs; history persists.
  const obs::EpochHealth h2 = ht.EndEpoch(2, 7.5, 1.0);
  EXPECT_EQ(h2.nonfinite_grads, 0);
  EXPECT_TRUE(h2.loss_components.empty());
  EXPECT_EQ(ht.History().size(), 2u);
  EXPECT_EQ(ht.TotalNonFinite(), 2);

  std::string err;
  EXPECT_TRUE(obs::JsonLint(ht.ToJson(), &err)) << err;
}

TEST_F(ObsTest, NonFiniteCountScansCorrectly) {
  std::vector<float> v = {1.f, 0.f, -2.f};
  EXPECT_EQ(obs::NonFiniteCount(v.data(), 3), 0);
  v.push_back(std::numeric_limits<float>::quiet_NaN());
  v.push_back(std::numeric_limits<float>::infinity());
  v.push_back(-std::numeric_limits<float>::infinity());
  EXPECT_EQ(obs::NonFiniteCount(v.data(), 6), 3);
  EXPECT_EQ(obs::NonFiniteCount(v.data(), 0), 0);
}

// ------------------------------------------------------ memory accounting

TEST_F(ObsTest, LiveBytesReturnToBaselineWhenTensorsDie) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  const int64_t baseline_live = obs::LiveBytes();
  const int64_t baseline_allocs = obs::AllocCount();
  obs::ResetPeakBytes();
  {
    Matrix a(128, 64), b(64, 32);
    EXPECT_GE(obs::LiveBytes(),
              baseline_live +
                  static_cast<int64_t>(sizeof(float)) * (128 * 64 + 64 * 32));
    EXPECT_GE(obs::PeakBytes(), obs::LiveBytes());
  }
  // Scope closed: every buffer died, live is back to the baseline but the
  // high-water mark and monotonic counters remember the excursion.
  EXPECT_EQ(obs::LiveBytes(), baseline_live);
  EXPECT_GE(obs::PeakBytes(),
            baseline_live +
                static_cast<int64_t>(sizeof(float)) * (128 * 64 + 64 * 32));
  EXPECT_GE(obs::AllocCount(), baseline_allocs + 2);
  EXPECT_GE(obs::FreeCount(), 2);
}

TEST_F(ObsTest, PeakBytesTracksAllocationsAcrossPoolThreads) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  const int prev_threads = NumThreads();
  SetNumThreads(4);
  const int64_t baseline_live = obs::LiveBytes();
  obs::ResetPeakBytes();
  constexpr int64_t kTasks = 64;
  constexpr int64_t kRows = 256, kCols = 16;
  ParallelFor(0, kTasks, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      Matrix m(kRows, kCols, 1.0f);
      // Touch the buffer so the allocation cannot be elided.
      ASSERT_EQ(m.data()[0], 1.0f);
    }
  });
  // Worker-thread allocations went through the same global accounting: at
  // least one matrix was live at some point past the baseline, and all of
  // them died by the barrier.
  EXPECT_GE(obs::PeakBytes(),
            baseline_live +
                static_cast<int64_t>(sizeof(float)) * kRows * kCols);
  EXPECT_EQ(obs::LiveBytes(), baseline_live);
  SetNumThreads(prev_threads);
}

TEST_F(ObsTest, AllocationsAttributeToEnclosingOpTag) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  {
    GA_AG_OP("TestAllocOp", 0, 0);
    Matrix m(32, 32);
    ASSERT_NE(m.data(), nullptr);
  }
  const auto tags = obs::MemoryTagSnapshot();
  ASSERT_TRUE(tags.count("TestAllocOp"));
  EXPECT_GE(tags.at("TestAllocOp").bytes,
            static_cast<int64_t>(sizeof(float)) * 32 * 32);
  EXPECT_GE(tags.at("TestAllocOp").count, 1);

  std::string err;
  EXPECT_TRUE(obs::JsonLint(obs::MemoryJson(), &err)) << err;
}

TEST_F(ObsTest, BackwardAllocationsChargeToNodeOp) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  Rng rng(5);
  ParamStore store;
  Parameter* p = store.CreateNormal("p", 16, 8, &rng);
  Tape tape;
  Var x = ag::Leaf(&tape, p);
  Var y;
  {
    GA_AG_OP("TestBwdAllocOp", 0, 0);
    const int xid = x.id();
    y = tape.Emit(x.value(), true, [xid](Tape* t, const Matrix& up) {
      Matrix g(up.rows(), up.cols());  // the backward-pass allocation
      for (int64_t i = 0; i < up.size(); ++i) g[i] = 2.f * up[i];
      t->AccumulateGrad(xid, g);
    });
  }
  Var loss = ag::MeanAll(y);
  const obs::MemoryTagStats before = obs::MemoryTagSnapshot()["TestBwdAllocOp"];
  tape.Backward(loss);
  const obs::MemoryTagStats after = obs::MemoryTagSnapshot()["TestBwdAllocOp"];
  EXPECT_GE(after.count - before.count, 1);
  EXPECT_GE(after.bytes - before.bytes,
            static_cast<int64_t>(sizeof(float)) * 16 * 8);
  const auto ops = obs::AutogradProfiler::Get().Snapshot();
  ASSERT_TRUE(ops.count("TestBwdAllocOp"));
  EXPECT_EQ(ops.at("TestBwdAllocOp").fwd_calls, 1);
  EXPECT_EQ(ops.at("TestBwdAllocOp").bwd_calls, 1);
}

TEST_F(ObsTest, SpanInsideOpReportsOpTag) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  const int prev_threads = NumThreads();
  SetNumThreads(3);
  std::vector<std::string> chunk_tags(6);
  {
    GA_AG_OP("TagOuterOp", 0, 0);
    {
      GA_TRACE_SPAN("tag_inner_span");
      EXPECT_STREQ(obs::CurrentTag(), "TagOuterOp");
      EXPECT_STREQ(obs::Scope::Current()->name(), "tag_inner_span");
    }
    ParallelFor(0, 6, 1, [&chunk_tags](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        GA_TRACE_SPAN("tag_chunk_span");
        chunk_tags[static_cast<size_t>(i)] = obs::CurrentTag();
      }
    });
  }
  SetNumThreads(prev_threads);
  for (const std::string& tag : chunk_tags) EXPECT_EQ(tag, "TagOuterOp");
  // Without an op, a span's tag is its own name.
  GA_TRACE_SPAN("tag_lone_span");
  EXPECT_STREQ(obs::CurrentTag(), "tag_lone_span");
}

TEST_F(ObsTest, NestedPerfRegionRecordsNothing) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  {
    GA_PERF_REGION("outer_region");
    {
      GA_PERF_REGION("inner_region");
      EXPECT_STREQ(obs::Scope::Current()->parent()->name(), "outer_region");
      volatile double sink = 0;
      for (int i = 0; i < 100000; ++i) sink = sink + 1.5;
    }
  }
  const auto regions = obs::PerfRegionSnapshot();
  EXPECT_EQ(regions.count("inner_region"), 0u);
  // The outer region counts whenever the host grants perf counters.
  EXPECT_EQ(regions.count("outer_region"),
            obs::PerfCountersAvailable() ? 1u : 0u);
}

// --------------------------------------------------------- perf counters

TEST_F(ObsTest, PerfCountersDegradeGracefully) {
  // Contract under any kernel/container configuration: Begin() either
  // succeeds (then End() yields plausible counts and the subsystem
  // reports available) or fails (then counts stay invalid and every
  // later Begin() fails cheaply). Both branches are correct.
  obs::PerfCounterGroup group;
  if (group.Begin()) {
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1.5;
    const obs::PerfCounts counts = group.End();
    ASSERT_TRUE(counts.valid);
    EXPECT_TRUE(obs::PerfCountersAvailable());
    EXPECT_GT(counts.instructions, 0);
    EXPECT_GT(counts.cycles, 0);
    EXPECT_GT(counts.Ipc(), 0.0);
    EXPECT_GE(counts.CacheMissRate(), 0.0);
    EXPECT_LE(counts.CacheMissRate(), 1.0);
  } else {
    EXPECT_FALSE(obs::PerfCountersAvailable());
    EXPECT_FALSE(group.End().valid);
    obs::PerfCounterGroup again;
    EXPECT_FALSE(again.Begin());
  }
  std::string err;
  EXPECT_TRUE(obs::JsonLint(obs::PerfJson(), &err)) << err;
}

// ------------------------------------------------------ sampling profiler

/// Burns roughly `seconds` of CPU in a frame the symbolizer must be able
/// to name. noinline keeps it a real stack frame in Release builds; the
/// volatile accumulator keeps the loop from being folded away.
__attribute__((noinline)) double ObsTestProfilerSpin(double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  volatile double sink = 1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 4000; ++i) sink = sink * 1.0000001 + 1e-9;
  }
  return sink;
}

TEST_F(ObsTest, SamplingProfilerCapturesNamedFramesAndSpanTags) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  if (!obs::StartProfiler(/*hz=*/4000)) {
    EXPECT_TRUE(obs::ProfilerProbeFailed());
    GTEST_SKIP() << "per-thread CPU timers unavailable in this environment";
  }
  EXPECT_TRUE(obs::ProfilerRunning());
  double sink = 0.0;
  {
    GA_TRACE_SPAN("obs_test_span");
    sink = ObsTestProfilerSpin(0.4);
  }
  obs::StopProfiler();
  EXPECT_NE(sink, 0.0);
  EXPECT_FALSE(obs::ProfilerRunning());
  // The kernel tick caps CPU-time timer delivery well below the requested
  // rate, so only presence is asserted, not the count.
  ASSERT_GT(obs::ProfileSampleCount(), 0)
      << "no SIGPROF ticks during 400ms of CPU spin";
  const std::string folded = obs::ProfileFoldedText();
  EXPECT_NE(folded.find("ObsTestProfilerSpin"), std::string::npos) << folded;
  EXPECT_NE(folded.find("span:obs_test_span"), std::string::npos) << folded;
  const obs::ProfileSummary sum = obs::SummarizeProfile();
  EXPECT_EQ(sum.samples, obs::ProfileSampleCount());
  EXPECT_GE(sum.threads, 1);
  // The spin dominates the profile and its frames resolve via the ELF
  // symtab, so attribution cannot collapse to "[unknown]".
  EXPECT_GE(sum.attributed_frac, 0.5);
  // The spin runs inside obs_test_span, so almost every sample has a tag.
  EXPECT_GE(sum.span_covered_frac, 0.5);
  std::string err;
  EXPECT_TRUE(obs::JsonLint(obs::ProfileJson(), &err)) << err;
  EXPECT_NE(obs::ProfileJson().find("\"span_covered_frac\""),
            std::string::npos);
  EXPECT_TRUE(obs::WriteProfileFolded(::testing::TempDir() +
                                      "/obs_test_profile.folded"));
}

TEST(ProfilerSymbolizerTest, AcceptsOnlyPcsInsideSymbolOrItsPadding) {
  // A 0x1234-byte symbol at 0x1000 owns [0x1000, 0x2240): its size
  // rounded up to 16 bytes of alignment padding.
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0x1234, 0x8000, 0x1000));
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0x1234, 0x8000, 0x2233));
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0x1234, 0x8000, 0x2234));  // pad
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0x1234, 0x8000, 0x223f));  // pad
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0x1234, 0x8000, 0x2240));
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0x1234, 0x8000, 0x7fff));
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0x1234, 0, 0x9000));
  // A size that is already aligned gets no padding.
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0x40, 0x8000, 0x103f));
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0x40, 0x8000, 0x1040));
  // st_size == 0: up to the next symbol, or 1 MiB past the last one.
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0, 0x8000, 0x7fff));
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0, 0x8000, 0x8000));
  EXPECT_TRUE(obs::SymbolCoversPc(0x1000, 0, 0, 0x1000 + (1 << 20) - 1));
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0, 0, 0x1000 + (1 << 20)));
  EXPECT_FALSE(obs::SymbolCoversPc(0x1000, 0x40, 0x8000, 0xfff));
}

TEST_F(ObsTest, SamplingProfilerSamplesPoolWorkersWithInheritedTags) {
#if !GRAPHAUG_OBS_ENABLED
  GTEST_SKIP() << "built with GRAPHAUG_NO_OBS";
#endif
  obs::SetEnabled(true);
  const int prev_threads = NumThreads();
  SetNumThreads(3);
  // Warm the pool so the worker threads exist (and self-enroll) before
  // the session starts.
  ParallelFor(0, 4, 1, [](int64_t, int64_t) {});
  if (!obs::StartProfiler(/*hz=*/4000)) {
    SetNumThreads(prev_threads);
    GTEST_SKIP() << "per-thread CPU timers unavailable in this environment";
  }
  {
    // The dispatching thread's span is captured at ParallelFor and
    // re-published on every worker chunk, so samples landing in worker
    // threads carry the same tag as the caller's.
    GA_TRACE_SPAN("pool_span");
    ParallelFor(0, 4, 1, [](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) ObsTestProfilerSpin(0.1);
    });
  }
  obs::StopProfiler();
  SetNumThreads(prev_threads);
  ASSERT_GT(obs::ProfileSampleCount(), 0)
      << "no SIGPROF ticks during 400ms of pooled CPU spin";
  const std::string folded = obs::ProfileFoldedText();
  EXPECT_NE(folded.find("span:pool_span"), std::string::npos) << folded;
}

// ----------------------------------------------------------- run reports

TEST_F(ObsTest, ProcessUsageReachesMemoryJsonFooterAndReport) {
  const obs::ProcessUsage before = obs::ReadProcessUsage();
  {
    // Touch fresh pages so the fault counter has to move.
    std::vector<char> buf(8 << 20, 1);
    volatile char sink = buf[buf.size() - 1];
    (void)sink;
  }
  const obs::ProcessUsage after = obs::ReadProcessUsage();
#if defined(__linux__)
  EXPECT_GT(after.minor_faults, before.minor_faults);
  EXPECT_GT(after.user_cpu_s + after.sys_cpu_s, 0.0);
#endif
  EXPECT_GE(after.user_cpu_s, before.user_cpu_s);
  EXPECT_GE(after.sys_cpu_s, before.sys_cpu_s);

  std::string err;
  const std::string mem = obs::MemoryJson();
  EXPECT_TRUE(obs::JsonLint(mem, &err)) << err;
  for (const char* key :
       {"\"minor_faults\"", "\"user_cpu_s\"", "\"sys_cpu_s\""}) {
    EXPECT_NE(mem.find(key), std::string::npos) << key;
  }

  obs::ReportFooter f;
  f.minor_faults = 34000;
  f.user_cpu_s = 5.5;
  f.sys_cpu_s = 0.25;
  const std::string footer = obs::ReportFooterJson(f);
  EXPECT_TRUE(obs::JsonLint(footer, &err)) << footer << ": " << err;
  EXPECT_NE(footer.find("\"minor_faults\":34000"), std::string::npos);
  EXPECT_NE(footer.find("\"user_cpu_s\":5.5"), std::string::npos);
  EXPECT_NE(footer.find("\"sys_cpu_s\":0.25"), std::string::npos);

  const std::string report = obs::AsciiReport();
  EXPECT_NE(report.find(" minor faults, cpu user "), std::string::npos)
      << report;
}

TEST_F(ObsTest, RunReportWriterEmitsValidJsonl) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_report.jsonl";
  obs::RunReportWriter writer;
  ASSERT_TRUE(writer.Open(path));
  obs::ReportEpoch e;
  e.epoch = 1;
  e.loss = 0.75;
  e.loss_components["bpr"] = 0.5;
  e.loss_components["gib_kl"] = 0.25;
  e.grad_norm = 1.5;
  e.evaluated = true;
  e.recall20 = 0.12;
  e.live_bytes = 1024;
  ASSERT_TRUE(writer.WriteEpoch(e));
  obs::ReportFooter f;
  f.env["git_sha"] = "abc123";
  f.config["model"] = "GraphAug";
  f.metrics["recall@20"] = 0.12;
  f.counters["train.batches"] = 6;
  f.best_epoch = 1;
  ASSERT_TRUE(writer.WriteFooter(f));
  ASSERT_TRUE(writer.Close());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  std::string err;
  for (const std::string& l : lines) {
    EXPECT_TRUE(obs::JsonLint(l, &err)) << l << ": " << err;
  }
  EXPECT_NE(lines[0].find("\"type\":\"epoch\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"gib_kl\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"recall20\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"footer\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"git_sha\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"train.batches\""), std::string::npos);
  std::remove(path.c_str());

  // Unevaluated epochs omit the eval fields entirely (absent, not zero).
  obs::ReportEpoch skip;
  skip.epoch = 2;
  EXPECT_EQ(obs::ReportEpochJson(skip).find("recall20"), std::string::npos);

  // An unwritable path fails Open without crashing.
  obs::RunReportWriter bad;
  EXPECT_FALSE(bad.Open("/no/such/dir/report.jsonl"));
  EXPECT_FALSE(bad.is_open());
}

// -------------------------------------------------------- JSON helpers

TEST_F(ObsTest, JsonLintAcceptsValidDocuments) {
  std::string err;
  for (const char* doc :
       {"{}", "[]", "null", "true", "-1.5e-3",
        R"({"a": [1, 2.5, "x\n\"y\""], "b": {"c": null}})",
        R"(["é", 1e10, -0.25])"}) {
    EXPECT_TRUE(obs::JsonLint(doc, &err)) << doc << ": " << err;
  }
}

TEST_F(ObsTest, JsonLintRejectsMalformedDocuments) {
  std::string err;
  for (const char* doc : {"{", "[1,]", "{\"a\":}", "tru", "1 2",
                          "{\"a\" 1}", "\"unterminated", ""}) {
    EXPECT_FALSE(obs::JsonLint(doc, &err)) << doc;
    EXPECT_FALSE(err.empty());
  }
}

TEST_F(ObsTest, CombinedMetricsJsonIsWellFormed) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Get().GetCounter("test.count")->Inc(3);
  obs::MetricsRegistry::Get().GetGauge("test.gauge")->Set(1.25);
  obs::MetricsRegistry::Get()
      .GetHistogram("test.hist", {1.0, 10.0})
      ->Observe(5.0);
  obs::HealthTracker::Get().RecordBatchGrad(1.0, 0);
  obs::HealthTracker::Get().EndEpoch(0, 1.0, 0.5);

  const std::string json = obs::MetricsJson();
  std::string err;
  EXPECT_TRUE(obs::JsonLint(json, &err)) << err;
  for (const char* key :
       {"\"metrics\"", "\"autograd_ops\"", "\"epochs\"", "\"parallel\"",
        "\"memory\"", "\"perf\"", "\"test.count\"", "\"test.gauge\"",
        "\"test.hist\"", "\"p50\"", "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const auto counters = obs::MetricsRegistry::Get().CounterSnapshot();
  ASSERT_TRUE(counters.count("test.count"));
  EXPECT_EQ(counters.at("test.count"), 3);
  // Non-finite doubles must serialize as null, not as bare NaN tokens.
  obs::MetricsRegistry::Get().GetGauge("test.badval")->Set(
      std::numeric_limits<double>::quiet_NaN());
  const std::string json2 = obs::MetricsJson();
  EXPECT_TRUE(obs::JsonLint(json2, &err)) << err;
  EXPECT_EQ(json2.find("nan"), std::string::npos);
  EXPECT_NE(json2.find("\"test.badval\": null"), std::string::npos);
}

// ------------------------------------------------------------ logging

TEST_F(ObsTest, ParseLogLevelNames) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  level = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kError);  // untouched on failure
}

// ------------------------------------- instrumentation is bit-transparent

GraphAugConfig ObsTinyConfig() {
  GraphAugConfig cfg;
  cfg.dim = 16;
  cfg.num_layers = 2;
  cfg.learning_rate = 0.01f;
  cfg.batch_size = 256;
  cfg.batches_per_epoch = 3;
  cfg.contrast_batch = 48;
  cfg.seed = 5;
  return cfg;
}

std::vector<Matrix> TrainTinyGraphAug(bool instrumented) {
  obs::SetEnabled(instrumented);
  obs::SetTraceEnabled(instrumented);
  // The instrumented run also carries the full passive tooling — memory
  // accounting is always on, the RSS sampler polls in the background,
  // and the sampling profiler interrupts the training threads with
  // SIGPROF — so the bitwise comparison below covers it all. StartProfiler
  // may fail where per-thread CPU timers are denied; the run is then
  // simply unprofiled, which the comparison covers too.
  if (instrumented) obs::RssSampler::Get().Start(/*period_ms=*/5);
  if (instrumented) obs::StartProfiler();
  SyntheticData data = GeneratePreset("tiny");
  GraphAug model(&data.dataset, ObsTinyConfig());
  for (int e = 0; e < 2; ++e) model.TrainEpoch();
  std::vector<Matrix> values;
  for (const Parameter* p : model.params()->params()) {
    values.push_back(p->value);
  }
  if (instrumented) obs::StopProfiler();
  if (instrumented) obs::RssSampler::Get().Stop();
  obs::SetEnabled(false);
  obs::SetTraceEnabled(false);
  return values;
}

TEST_F(ObsTest, InstrumentationDoesNotChangeTrainingBitwise) {
  const std::vector<Matrix> plain = TrainTinyGraphAug(false);
  const std::vector<Matrix> instrumented = TrainTinyGraphAug(true);
  ASSERT_EQ(plain.size(), instrumented.size());
  ASSERT_FALSE(plain.empty());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(plain[i].SameShape(instrumented[i])) << "param " << i;
    EXPECT_EQ(std::memcmp(plain[i].data(), instrumented[i].data(),
                          sizeof(float) *
                              static_cast<size_t>(plain[i].size())),
              0)
        << "param " << i << " diverged under instrumentation";
  }
#if GRAPHAUG_OBS_ENABLED
  // The instrumented run actually recorded things (this was not a
  // vacuous comparison). Epoch folding is the Trainer's job, so here the
  // evidence is the profiler and trace buffers, not the epoch history.
  EXPECT_FALSE(obs::AutogradProfiler::Get().Snapshot().empty());
  EXPECT_GT(obs::TraceEventTotal(), 0);
  // ... and so did the passive layers added alongside them.
  EXPECT_GT(obs::AllocCount(), 0);
  EXPECT_GE(obs::RssSampler::Get().SampleCount(), 1);
#endif
}

}  // namespace
}  // namespace graphaug
