// Unit behaviour of the obs:: tracing layer: id minting and hex
// round-trips, deterministic id-derived head sampling, the span-buffer
// open/record/finish lifecycle with its slow-outlier gate, bounded
// ring retention, the allocation-free single-span path, remote span
// adoption, and counter snapshots. The final tests hammer one Tracer
// (and one shared Trace) from many threads and double as the TSan
// stress for the subsystem.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using medcc::obs::Stage;
using medcc::obs::Trace;
using medcc::obs::TraceContext;
using medcc::obs::TraceId;
using medcc::obs::TraceRecord;
using medcc::obs::Tracer;
using medcc::obs::TracerSnapshot;

Tracer::Config sampled_config() {
  Tracer::Config config;
  config.sample_every = 1;  // every mint head-sampled
  config.slow_ms = 0.0;     // slow gate off
  return config;
}

Tracer::Config slow_gate_config(double slow_ms = 25.0) {
  Tracer::Config config;
  config.sample_every = 0;  // head sampling off
  config.slow_ms = slow_ms;
  return config;
}

TEST(TraceId, HexRoundTripAndJunkRejection) {
  const TraceId id{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string hex = id.to_hex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(TraceId::from_hex(hex), id);
  // Uppercase digits parse too.
  EXPECT_EQ(TraceId::from_hex("0123456789ABCDEFFEDCBA9876543210"), id);

  EXPECT_FALSE(TraceId::from_hex("").valid());
  EXPECT_FALSE(TraceId::from_hex("0123").valid());                // short
  EXPECT_FALSE(TraceId::from_hex(hex + "0").valid());             // long
  std::string junk = hex;
  junk[7] = 'g';
  EXPECT_FALSE(TraceId::from_hex(junk).valid());                  // non-hex
  EXPECT_FALSE(TraceId{}.valid());
  EXPECT_EQ(TraceId{}.to_hex(), std::string(32, '0'));
}

TEST(Tracer, MintsUniqueValidIds) {
  Tracer tracer(sampled_config());
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const TraceContext context = tracer.new_context();
    ASSERT_TRUE(context.valid());
    EXPECT_TRUE(context.sampled);  // sample_every == 1
    seen.insert(context.id.to_hex());
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(tracer.snapshot().started, 1000u);
  EXPECT_EQ(tracer.snapshot().sampled, 1000u);
}

TEST(Tracer, TwoTracersMintDisjointIds) {
  // Two edge tracers in one process (e.g. a client and a server in the
  // same test binary) must not collide even when minting on one thread.
  Tracer a(sampled_config());
  Tracer b(sampled_config());
  std::set<std::string> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(a.new_context().id.to_hex());
    seen.insert(b.new_context().id.to_hex());
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Tracer, SamplingIsDerivedFromTheIdItself) {
  Tracer::Config config;
  config.sample_every = 4;
  config.slow_ms = 0.0;
  Tracer tracer(config);
  std::uint64_t sampled = 0;
  for (int i = 0; i < 4000; ++i) {
    const TraceContext context = tracer.new_context();
    // The verdict is a pure function of the id, so every hop that sees
    // the id agrees with the minting edge.
    EXPECT_EQ(context.sampled, context.id.lo % 4 == 0);
    if (context.sampled) ++sampled;
  }
  // Unbiased 1-in-4 over uniform ids: expect roughly 1000, and the
  // counter must agree exactly with the per-context verdicts.
  EXPECT_GT(sampled, 700u);
  EXPECT_LT(sampled, 1300u);
  EXPECT_EQ(tracer.snapshot().sampled, sampled);
}

TEST(Tracer, NonPowerOfTwoSamplingStillWorks) {
  Tracer::Config config;
  config.sample_every = 3;  // exercises the modulo fallback path
  Tracer tracer(config);
  for (int i = 0; i < 300; ++i) {
    const TraceContext context = tracer.new_context();
    EXPECT_EQ(context.sampled, context.id.lo % 3 == 0);
  }
}

TEST(Tracer, DisabledTracerMintsNothing) {
  Tracer::Config config;
  config.enabled = false;
  Tracer tracer(config);
  const TraceContext context = tracer.new_context();
  EXPECT_FALSE(context.valid());
  EXPECT_EQ(tracer.open(TraceContext{TraceId{1, 2}, true}), nullptr);
  tracer.record_span(TraceContext{TraceId{1, 2}, true}, Stage::solve, 0,
                     1000, "node-a");
  const TracerSnapshot snap = tracer.snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.started, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_TRUE(tracer.recent(4).empty());
}

TEST(Tracer, OpenGatesOnSamplingAndSlowGate) {
  Tracer no_capture(slow_gate_config(0.0));  // neither gate armed
  EXPECT_EQ(no_capture.open(TraceContext{TraceId{1, 1}, false}), nullptr);
  EXPECT_EQ(no_capture.open(TraceContext{}), nullptr);  // invalid context

  Tracer slow_armed(slow_gate_config(25.0));
  EXPECT_NE(slow_armed.open(TraceContext{TraceId{1, 1}, false}), nullptr);

  Tracer sampling(sampled_config());
  EXPECT_NE(sampling.open(TraceContext{TraceId{1, 1}, true}), nullptr);
}

TEST(Tracer, SampledTraceIsRetainedWithItsSpans) {
  Tracer tracer(sampled_config());
  const TraceContext context = tracer.new_context();
  const std::shared_ptr<Trace> trace = tracer.open(context);
  ASSERT_NE(trace, nullptr);
  const std::int64_t t0 = trace->started_ns();
  tracer.record(trace, Stage::decode, t0, t0 + 1000);
  tracer.record(trace, Stage::queue_wait, t0 + 1000, t0 + 5000);
  tracer.record(trace, Stage::request, t0, t0 + 9000);
  tracer.finish(trace, "node-a");

  const std::vector<TraceRecord> recent = tracer.recent(4);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].id, context.id);
  EXPECT_EQ(recent[0].origin, "node-a");
  EXPECT_FALSE(recent[0].slow);  // retained by sampling, not the gate
  EXPECT_EQ(recent[0].total_ns, 9000);
  ASSERT_EQ(recent[0].spans.size(), 3u);
  EXPECT_EQ(recent[0].spans[0].stage, Stage::decode);
  EXPECT_EQ(recent[0].spans[1].duration_ns(), 4000);
  EXPECT_EQ(tracer.snapshot().completed, 1u);
}

TEST(Tracer, SlowGateKeepsUnsampledOutliersAndDropsFastOnes) {
  Tracer tracer(slow_gate_config(25.0));
  const TraceContext fast_context{TraceId{7, 1}, false};  // lo % N != 0 moot
  const std::shared_ptr<Trace> fast = tracer.open(fast_context);
  ASSERT_NE(fast, nullptr);  // slow candidate: gate armed
  tracer.record(fast, Stage::request, fast->started_ns(),
                fast->started_ns() + 1'000'000);  // 1 ms: under the gate
  tracer.finish(fast, "node-a");
  EXPECT_EQ(tracer.recent(8).size(), 0u);
  EXPECT_EQ(tracer.snapshot().dropped, 1u);

  const TraceContext slow_context{TraceId{7, 2}, false};
  const std::shared_ptr<Trace> slow = tracer.open(slow_context);
  ASSERT_NE(slow, nullptr);
  tracer.record(slow, Stage::request, slow->started_ns(),
                slow->started_ns() + 60'000'000);  // 60 ms: over the gate
  tracer.finish(slow, "node-a");
  const std::vector<TraceRecord> recent = tracer.recent(8);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].id, slow_context.id);
  EXPECT_TRUE(recent[0].slow);
}

TEST(Tracer, FinishWithNullTraceIsSafe) {
  Tracer tracer(sampled_config());
  tracer.record(nullptr, Stage::solve, 0, 500);  // no buffer: a no-op
  tracer.finish(nullptr, "node-a");
  EXPECT_EQ(tracer.snapshot().completed, 0u);
  EXPECT_EQ(tracer.snapshot().dropped, 0u);
  EXPECT_EQ(tracer.recent(4).size(), 0u);
}

TEST(Tracer, RingEvictsOldestBeyondCapacity) {
  Tracer::Config config = sampled_config();
  config.ring_capacity = 2;
  Tracer tracer(config);
  std::vector<TraceId> ids;
  for (int i = 0; i < 3; ++i) {
    const TraceContext context = tracer.new_context();
    ids.push_back(context.id);
    const std::shared_ptr<Trace> trace = tracer.open(context);
    ASSERT_NE(trace, nullptr);
    tracer.record(trace, Stage::request, trace->started_ns(),
                  trace->started_ns() + 100);
    tracer.finish(trace, "node-a");
  }
  const std::vector<TraceRecord> recent = tracer.recent(8);
  ASSERT_EQ(recent.size(), 2u);  // capacity bound
  EXPECT_EQ(recent[0].id, ids[2]);  // newest first
  EXPECT_EQ(recent[1].id, ids[1]);  // ids[0] evicted
}

TEST(Tracer, SpanBufferOverflowIsCountedNotGrown) {
  Tracer::Config config = sampled_config();
  config.max_spans = 2;
  Tracer tracer(config);
  const std::shared_ptr<Trace> trace =
      tracer.open(TraceContext{TraceId{3, 3}, true});
  ASSERT_NE(trace, nullptr);
  for (int i = 0; i < 5; ++i)
    trace->add(Stage::solve, i * 10, i * 10 + 5);
  EXPECT_EQ(trace->spans().size(), 2u);
  EXPECT_EQ(trace->overflow(), 3u);
}

TEST(Tracer, RecordSpanRetainsSampledAndSlowOnly) {
  Tracer::Config config;
  config.sample_every = 0;
  config.slow_ms = 25.0;
  Tracer tracer(config);

  // Fast and unsampled: nothing retained.
  tracer.record_span(TraceContext{TraceId{1, 1}, false}, Stage::wire_fastpath,
                     0, 1000, "node-a");
  EXPECT_EQ(tracer.recent(8).size(), 0u);

  // Sampled: retained as a one-span record.
  tracer.record_span(TraceContext{TraceId{1, 2}, true}, Stage::wire_fastpath,
                     0, 1000, "node-a");
  ASSERT_EQ(tracer.recent(8).size(), 1u);
  EXPECT_EQ(tracer.recent(8)[0].id, (TraceId{1, 2}));
  EXPECT_FALSE(tracer.recent(8)[0].slow);

  // Unsampled but over the slow gate: retained and marked slow.
  tracer.record_span(TraceContext{TraceId{1, 3}, false}, Stage::wire_fastpath,
                     0, 60'000'000, "node-a");
  ASSERT_EQ(tracer.recent(8).size(), 2u);
  EXPECT_EQ(tracer.recent(8)[0].id, (TraceId{1, 3}));
  EXPECT_TRUE(tracer.recent(8)[0].slow);

  // Invalid context: nothing retained, even over the slow gate.
  tracer.record_span(TraceContext{}, Stage::wire_fastpath, 0, 60'000'000,
                     "node-a");
  EXPECT_EQ(tracer.recent(8).size(), 2u);
}

TEST(Tracer, RecordSpanAdoptsARemoteId) {
  Tracer tracer(sampled_config());
  const TraceContext remote{TraceId{0xabc, 0xdef}, true};
  tracer.record_span(remote, Stage::repl_apply, 1000, 4000, "node-b");
  const std::vector<TraceRecord> recent = tracer.recent(4);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].id, remote.id);  // correlates across nodes
  EXPECT_EQ(recent[0].origin, "node-b");
  ASSERT_EQ(recent[0].spans.size(), 1u);
  EXPECT_EQ(recent[0].spans[0].stage, Stage::repl_apply);
  EXPECT_EQ(recent[0].total_ns, 3000);
}

TEST(Tracer, SlowestOrdersByTotalDuration) {
  Tracer tracer(sampled_config());
  const std::int64_t durations[] = {5000, 9000, 1000};
  std::vector<TraceId> ids;
  for (const std::int64_t d : durations) {
    const TraceContext context = tracer.new_context();
    ids.push_back(context.id);
    const std::shared_ptr<Trace> trace = tracer.open(context);
    ASSERT_NE(trace, nullptr);
    tracer.record(trace, Stage::request, trace->started_ns(),
                  trace->started_ns() + d);
    tracer.finish(trace, "node-a");
  }
  const std::vector<TraceRecord> slowest = tracer.slowest(2);
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].id, ids[1]);  // 9000
  EXPECT_EQ(slowest[1].id, ids[0]);  // 5000
}

// -- concurrency stress (TSan target) --------------------------------------

TEST(TracerStress, ConcurrentMintRecordFinishStaysConsistent) {
  Tracer::Config config = sampled_config();
  config.ring_capacity = 64;
  Tracer tracer(config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        const TraceContext context = tracer.new_context();
        const std::shared_ptr<Trace> trace = tracer.open(context);
        ASSERT_NE(trace, nullptr);
        const std::int64_t t0 = trace->started_ns();
        tracer.record(trace, Stage::decode, t0, t0 + 10);
        tracer.record(trace, Stage::solve, t0 + 10, t0 + 90);
        tracer.record(trace, Stage::request, t0, t0 + 100);
        tracer.finish(trace, "stress");
        tracer.record_span(TraceContext{TraceId{1, 1}, false},
                           Stage::wire_fastpath, 0, 10, "stress");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const TracerSnapshot snap = tracer.snapshot();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.started, kTotal);
  EXPECT_EQ(snap.sampled, kTotal);
  // Every trace head-sampled; the unsampled, fast single spans are
  // neither retained nor counted as dropped.
  EXPECT_EQ(snap.completed, kTotal);
  EXPECT_EQ(snap.dropped, 0u);
  const std::vector<TraceRecord> kept = tracer.recent(256);
  EXPECT_EQ(kept.size(), 64u);  // ring capacity
  for (const TraceRecord& record : kept) {
    // Each retained trace holds its own three spans, whole.
    ASSERT_EQ(record.spans.size(), 3u);
    EXPECT_EQ(record.spans[0].stage, Stage::decode);
    EXPECT_EQ(record.spans[1].duration_ns(), 80);
    EXPECT_EQ(record.total_ns, 100);
  }
}

TEST(TracerStress, ManyThreadsAppendToOneSharedTrace) {
  Tracer::Config config = sampled_config();
  config.max_spans = 64;
  Tracer tracer(config);
  const std::shared_ptr<Trace> trace =
      tracer.open(TraceContext{TraceId{9, 9}, true});
  ASSERT_NE(trace, nullptr);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;  // 160 attempts into 64 slots
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i)
        trace->add(Stage::solve, i, i + 1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(trace->spans().size(), 64u);
  EXPECT_EQ(trace->overflow(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - 64);
  tracer.finish(trace, "stress");
  ASSERT_EQ(tracer.recent(2).size(), 1u);
  EXPECT_EQ(tracer.recent(2)[0].spans.size(), 64u);
}

}  // namespace
