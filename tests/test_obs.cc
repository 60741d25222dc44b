/**
 * @file
 * Tests for the observability layer: metrics registry semantics,
 * snapshot merging (including the exact merge-identity property
 * through a real router + two shards), trace sink/span behavior,
 * waterfall rendering, wire round-trips of the v3 metrics messages,
 * concurrent-recording stress (the TSan target), and zero-allocation
 * pins for the hot-path record operations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counting_alloc.hh"

#include "cluster/cluster_client.hh"
#include "cluster/router.hh"
#include "cluster/server.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "jtc/pfcu.hh"
#include "nn/layers.hh"
#include "obs/health.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/inference_server.hh"

namespace pf = photofourier;
namespace nn = photofourier::nn;
namespace sig = photofourier::signal;
namespace obs = photofourier::obs;
namespace serve = photofourier::serve;
namespace cluster = photofourier::cluster;

namespace {

/** Tiny CNN (1x8x8 input), fast enough for end-to-end runs. */
nn::Network
tinyNet(uint64_t seed = 21, size_t classes = 3)
{
    pf::Rng rng(seed);
    nn::Network net;
    net.add(std::make_unique<nn::Conv2d>(1, 4, 3, 1,
                                         sig::ConvMode::Same, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::GlobalAvgPool>());
    net.add(std::make_unique<nn::Linear>(4, classes, rng));
    return net;
}

nn::Tensor
tinyInput(uint64_t seed = 77)
{
    pf::Rng rng(seed);
    nn::Tensor t(1, 8, 8);
    t.data() = rng.uniformVector(64, 0.0, 1.0);
    return t;
}

} // namespace

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::MetricsRegistry registry;
    obs::Counter &c = registry.counter("events");
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    // Same name, same handle.
    EXPECT_EQ(&registry.counter("events"), &c);

    obs::Gauge &g = registry.gauge("depth");
    g.set(4.0);
    g.add(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);

    obs::HistogramMetric &h = registry.histogram("lat");
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    const pf::Histogram merged = h.merged();
    EXPECT_EQ(merged.count(), 100u);
    EXPECT_NEAR(merged.mean(), 50.5, 3.0);
}

TEST(Metrics, SnapshotCapturesEverything)
{
    obs::MetricsRegistry registry;
    registry.counter("a_total").inc(7);
    registry.gauge("b").set(-2.0);
    registry.histogram("c_us").record(123.0);

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counterValue("a_total"), 7u);
    EXPECT_DOUBLE_EQ(snap.gaugeValue("b"), -2.0);
    const obs::MetricValue *hist = snap.find("c_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->type, obs::MetricType::Histogram);
    EXPECT_EQ(pf::Histogram::fromData(hist->histogram).count(), 1u);
    EXPECT_EQ(snap.find("missing"), nullptr);
    EXPECT_EQ(snap.counterValue("missing"), 0u);
}

TEST(Metrics, CollectorsRunAtSnapshotTime)
{
    obs::MetricsRegistry registry;
    int runs = 0;
    const uint64_t id =
        registry.addCollector([&](obs::MetricsRegistry &r) {
            ++runs;
            r.gauge("pulled").set(42.0);
        });
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(runs, 1);
    EXPECT_DOUBLE_EQ(snap.gaugeValue("pulled"), 42.0);

    registry.removeCollector(id);
    (void)registry.snapshot();
    EXPECT_EQ(runs, 1);
}

TEST(Metrics, MergeSumsByNameAndMergesHistogramsExactly)
{
    obs::MetricsRegistry a, b;
    a.counter("n_total").inc(3);
    b.counter("n_total").inc(5);
    b.counter("only_b_total").inc(2);
    a.gauge("open").set(1.0);
    b.gauge("open").set(4.0);
    for (int i = 0; i < 50; ++i) {
        a.histogram("lat").record(10.0 + i);
        b.histogram("lat").record(500.0 + i);
    }

    obs::MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.counterValue("n_total"), 8u);
    EXPECT_EQ(merged.counterValue("only_b_total"), 2u);
    EXPECT_DOUBLE_EQ(merged.gaugeValue("open"), 5.0);

    // The merged histogram is the exact union: same quantiles as one
    // histogram fed both streams.
    pf::Histogram reference(1.0, 1.05);
    for (int i = 0; i < 50; ++i) {
        reference.add(10.0 + i);
        reference.add(500.0 + i);
    }
    const obs::MetricValue *lat = merged.find("lat");
    ASSERT_NE(lat, nullptr);
    const pf::Histogram folded = pf::Histogram::fromData(lat->histogram);
    EXPECT_EQ(folded.count(), reference.count());
    EXPECT_DOUBLE_EQ(folded.percentile(50.0),
                     reference.percentile(50.0));
    EXPECT_DOUBLE_EQ(folded.percentile(99.0),
                     reference.percentile(99.0));
}

TEST(Metrics, MergeSkipsMismatchedHistogramGeometry)
{
    obs::MetricsRegistry a, b;
    a.histogram("lat", 1.0, 1.05).record(10.0);
    b.histogram("lat", 2.0, 1.30).record(99.0);
    obs::MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    // Incompatible peer data is skipped, not merged and not fatal.
    const obs::MetricValue *lat = merged.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(pf::Histogram::fromData(lat->histogram).count(), 1u);
}

TEST(Metrics, PrometheusRenderingHasTypedFamilies)
{
    obs::MetricsRegistry registry;
    registry.counter("pf_requests_total").inc(3);
    registry.gauge("pf_depth").set(2.0);
    registry.histogram("pf_lat_us").record(50.0);
    const std::string text = registry.snapshot().renderPrometheus();
    EXPECT_NE(text.find("# TYPE pf_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("pf_requests_total 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE pf_depth gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE pf_lat_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("pf_lat_us_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("pf_lat_us_count 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace sink and spans
// ---------------------------------------------------------------------------

TEST(Trace, SinkIsABoundedRing)
{
    obs::TraceSink sink(4);
    EXPECT_EQ(sink.capacity(), 4u);
    for (uint64_t i = 1; i <= 6; ++i) {
        obs::SpanRecord rec;
        rec.trace_id = i;
        rec.name = "s";
        rec.start_ns = i;
        sink.record(rec);
    }
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);
    const std::vector<obs::Span> spans = sink.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first: ids 3..6 survive.
    EXPECT_EQ(spans.front().trace_id, 3u);
    EXPECT_EQ(spans.back().trace_id, 6u);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
}

TEST(Trace, ScopedSpansRecordOnlyUnderABinding)
{
    obs::TraceSink sink(64);
    {
        obs::ScopedSpan untraced("outside");
        (void)untraced;
    }
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(obs::activeTrace(), 0u);

    {
        obs::TraceBinding binding(0xabcd, &sink);
        EXPECT_EQ(obs::activeTrace(), 0xabcdu);
        obs::ScopedSpan outer("outer");
        {
            obs::ScopedSpan inner("inner");
            (void)inner;
        }
        (void)outer;
    }
    EXPECT_EQ(obs::activeTrace(), 0u);
    const std::vector<obs::Span> spans = sink.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Inner finishes (and records) first, at depth 2.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].depth, 2u);
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[0].trace_id, 0xabcdu);
    // The outer span covers the inner one.
    EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
}

TEST(Trace, WaterfallRendersSlowestTracesWithIndentedSpans)
{
    std::vector<obs::Span> spans;
    auto add = [&](uint64_t id, const char *name, uint32_t depth,
                   uint64_t start, uint64_t dur) {
        obs::Span s;
        s.trace_id = id;
        s.name = name;
        s.depth = depth;
        s.start_ns = start;
        s.duration_ns = dur;
        spans.push_back(std::move(s));
    };
    add(1, "request", 1, 0, 1000);
    add(1, "engine", 2, 100, 800);
    add(2, "request", 1, 0, 50000);
    add(2, "engine", 2, 1000, 40000);

    obs::WaterfallOptions options;
    options.top_n = 1;
    const std::string text = obs::renderWaterfall(spans, options);
    // Only the slowest trace (id 2) is rendered.
    EXPECT_NE(text.find("trace 0000000000000002"), std::string::npos);
    EXPECT_EQ(text.find("trace 0000000000000001"), std::string::npos);
    EXPECT_NE(text.find("request"), std::string::npos);
    EXPECT_NE(text.find("engine"), std::string::npos);
}

TEST(Trace, WaterfallEdgeCases)
{
    obs::WaterfallOptions options;

    // Empty sink: nothing recorded renders nothing, not a crash.
    obs::TraceSink empty_sink(16);
    EXPECT_EQ(obs::renderWaterfall(empty_sink.snapshot(), options),
              "");

    // A ring whose every original record was overwritten still
    // renders the survivors; dropped() accounts for the rest.
    obs::TraceSink tiny(2);
    for (uint64_t i = 1; i <= 10; ++i) {
        obs::SpanRecord rec;
        rec.trace_id = i;
        rec.name = "s";
        rec.start_ns = i;
        rec.duration_ns = 1;
        tiny.record(rec);
    }
    EXPECT_GE(tiny.dropped(), 8u);
    const std::string survivors =
        obs::renderWaterfall(tiny.snapshot(), options);
    EXPECT_NE(survivors.find("trace"), std::string::npos);

    // A single orphan span (child depth, no root) gets its own trace
    // block rather than being silently dropped.
    obs::Span orphan;
    orphan.trace_id = 0x42;
    orphan.name = "engine";
    orphan.depth = 3;
    orphan.start_ns = 100;
    orphan.duration_ns = 50;
    const std::string text = obs::renderWaterfall({orphan}, options);
    EXPECT_NE(text.find("trace 0000000000000042"), std::string::npos);
    EXPECT_NE(text.find("engine"), std::string::npos);

    // Depth arrives over the wire, so a forged huge value must be
    // clamped (max_indent), not turned into gigabytes of padding.
    obs::Span forged = orphan;
    forged.depth = 0xffffffffu;
    const std::string clamped =
        obs::renderWaterfall({forged}, options);
    EXPECT_LT(clamped.size(), 4096u);
    EXPECT_NE(clamped.find("engine"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured log sink
// ---------------------------------------------------------------------------

TEST(Log, SinkIsABoundedStripedRing)
{
    // LogSink is the BoundedRing TraceSink uses: the same overwrite,
    // drop, and oldest-first rules hold for events as for spans. The
    // per-thread stripes are gone; every thread shares the one ring,
    // so concurrent writers still account for every event.
    obs::LogSink sink(4);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.size(), 0u);
    for (uint64_t i = 1; i <= 6; ++i) {
        obs::LogEvent event;
        event.trace_id = i;
        event.timestamp_ns = i;
        std::snprintf(event.message, sizeof(event.message), "event %u",
                      static_cast<unsigned>(i));
        sink.record(event);
    }
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);
    const std::vector<obs::LogEvent> events = sink.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: ids 3..6 survive, each with its own message.
    EXPECT_EQ(events.front().trace_id, 3u);
    EXPECT_STREQ(events.front().message, "event 3");
    EXPECT_EQ(events.back().trace_id, 6u);
    EXPECT_STREQ(events.back().message, "event 6");
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);

    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 100;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&sink, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                obs::LogEvent event;
                event.trace_id = static_cast<uint64_t>(t + 1);
                sink.record(event);
            }
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.size() + sink.dropped(), kThreads * kPerThread);
    for (const obs::LogEvent &event : sink.snapshot()) {
        EXPECT_GE(event.trace_id, 1u);
        EXPECT_LE(event.trace_id, static_cast<uint64_t>(kThreads));
    }
}

TEST(Log, EventsStampTimeTraceAndSeverityCounters)
{
    obs::LogSink sink(64);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    {
        obs::TraceBinding binding(0xbeef, nullptr);
        obs::logEvent(pf::LogSeverity::Warn, "queue high", &sink);
    }
    obs::logEvent(pf::LogSeverity::Info, "queue ok", &sink);

    const std::vector<obs::LogEvent> events = sink.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].trace_id, 0xbeefu);
    EXPECT_EQ(events[0].severity, pf::LogSeverity::Warn);
    EXPECT_STREQ(events[0].message, "queue high");
    EXPECT_GT(events[0].timestamp_ns, 0u);
    EXPECT_EQ(events[1].trace_id, 0u); // no binding, no trace
    EXPECT_LE(events[0].timestamp_ns, events[1].timestamp_ns);

    // A message longer than the slot is truncated, never overflowed.
    const std::string longer(3 * obs::kLogMessageBytes, 'x');
    obs::logEvent(pf::LogSeverity::Info, longer, &sink);
    EXPECT_EQ(std::string(sink.snapshot().back().message),
              longer.substr(0, obs::kLogMessageBytes - 1));

    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(after.counterValue("pf_log_warn_total"),
              before.counterValue("pf_log_warn_total") + 1);
    EXPECT_EQ(after.counterValue("pf_log_info_total"),
              before.counterValue("pf_log_info_total") + 2);
}

TEST(Log, MacrosRecordIntoTheGlobalSink)
{
    obs::LogSink::global().clear();
    pf_inform("macro inform ", 7);
    pf_warn("macro warn ", 9);
    const std::vector<obs::LogEvent> events =
        obs::LogSink::global().snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].message, "macro inform 7");
    EXPECT_EQ(events[0].severity, pf::LogSeverity::Info);
    EXPECT_STREQ(events[1].message, "macro warn 9");
    EXPECT_EQ(events[1].severity, pf::LogSeverity::Warn);
    obs::LogSink::global().clear();
}

TEST(Log, WarningFromBelowObsCarriesItsTrace)
{
    // jtc/ sits below obs/ and only includes common/logging, yet the
    // PFCU's Section III-B weight-DAC budget warning must land in the
    // event store under the request's trace.
    pf::jtc::PfcuConfig config;
    config.n_input_waveguides = 16;
    config.n_active_weight_dacs = 2;
    const pf::jtc::Pfcu pfcu(config);
    const std::vector<double> input(16, 0.5);
    const std::vector<double> weights = {0.1, 0.2, 0.3, 0.4};

    obs::LogSink::global().clear();
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    {
        obs::TraceBinding binding(0x9fc0, nullptr);
        (void)pfcu.opticalCorrelation(input, weights);
    }
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::global().snapshot();

    const std::vector<obs::LogEvent> events =
        obs::LogSink::global().snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].severity, pf::LogSeverity::Warn);
    EXPECT_EQ(events[0].trace_id, 0x9fc0u);
    EXPECT_NE(std::string(events[0].message)
                  .find("4 nonzero weights but only 2 weight DACs"),
              std::string::npos)
        << events[0].message;
    EXPECT_EQ(after.counterValue("pf_log_warn_total"),
              before.counterValue("pf_log_warn_total") + 1);
    obs::LogSink::global().clear();
}

TEST(Log, RenderingLogfmt)
{
    obs::LogEvent e;
    e.timestamp_ns = 12345;
    e.trace_id = 0xabc;
    e.severity = pf::LogSeverity::Info;
    std::snprintf(e.message, sizeof(e.message), "said \"hi\"\nagain");

    const std::string fmt = obs::renderLogfmt({e});
    EXPECT_EQ(fmt, "event ts=12345 level=info trace=0000000000000abc "
                   "msg=\"said \\\"hi\\\"\\nagain\"\n");
}

// ---------------------------------------------------------------------------
// Health monitor: SLO predicates, hysteresis
// ---------------------------------------------------------------------------

TEST(Health, GaugePredicatesFireAndSkipAbsentMetrics)
{
    obs::SloRule above;
    above.name = "queue_depth";
    above.predicate = obs::SloPredicate::GaugeAbove;
    above.metric = "depth";
    above.threshold = 10.0;
    obs::SloRule below;
    below.name = "snr_floor";
    below.predicate = obs::SloPredicate::GaugeBelow;
    below.metric = "snr_db";
    below.threshold = 10.0;
    obs::HealthMonitor monitor({{above, below}, 1});

    // Neither metric exists yet: both rules skip, state healthy.
    obs::MetricsRegistry registry;
    obs::HealthStatus status = monitor.evaluate(registry.snapshot());
    EXPECT_EQ(status.state, obs::HealthState::Healthy);
    EXPECT_TRUE(status.violations.empty());

    registry.gauge("depth").set(11.0);
    registry.gauge("snr_db").set(5.0);
    status = monitor.evaluate(registry.snapshot());
    EXPECT_EQ(status.state, obs::HealthState::Degraded);
    ASSERT_EQ(status.violations.size(), 2u);
    EXPECT_EQ(status.violations[0].rule, "queue_depth");
    EXPECT_DOUBLE_EQ(status.violations[0].value, 11.0);
    EXPECT_EQ(status.violations[1].rule, "snr_floor");
}

TEST(Health, CounterRateUsesDeltasNotLifetimeTotals)
{
    obs::SloRule rate;
    rate.name = "reject_rate";
    rate.predicate = obs::SloPredicate::CounterRateAbove;
    rate.metric = "rejected";
    rate.denominator = "accepted";
    rate.threshold = 0.5;
    rate.severity = obs::HealthState::Unhealthy;
    obs::HealthMonitor monitor({{rate}, 1});

    obs::MetricsRegistry registry;
    obs::Counter &rejected = registry.counter("rejected");
    obs::Counter &accepted = registry.counter("accepted");

    // Burst: 10 rejects over 10 accepts — violated.
    rejected.inc(10);
    accepted.inc(10);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Unhealthy);

    // Next window: clean traffic. Lifetime ratio is still 10/110,
    // but the *delta* ratio is 0/100, so the monitor recovers.
    accepted.inc(100);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Healthy);
}

TEST(Health, HistogramP99PredicateReadsQuantiles)
{
    obs::SloRule p99;
    p99.name = "queue_p99_us";
    p99.predicate = obs::SloPredicate::HistogramP99Above;
    p99.metric = "queue_us";
    p99.threshold = 500.0;
    obs::HealthMonitor monitor({{p99}, 1});

    obs::MetricsRegistry registry;
    obs::HistogramMetric &h = registry.histogram("queue_us");
    for (int i = 0; i < 100; ++i)
        h.record(10.0);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Healthy);
    for (int i = 0; i < 100; ++i)
        h.record(100000.0);
    const obs::HealthStatus status =
        monitor.evaluate(registry.snapshot());
    EXPECT_EQ(status.state, obs::HealthState::Degraded);
    ASSERT_EQ(status.violations.size(), 1u);
    EXPECT_GT(status.violations[0].value, 500.0);
}

TEST(Health, RecoveryNeedsConsecutiveCleanEvaluations)
{
    obs::SloRule above;
    above.name = "depth";
    above.predicate = obs::SloPredicate::GaugeAbove;
    above.metric = "depth";
    above.threshold = 1.0;
    obs::HealthMonitor monitor({{above}, 2}); // recover_after = 2

    obs::MetricsRegistry registry;
    obs::Gauge &depth = registry.gauge("depth");

    depth.set(5.0); // violate: degraded immediately
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Degraded);

    depth.set(0.0); // first clean evaluation: still degraded
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Degraded);
    // ...but the stale violation list is gone.
    EXPECT_TRUE(monitor.status().violations.empty());

    // Second consecutive clean evaluation: recovered.
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Healthy);

    // A violation mid-recovery resets the streak.
    depth.set(5.0);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Degraded);
    depth.set(0.0);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Degraded);
    depth.set(5.0); // re-violate: streak resets
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Degraded);
    depth.set(0.0);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Degraded);
    EXPECT_EQ(monitor.evaluate(registry.snapshot()).state,
              obs::HealthState::Healthy);
}

TEST(Health, DefaultRulesMatchTheDocumentedTable)
{
    const std::vector<obs::SloRule> rules = obs::defaultSloRules();
    ASSERT_EQ(rules.size(), 5u);
    EXPECT_EQ(rules[0].name, "queue_depth");
    EXPECT_EQ(rules[0].metric, "pf_serve_queue_depth");
    EXPECT_EQ(rules[2].name, "reject_storm");
    EXPECT_EQ(rules[2].severity, obs::HealthState::Unhealthy);
    EXPECT_EQ(rules[4].name, "snr_floor_db");
    EXPECT_EQ(rules[4].predicate, obs::SloPredicate::GaugeBelow);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DumpWritesParseableHeaderEventsAndSpans)
{
    const std::string path =
        testing::TempDir() + "pf_flight_test.log";
    std::remove(path.c_str());

    obs::FlightRecorderConfig config;
    config.path = path;
    config.max_events = 4;
    obs::installFlightRecorder(config);
    EXPECT_EQ(obs::flightRecorderPath(), path);

    obs::LogSink::global().clear();
    for (uint64_t i = 1; i <= 8; ++i)
        pf_inform("flight tick ", i);
    {
        obs::TraceBinding binding(0x77, &obs::TraceSink::global());
        obs::ScopedSpan span("flight_span");
        (void)span;
    }

    ASSERT_TRUE(obs::dumpFlightRecorder("test"));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.rfind("pf_flight_recorder version=1 "
                           "reason=test",
                           0),
              0u)
        << header;
    size_t event_lines = 0, span_lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("event ", 0) == 0)
            ++event_lines;
        if (line.rfind("span ", 0) == 0)
            ++span_lines;
    }
    // Truncated to the newest max_events.
    EXPECT_EQ(event_lines, 4u);
    EXPECT_GE(span_lines, 1u);

    obs::LogSink::global().clear();
    std::remove(path.c_str());
}

namespace {

/** A flight-recorder dump's whole text ("" when missing). */
std::string
readDump(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(FlightRecorder, FatalExitDumpsWithReasonFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string path =
        testing::TempDir() + "pf_flight_fatal_test.log";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            obs::FlightRecorderConfig config;
            config.path = path;
            obs::installFlightRecorder(config);
            pf_warn("about to fail");
            pf_fatal("cannot listen on port ", 4711);
        },
        testing::ExitedWithCode(1), "fatal: cannot listen on port 4711");

    const std::string dump = readDump(path);
    EXPECT_EQ(dump.rfind("pf_flight_recorder version=1 reason=fatal "
                         "events=2 ",
                         0),
              0u)
        << dump;
    EXPECT_NE(dump.find("level=warn trace=0000000000000000 "
                        "msg=\"about to fail\"\n"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("level=error trace=0000000000000000 "
                        "msg=\"cannot listen on port 4711\"\n"),
              std::string::npos)
        << dump;
    std::remove(path.c_str());
}

TEST(FlightRecorder, PanicDumpsWithReasonPanic)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string path =
        testing::TempDir() + "pf_flight_panic_test.log";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            obs::FlightRecorderConfig config;
            config.path = path;
            obs::installFlightRecorder(config);
            pf_assert(1 + 1 == 3, "arithmetic broke");
        },
        "panic: assertion failed");

    // The abort after the dump must not overwrite it as reason=signal.
    const std::string dump = readDump(path);
    EXPECT_EQ(dump.rfind("pf_flight_recorder version=1 reason=panic ", 0),
              0u)
        << dump;
    EXPECT_NE(dump.find("level=error"), std::string::npos) << dump;
    EXPECT_NE(dump.find("arithmetic broke"), std::string::npos) << dump;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Wire round-trips for the v3 metrics messages
// ---------------------------------------------------------------------------

TEST(MetricsWire, QueryAndReportRoundTrip)
{
    cluster::MetricsQueryMsg query;
    query.seq = 99;
    query.include_traces = true;
    cluster::MetricsQueryMsg query2;
    ASSERT_TRUE(
        cluster::decodeMetricsQuery(cluster::encodeMetricsQuery(query),
                                    &query2));
    EXPECT_EQ(query2.seq, 99u);
    EXPECT_TRUE(query2.include_traces);

    obs::MetricsRegistry registry;
    registry.counter("pf_x_total").inc(12);
    registry.gauge("pf_depth").set(-1.25);
    for (int i = 0; i < 32; ++i)
        registry.histogram("pf_lat_us").record(10.0 * (i + 1));

    cluster::MetricsReportMsg report;
    report.seq = 7;
    report.server_name = "shard-a";
    report.metrics = registry.snapshot();
    obs::Span span;
    span.trace_id = 5;
    span.name = "engine";
    span.depth = 2;
    span.start_ns = 1000;
    span.duration_ns = 250;
    report.spans.push_back(span);

    cluster::MetricsReportMsg decoded;
    ASSERT_TRUE(cluster::decodeMetricsReport(
        cluster::encodeMetricsReport(report), &decoded));
    EXPECT_EQ(decoded.seq, 7u);
    EXPECT_EQ(decoded.server_name, "shard-a");
    EXPECT_EQ(decoded.metrics.counterValue("pf_x_total"), 12u);
    EXPECT_DOUBLE_EQ(decoded.metrics.gaugeValue("pf_depth"), -1.25);
    const obs::MetricValue *lat = decoded.metrics.find("pf_lat_us");
    ASSERT_NE(lat, nullptr);
    const pf::Histogram h = pf::Histogram::fromData(lat->histogram);
    EXPECT_EQ(h.count(), 32u);
    ASSERT_EQ(decoded.spans.size(), 1u);
    EXPECT_EQ(decoded.spans[0].trace_id, 5u);
    EXPECT_EQ(decoded.spans[0].name, "engine");
    EXPECT_EQ(decoded.spans[0].duration_ns, 250u);

    // Canonical codec: decode∘encode is byte-identical.
    EXPECT_EQ(cluster::encodeMetricsReport(decoded),
              cluster::encodeMetricsReport(report));
}

TEST(MetricsWire, DecodersRejectTruncationAndGarbage)
{
    cluster::MetricsReportMsg report;
    report.seq = 1;
    report.server_name = "s";
    obs::MetricsRegistry registry;
    registry.counter("c").inc();
    report.metrics = registry.snapshot();
    const std::string frame = cluster::encodeMetricsReport(report);

    cluster::MetricsReportMsg sink;
    for (size_t cut = 0; cut < frame.size(); ++cut)
        EXPECT_FALSE(cluster::decodeMetricsReport(
            frame.substr(0, cut), &sink))
            << "accepted truncation at " << cut;
    // Trailing garbage is rejected too.
    EXPECT_FALSE(
        cluster::decodeMetricsReport(frame + "zz", &sink));

    cluster::MetricsQueryMsg q;
    EXPECT_FALSE(cluster::decodeMetricsQuery("", &q));
    // A non-boolean include_traces byte is a semantic violation.
    cluster::MetricsQueryMsg good;
    good.seq = 2;
    std::string qframe = cluster::encodeMetricsQuery(good);
    qframe.back() = 7;
    EXPECT_FALSE(cluster::decodeMetricsQuery(qframe, &q));
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented server, merged fleet metrics, traced spans
// ---------------------------------------------------------------------------

TEST(ObsServing, ServerRecordsStageMetricsAndSpans)
{
    obs::MetricsRegistry registry;
    obs::TraceSink sink(256);
    serve::ServerConfig config;
    config.workers = 1;
    config.metrics = &registry;
    config.trace_sink = &sink;
    serve::InferenceServer server(config);
    server.registry().add("tiny", tinyNet());

    const nn::Tensor input = tinyInput();
    for (uint64_t i = 1; i <= 8; ++i) {
        serve::SubmitOptions options;
        options.trace_id = i; // every request traced
        auto handle = server.submit("tiny", input, options);
        ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);
    }
    server.drain();

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counterValue("pf_serve_accepted_total"), 8u);
    EXPECT_EQ(snap.counterValue("pf_serve_completed_total"), 8u);
    EXPECT_EQ(snap.counterValue("pf_serve_rejected_total"), 0u);
    EXPECT_GE(snap.counterValue("pf_serve_batches_total"), 1u);
    for (const char *stage :
         {"pf_serve_stage_queue_us", "pf_serve_stage_batch_us",
          "pf_serve_stage_engine_us", "pf_serve_stage_complete_us",
          "pf_serve_latency_us"}) {
        const obs::MetricValue *v = snap.find(stage);
        ASSERT_NE(v, nullptr) << stage;
        EXPECT_EQ(pf::Histogram::fromData(v->histogram).count(), 8u)
            << stage;
    }
    // The snapshot collector pulled cache + FFT plan gauges.
    EXPECT_NE(snap.find("pf_cache_kernel_hits"), nullptr);
    EXPECT_NE(snap.find("pf_signal_fft_plans"), nullptr);

    // Every traced request recorded its stage spans (5 per request:
    // request + queue/batch/engine/complete) plus the conv engine's
    // own spans from inside the traced engine stage.
    const std::vector<obs::Span> spans = sink.snapshot();
    size_t roots = 0, engines = 0, convs = 0;
    for (const auto &span : spans) {
        roots += span.name == "request";
        engines += span.name == "engine";
        convs += span.name == "direct_conv";
    }
    EXPECT_EQ(roots, 8u);
    EXPECT_EQ(engines, 8u);
    EXPECT_GE(convs, 8u); // one per Conv2d layer execution
}

TEST(ObsServing, RouterMergeEqualsLocalMerge)
{
    // Two shards with *private* registries + sinks, fronted by a
    // router with its own private registry: the metrics report the
    // router assembles over the wire must equal the merge of the
    // shard registries done locally — merging is exact, not sampled.
    obs::MetricsRegistry reg_a, reg_b, reg_router;
    obs::TraceSink sink_a(128), sink_b(128);

    cluster::ShardServerConfig cfg_a;
    cfg_a.name = "shard-a";
    cfg_a.serving.workers = 1;
    cfg_a.serving.metrics = &reg_a;
    cfg_a.serving.trace_sink = &sink_a;
    cluster::ShardServer shard_a(cfg_a);
    shard_a.registry().add("tiny", tinyNet());
    ASSERT_TRUE(shard_a.start());

    cluster::ShardServerConfig cfg_b;
    cfg_b.name = "shard-b";
    cfg_b.serving.workers = 1;
    cfg_b.serving.metrics = &reg_b;
    cfg_b.serving.trace_sink = &sink_b;
    cluster::ShardServer shard_b(cfg_b);
    shard_b.registry().add("tiny", tinyNet());
    ASSERT_TRUE(shard_b.start());

    cluster::RouterConfig router_cfg;
    router_cfg.shards = {
        {"shard-a", "127.0.0.1", shard_a.port()},
        {"shard-b", "127.0.0.1", shard_b.port()},
    };
    router_cfg.replicas = 2;
    router_cfg.metrics = &reg_router;
    cluster::Router router(router_cfg);
    ASSERT_EQ(router.connect(), 2u);

    const nn::Tensor input = tinyInput();
    std::vector<serve::Completion> handles;
    for (uint64_t i = 1; i <= 12; ++i) {
        serve::SubmitOptions options;
        options.trace_id = i;
        handles.push_back(router.submit("tiny", input, options));
    }
    for (auto &handle : handles)
        EXPECT_EQ(handle.wait(), serve::RequestStatus::Done);
    shard_a.server().drain();
    shard_b.server().drain();

    // Wire-merged view, pulled exactly as the router daemon would
    // serve a GetMetrics request.
    const cluster::MetricsReportMsg fleet = router.metricsReport(true);

    // Local ground truth: the two shard registries merged in-process,
    // plus the router's own registry (metricsReport folds that in).
    obs::MetricsSnapshot local = reg_a.snapshot();
    local.merge(reg_b.snapshot());
    local.merge(reg_router.snapshot());

    for (const char *counter :
         {"pf_serve_accepted_total", "pf_serve_completed_total",
          "pf_serve_rejected_total", "pf_serve_batches_total",
          "pf_router_failover_total"}) {
        EXPECT_EQ(fleet.metrics.counterValue(counter),
                  local.counterValue(counter))
            << counter;
    }
    EXPECT_EQ(fleet.metrics.counterValue("pf_serve_completed_total"),
              12u);

    // Histograms cross the wire exactly: same count, same quantiles.
    for (const char *hist :
         {"pf_serve_latency_us", "pf_serve_stage_engine_us"}) {
        const obs::MetricValue *wire = fleet.metrics.find(hist);
        const obs::MetricValue *truth = local.find(hist);
        ASSERT_NE(wire, nullptr) << hist;
        ASSERT_NE(truth, nullptr) << hist;
        const pf::Histogram hw = pf::Histogram::fromData(wire->histogram);
        const pf::Histogram ht =
            pf::Histogram::fromData(truth->histogram);
        EXPECT_EQ(hw.count(), ht.count()) << hist;
        EXPECT_DOUBLE_EQ(hw.percentile(50.0), ht.percentile(50.0))
            << hist;
        EXPECT_DOUBLE_EQ(hw.percentile(99.0), ht.percentile(99.0))
            << hist;
    }

    // Spans from both shard sinks came along; every traced request
    // contributed its root span.
    size_t roots = 0;
    for (const auto &span : fleet.spans)
        roots += span.name == "request";
    EXPECT_EQ(roots, 12u);
    EXPECT_EQ(fleet.spans.size(),
              sink_a.snapshot().size() + sink_b.snapshot().size());

    router.close();
    shard_a.stop();
    shard_b.stop();
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan target)
// ---------------------------------------------------------------------------

TEST(ObsStress, ConcurrentRecordingWithSnapshots)
{
    obs::MetricsRegistry registry;
    obs::TraceSink sink(1024);
    obs::Counter &counter = registry.counter("n_total");
    obs::Gauge &gauge = registry.gauge("depth");
    obs::HistogramMetric &hist = registry.histogram("lat");

    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            obs::TraceBinding binding(
                static_cast<uint64_t>(t) + 1, &sink);
            for (int i = 0; i < kIters; ++i) {
                counter.inc();
                gauge.add(t % 2 == 0 ? 1.0 : -1.0);
                hist.record(static_cast<double>(i % 1000) + 1.0);
                obs::ScopedSpan span("stress");
                (void)span;
            }
        });
    }
    go.store(true, std::memory_order_release);
    // Snapshot concurrently with the recording threads: TSan verifies
    // there is no data race between record and capture.
    for (int s = 0; s < 50; ++s)
        (void)registry.snapshot();
    for (auto &thread : threads)
        thread.join();

    const obs::MetricsSnapshot final_snap = registry.snapshot();
    EXPECT_EQ(final_snap.counterValue("n_total"),
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(final_snap.gaugeValue("depth"), 0.0);
    const obs::MetricValue *lat = final_snap.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(pf::Histogram::fromData(lat->histogram).count(),
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(sink.size() + sink.dropped(),
              static_cast<uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Zero-allocation pins for hot-path recording
// ---------------------------------------------------------------------------

TEST(ObsAlloc, HotPathRecordingIsAllocationFree)
{
    obs::MetricsRegistry registry;
    obs::TraceSink sink(512);
    obs::Counter &counter = registry.counter("n_total");
    obs::Gauge &gauge = registry.gauge("depth");
    obs::HistogramMetric &hist = registry.histogram("lat");

    // Warm: the histogram stripe grows its bucket vector on first
    // sight of the largest value; the sink ring is preallocated.
    for (int i = 0; i < 64; ++i)
        hist.record(1e6);
    {
        obs::TraceBinding binding(1, &sink);
        obs::ScopedSpan warm("warm");
        (void)warm;
    }

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        counter.inc();
        gauge.add(1.0);
        hist.record(1e6);
    }
    {
        obs::TraceBinding binding(2, &sink);
        for (int i = 0; i < 1000; ++i) {
            obs::ScopedSpan span("hot");
            (void)span;
        }
    }
    // Untraced spans must also be free.
    for (int i = 0; i < 1000; ++i) {
        obs::ScopedSpan span("untraced");
        (void)span;
    }
    const uint64_t after =
        pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "metrics/trace hot path allocated";
}

TEST(ObsAlloc, LogEventRecordingIsAllocationFree)
{
    obs::LogSink sink(512);

    // Warm: the first logEvent resolves the per-severity counters in
    // the global registry; the ring's slots are preallocated.
    obs::logEvent(pf::LogSeverity::Info, "alloc pin event", &sink);
    obs::logEvent(pf::LogSeverity::Warn, "alloc pin event", &sink);

    const std::string longer(4 * obs::kLogMessageBytes, 'y');
    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < 1000; ++i)
        obs::logEvent(pf::LogSeverity::Info, "alloc pin event", &sink);
    {
        // Traced events must also be free: stamping the active trace
        // id reads a thread-local, nothing more. Truncating a long
        // message is a bounded copy.
        obs::TraceBinding binding(0x10c, nullptr);
        for (uint64_t i = 0; i < 1000; ++i)
            obs::logEvent(pf::LogSeverity::Warn, longer, &sink);
    }
    const uint64_t after =
        pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "logEvent hot path allocated";
}
