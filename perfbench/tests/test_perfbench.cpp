/**
 * @file
 * Tests of the benchmark's own pieces: percentiles, the Zipf sampler,
 * error accounting, metric names, span coverage and the watchdog.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "metric_names.h"
#include "spans.h"
#include "stats.h"
#include "watchdog.h"

namespace perfbench {
namespace {

TEST(Percentile, MatchesSortedReference)
{
    std::mt19937_64 rng(7);
    for (size_t n : {1, 2, 3, 10, 99, 100, 101, 1000}) {
        std::vector<double> v(n);
        for (double &x : v) {
            x = static_cast<double>(rng() % 100000) / 7.0;
        }
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        for (double p : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
            // Nearest rank: the k-th smallest, k = ceil(p * n).
            size_t k = static_cast<size_t>(
                std::ceil(p * static_cast<double>(n)));
            double want = sorted[std::max<size_t>(k, 1) - 1];
            EXPECT_EQ(percentile(v, p), want) << "n=" << n << " p=" << p;
        }
    }
}

TEST(Percentile, SmallKnownValues)
{
    std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_EQ(percentile(v, 0.5), 5);
    EXPECT_EQ(percentile(v, 0.9), 9);
    EXPECT_EQ(percentile(v, 1.0), 10);
    EXPECT_EQ(median(v), 5.5);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(percentile(v, 0.0), std::invalid_argument);
}

/** First draws of a Zipf(1) deck of 64 over 8 ranks, seed 99. */
constexpr size_t kFirstDraws[] = {6, 6, 1, 0, 2, 7, 2, 1};

TEST(Zipf, DistributionForFixedSeed)
{
    ZipfDeck zipf(8, 1.0, 64);
    double h8 = 0;
    for (int i = 1; i <= 8; ++i) {
        h8 += 1.0 / i;
    }
    size_t dealt = 0;
    for (size_t i = 0; i < 8; ++i) {
        double p = 1.0 / (static_cast<double>(i + 1) * h8);
        EXPECT_NEAR(zipf.probability(i), p, 1e-12);
        // Largest remainder: each count within one of its exact share.
        EXPECT_LE(std::abs(static_cast<double>(zipf.count(i)) - 64 * p),
                  1.0);
        if (i > 0) {
            EXPECT_LE(zipf.count(i), zipf.count(i - 1));
        }
        dealt += zipf.count(i);
    }
    EXPECT_EQ(dealt, 64u);

    // Every deck of 64 draws holds exactly the dealt counts.
    std::mt19937_64 rng(42);
    for (int deck = 0; deck < 50; ++deck) {
        std::vector<size_t> hist(8, 0);
        for (int i = 0; i < 64; ++i) {
            size_t r = zipf(rng);
            ASSERT_LT(r, 8u);
            ++hist[r];
        }
        for (size_t i = 0; i < 8; ++i) {
            ASSERT_EQ(hist[i], zipf.count(i)) << "deck " << deck;
        }
    }

    // The fixed seed pins the sequence; another seed reorders it.
    ZipfDeck a(8, 1.0, 64), b(8, 1.0, 64), c(8, 1.0, 64);
    std::mt19937_64 ra(99), rb(99), rc(100);
    std::vector<size_t> sa, sb, sc;
    for (int i = 0; i < 256; ++i) {
        sa.push_back(a(ra));
        sb.push_back(b(rb));
        sc.push_back(c(rc));
    }
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, sc);
    EXPECT_EQ((std::vector<size_t>{sa.begin(), sa.begin() + 8}),
              (std::vector<size_t>{kFirstDraws, kFirstDraws + 8}));
}

TEST(Outcomes, ErrorRateCountsEveryFailureKind)
{
    Outcomes o;
    EXPECT_EQ(o.errorRate(), 0.0);
    o.attempted = 100;
    o.correct = 90;
    o.wrong = 3;
    o.failed = 2;
    o.rejected = 2;
    o.shed = 2;
    o.timedOut = 1;
    EXPECT_EQ(o.errors(), 10u);
    EXPECT_DOUBLE_EQ(o.errorRate(), 0.10);
    EXPECT_TRUE(o.balanced());
    o.correct = 91; // one attempt counted twice
    EXPECT_FALSE(o.balanced());
}

TEST(MetricNames, OnlyAllowedCharacters)
{
    EXPECT_TRUE(validMetricName("latency_p50_ms"));
    EXPECT_TRUE(validMetricName("tfhe.blind_rotate_ms"));
    EXPECT_TRUE(validMetricName("a-b.c_9"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("p90/ms"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    for (const auto *list : {&endToEndMetricNames(), &perLayerMetricNames()}) {
        for (const std::string &n : *list) {
            EXPECT_TRUE(validMetricName(n)) << n;
        }
    }
}

/** Names listed under @p section of BENCHMARK.json. */
std::vector<std::string>
namesIn(const std::string &json, const std::string &section)
{
    size_t begin = json.find("\"" + section + "\"");
    size_t end = json.find(']', begin);
    std::string body = json.substr(begin, end - begin);
    std::regex re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    std::vector<std::string> out;
    for (std::sregex_iterator it(body.begin(), body.end(), re), e; it != e;
         ++it) {
        out.push_back((*it)[1]);
    }
    return out;
}

TEST(MetricNames, MatchBenchmarkJson)
{
    std::ifstream f(PERFBENCH_JSON);
    ASSERT_TRUE(f) << "cannot open " << PERFBENCH_JSON;
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(namesIn(ss.str(), "end_to_end"), endToEndMetricNames());
    EXPECT_EQ(namesIn(ss.str(), "per_layer"), perLayerMetricNames());
}

TEST(Spans, UnattributedShareOfRoot)
{
    SpanRecorder rec;
    rec.enable(true);
    uint64_t root = rec.reserveId();
    rec.record("a", 110, 130, root);
    rec.record("b", 120, 150, root); // overlaps a
    rec.record("c", 160, 170, root);
    rec.record("d", 190, 250, root); // runs past the root
    rec.recordWithId(root, "unit", 100, 200, 0);
    // Covered: [110, 150) + [160, 170) + [190, 200) = 60 of 100.
    EXPECT_NEAR(rec.unattributedFrac("unit"), 0.4, 1e-12);
    EXPECT_EQ(rec.unattributedFrac("absent"), -1.0);

    SpanRecorder off;
    EXPECT_EQ(off.record("x", 0, 1), 0u);
    EXPECT_TRUE(off.snapshot().empty());
}

TEST(Watchdog, FiresWhenProgressStops)
{
    std::atomic<uint64_t> last{nowNs()};
    std::atomic<bool> fired{false};
    {
        Watchdog dog(last, 100'000'000, 60'000'000'000ULL,
                     [&](const std::string &) { fired = true; });
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    EXPECT_TRUE(fired);
}

TEST(Watchdog, QuietWhileProgressing)
{
    std::atomic<uint64_t> last{nowNs()};
    std::atomic<bool> fired{false};
    {
        Watchdog dog(last, 200'000'000, 60'000'000'000ULL,
                     [&](const std::string &) { fired = true; });
        for (int i = 0; i < 20; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            last = nowNs();
        }
    }
    EXPECT_FALSE(fired);
}

} // namespace
} // namespace perfbench
