/**
 * @file
 * Observability tests: the Chrome trace file is well-formed JSON with
 * valid ph/ts/dur events on every engine (including per-worker job
 * spans from the pipelined executor and virtual-time spans from the
 * sim schedule), histogram percentiles against a sorted-vector
 * reference, the metrics kill switch, PbsServer latency accounting,
 * and the ScratchArena stats passthrough.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/command_stream.h"
#include "backend/registry.h"
#include "backend/scratch_arena.h"
#include "backend/thread_pool_backend.h"
#include "common/primes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pir/database.h"
#include "pir/pir.h"
#include "runtime/pbs_server.h"
#include "runtime/pir_server.h"

namespace trinity {
namespace {

// --- minimal JSON parser (validation only) ---------------------------------

struct Json
{
    enum Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };
    Kind kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json *
    find(const std::string &key) const
    {
        auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    bool
    parse(Json &out)
    {
        skip();
        if (!value(out)) {
            return false;
        }
        skip();
        return pos_ == s_.size();
    }

  private:
    void
    skip()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    bool
    lit(const char *t)
    {
        size_t len = std::string(t).size();
        if (s_.compare(pos_, len, t) != 0) {
            return false;
        }
        pos_ += len;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"') {
            return false;
        }
        ++pos_;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size()) {
                return false;
            }
            char e = s_[pos_++];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                out += e;
                break;
            case 'b':
            case 'f':
            case 'n':
            case 'r':
            case 't':
                out += ' ';
                break;
            case 'u':
                if (pos_ + 4 > s_.size()) {
                    return false;
                }
                pos_ += 4;
                out += '?';
                break;
            default:
                return false;
            }
        }
        if (pos_ >= s_.size()) {
            return false;
        }
        ++pos_; // closing quote
        return true;
    }

    bool
    number(double &out)
    {
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        out = std::strtod(start, &end);
        if (end == start) {
            return false;
        }
        pos_ += static_cast<size_t>(end - start);
        return true;
    }

    bool
    value(Json &out)
    {
        skip();
        if (pos_ >= s_.size()) {
            return false;
        }
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = Json::Obj;
            skip();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                std::string key;
                skip();
                if (!string(key)) {
                    return false;
                }
                skip();
                if (pos_ >= s_.size() || s_[pos_++] != ':') {
                    return false;
                }
                Json v;
                if (!value(v)) {
                    return false;
                }
                out.obj.emplace(std::move(key), std::move(v));
                skip();
                if (pos_ >= s_.size()) {
                    return false;
                }
                char d = s_[pos_++];
                if (d == '}') {
                    return true;
                }
                if (d != ',') {
                    return false;
                }
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = Json::Arr;
            skip();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                Json v;
                if (!value(v)) {
                    return false;
                }
                out.arr.push_back(std::move(v));
                skip();
                if (pos_ >= s_.size()) {
                    return false;
                }
                char d = s_[pos_++];
                if (d == ']') {
                    return true;
                }
                if (d != ',') {
                    return false;
                }
            }
        }
        if (c == '"') {
            out.kind = Json::Str;
            return string(out.str);
        }
        if (c == 't') {
            out.kind = Json::Bool;
            out.b = true;
            return lit("true");
        }
        if (c == 'f') {
            out.kind = Json::Bool;
            out.b = false;
            return lit("false");
        }
        if (c == 'n') {
            out.kind = Json::Null;
            return lit("null");
        }
        out.kind = Json::Num;
        return number(out.num);
    }

    const std::string &s_;
    size_t pos_ = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempTracePath(const std::string &tag)
{
    return testing::TempDir() + "trinity_trace_" + tag + ".json";
}

// --- workload driven through each engine -----------------------------------

/** Record a small dependent workload on @p backend's stream: enough
 *  command/job structure that the pipelined executor schedules,
 *  steals, and idles, and the sim executor prices a DAG. */
void
runStreamWorkload(PolyBackend &backend)
{
    const size_t n = 1024;
    Modulus mod(findNttPrimes(40, 2 * n, 1)[0]);
    auto table = NttTableCache::get(n, mod.value());
    Rng rng(7);
    std::vector<std::vector<u64>> buf(4, std::vector<u64>(n));
    for (auto &b : buf) {
        for (auto &x : b) {
            x = rng.uniform(mod.value());
        }
    }
    auto stream = backend.newStream();
    Job ntt = stream->nttForward(
        {{buf[0].data(), table.get()}, {buf[1].data(), table.get()}});
    Job mul = stream->pointwiseMul(
        {{buf[2].data(), buf[0].data(), buf[1].data(), &mod, n}}, {ntt});
    Job ma = stream->mulAdd(
        {{buf[3].data(), buf[2].data(), buf[0].data(), &mod, n}}, {mul});
    stream->nttInverse({{buf[2].data(), table.get()}}, {mul, ma});
    stream->fence();
    stream->submit();
    stream->wait();

    // A blocking batch too, so the engine-pid "op" spans appear even
    // when the stream deferred or priced everything.
    std::vector<NttJob> jobs = {{buf[0].data(), table.get()},
                                {buf[1].data(), table.get()}};
    backend.nttForwardBatch(jobs.data(), jobs.size());
}

/** Parse @p path and validate trace-event shape; fills @p cats with
 *  the categories seen on complete events (void so ASSERT_* works). */
void
validateTrace(const std::string &path, std::map<std::string, size_t> &cats)
{
    std::string text = readFile(path);
    EXPECT_FALSE(text.empty()) << path;
    Json root;
    EXPECT_TRUE(JsonParser(text).parse(root)) << "invalid JSON: " << path;
    EXPECT_EQ(root.kind, Json::Obj);
    const Json *events = root.find("traceEvents");
    if (events == nullptr) {
        ADD_FAILURE() << "no traceEvents in " << path;
        return;
    }
    EXPECT_EQ(events->kind, Json::Arr);
    EXPECT_FALSE(events->arr.empty());
    for (const Json &ev : events->arr) {
        EXPECT_EQ(ev.kind, Json::Obj);
        const Json *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_EQ(ph->kind, Json::Str);
        const Json *name = ev.find("name");
        ASSERT_NE(name, nullptr);
        if (ph->str == "M") {
            continue; // metadata carries no timestamps
        }
        const Json *ts = ev.find("ts");
        ASSERT_NE(ts, nullptr) << "event missing ts";
        EXPECT_EQ(ts->kind, Json::Num);
        EXPECT_GE(ts->num, 0.0);
        if (ph->str == "X") {
            const Json *dur = ev.find("dur");
            ASSERT_NE(dur, nullptr) << "complete event missing dur";
            EXPECT_EQ(dur->kind, Json::Num);
            EXPECT_GE(dur->num, 0.0);
            const Json *cat = ev.find("cat");
            if (cat != nullptr && cat->kind == Json::Str) {
                cats[cat->str] += 1;
            }
        } else {
            EXPECT_EQ(ph->str, "i") << "unexpected phase " << ph->str;
        }
    }
}

TEST(ObsTrace, ValidJsonOnEveryEngine)
{
    for (const std::string &engine :
         {std::string("serial"), std::string("threads"),
          std::string("simd"), std::string("sim")}) {
        std::string path = tempTracePath(engine);
        obs::enableTrace(path);
        auto backend = BackendRegistry::instance().create(engine);
        runStreamWorkload(*backend);
        ASSERT_TRUE(obs::writeTrace());
        obs::disableTrace();
        std::map<std::string, size_t> cats;
        validateTrace(path, cats);
        EXPECT_GT(cats["op"], 0u) << engine;
        if (engine == "sim") {
            EXPECT_GT(cats["sim"], 0u)
                << "sim engine produced no virtual-time spans";
        }
        std::remove(path.c_str());
    }
}

TEST(ObsTrace, PipelinedWorkersEmitJobSpans)
{
    // A directly constructed pool guarantees workers (the registry
    // engine falls back to the eager executor on 1-core hosts).
    std::string path = tempTracePath("pipelined");
    obs::enableTrace(path);
    {
        ThreadPoolBackend pool(4);
        runStreamWorkload(pool);
    }
    ASSERT_TRUE(obs::writeTrace());
    obs::disableTrace();
    std::map<std::string, size_t> cats;
    validateTrace(path, cats);
    EXPECT_GT(cats["job"], 0u) << "no per-worker job spans";
    std::remove(path.c_str());
}

/** A traced pbsBatch shows its serial record phase as one
 *  recordBlindRotate span in the "tfhe" category. */
TEST(ObsTrace, BlindRotateRecordPhaseHasSpan)
{
    std::string prev = BackendRegistry::instance().active().name();
    BackendRegistry::instance().select("serial");
    TfheGateBootstrapper gb(TfheParams::testTiny(), 20241);
    LweCiphertext in[2] = {gb.encryptBit(true), gb.encryptBit(false)};
    const LweCiphertext *ins[2] = {&in[0], &in[1]};
    const Poly *tvs[2] = {&gb.signVector(), &gb.signVector()};
    std::string path = tempTracePath("record_blind_rotate");
    obs::enableTrace(path);
    std::vector<LweCiphertext> out = gb.bootstrapper().pbsBatch(
        ins, tvs, 2, gb.bootstrapKey(), gb.keySwitchKey());
    ASSERT_TRUE(obs::writeTrace());
    obs::disableTrace();
    std::map<std::string, size_t> cats;
    validateTrace(path, cats);
    EXPECT_EQ(cats["tfhe"], 1u);
    EXPECT_NE(readFile(path).find("\"recordBlindRotate\""),
              std::string::npos);
    EXPECT_TRUE(gb.decryptBit(out[0]));
    EXPECT_FALSE(gb.decryptBit(out[1]));
    std::remove(path.c_str());
    BackendRegistry::instance().select(prev);
}

TEST(ObsTrace, DisableDropsBufferedEvents)
{
    std::string path = tempTracePath("drop");
    obs::enableTrace(path);
    obs::traceInstant("marker", "test", "test-track");
    obs::disableTrace();
    obs::enableTrace(path);
    ASSERT_TRUE(obs::writeTrace());
    obs::disableTrace();
    std::string text = readFile(path);
    EXPECT_EQ(text.find("marker"), std::string::npos);
    std::remove(path.c_str());
}

// --- histogram math ---------------------------------------------------------

TEST(ObsMetrics, HistogramExactBelowLinearRange)
{
    obs::Histogram h;
    for (u64 v = 0; v < obs::Histogram::kLinear; ++v) {
        EXPECT_EQ(obs::Histogram::bucketMid(obs::Histogram::bucketOf(v)),
                  v);
    }
}

TEST(ObsMetrics, HistogramBucketErrorBounded)
{
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform over the full interesting range.
        u64 v = rng.uniform(u64{1} << rng.uniform(52));
        u64 mid = obs::Histogram::bucketMid(obs::Histogram::bucketOf(v));
        double rel = v == 0 ? 0.0
                            : std::abs(static_cast<double>(mid) -
                                       static_cast<double>(v)) /
                                  static_cast<double>(v);
        EXPECT_LE(rel, 0.125) << "value " << v << " mid " << mid;
    }
}

TEST(ObsMetrics, HistogramPercentilesMatchSortedReference)
{
    obs::overrideMetrics(1);
    obs::Histogram h;
    std::vector<u64> ref;
    Rng rng(23);
    for (int i = 0; i < 50000; ++i) {
        // Latency-shaped distribution: a dense body with a long tail.
        u64 v = 1000 + rng.uniform(u64{1} << (10 + rng.uniform(16)));
        h.observe(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (double p : {0.50, 0.90, 0.99, 0.999}) {
        size_t rank = static_cast<size_t>(
            std::ceil(p * static_cast<double>(ref.size())));
        u64 expect = ref[rank - 1];
        u64 got = h.percentile(p);
        // Bucket midpoints bound the relative error at 12.5%.
        EXPECT_GE(static_cast<double>(got),
                  0.875 * static_cast<double>(expect))
            << "p" << p;
        EXPECT_LE(static_cast<double>(got),
                  1.125 * static_cast<double>(expect))
            << "p" << p;
    }
    EXPECT_EQ(h.count(), ref.size());
    obs::overrideMetrics(-1);
}

TEST(ObsMetrics, DisabledMeansZeroMutations)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test.disabled.counter");
    obs::Gauge &g = reg.gauge("test.disabled.gauge");
    obs::Histogram &h = reg.histogram("test.disabled.hist");
    c.reset();
    g.reset();
    h.reset();
    obs::overrideMetrics(0);
    EXPECT_FALSE(obs::metricsEnabled());
    c.add(5);
    g.set(42);
    h.observe(1234);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
    obs::overrideMetrics(1);
    c.add(5);
    g.set(42);
    h.observe(1234);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.value(), 42);
    EXPECT_EQ(h.count(), 1u);
    obs::overrideMetrics(-1);
}

TEST(ObsMetrics, RegistrySnapshotAndJson)
{
    obs::overrideMetrics(1);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("test.snap.counter").reset();
    reg.counter("test.snap.counter").add(3);
    reg.histogram("test.snap.hist").reset();
    reg.histogram("test.snap.hist").observe(100);
    std::string json = reg.json();
    Json root;
    ASSERT_TRUE(JsonParser(json).parse(root)) << json;
    const Json *c = root.find("test.snap.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->num, 3.0);
    const Json *h = root.find("test.snap.hist");
    ASSERT_NE(h, nullptr);
    ASSERT_EQ(h->kind, Json::Obj);
    const Json *count = h->find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->num, 1.0);
    obs::overrideMetrics(-1);
}

// --- wiring -----------------------------------------------------------------

TEST(ObsWiring, ScratchArenaStatsAreRegistryCounters)
{
    obs::overrideMetrics(1);
    // Drop slabs pooled by earlier tests so the hit/miss sequence
    // below is deterministic.
    ScratchArena::local().clear();
    ScratchArena::resetStats();
    {
        ScratchBuffer a = ScratchArena::local().acquire(512); // miss
        ScratchBuffer b = ScratchArena::local().acquire(512); // miss
    }
    ScratchBuffer c = ScratchArena::local().acquire(512); // hit
    ScratchArena::Stats s = ScratchArena::stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, 1u);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    EXPECT_EQ(reg.counter("scratch_arena.hits").value(), s.hits);
    EXPECT_EQ(reg.counter("scratch_arena.misses").value(), s.misses);
    obs::overrideMetrics(-1);
}

TEST(ObsWiring, PbsServerLatencyHistogramCountsRequests)
{
    obs::overrideMetrics(1);
    TfheGateBootstrapper gb(TfheParams::testTiny(), 20240);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Histogram &lat = reg.histogram("pbs_server.request_latency_ns");
    obs::Histogram &qw = reg.histogram("pbs_server.queue_wait_ns");
    u64 lat0 = lat.count();
    u64 qw0 = qw.count();
    const size_t kRequests = 10;
    {
        runtime::PbsServer server(gb);
        std::vector<std::future<LweCiphertext>> futures;
        for (size_t i = 0; i < kRequests; ++i) {
            futures.push_back(server.submit(gb.encryptBit(i % 2 == 0)));
        }
        for (auto &f : futures) {
            f.get();
        }
    } // join the worker: every observation happened-before this point
    EXPECT_EQ(lat.count() - lat0, kRequests);
    EXPECT_EQ(qw.count() - qw0, kRequests);
    obs::overrideMetrics(-1);
}

/** True when @p s is well-formed UTF-8 (no overlongs, surrogates, or
 *  code points past U+10FFFF) — what a strict JSON reader demands. */
bool
strictUtf8(const std::string &s)
{
    size_t i = 0;
    while (i < s.size()) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        size_t len;
        u32 cp;
        if (c < 0x80) {
            ++i;
            continue;
        } else if ((c & 0xE0) == 0xC0) {
            len = 2;
            cp = c & 0x1F;
        } else if ((c & 0xF0) == 0xE0) {
            len = 3;
            cp = c & 0x0F;
        } else if ((c & 0xF8) == 0xF0) {
            len = 4;
            cp = c & 0x07;
        } else {
            return false;
        }
        if (i + len > s.size()) {
            return false;
        }
        for (size_t k = 1; k < len; ++k) {
            unsigned char cc = static_cast<unsigned char>(s[i + k]);
            if ((cc & 0xC0) != 0x80) {
                return false;
            }
            cp = (cp << 6) | (cc & 0x3F);
        }
        static const u32 kMin[] = {0, 0, 0x80, 0x800, 0x10000};
        if (cp < kMin[len] || cp > 0x10FFFF ||
            (cp >= 0xD800 && cp <= 0xDFFF)) {
            return false;
        }
        i += len;
    }
    return true;
}

/** Every process_name of a trace file, in file order. */
std::vector<std::string>
processNames(const std::string &text)
{
    std::vector<std::string> out;
    Json root;
    if (!JsonParser(text).parse(root)) {
        return out;
    }
    const Json *events = root.find("traceEvents");
    if (events == nullptr) {
        return out;
    }
    for (const Json &ev : events->arr) {
        const Json *name = ev.find("name");
        const Json *args = ev.find("args");
        if (name != nullptr && name->str == "process_name" &&
            args != nullptr && args->find("name") != nullptr) {
            out.push_back(args->find("name")->str);
        }
    }
    return out;
}

/** Servers label their batch spans with a caller-owned std::string;
 *  the trace is written after the servers (and their labels) are
 *  gone, so the track names must have been copied, and two servers
 *  with one label must land on one pid. */
TEST(ObsTrace, ServerTrackNamesOutliveTheirServers)
{
    // Serial engine: two servers share it, and the pool engine's
    // concurrent-submitter contract is not what this test is about.
    std::string prev = BackendRegistry::instance().active().name();
    BackendRegistry::instance().select("serial");
    std::string path = tempTracePath("server_labels");
    obs::enableTrace(path);

    TfheGateBootstrapper gb(TfheParams::testTiny(), 20240);
    {
        // Two live servers, one label, distinct label storage.
        runtime::ServerOptions opts;
        opts.label = std::string("trace_label_") + "pbs";
        std::vector<std::unique_ptr<runtime::PbsServer>> servers;
        for (int i = 0; i < 2; ++i) {
            servers.push_back(
                std::make_unique<runtime::PbsServer>(gb, opts));
        }
        for (auto &server : servers) {
            EXPECT_TRUE(
                gb.decryptBit(server->submit(gb.encryptBit(true)).get()));
        }
    }

    pir::PirParams pp = pir::PirParams::testTiny();
    pir::PirClient client(pp, 71);
    pir::PirQueryKeys keys = client.makeQueryKeys();
    pir::PirDatabase db = pir::PirDatabase::random(pp, 72);
    pir::PirDbStore store(
        client.ctx(),
        [&](pir::PirTenantId) -> const pir::PirDatabase & { return db; },
        0, "trace_label_store");
    {
        runtime::ServerOptions opts;
        opts.label = std::string("trace_label_") + "pir";
        runtime::PirServer server(
            client.sharedCtx(), pp, store,
            [&](pir::PirTenantId) -> const pir::PirQueryKeys & {
                return keys;
            },
            opts);
        EXPECT_EQ(client.decode(server.submit(0, client.makeQuery(3)).get()),
                  db.record(3));
    }

    ASSERT_TRUE(obs::writeTrace());
    obs::disableTrace();
    std::string text = readFile(path);
    EXPECT_TRUE(strictUtf8(text)) << "trace is not valid UTF-8";
    std::map<std::string, size_t> cats;
    validateTrace(path, cats);
    std::vector<std::string> names = processNames(text);
    EXPECT_EQ(std::count(names.begin(), names.end(), "trace_label_pbs"),
              1);
    EXPECT_EQ(std::count(names.begin(), names.end(), "trace_label_pir"),
              1);
    for (const std::string &name : names) {
        EXPECT_FALSE(name.empty()) << "empty process_name";
    }
    std::remove(path.c_str());
    BackendRegistry::instance().select(prev);
}

} // namespace
} // namespace trinity
