/**
 * @file
 * PIR serving demo, client and server in one process: two tenants
 * register databases behind a budgeted PirDbStore, each client
 * encrypts a record index into a single RLWE query, the PirServer
 * answers through the full pipeline (oblivious expansion, RLWE->GSW
 * conversion, CommandStream first-dimension fold, CMux tree, modulus
 * switch), and every response is decrypted and verified against the
 * addressed record. The server never sees an index or a secret key —
 * only the uploaded query/key ciphertexts.
 *
 * Knobs: TRINITY_BACKEND (engine), TRINITY_PIR_DB_BYTES (residency
 * budget), TRINITY_PIR_FOLD_CHUNK (fold chunking),
 * TRINITY_RUNTIME_* (queue policy). Set TRINITY_TRACE=<path> for a
 * Chrome trace; the run ends with an obs::MetricsRegistry dump of the
 * serving histograms and kernel counters.
 */

#include <cstdio>
#include <future>
#include <vector>

#include "backend/registry.h"
#include "obs/metrics.h"
#include "runtime/pir_server.h"

using namespace trinity;

int
main()
{
    pir::PirParams pp = pir::PirParams::testTiny();
    std::printf("== PIR serving runtime ==\n");
    std::printf("engine: %s, params: N=%zu, records=%zu "
                "(%zu x 2^%u), %u-bit coefficients\n",
                activeBackend().name(), pp.tfhe.bigN, pp.records(),
                pp.dim1, pp.gswDims, pp.logP);

    // Each tenant is its own client: own secret key, own uploaded
    // query keys, own registered database.
    const size_t tenants = 2;
    std::vector<pir::PirClient> clients;
    std::vector<pir::PirQueryKeys> keys;
    std::vector<pir::PirDatabase> dbs;
    for (size_t t = 0; t < tenants; ++t) {
        clients.emplace_back(pp, 0xab1e + t);
        keys.push_back(clients[t].makeQueryKeys());
        dbs.push_back(pir::PirDatabase::random(pp, 0xdb + t));
    }
    std::printf("query upload: %zu ring elements; response: %zu "
                "bytes for a %zu-byte record\n",
                size_t(1),
                pp.responseBytes(),
                pp.recordBytes());

    pir::PirDbStore store(
        clients[0].ctx(),
        [&dbs](pir::PirTenantId t) -> const pir::PirDatabase & {
            return dbs.at(static_cast<size_t>(t));
        },
        pir::PirDbStore::budgetFromEnv(0));
    runtime::PirServer server(
        clients[0].sharedCtx(), pp, store,
        [&keys](pir::PirTenantId t) -> const pir::PirQueryKeys & {
            return keys.at(static_cast<size_t>(t));
        });
    std::printf("queue policy: maxBatch=%zu, maxWaitUs=%llu; "
                "db residency budget=%zu bytes (0 = unbounded)\n",
                server.maxBatch(),
                static_cast<unsigned long long>(
                    server.options().maxWaitUs),
                store.budgetBytes());

    // Interleaved traffic: each tenant retrieves a spread of indices;
    // the index never leaves the client in the clear.
    const size_t perTenant = 4;
    std::vector<std::vector<size_t>> indices(tenants);
    std::vector<std::vector<std::future<pir::PirResponse>>> futures(
        tenants);
    for (size_t i = 0; i < perTenant; ++i) {
        for (size_t t = 0; t < tenants; ++t) {
            size_t index =
                (i * (pp.records() / perTenant) + 3 * t) %
                pp.records();
            indices[t].push_back(index);
            futures[t].push_back(
                server.submit(t, clients[t].makeQuery(index)));
        }
    }

    size_t wrong = 0;
    for (size_t t = 0; t < tenants; ++t) {
        for (size_t i = 0; i < perTenant; ++i) {
            std::vector<u64> got =
                clients[t].decode(futures[t][i].get());
            if (got != dbs[t].record(indices[t][i])) {
                ++wrong;
            }
        }
    }

    runtime::ServerStats stats = server.stats();
    pir::PirDbStore::Stats ds = store.stats();
    std::printf("served %llu queries in %llu batches (largest %llu); "
                "dbstore: %llu materializations, %llu hits, "
                "%.1f MB resident\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.largestBatch),
                static_cast<unsigned long long>(ds.materializations),
                static_cast<unsigned long long>(ds.hits),
                static_cast<double>(ds.residentBytes) / 1e6);
    std::printf("wrong records: %zu of %zu\n", wrong,
                tenants * perTenant);

    std::printf("\n-- metrics (obs::MetricsRegistry) --\n");
    obs::MetricsRegistry::instance().dump(stdout);
    return wrong == 0 ? 0 : 1;
}
