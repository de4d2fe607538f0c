/**
 * @file
 * The benchmark's own test (GoogleTest). Build and run it through
 * hostbench/selftest.py, or directly:
 *
 *     cmake --build .bench_build/hostbench --target hostbench_test
 *     .bench_build/hostbench/hostbench_test
 *
 * It anchors the benchmark's references outside the benchmark: the
 * renderer must reproduce the repository's canonical golden runs
 * (tests/golden, read-only) byte for byte, untraced and traced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_cache.hh"
#include "core/sweep.hh"
#include "hostbench.hh"
#include "workloads/registry.hh"

using namespace atscale;
using namespace hostbench;
namespace fs = std::filesystem;

#if !defined(HOSTBENCH_ROOT) || !defined(HOSTBENCH_WORK_DIR)
#error "HOSTBENCH_ROOT and HOSTBENCH_WORK_DIR must be defined"
#endif

namespace
{

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// The canonical runs tests/golden pins (see tests/test_golden_stats.cc).
struct GoldenCase
{
    const char *workload;
    PageSize pageSize;
    std::uint32_t cores;
    const char *tenantMix;
};

const GoldenCase kGolden[] = {
    {"bfs-urand", PageSize::Size4K, 1, ""},
    {"bfs-urand", PageSize::Size2M, 1, ""},
    {"pr-kron", PageSize::Size4K, 1, ""},
    {"pr-kron", PageSize::Size2M, 1, ""},
    {"mcf-rand", PageSize::Size4K, 1, ""},
    {"mcf-rand", PageSize::Size2M, 1, ""},
    {"kvserver-mix", PageSize::Size4K, 4, "zipfian"},
    {"kvserver-mix", PageSize::Size4K, 4, "churn"},
};

RunSpec
goldenSpec(const GoldenCase &c)
{
    RunSpec spec;
    spec.workload = c.workload;
    spec.footprintBytes = 1ull << 24;
    spec.pageSize = c.pageSize;
    spec.warmupRefs = 20'000;
    spec.measureRefs = 60'000;
    spec.seed = 3;
    spec.cores = c.cores;
    spec.tenantMix = c.tenantMix;
    return spec;
}

ReferenceTable
loadReferences(const std::string &workload)
{
    ReferenceTable table;
    std::string error;
    const fs::path path =
        fs::path(HOSTBENCH_ROOT) / "hostbench" / "references" /
        (workload + ".tsv");
    EXPECT_TRUE(table.load(path.string(), error)) << error;
    return table;
}

} // namespace

TEST(GoldenAnchor, RendererReproducesEveryCanonicalRun)
{
    const fs::path dir = fs::path(HOSTBENCH_ROOT) / "tests" / "golden";
    std::set<std::string> unmatched;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".json")
            unmatched.insert(entry.path().filename().string());
    ASSERT_EQ(unmatched.size(), std::size(kGolden));

    for (const GoldenCase &c : kGolden) {
        const RunSpec spec = goldenSpec(c);
        const std::string name = spec.fileTag() + ".json";
        ASSERT_EQ(unmatched.erase(name), 1u) << "no golden file " << name;
        const std::string expected = readFile(dir / name);
        ASSERT_FALSE(expected.empty());

        const std::string untraced = runJob(spec);
        LayerTotals totals;
        const TracedJob traced = runJobTraced(spec, totals);
        EXPECT_EQ(traced.bytes, untraced) << name;
        EXPECT_EQ(traced.error, "") << name;
        if (c.cores == 1) {
            EXPECT_EQ(untraced, expected) << name;
        } else {
            // Multi-core bytes: the golden aggregate, then the tenants.
            EXPECT_EQ(untraced.substr(0, expected.size()), expected) << name;
            EXPECT_EQ(untraced.compare(expected.size(), 9, "tenant 0 "), 0)
                << name;
        }
    }
}

TEST(Matrix, WorkloadsExpandToTheDeclaredMatrices)
{
    EXPECT_EQ(expandJobs("fig01-4k", 1).size(), 56u);
    EXPECT_EQ(expandJobs("fig01-huge", 1).size(), 112u);
    EXPECT_EQ(expandJobs("multicore-schemes", 1).size(), 24u);
    EXPECT_TRUE(expandJobs("fig01", 1).empty());

    // fig01-4k + fig01-huge is the repository's cold quick fig01 matrix.
    const std::vector<std::string> names = workloadNames();
    const std::vector<std::uint64_t> footprints = quickFootprints();
    std::set<std::string> keys;
    for (const char *workload : {"fig01-4k", "fig01-huge"}) {
        for (const Job &job : expandJobs(workload, 1)) {
            EXPECT_TRUE(keys.insert(job.key).second) << job.key;
            EXPECT_NE(std::find(names.begin(), names.end(),
                                job.spec.workload),
                      names.end());
            EXPECT_NE(std::find(footprints.begin(), footprints.end(),
                                job.spec.footprintBytes),
                      footprints.end());
            EXPECT_EQ(job.spec.pageSize == PageSize::Size4K,
                      std::string(workload) == "fig01-4k");
        }
    }
    EXPECT_EQ(keys.size(), names.size() * footprints.size() * 3);
}

TEST(References, CoverEveryJobAtEveryDeclaredSeed)
{
    for (const std::string &workload : benchWorkloads()) {
        const ReferenceTable table = loadReferences(workload);
        for (std::uint64_t seed = 1; seed <= declaredSeeds; ++seed)
            for (const Job &job : expandJobs(workload, seed))
                EXPECT_NE(table.find(seed, job.key), nullptr)
                    << workload << " seed " << seed << " " << job.key;
    }
    EXPECT_EQ(specSeedFor(0), 1u);
    EXPECT_EQ(specSeedFor(declaredSeeds - 1), declaredSeeds);
    EXPECT_EQ(specSeedFor(declaredSeeds), 1u);
}

TEST(Environment, ScrubbedJobsRunColdWhateverTheEnvironment)
{
    const fs::path workDir = fs::path(HOSTBENCH_WORK_DIR) / "env_test";
    fs::remove_all(workDir);
    const fs::path cacheDir = workDir / "cache";
    const fs::path streamDir = workDir / "streams";
    const fs::path outDir = workDir / "out";
    for (const fs::path &dir : {cacheDir, streamDir, outDir})
        fs::create_directories(dir);

    const std::uint64_t seed = 1;
    const ReferenceTable refs = loadReferences("fig01-4k");
    const std::vector<Job> all = expandJobs("fig01-4k", seed);
    const std::vector<Job> jobs(all.begin(), all.begin() + 2);

    // Poison the run cache: altered results under the jobs' own keys.
    ::setenv("ATSCALE_CACHE_DIR", cacheDir.c_str(), 1);
    for (const Job &job : jobs) {
        RunResult poisoned = runExperiment(job.spec);
        poisoned.counters.add(EventId::InstRetired, 12345);
        storeCachedRun(job.spec, poisoned);
    }
    const std::size_t poisonFiles = std::distance(
        fs::directory_iterator(cacheDir), fs::directory_iterator());
    ASSERT_EQ(poisonFiles, jobs.size());

    const std::vector<std::pair<const char *, std::string>> hostile = {
        {"ATSCALE_CACHE_DIR", cacheDir.string()},
        {"ATSCALE_STREAM_DIR", streamDir.string()},
        {"ATSCALE_NO_BATCH", "1"},
        {"ATSCALE_NO_FASTPATH", "1"},
        {"ATSCALE_SCHEME", "hashed"},
        {"ATSCALE_THREADS", "4"},
        {"ATSCALE_LANES", "1"},
        {"ATSCALE_NO_LANES", "1"},
        {"ATSCALE_SHARD", "1/2"},
        {"ATSCALE_QUICK", "1"},
        {"ATSCALE_OUT_DIR", outDir.string()},
    };
    for (const auto &[name, value] : hostile)
        ::setenv(name, value.c_str(), 1);

    // The poison is live: an unscrubbed job reads it instead of running.
    EXPECT_NE(digestHex(digest(runJob(jobs[0].spec))),
              *refs.find(seed, jobs[0].key));

    const std::vector<std::string> cleared = scrubEnvironment();
    for (const auto &[name, value] : hostile) {
        EXPECT_NE(std::find(cleared.begin(), cleared.end(), name),
                  cleared.end())
            << name;
        EXPECT_EQ(std::getenv(name), nullptr) << name;
    }

    for (const Job &job : jobs) {
        const std::string *want = refs.find(seed, job.key);
        ASSERT_NE(want, nullptr);
        EXPECT_EQ(digestHex(digest(runJob(job.spec))), *want) << job.key;
    }
    // Cold: nothing was stored or recorded by the scrubbed jobs.
    EXPECT_EQ(static_cast<std::size_t>(std::distance(
                  fs::directory_iterator(cacheDir),
                  fs::directory_iterator())),
              poisonFiles);
    EXPECT_TRUE(fs::is_empty(streamDir));
    EXPECT_TRUE(fs::is_empty(outDir));
    fs::remove_all(workDir);
}
