/**
 * @file
 * The host-time benchmark's job model: the three benchmark workloads as
 * job lists, the exported-result renderer and its digest, the checked-in
 * reference table, the untraced job runner, and the traced job runner
 * that times each layer from outside the simulator's public calls.
 *
 * Every job runs cold, one at a time, on the calling thread, through
 * runExperiment / runMulticoreExperiment (or, traced, through the same
 * public-call sequence those functions make). Nothing here touches the
 * sweep engine, lanes, stream record/replay, shards or the run cache.
 */

#ifndef HOSTBENCH_HOSTBENCH_HH
#define HOSTBENCH_HOSTBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/multicore.hh"
#include "core/run_spec.hh"

namespace hostbench
{

using atscale::Count;

/** Spec seeds the checked-in references cover: 1..declaredSeeds. */
constexpr std::uint64_t declaredSeeds = 16;

/** The RunSpec seed a command-line --seed selects (1..declaredSeeds). */
std::uint64_t specSeedFor(std::uint64_t cliSeed);

/** One job of a benchmark workload's matrix. */
struct Job
{
    atscale::RunSpec spec;
    /** Stable reference key: workload/f<bytes>/<page>/<scheme>/c<cores>. */
    std::string key;
};

/** Benchmark workload names: fig01-4k, fig01-huge, multicore-schemes. */
const std::vector<std::string> &benchWorkloads();

/**
 * Expand a benchmark workload into its job list (declared order) at the
 * given spec seed. Empty for an unknown workload name.
 */
std::vector<Job> expandJobs(const std::string &workload,
                            std::uint64_t specSeed);

/** A single-core run's exported bytes: exactly writeRunResultJson. */
std::string render(const atscale::RunResult &result);

/**
 * A multi-core run's exported bytes: the aggregate's writeRunResultJson
 * bytes followed by one block per tenant (shootdown counts and every
 * counter) and the end-of-window stateHash.
 */
std::string render(const atscale::MulticoreRunResult &result);

/** 64-bit FNV-1a digest of exported bytes. */
std::uint64_t digest(std::string_view bytes);

/** Digest as 16 lower-case hex digits. */
std::string digestHex(std::uint64_t value);

/** Checked-in per-job reference digests of one benchmark workload. */
class ReferenceTable
{
  public:
    /**
     * Load a reference file (lines "seed<TAB>key<TAB>digest"; '#'
     * comments). Returns false and sets `error` if the file is missing
     * or malformed.
     */
    bool load(const std::string &path, std::string &error);

    /** The reference digest, or nullptr when the table has none. */
    const std::string *find(std::uint64_t specSeed,
                            const std::string &key) const;

  private:
    std::map<std::pair<std::uint64_t, std::string>, std::string> digests_;
};

/**
 * Clear every ATSCALE_* environment variable so no repository knob (run
 * cache, stream store, batch/fast-path switches, thread/lane/shard
 * settings, quick mode, output directory) can reach a timed job.
 * @return the names cleared
 */
std::vector<std::string> scrubEnvironment();

/** Run one job untraced, cold, and return its exported bytes. */
std::string runJob(const atscale::RunSpec &spec);

/** References one job executes: (warm-up + measured) x cores. */
Count coreRefs(const atscale::RunSpec &spec);

/**
 * The set-up calls of one job, then tear-down.
 * @return host seconds of the set-up calls, platform (or shared system)
 *         construction and workload instantiation; tear-down excluded
 */
double setUpJob(const atscale::RunSpec &spec);

/** Per-layer sums over traced jobs (see README.md for each metric). */
struct LayerTotals
{
    std::size_t jobs = 0;

    // Host seconds inside the spans the traced run records.
    double platformBuildS = 0;
    double instantiateS = 0;
    /** Inside RefSource::fill (measured by the stream decorator). */
    double fillS = 0;
    /** Inside Core::run / SharedSystem::run (includes fillS). */
    double runS = 0;
    /** The single-core jobs' share of runS, and their references. */
    double singleCoreRunS = 0;
    Count singleCoreRefs = 0;

    /** References the workload streams produced. */
    Count refsGenerated = 0;
    /** References the cores executed (x cores for multi-core jobs). */
    Count coreRefsExecuted = 0;

    // Exported counters, measurement window, summed over jobs.
    Count instructions = 0;
    Count machineClears = 0;
    Count branchMispredicts = 0;
    Count walksInitiated = 0;
    Count walksCompleted = 0;
    Count stlbHits = 0;
    Count ptwLoads = 0;
    Count walkCycles = 0;
    /** Fast-path probes (hits + misses) and hits, radix jobs only. */
    Count fastpathLookups = 0;
    Count fastpathHits = 0;
    Count hierarchyAccesses = 0;
    Count l1Hits = 0;
    Count dramAccesses = 0;
    Count pteAccesses = 0;
    Count shootdownsInitiated = 0;
    Count shootdownCycles = 0;

    // Address-space state at the end of each job.
    Count pagesTouched = 0;
    Count pageTableBytes = 0;

    // Replays of each job's measured-window addresses on a fresh machine.
    double translateReplayS = 0;
    Count translateReplays = 0;
    double accessReplayS = 0;
    Count accessReplays = 0;
};

/** Outcome of one traced job. */
struct TracedJob
{
    /** Exported bytes; must equal the untraced run's. */
    std::string bytes;
    /** Host seconds of the traced call sequence (replays excluded). */
    double wallS = 0;
    /**
     * Empty, or why the job's address-space accounting did not
     * reconcile (pages found populated vs. footprint_touched).
     */
    std::string error;
};

/**
 * Run one job through runExperiment's (or runMulticoreExperiment's)
 * public-call sequence with every stream wrapped in a timing decorator,
 * add its spans and counters to `totals`, then replay its measured-window
 * addresses through Mmu::translate and CacheHierarchy::access on a fresh
 * machine.
 */
TracedJob runJobTraced(const atscale::RunSpec &spec, LayerTotals &totals);

} // namespace hostbench

#endif // HOSTBENCH_HOSTBENCH_HH
