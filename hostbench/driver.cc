/**
 * @file
 * hostbench_driver: times one benchmark workload of the atscale
 * simulator, cold, one job at a time on one thread, and checks every
 * job's exported result against its checked-in reference digest.
 *
 *   hostbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    [--references DIR] [--max-jobs N]
 *   hostbench_driver --workload W --write-references FILE
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
 * (README.md). The last stdout line is the result JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "hostbench.hh"

using namespace hostbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Value at quantile q in [0,1] of `values`, linear interpolation. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Mean of the middle half of `values`: a sample the kernel preempted
 *  cannot move it. */
double
interquartileMean(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 4;
    double sum = 0;
    for (std::size_t i = cut; i < values.size() - cut; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * cut);
}

/**
 * Host memory-speed probe. On a shared host, neighbours contend for the
 * last-level cache and memory for minutes at a time and slow every job
 * by 1.3-1.8x, longer than any run lasts. The probe measures that
 * contention with fixed code that no change to the simulator can move.
 * Each sample reads a 1 MiB buffer, reads 4 MiB more to push it out of
 * the private caches, then times a fixed batch of random
 * read-modify-writes on it, so that the job before a sample changes
 * where the sample starts from as little as it can.
 */
class HostProbe
{
  public:
    /** Seconds one sample takes on the reference host (README.md). */
    static constexpr double referenceS = 200e-6;
    /** Resident bytes of the probe's buffers. */
    static constexpr std::size_t bytes = (1 << 20) + (4 << 20);

    /** Seconds of one timed batch. */
    double
    sample()
    {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < buffer_.size(); i += 8)
            sum += buffer_[i];
        for (std::size_t i = 0; i < evict_.size(); i += 8)
            sum += evict_[i];
        sink_ = sum;
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < 20000; ++i) {
            state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
            buffer_[(state_ >> 24) % buffer_.size()] += state_;
        }
        return secondsSince(start);
    }

  private:
    std::vector<std::uint64_t> buffer_ =
        std::vector<std::uint64_t>((1 << 20) / 8, 1);
    std::vector<std::uint64_t> evict_ =
        std::vector<std::uint64_t>((4 << 20) / 8, 1);
    std::uint64_t state_ = 7;
    volatile std::uint64_t sink_ = 0;
};

/** Threads of this process (the benchmark must stay at one). */
int
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    return 0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string references = "hostbench/references";
    std::size_t maxJobs = 0;
    std::string writeReferences;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench_driver: %s\nusage: hostbench_driver --workload "
                 "W --seed N --seconds S --trace 0|1 [--references DIR] "
                 "[--max-jobs N]\n       hostbench_driver --workload W "
                 "--write-references FILE\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *text, const char *flag)
{
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = parseCount(value, "--seed");
        } else if (flag == "--seconds") {
            options.seconds =
                static_cast<double>(parseCount(value, "--seconds"));
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                usage("--trace takes 0 or 1");
            options.trace = value[0] == '1';
        } else if (flag == "--references") {
            options.references = value;
        } else if (flag == "--max-jobs") {
            options.maxJobs = parseCount(value, "--max-jobs");
        } else if (flag == "--write-references") {
            options.writeReferences = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

std::vector<Job>
jobsFor(const Options &options, std::uint64_t specSeed)
{
    std::vector<Job> jobs = expandJobs(options.workload, specSeed);
    if (options.maxJobs && jobs.size() > options.maxJobs)
        jobs.resize(options.maxJobs);
    return jobs;
}

/** Operation counts plus the digest check shared by both modes. */
struct Checker
{
    const ReferenceTable &refs;
    std::uint64_t specSeed;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; it fails when its digest is not the reference. */
    void
    check(const Job &job, const std::string &bytes)
    {
        ++attempted;
        std::string hex = digestHex(digest(bytes));
        const std::string *want = refs.find(specSeed, job.key);
        if (!want || *want != hex) {
            fail(job, "digest " + hex + " != reference " +
                          (want ? *want : std::string("<none>")));
        }
    }

    void
    fail(const Job &job, const std::string &why)
    {
        if (failed++ < 10) {
            std::fprintf(stderr, "hostbench: FAILED %s (seed %llu): %s\n",
                         job.key.c_str(),
                         static_cast<unsigned long long>(specSeed),
                         why.c_str());
        }
    }
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

void
printResult(const Checker &checker, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checker.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted),
                static_cast<unsigned long long>(checker.failed));
    const char *sep = "";
    for (const auto &[name, metric] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), metric.first, metric.second.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

Metrics
endToEnd(const Options &options, const std::vector<Job> &jobs,
         std::uint64_t specSeed, Checker &checker,
         std::map<std::string, double> &diagnostics)
{
    // Resident from the start, so that it adds the same bytes to the
    // whole run's memory.
    HostProbe probe;

    // Set-up, outside the timed passes: job-list expansion, then the
    // platform construction and workload instantiation of every job.
    std::vector<double> setups;
    for (int rep = 0; rep < 7; ++rep) {
        const Clock::time_point start = Clock::now();
        std::vector<Job> expanded = jobsFor(options, specSeed);
        double seconds = secondsSince(start);
        for (const Job &job : expanded)
            seconds += setUpJob(job.spec);
        setups.push_back(seconds);
    }

    Count refs = 0;
    for (const Job &job : jobs)
        refs += coreRefs(job.spec);

    // Passes over the whole matrix until the time is used, and at least
    // three, with a probe sample after each job. A pass's slowdown is the
    // interquartile mean of its samples over HostProbe::referenceS, and
    // each job's times in the
    // pass are divided by it: they become seconds on the reference host,
    // and a slower program still raises them in full. A job's time is
    // then its fastest pass, and the matrix time the sum of those minima:
    // what the probe leaves of the contention only ever slows a job.
    std::vector<std::vector<double>> jobWalls(jobs.size());
    std::vector<std::vector<double>> jobCpus(jobs.size());
    std::vector<double> rawWalls(jobs.size(),
                                 std::numeric_limits<double>::max());
    std::vector<double> passWalls, slowdowns;
    const Clock::time_point begin = Clock::now();
    do {
        const Clock::time_point passStart = Clock::now();
        std::vector<double> walls, cpus, samples;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const double cpu0 = cpuSeconds();
            const Clock::time_point start = Clock::now();
            checker.check(jobs[j], runJob(jobs[j].spec));
            walls.push_back(secondsSince(start));
            cpus.push_back(cpuSeconds() - cpu0);
            samples.push_back(probe.sample());
        }
        const double slowdown =
            interquartileMean(samples) / HostProbe::referenceS;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            jobWalls[j].push_back(walls[j] / slowdown);
            jobCpus[j].push_back(cpus[j] / slowdown);
            rawWalls[j] = std::min(rawWalls[j], walls[j]);
        }
        slowdowns.push_back(slowdown);
        passWalls.push_back(secondsSince(passStart));
    } while (passWalls.size() < 3 || secondsSince(begin) < options.seconds);

    // Set-up ran just before the passes; it is scaled by their median
    // slowdown.
    const double slowdown = median(slowdowns);
    std::fprintf(stderr, "hostbench: set-up reps (unscaled):");
    for (double &setup : setups) {
        std::fprintf(stderr, " %.4f", setup);
        setup /= slowdown;
    }
    std::fprintf(stderr, "\n");

    double wall = 0, cpu = 0, rawWall = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        wall += *std::min_element(jobWalls[j].begin(), jobWalls[j].end());
        cpu += *std::min_element(jobCpus[j].begin(), jobCpus[j].end());
        rawWall += rawWalls[j];
    }

    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    std::fprintf(stderr, "hostbench: %zu passes, pass walls (slowdown):",
                 passWalls.size());
    for (std::size_t p = 0; p < passWalls.size(); ++p)
        std::fprintf(stderr, " %.3f (%.3f)", passWalls[p], slowdowns[p]);
    std::fprintf(stderr, "; wall %.3f, unscaled %.3f\n", wall, rawWall);
    diagnostics["slowdown"] = slowdown;
    diagnostics["unscaled_wall_s"] = rawWall;

    return {
        {"wall_s", {wall, "s"}},
        {"cpu_s", {cpu, "s"}},
        {"sim_mrefs_per_s", {static_cast<double>(refs) / wall / 1e6,
                             "Mrefs/s"}},
        {"setup_s", {median(setups), "s"}},
        // The driver's peak, less the probe's buffers.
        {"peak_rss_mib",
         {static_cast<double>(usage.ru_maxrss) / 1024.0 -
              static_cast<double>(HostProbe::bytes) / (1 << 20),
          "MiB"}},
    };
}

Metrics
layerMetrics(const LayerTotals &t, const std::vector<double> &jobWalls,
             double overhead)
{
    const double fillS = t.fillS;
    return {
        {"core.platform_build_s", {t.platformBuildS, "s"}},
        {"core.job_p50_s", {quantile(jobWalls, 0.5), "s"}},
        {"core.job_p90_s", {quantile(jobWalls, 0.9), "s"}},
        {"core.jobs", {static_cast<double>(t.jobs), "count"}},
        {"workloads.instantiate_s", {t.instantiateS, "s"}},
        {"workloads.fill_s", {fillS, "s"}},
        {"workloads.fill_ns_per_ref",
         {ratio(fillS * 1e9, static_cast<double>(t.refsGenerated)), "ns"}},
        {"workloads.refs", {static_cast<double>(t.refsGenerated), "count"}},
        {"cpu.run_s", {t.runS, "s"}},
        {"cpu.ns_per_ref",
         {ratio(t.singleCoreRunS * 1e9, static_cast<double>(t.singleCoreRefs)),
          "ns"}},
        {"cpu.below_stream_s", {t.runS - fillS, "s"}},
        {"cpu.instructions", {static_cast<double>(t.instructions), "count"}},
        {"cpu.machine_clears", {static_cast<double>(t.machineClears), "count"}},
        {"cpu.branch_mispredicts",
         {static_cast<double>(t.branchMispredicts), "count"}},
        {"mmu.translate_replay_ns",
         {ratio(t.translateReplayS * 1e9,
                static_cast<double>(t.translateReplays)),
          "ns"}},
        {"mmu.walks_initiated",
         {static_cast<double>(t.walksInitiated), "count"}},
        {"mmu.walks_completed",
         {static_cast<double>(t.walksCompleted), "count"}},
        {"mmu.walk_completion_ratio",
         {ratio(static_cast<double>(t.walksCompleted),
                static_cast<double>(t.walksInitiated)),
          "ratio"}},
        {"mmu.stlb_hits", {static_cast<double>(t.stlbHits), "count"}},
        {"mmu.ptw_loads", {static_cast<double>(t.ptwLoads), "count"}},
        {"mmu.ptw_loads_per_walk",
         {ratio(static_cast<double>(t.ptwLoads),
                static_cast<double>(t.walksInitiated)),
          "ratio"}},
        {"mmu.walk_cycles", {static_cast<double>(t.walkCycles), "cycles"}},
        {"mmu.fastpath_hit_ratio",
         {ratio(static_cast<double>(t.fastpathHits),
                static_cast<double>(t.fastpathLookups)),
          "ratio"}},
        {"cache.access_replay_ns",
         {ratio(t.accessReplayS * 1e9, static_cast<double>(t.accessReplays)),
          "ns"}},
        {"cache.l1d_hit_ratio",
         {ratio(static_cast<double>(t.l1Hits),
                static_cast<double>(t.hierarchyAccesses)),
          "ratio"}},
        {"cache.dram_accesses", {static_cast<double>(t.dramAccesses), "count"}},
        {"cache.pte_accesses", {static_cast<double>(t.pteAccesses), "count"}},
        {"vm.pages_touched", {static_cast<double>(t.pagesTouched), "count"}},
        {"vm.page_table_bytes",
         {static_cast<double>(t.pageTableBytes), "bytes"}},
        {"sys.ns_per_core_ref",
         {ratio(t.runS * 1e9, static_cast<double>(t.coreRefsExecuted)),
          "ns"}},
        {"sys.shootdowns_initiated",
         {static_cast<double>(t.shootdownsInitiated), "count"}},
        {"sys.shootdown_cycles",
         {static_cast<double>(t.shootdownCycles), "cycles"}},
        {"trace.overhead_ratio", {overhead, "ratio"}},
    };
}

Metrics
traced(const Options &options, const std::vector<Job> &jobs,
       Checker &checker)
{
    // Passes in which every job runs untraced, then traced (so both see
    // the same host conditions), while another pass fits in the time;
    // each metric is the median over passes. Tracing never runs inside
    // an untraced job.
    std::map<std::string, std::vector<double>> samples;
    Metrics units;
    const Clock::time_point begin = Clock::now();
    double passS = 0;
    do {
        const Clock::time_point passStart = Clock::now();
        LayerTotals totals;
        std::vector<double> jobWalls;
        double untracedWall = 0, tracedWall = 0;
        for (const Job &job : jobs) {
            const Clock::time_point start = Clock::now();
            const std::string bytes = runJob(job.spec);
            jobWalls.push_back(secondsSince(start));
            untracedWall += jobWalls.back();
            checker.check(job, bytes);

            const TracedJob run = runJobTraced(job.spec, totals);
            tracedWall += run.wallS;
            checker.check(job, run.bytes);
            if (run.bytes != bytes)
                checker.fail(job, "traced result differs from untraced");
            if (!run.error.empty())
                checker.fail(job, run.error);
        }
        units = layerMetrics(totals, jobWalls, tracedWall / untracedWall);
        for (const auto &[name, metric] : units)
            samples[name].push_back(metric.first);
        passS = secondsSince(passStart);
    } while (secondsSince(begin) + passS <= options.seconds);

    Metrics metrics;
    for (const auto &[name, values] : samples)
        metrics[name] = {median(values), units[name].second};
    return metrics;
}

int
writeReferences(const Options &options)
{
    std::ofstream out(options.writeReferences);
    if (!out) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     options.writeReferences.c_str());
        return 1;
    }
    out << "# hostbench reference digests: " << options.workload
        << "\n# spec seed<TAB>job<TAB>FNV-1a 64 of the exported result\n";
    for (std::uint64_t seed = 1; seed <= declaredSeeds; ++seed) {
        for (const Job &job : jobsFor(options, seed)) {
            out << seed << '\t' << job.key << '\t'
                << digestHex(digest(runJob(job.spec))) << '\n';
        }
        std::fprintf(stderr, "hostbench: %s seed %llu done\n",
                     options.workload.c_str(),
                     static_cast<unsigned long long>(seed));
    }
    out.close();
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Before anything else: no ATSCALE_* knob may reach a job.
    for (const std::string &name : scrubEnvironment())
        std::fprintf(stderr, "hostbench: cleared %s\n", name.c_str());

    Options options = parseArgs(argc, argv);
    if (expandJobs(options.workload, 1).empty())
        usage(("unknown workload " + options.workload).c_str());
    if (!options.writeReferences.empty())
        return writeReferences(options);

    ReferenceTable refs;
    std::string error;
    if (!refs.load(options.references + "/" + options.workload + ".tsv",
                   error)) {
        std::fprintf(stderr, "hostbench: %s\n", error.c_str());
        return 1;
    }

    const std::uint64_t specSeed = specSeedFor(options.seed);
    const std::vector<Job> jobs = jobsFor(options, specSeed);
    Checker checker{refs, specSeed};
    std::map<std::string, double> diagnostics;
    Metrics metrics = options.trace ? traced(options, jobs, checker)
                                    : endToEnd(options, jobs, specSeed,
                                               checker, diagnostics);
    std::printf("{\"jobs\": %zu, \"spec_seed\": %llu, \"threads\": %d",
                jobs.size(), static_cast<unsigned long long>(specSeed),
                threadCount());
    for (const auto &[name, value] : diagnostics)
        std::printf(", \"%s\": %.6g", name.c_str(), value);
    std::printf("}\n");
    printResult(checker, metrics);
    return 0;
}
