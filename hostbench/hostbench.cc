#include "hostbench.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "core/platform.hh"
#include "core/run_export.hh"
#include "perf/event.hh"
#include "sys/shared_system.hh"
#include "workloads/registry.hh"

extern char **environ;

namespace hostbench
{

using namespace atscale;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// The cold quick fig01 matrix: the workload registry and
// quickFootprints() as they stood when the benchmark was defined. Fixed
// here so a later change to either cannot silently change what the
// benchmark measures or invalidate its references.
const char *const kFig01Workloads[] = {
    "bc-kron",        "bc-urand", "bfs-kron",     "bfs-urand",
    "cc-kron",        "cc-urand", "kvserver-mix", "mcf-rand",
    "memcached-uniform", "pr-kron", "pr-urand",
    "streamcluster-rand", "tc-kron", "tc-urand",
};
const std::uint64_t kFig01Footprints[] = {268435456ull, 1704458900ull,
                                          10822639409ull, 68719476736ull};
// The full bench_multicore matrix.
const std::uint32_t kCoreCounts[] = {1, 2, 4};
const PageSize kMulticorePages[] = {PageSize::Size4K, PageSize::Size2M};
const char *const kSchemes[] = {"radix", "hashed", "cache_tlb", "no_vm"};

std::string
jobKey(const RunSpec &spec)
{
    return spec.workload + "/f" + std::to_string(spec.footprintBytes) + "/" +
           pageSizeName(spec.pageSize) + "/" + spec.scheme + "/c" +
           std::to_string(spec.cores);
}

std::vector<Job>
fig01Jobs(std::uint64_t seed, std::initializer_list<PageSize> sizes)
{
    std::vector<Job> jobs;
    for (const char *workload : kFig01Workloads) {
        for (std::uint64_t footprint : kFig01Footprints) {
            for (PageSize size : sizes) {
                RunSpec spec;
                spec.workload = workload;
                spec.footprintBytes = footprint;
                spec.pageSize = size;
                spec.warmupRefs = 150'000;
                spec.measureRefs = 400'000;
                spec.seed = seed;
                jobs.push_back({spec, jobKey(spec)});
            }
        }
    }
    return jobs;
}

std::vector<Job>
multicoreJobs(std::uint64_t seed)
{
    std::vector<Job> jobs;
    for (std::uint32_t cores : kCoreCounts) {
        for (PageSize page : kMulticorePages) {
            for (const char *scheme : kSchemes) {
                RunSpec spec;
                spec.workload = "kvserver-mix";
                spec.footprintBytes = 1ull << 27;
                spec.tenantMix = "zipfian,scan,churn";
                spec.warmupRefs = 100'000;
                spec.measureRefs = 300'000;
                spec.seed = seed;
                spec.cores = cores;
                spec.pageSize = page;
                spec.scheme = scheme;
                jobs.push_back({spec, jobKey(spec)});
            }
        }
    }
    return jobs;
}

// The platform seed and parameter recipes of runExperiment and
// runMulticoreExperiment (core/experiment.cc, core/multicore.cc). The
// traced run repeats their call sequence; its digest check proves the
// repetition exact.
std::uint64_t
platformSeed(const RunSpec &spec)
{
    return spec.seed * 0x9e37 + 7;
}

PlatformParams
platformParams(const RunSpec &spec)
{
    PlatformParams params;
    params.mmu.scheme = spec.scheme;
    return params;
}

SharedSystemParams
systemParams(const RunSpec &spec)
{
    PlatformParams platform = platformParams(spec);
    SharedSystemParams params;
    params.hierarchy = platform.hierarchy;
    params.mmu = platform.mmu;
    params.core = platform.core;
    params.freqGHz = platform.freqGHz;
    params.dramBytes = platform.dramBytes;
    params.cores = spec.cores;
    return params;
}

WorkloadConfig
workloadConfig(const RunSpec &spec, bool tenants)
{
    WorkloadConfig config;
    config.footprintBytes = spec.footprintBytes;
    config.seed = spec.seed;
    config.mode = spec.mode;
    // runExperiment passes no tenant mix to single-core instantiation.
    if (tenants)
        config.tenantMix = spec.tenantMix;
    return config;
}

/**
 * Stream decorator: forwards every RefSource virtual to the wrapped
 * stream, timing fill() and recording the addresses it produced.
 */
class TimedSource final : public RefSource
{
  public:
    TimedSource(RefSource &inner, LayerTotals &totals)
        : inner_(inner), totals_(totals)
    {
    }

    bool
    next(Ref &ref) override
    {
        Count n = fill(&ref, 1);
        return n == 1;
    }

    Count
    fill(Ref *out, Count max) override
    {
        const Clock::time_point start = Clock::now();
        Count n = inner_.fill(out, max);
        totals_.fillS += secondsSince(start);
        totals_.refsGenerated += n;
        for (Count i = 0; i < n; ++i)
            addrs.push_back(out[i].vaddr);
        return n;
    }

    Addr wrongPathAddr(Rng &rng) override { return inner_.wrongPathAddr(rng); }

    void
    registerStats(StatsRegistry &registry,
                  const std::string &prefix) const override
    {
        inner_.registerStats(registry, prefix);
    }

    bool supportsAnchors() const override { return inner_.supportsAnchors(); }

    std::uint64_t
    wrongPathAnchor() const override
    {
        return inner_.wrongPathAnchor();
    }

    Addr
    wrongPathAddrAt(std::uint64_t anchor, Rng &rng) override
    {
        return inner_.wrongPathAddrAt(anchor, rng);
    }

    /** Every address produced, in order. */
    std::vector<Addr> addrs;
    /** Index in addrs of the first measured-window address. */
    std::size_t measuredStart = 0;

  private:
    RefSource &inner_;
    LayerTotals &totals_;
};

/** Add one core's exported measurement-window state to the totals. */
void
addCoreCounters(LayerTotals &totals, const CounterSet &c, const Mmu &mmu,
                const CacheHierarchy &hierarchy)
{
    totals.instructions += c.get(EventId::InstRetired);
    totals.machineClears += c.get(EventId::MachineClearsCount);
    totals.branchMispredicts += c.get(EventId::BrMispRetiredAllBranches);
    totals.walksInitiated +=
        c.get(EventId::DtlbLoadMissesMissCausesAWalk) +
        c.get(EventId::DtlbStoreMissesMissCausesAWalk);
    totals.walksCompleted += c.get(EventId::DtlbLoadMissesWalkCompleted) +
                             c.get(EventId::DtlbStoreMissesWalkCompleted);
    totals.stlbHits += c.get(EventId::DtlbLoadMissesStlbHit) +
                       c.get(EventId::DtlbStoreMissesStlbHit);
    totals.ptwLoads += c.get(EventId::PageWalkerLoadsDtlbL1) +
                       c.get(EventId::PageWalkerLoadsDtlbL2) +
                       c.get(EventId::PageWalkerLoadsDtlbL3) +
                       c.get(EventId::PageWalkerLoadsDtlbMemory);
    totals.walkCycles += c.get(EventId::DtlbLoadMissesWalkDuration) +
                         c.get(EventId::DtlbStoreMissesWalkDuration);
    if (std::string(mmu.schemeName()) == "radix") {
        const FastTranslationCache &fast = mmu.fastCache();
        totals.fastpathHits += fast.hits();
        totals.fastpathLookups += fast.hits() + fast.misses();
    }
    for (AccessKind kind : {AccessKind::Data, AccessKind::PtwLoad}) {
        totals.hierarchyAccesses += hierarchy.kindCount(kind);
        totals.l1Hits += hierarchy.levelCount(kind, MemLevel::L1);
        totals.dramAccesses += hierarchy.levelCount(kind, MemLevel::Memory);
    }
    totals.pteAccesses += hierarchy.kindCount(AccessKind::PtwLoad);
}

/**
 * Count the populated pages among those the streams touched and check
 * that they account for every populated byte.
 * @return empty, or the reason the accounting does not reconcile
 */
std::string
countPages(const AddressSpace &space,
           const std::vector<const TimedSource *> &sources,
           LayerTotals &totals)
{
    std::unordered_set<Addr> small, pages;
    std::uint64_t bytes = 0;
    for (const TimedSource *source : sources) {
        for (Addr vaddr : source->addrs) {
            if (!small.insert(vaddr >> 12).second)
                continue;
            Translation t = space.translate(vaddr);
            if (t.valid && pages.insert(t.pageBase).second)
                bytes += pageBytes(t.pageSize);
        }
    }
    totals.pagesTouched += pages.size();
    if (bytes == space.footprintBytes())
        return "";
    return "populated pages found cover " + std::to_string(bytes) +
           " bytes, footprint_touched is " +
           std::to_string(space.footprintBytes());
}

/**
 * Replay measured-window addresses on a fresh machine: populate their
 * pages, then time Mmu::translate over every address, then
 * CacheHierarchy::access over their physical addresses. Both calls
 * update simulated state, so neither loop can be optimized away.
 */
void
replay(AddressSpace &space, const std::vector<Mmu *> &mmus,
       const std::vector<CacheHierarchy *> &hierarchies,
       const std::vector<std::vector<Addr>> &streams, LayerTotals &totals)
{
    for (const std::vector<Addr> &stream : streams)
        for (Addr vaddr : stream)
            space.touch(vaddr);

    for (std::size_t k = 0; k < streams.size(); ++k) {
        const Clock::time_point start = Clock::now();
        for (Addr vaddr : streams[k])
            mmus[k]->translate(vaddr);
        totals.translateReplayS += secondsSince(start);
        totals.translateReplays += streams[k].size();
    }
    for (std::size_t k = 0; k < streams.size(); ++k) {
        std::vector<PhysAddr> paddrs;
        paddrs.reserve(streams[k].size());
        for (Addr vaddr : streams[k])
            paddrs.push_back(space.translate(vaddr).paddr(vaddr));
        const Clock::time_point start = Clock::now();
        for (PhysAddr paddr : paddrs)
            hierarchies[k]->access(paddr, AccessKind::Data);
        totals.accessReplayS += secondsSince(start);
        totals.accessReplays += paddrs.size();
    }
}

std::vector<Addr>
measuredAddrs(const TimedSource &source)
{
    return std::vector<Addr>(source.addrs.begin() + source.measuredStart,
                             source.addrs.end());
}

TracedJob
runSingleCoreTraced(const RunSpec &spec, LayerTotals &totals)
{
    TracedJob job;
    std::vector<std::vector<Addr>> measured;
    std::unique_ptr<Workload> workload = createWorkload(spec.workload);
    {
        const Clock::time_point jobStart = Clock::now();
        Clock::time_point start = Clock::now();
        Platform platform(platformParams(spec), spec.pageSize,
                          workload->traits(), platformSeed(spec));
        totals.platformBuildS += secondsSince(start);

        start = Clock::now();
        std::unique_ptr<RefSource> stream = workload->instantiate(
            platform.space, workloadConfig(spec, false));
        totals.instantiateS += secondsSince(start);

        TimedSource timed(*stream, totals);
        start = Clock::now();
        Count executed = platform.core.run(timed, spec.warmupRefs);
        platform.core.resetCounters();
        platform.mmu.resetStats();
        platform.hierarchy.resetStats();
        timed.measuredStart = timed.addrs.size();
        executed += platform.core.run(timed, spec.measureRefs);
        const double run = secondsSince(start);
        totals.runS += run;
        totals.singleCoreRunS += run;
        totals.singleCoreRefs += executed;
        totals.coreRefsExecuted += executed;

        RunResult result;
        result.spec = spec;
        result.counters = platform.core.counters();
        result.footprintTouched = platform.space.footprintBytes();
        result.pageTableBytes = platform.space.pageTable().nodeBytes();
        job.bytes = render(result);
        job.wallS = secondsSince(jobStart);

        addCoreCounters(totals, result.counters, platform.mmu,
                        platform.hierarchy);
        totals.pageTableBytes += result.pageTableBytes;
        job.error = countPages(platform.space, {&timed}, totals);
        measured.push_back(measuredAddrs(timed));
    }

    std::unique_ptr<Workload> replayWorkload = createWorkload(spec.workload);
    Platform fresh(platformParams(spec), spec.pageSize, workload->traits(),
                   platformSeed(spec));
    std::unique_ptr<RefSource> layout = replayWorkload->instantiate(
        fresh.space, workloadConfig(spec, false));
    replay(fresh.space, {&fresh.mmu}, {&fresh.hierarchy}, measured, totals);
    return job;
}

TracedJob
runMulticoreTraced(const RunSpec &spec, LayerTotals &totals)
{
    TracedJob job;
    std::vector<std::vector<Addr>> measured;
    std::unique_ptr<Workload> workload = createWorkload(spec.workload);
    {
        const Clock::time_point jobStart = Clock::now();
        Clock::time_point start = Clock::now();
        SharedSystem sys(systemParams(spec), spec.pageSize,
                         workload->traits(), platformSeed(spec));
        totals.platformBuildS += secondsSince(start);

        start = Clock::now();
        std::vector<std::unique_ptr<RefSource>> tenants =
            workload->instantiateTenants(
                sys.space(), workloadConfig(spec, true), sys.cores());
        totals.instantiateS += secondsSince(start);

        std::vector<std::unique_ptr<TimedSource>> timed;
        std::vector<RefSource *> streams;
        for (const auto &tenant : tenants) {
            timed.push_back(std::make_unique<TimedSource>(*tenant, totals));
            streams.push_back(timed.back().get());
        }
        start = Clock::now();
        Count executed = sys.run(streams, spec.warmupRefs);
        sys.resetStats();
        for (auto &source : timed)
            source->measuredStart = source->addrs.size();
        executed += sys.run(streams, spec.measureRefs);
        totals.runS += secondsSince(start);
        totals.coreRefsExecuted += executed * sys.cores();

        MulticoreRunResult result;
        result.aggregate.spec = spec;
        result.perTenant.resize(sys.cores());
        for (std::uint32_t k = 0; k < sys.cores(); ++k) {
            TenantResult &tenant = result.perTenant[k];
            tenant.counters = sys.core(k).counters();
            tenant.shootdownsInitiated = sys.shootdownsInitiated(k);
            tenant.shootdownsReceived = sys.shootdownsReceived(k);
            tenant.shootdownCycles = sys.shootdownCycles(k);
            result.aggregate.counters += tenant.counters;
        }
        result.aggregate.footprintTouched = sys.space().footprintBytes();
        result.aggregate.pageTableBytes =
            sys.space().pageTable().nodeBytes();
        result.stateHash = sys.stateHash();
        job.bytes = render(result);
        job.wallS = secondsSince(jobStart);

        for (std::uint32_t k = 0; k < sys.cores(); ++k) {
            const TenantResult &tenant = result.perTenant[k];
            addCoreCounters(totals, tenant.counters, sys.mmu(k),
                            sys.hierarchy(k));
            totals.shootdownsInitiated += tenant.shootdownsInitiated;
            totals.shootdownCycles += tenant.shootdownCycles;
        }
        totals.pageTableBytes += result.aggregate.pageTableBytes;
        std::vector<const TimedSource *> sources;
        for (const auto &source : timed) {
            sources.push_back(source.get());
            measured.push_back(measuredAddrs(*source));
        }
        job.error = countPages(sys.space(), sources, totals);
    }

    std::unique_ptr<Workload> replayWorkload = createWorkload(spec.workload);
    SharedSystem fresh(systemParams(spec), spec.pageSize, workload->traits(),
                       platformSeed(spec));
    std::vector<std::unique_ptr<RefSource>> layout =
        replayWorkload->instantiateTenants(
            fresh.space(), workloadConfig(spec, true), fresh.cores());
    std::vector<Mmu *> mmus;
    std::vector<CacheHierarchy *> hierarchies;
    for (std::uint32_t k = 0; k < fresh.cores(); ++k) {
        mmus.push_back(&fresh.mmu(k));
        hierarchies.push_back(&fresh.hierarchy(k));
    }
    replay(fresh.space(), mmus, hierarchies, measured, totals);
    return job;
}

} // namespace

std::uint64_t
specSeedFor(std::uint64_t cliSeed)
{
    return 1 + cliSeed % declaredSeeds;
}

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {
        "fig01-4k", "fig01-huge", "multicore-schemes"};
    return names;
}

std::vector<Job>
expandJobs(const std::string &workload, std::uint64_t specSeed)
{
    if (workload == "fig01-4k")
        return fig01Jobs(specSeed, {PageSize::Size4K});
    if (workload == "fig01-huge")
        return fig01Jobs(specSeed, {PageSize::Size2M, PageSize::Size1G});
    if (workload == "multicore-schemes")
        return multicoreJobs(specSeed);
    return {};
}

std::string
render(const RunResult &result)
{
    std::ostringstream os;
    writeRunResultJson(os, result);
    return os.str();
}

std::string
render(const MulticoreRunResult &result)
{
    std::ostringstream os;
    writeRunResultJson(os, result.aggregate);
    for (std::size_t k = 0; k < result.perTenant.size(); ++k) {
        const TenantResult &tenant = result.perTenant[k];
        os << "tenant " << k << " shootdowns_initiated "
           << tenant.shootdownsInitiated << " shootdowns_received "
           << tenant.shootdownsReceived << " shootdown_cycles "
           << tenant.shootdownCycles << '\n';
        tenant.counters.forEach([&](EventId, const char *name, Count value) {
            os << "tenant " << k << ' ' << name << ' ' << value << '\n';
        });
    }
    os << "state_hash " << digestHex(result.stateHash) << '\n';
    return os.str();
}

std::uint64_t
digest(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
digestHex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
ReferenceTable::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read reference file " + path;
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::string key, hex;
        if (!(fields >> seed >> key >> hex) || hex.size() != 16) {
            error = path + ":" + std::to_string(lineNo) +
                    ": expected 'seed key digest'";
            return false;
        }
        digests_[{seed, key}] = hex;
    }
    return true;
}

const std::string *
ReferenceTable::find(std::uint64_t specSeed, const std::string &key) const
{
    auto it = digests_.find({specSeed, key});
    return it == digests_.end() ? nullptr : &it->second;
}

std::vector<std::string>
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env; ++env) {
        std::string entry = *env;
        if (entry.rfind("ATSCALE_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        ::unsetenv(name.c_str());
    return names;
}

std::string
runJob(const RunSpec &spec)
{
    if (spec.cores > 1)
        return render(runMulticoreExperiment(spec));
    return render(runExperiment(spec));
}

Count
coreRefs(const RunSpec &spec)
{
    return (spec.warmupRefs + spec.measureRefs) * spec.cores;
}

double
setUpJob(const RunSpec &spec)
{
    std::unique_ptr<Workload> workload = createWorkload(spec.workload);
    const Clock::time_point start = Clock::now();
    if (spec.cores > 1) {
        SharedSystem sys(systemParams(spec), spec.pageSize,
                         workload->traits(), platformSeed(spec));
        auto tenants = workload->instantiateTenants(
            sys.space(), workloadConfig(spec, true), sys.cores());
        return secondsSince(start);
    }
    Platform platform(platformParams(spec), spec.pageSize, workload->traits(),
                      platformSeed(spec));
    auto stream =
        workload->instantiate(platform.space, workloadConfig(spec, false));
    return secondsSince(start);
}

TracedJob
runJobTraced(const RunSpec &spec, LayerTotals &totals)
{
    ++totals.jobs;
    if (spec.cores > 1)
        return runMulticoreTraced(spec, totals);
    return runSingleCoreTraced(spec, totals);
}

} // namespace hostbench
