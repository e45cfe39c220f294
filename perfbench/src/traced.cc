#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "common/logging.hh"
#include "sim/core.hh"
#include "sim/sched.hh"
#include "sim/system.hh"

namespace perfbench
{

using namespace pipm;

namespace
{

std::uint64_t
readNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Chained timestamps splitting each loop iteration into spans. */
class Tracer
{
  public:
    Tracer(TraceTotals &totals, SpanLog &log, double clock_ns,
           std::uint64_t origin)
        : totals_(totals), log_(log), clockNs_(clock_ns), origin_(origin)
    {
    }

    void
    begin()
    {
        ++totals_.iterations;
        count_ = 0;
        start_ = last_ = read();
    }

    void
    setId(std::uint32_t slot, std::uint64_t ref)
    {
        slot_ = slot;
        ref_ = ref;
    }

    /** Close the open segment as category c. */
    void
    mark(Cat c)
    {
        const std::uint64_t t = read();
        marks_[count_++] = Mark{last_, t, c, 0};
        last_ = t;
    }

    /** Label the last closed segment (an access span). */
    void
    label(Layer l)
    {
        marks_[count_ - 1].label = static_cast<std::uint8_t>(l);
    }

    /** Close the open segment as the tracer's own bookkeeping. */
    void
    skip()
    {
        const std::uint64_t t = read();
        totals_.tracerNs += static_cast<double>(t - last_) - clockNs_;
        last_ = t;
    }

    void
    end()
    {
        for (unsigned i = 0; i < count_; ++i) {
            const Mark &m = marks_[i];
            const double ns =
                static_cast<double>(m.end - m.start) - clockNs_;
            const unsigned c = static_cast<unsigned>(m.cat);
            totals_.ns[c] += ns;
            ++totals_.calls[c];
            if (m.cat == Cat::access) {
                totals_.labelNs[m.label] += ns;
                ++totals_.labelCalls[m.label];
            }
        }
        if (log_.full()) {
            log_.noteDropped(count_ + 1);
        } else {
            const std::uint32_t parent = log_.size();
            log_.push(Span{start_ - origin_, last_ - origin_, ref_,
                           Span::noParent, slot_,
                           static_cast<std::uint8_t>(catCount), 0});
            for (unsigned i = 0; i < count_; ++i) {
                const Mark &m = marks_[i];
                log_.push(Span{m.start - origin_, m.end - origin_, ref_,
                               parent, slot_,
                               static_cast<std::uint8_t>(m.cat), m.label});
            }
        }
        skip();
    }

  private:
    struct Mark
    {
        std::uint64_t start;
        std::uint64_t end;
        Cat cat;
        std::uint8_t label;
    };

    std::uint64_t
    read()
    {
        ++totals_.clockReads;
        return readNs();
    }

    TraceTotals &totals_;
    SpanLog &log_;
    double clockNs_;
    std::uint64_t origin_;
    std::uint64_t start_ = 0;
    std::uint64_t last_ = 0;
    std::uint32_t slot_ = 0;
    std::uint64_t ref_ = 0;
    Mark marks_[16] = {};
    unsigned count_ = 0;
};

} // namespace

const char *
catName(Cat c)
{
    switch (c) {
      case Cat::sched: return "sim.sched";
      case Cat::park: return "sim.park";
      case Cat::traceNext: return "trace.next";
      case Cat::core: return "sim.core";
      case Cat::tickFast: return "sim.tick_fast";
      case Cat::tickSlow: return "sim.tick_slow";
      case Cat::access: return "access";
      case Cat::runner: return "sim.runner";
    }
    return "?";
}

bool
SpanLog::writeTsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# name\tlabel\tslot\tref\tstart_ns\tend_ns\tparent\n");
    for (const Span &s : spans_) {
        const bool loop = s.name == catCount;
        const Cat c = static_cast<Cat>(s.name);
        std::fprintf(f, "%s\t%s\t%u\t%llu\t%llu\t%llu\t%lld\n",
                     loop ? "sim.loop" : catName(c),
                     !loop && c == Cat::access
                         ? layerName(static_cast<Layer>(s.label))
                         : "-",
                     s.slot, static_cast<unsigned long long>(s.ref),
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs),
                     s.parent == Span::noParent
                         ? -1LL
                         : static_cast<long long>(s.parent));
    }
    std::fprintf(f, "# dropped %llu\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
}

void
TraceTotals::merge(const TraceTotals &o)
{
    for (unsigned i = 0; i < catCount; ++i) {
        ns[i] += o.ns[i];
        calls[i] += o.calls[i];
    }
    for (unsigned i = 0; i < layerCount; ++i) {
        labelNs[i] += o.labelNs[i];
        labelCalls[i] += o.labelCalls[i];
    }
    iterations += o.iterations;
    clockReads += o.clockReads;
    tracerNs += o.tracerNs;
    loopNs += o.loopNs;
    clockNs = o.clockNs;
}

double
TraceTotals::attributedNs() const
{
    double sum = 0.0;
    for (double v : ns)
        sum += v;
    return sum;
}

double
TraceTotals::tracerCostNs() const
{
    return tracerNs + static_cast<double>(clockReads) * clockNs;
}

double
TraceTotals::accountingError() const
{
    return loopNs > 0.0
               ? (attributedNs() + tracerCostNs() - loopNs) / loopNs
               : 0.0;
}

void
LayerCounts::add(MultiHostSystem &system)
{
    auto put = [&](const char *name, double v) { values_[name] += v; };
    for (unsigned i = 0; i < system.config().numHosts; ++i) {
        const HostId h = static_cast<HostId>(i);
        CacheHierarchy &c = system.hierarchy(h);
        put("cache.l1_hits", c.l1Hits.value());
        put("cache.llc_hits", c.llcHits.value());
        put("cache.misses", c.misses.value());
        put("cache.llc_evictions", c.llcEvictions.value());
        if (RemapCache *r = system.localRemapCache(h)) {
            put("pipm.local_remap_hits", r->hits.value());
            put("pipm.local_remap_misses", r->missCount.value());
        }
        put("mem.local_reads", system.localDram(h).reads.value());
        CxlLink &link = system.link(h);
        put("cxl.link_messages", link.messages.value());
        put("cxl.link_bytes",
            link.bytesToDevice.value() + link.bytesToHost.value());
        put("cxl.crc_errors", link.crcErrors.value());
        put("cxl.replay_bytes", link.replayBytes.value());
        put("cxl.link_queue_delay_sum", link.queueDelay.sum());
        put("cxl.link_queue_delay_count", link.queueDelay.count());
    }
    put("coherence.dir_lookups", system.deviceDirectory().lookups.value());
    put("coherence.dir_recalls", system.deviceDirectory().recalls.value());
    put("sim.upgrade_misses", system.upgradeMisses.value());
    put("sim.inter_host_accesses", system.interHostAccesses.value());
    put("sim.mgmt_stall_cycles", system.mgmtStallCycles.value());
    if (RemapCache *g = system.globalRemapCache()) {
        put("pipm.global_remap_hits", g->hits.value());
        put("pipm.global_remap_misses", g->missCount.value());
    }
    if (PipmState *p = system.pipmState()) {
        put("pipm.promotions", p->promotions.value());
        put("pipm.revocations", p->revocations.value());
        put("pipm.lines_in", p->linesIn.value());
        put("pipm.lines_back", p->linesBack.value());
        put("pipm.alloc_failures", p->allocFailures.value());
    }
    put("migration.os_migrations", system.osMigrations.value());
    put("migration.os_demotions", system.osDemotions.value());
    if (HarmfulTracker *t = system.harmfulTracker()) {
        put("migration.harmful", t->harmfulMigrations());
        put("migration.tracked", t->totalMigrations());
    }
    DramDevice &cxl = system.cxlDram();
    put("mem.cxl_reads", cxl.reads.value());
    put("mem.cxl_writes", cxl.writes.value());
    put("mem.cxl_row_hits", cxl.rowHits.value());
    put("mem.cxl_row_misses", cxl.rowMisses.value());
    put("mem.cxl_queue_delay_sum", cxl.queueDelay.sum());
    put("mem.cxl_queue_delay_count", cxl.queueDelay.count());
    if (FaultInjector *f = system.faultInjector()) {
        put("fault.crashes", f->hostCrashes.value());
        put("fault.suspicions", f->suspicions.value());
        put("fault.false_suspicions", f->falseSuspicions.value());
        put("fault.txn_retries", f->txnRetries.value());
        put("fault.meta_repairs",
            f->metaScrubRepairs.value() + f->metaJournalReplays.value());
        put("fault.breaker_trips", f->metaBreakerTrips.value());
        put("fault.recovery_cycles", f->crashRecoveryCycles.value());
        put("fault.lines_lost", f->crashDirtyLinesLost.value());
    }
}

void
LayerCounts::merge(const LayerCounts &o)
{
    for (const auto &[name, v] : o.values_)
        values_[name] += v;
}

double
LayerCounts::get(const std::string &name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

double
calibrateClockNs()
{
    // Median over batches of back-to-back reads: robust to a preempted
    // batch.
    constexpr int batches = 31;
    constexpr int reads = 2000;
    std::vector<double> per_read;
    per_read.reserve(batches);
    for (int b = 0; b < batches; ++b) {
        const std::uint64_t t0 = readNs();
        for (int i = 0; i < reads; ++i)
            readNs();
        const std::uint64_t t1 = readNs();
        per_read.push_back(static_cast<double>(t1 - t0) / (reads + 1));
    }
    std::nth_element(per_read.begin(), per_read.begin() + batches / 2,
                     per_read.end());
    return per_read[batches / 2];
}

TracedRun
runTraced(const SystemConfig &cfg, Scheme scheme, const Workload &workload,
          const RunConfig &run, double clock_ns, SpanLog &log)
{
    // The benchmark's RunConfigs: heap scheduler, no telemetry export.
    panic_if(run.scheduler != "heap" || run.obsFromEnv ||
                 !run.statsJsonPath.empty(),
             "runTraced mirrors the heap scheduler without telemetry");

    // ---- Mirror of runExperiment's set-up ------------------------------
    cfg.validate();
    MultiHostSystem system(cfg, scheme, workload, run.seed);

    struct CoreSlot
    {
        HostId host;
        CoreId core;
        OooCore model;
        std::unique_ptr<CoreTrace> trace;
        std::uint64_t refs = 0;
        bool done = false;
        Cycles measureStart = 0;
        std::uint64_t measureStartInstr = 0;
    };
    std::vector<CoreSlot> cores;
    cores.reserve(static_cast<std::size_t>(cfg.numHosts) *
                  cfg.coresPerHost);
    for (unsigned h = 0; h < cfg.numHosts; ++h) {
        for (unsigned c = 0; c < cfg.coresPerHost; ++c) {
            cores.push_back(CoreSlot{
                static_cast<HostId>(h), static_cast<CoreId>(c),
                OooCore(cfg.core),
                workload.makeTrace(static_cast<HostId>(h),
                                   static_cast<CoreId>(c),
                                   cfg.coresPerHost, cfg.numHosts,
                                   run.seed + 7919 * (h * 64 + c)),
                0, false, 0, 0});
        }
    }
    const std::uint64_t total_refs =
        run.warmupRefsPerCore + run.measureRefsPerCore;

    double page_frac_sum = 0.0;
    double line_frac_sum = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t accesses_since_sample = 0;
    const double total_pages =
        static_cast<double>(system.space().sharedPages());
    bool measuring = false;
    std::uint64_t done_count = 0;
    const std::uint64_t check_every = run.checkInvariantsEvery;
    std::uint64_t accesses_since_check = 0;
    CoreScheduler sched(cores.size());
    const bool faults = system.faultInjector() != nullptr;
    const bool detection = system.detectionEnabled();
    std::uint64_t warm_pending =
        run.warmupRefsPerCore ? cores.size() : 0;

    auto sample_footprint = [&]() {
        double page_sum = 0.0;
        double line_sum = 0.0;
        for (unsigned h = 0; h < cfg.numHosts; ++h) {
            page_sum += static_cast<double>(
                system.space().migratedFramesOn(static_cast<HostId>(h)));
            if (system.pipmState()) {
                line_sum +=
                    static_cast<double>(system.pipmState()->migratedLinesOn(
                        static_cast<HostId>(h))) /
                    linesPerPage;
            }
        }
        const double hosts = static_cast<double>(cfg.numHosts);
        page_frac_sum += page_sum / hosts / total_pages;
        line_frac_sum += line_sum / hosts / total_pages;
        ++samples;
    };

    TracedRun out;
    TraceTotals &totals = out.totals;
    totals.clockNs = clock_ns;
    const std::uint64_t loop_start = readNs();
    Tracer tr(totals, log, clock_ns, loop_start);

    // tick() with the fast/slow split made visible: a slow tick is one
    // at or past the cached event horizon.
    auto traced_tick = [&](Cycles now) {
        const bool slow = now >= system.nextEventCycle();
        system.tick(now);
        tr.mark(slow ? Cat::tickSlow : Cat::tickFast);
    };

    // One loop iteration of runExperiment; `return` is its `continue`.
    auto iteration = [&]() {
        const std::uint32_t idx = sched.top();
        CoreSlot *next = &cores[idx];
        tr.setId(idx, next->refs);
        tr.mark(Cat::sched);

        if (faults && !system.hostAlive(next->host)) {
            const Cycles up = system.hostDownUntil(next->host);
            if (up == maxCycles) {
                next->model.drainAll();
                next->done = true;
                ++done_count;
                if (warm_pending && next->refs < run.warmupRefsPerCore)
                    --warm_pending;
                sched.remove(idx);
                tr.mark(Cat::park);
                return;
            }
            if (next->model.now() < up)
                next->model.stall(up - next->model.now());
            tr.mark(Cat::park);
            traced_tick(next->model.now());
            sched.update(idx, next->model.now());
            tr.mark(Cat::park);
            return;
        }
        if (detection) {
            const Cycles stalled_until =
                system.hostStalledUntil(next->host, next->model.now());
            if (stalled_until > next->model.now()) {
                next->model.stall(stalled_until - next->model.now());
                tr.mark(Cat::park);
                traced_tick(next->model.now());
                sched.update(idx, next->model.now());
                tr.mark(Cat::park);
                return;
            }
        }
        if (faults || detection)
            tr.mark(Cat::park);

        if (!measuring && warm_pending == 0) {
            measuring = true;
            system.resetStats();
            for (auto &slot : cores) {
                slot.measureStart = slot.model.now();
                slot.measureStartInstr = slot.model.instructions();
            }
            tr.mark(Cat::runner);
        }

        const MemRef ref = next->trace->next();
        tr.mark(Cat::traceNext);
        next->model.advanceGap(ref.gap);
        tr.mark(Cat::core);
        traced_tick(next->model.now());
        if (faults && !system.hostAlive(next->host)) {
            sched.update(idx, next->model.now());
            tr.mark(Cat::sched);
            return;
        }

        const AccessCounters before = readCounters(system);
        tr.skip();
        const AccessResult res =
            system.access(next->host, next->core, ref, next->model.now());
        tr.mark(Cat::access);
        tr.label(labelAccess(before, readCounters(system)));
        tr.skip();

        if (res.stall)
            next->model.stall(res.stall);
        if (ref.op == MemOp::read)
            next->model.issueLoad(res.latency);
        else
            next->model.issueStore(res.latency);
        tr.mark(Cat::core);

        ++next->refs;
        if (warm_pending && next->refs == run.warmupRefsPerCore)
            --warm_pending;
        if (next->refs >= total_refs) {
            next->model.drainAll();
            next->done = true;
            ++done_count;
            sched.remove(idx);
        } else {
            sched.update(idx, next->model.now());
        }
        tr.mark(Cat::sched);

        if (measuring && ++accesses_since_sample >=
                             run.footprintSampleEvery) {
            accesses_since_sample = 0;
            sample_footprint();
        }
        if (check_every && ++accesses_since_check >= check_every) {
            accesses_since_check = 0;
            system.checkInvariants();
        }
        tr.mark(Cat::runner);
    };

    while (done_count < cores.size()) {
        tr.begin();
        iteration();
        tr.end();
    }
    totals.loopNs = static_cast<double>(readNs() - loop_start);

    // ---- Mirror of runExperiment's result assembly ---------------------
    if (samples == 0)
        sample_footprint();
    if (system.harmfulTracker())
        system.harmfulTracker()->finish();

    RunResult &r = out.result;
    r.workload = workload.name();
    r.scheme = scheme;
    Cycles exec = 0;
    std::uint64_t instr = 0;
    for (const auto &slot : cores) {
        exec = std::max(exec, slot.model.now() - slot.measureStart);
        instr += slot.model.instructions() - slot.measureStartInstr;
    }
    r.execCycles = exec;
    r.instructions = instr;
    r.ipc = exec ? static_cast<double>(instr) / static_cast<double>(exec) /
                       cores.size()
                 : 0.0;
    r.sharedAccesses = system.sharedAccesses.value();
    r.sharedLlcMisses = system.sharedLlcMisses.value();
    r.localServedMisses = system.localServedMisses.value();
    r.cxlServedMisses = system.cxlServedMisses.value();
    r.interHostAccesses = system.interHostAccesses.value();
    r.interHostStallCycles = system.interHostStallCycles.value();
    r.mgmtStallCycles = system.mgmtStallCycles.value();
    r.migrationTransferBytes = system.migrationTransferBytes.value();
    r.osMigrations = system.osMigrations.value();
    r.osDemotions = system.osDemotions.value();
    if (PipmState *p = system.pipmState()) {
        r.pipmPromotions = p->promotions.value();
        r.pipmRevocations = p->revocations.value();
        r.pipmLinesIn = p->linesIn.value();
        r.pipmLinesBack = p->linesBack.value();
    }
    if (HarmfulTracker *t = system.harmfulTracker()) {
        r.harmfulMigrations = t->harmfulMigrations();
        r.totalTrackedMigrations = t->totalMigrations();
    }
    if (FaultInjector *f = system.faultInjector()) {
        for (unsigned h = 0; h < cfg.numHosts; ++h)
            r.linkCrcErrors +=
                system.link(static_cast<HostId>(h)).crcErrors.value();
        r.linkRetrainEvents = f->retrainEvents.value();
        r.poisonEvents =
            f->poisonTransient.value() + f->poisonPersistent.value();
        r.degradedAccesses = f->degradedAccesses.value();
        r.migrationAborts =
            f->promotionAborts.value() + f->lineAborts.value();
        r.migrationsDeferred = f->migrationsDeferred.value();
        r.hostCrashes = f->hostCrashes.value();
        r.hostRejoins = f->hostRejoins.value();
        r.crashLinesReclaimed =
            f->crashDirSwept.value() + f->crashLinesReclaimed.value();
        r.crashDirtyLinesLost = f->crashDirtyLinesLost.value();
        r.crashRecoveryCycles = f->crashRecoveryCycles.value();
        r.suspicions = f->suspicions.value();
        r.falseSuspicions = f->falseSuspicions.value();
        r.fencedRequests = f->fencedRequests.value();
        r.txnTimeouts = f->txnTimeouts.value();
        r.txnRetries = f->txnRetries.value();
        r.stallWindows = f->stallWindowsEntered.value();
    }
    r.pageFootprintFrac = samples ? page_frac_sum / samples : 0.0;
    r.lineFootprintFrac = samples ? line_frac_sum / samples : 0.0;

    out.counts.add(system);
    return out;
}

} // namespace perfbench
