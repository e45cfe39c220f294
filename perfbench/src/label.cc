#include "label.hh"

#include "sim/system.hh"

namespace perfbench
{

using namespace pipm;

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::privateRef: return "private";
      case Layer::hit: return "hit";
      case Layer::local: return "local";
      case Layer::cxl: return "cxl";
      case Layer::interHost: return "interhost";
      case Layer::migration: return "migrate";
      case Layer::fault: return "fault";
    }
    return "?";
}

AccessCounters
readCounters(MultiHostSystem &system)
{
    AccessCounters c;
    c.shared = system.sharedAccesses.value();
    c.misses = system.sharedLlcMisses.value();
    c.local = system.localServedMisses.value();
    c.cxl = system.cxlServedMisses.value() + system.upgradeMisses.value();
    c.interHost = system.interHostAccesses.value();
    c.migration = system.osMigrations.value() + system.osDemotions.value();
    if (const PipmState *p = system.pipmState()) {
        c.migration += p->promotions.value() + p->revocations.value() +
                       p->linesIn.value() + p->linesBack.value();
    }
    if (const FaultInjector *f = system.faultInjector()) {
        c.fault = f->linkErrors.value() + f->retrainStallCycles.value() +
                  f->poisonTransient.value() + f->poisonPersistent.value() +
                  f->degradedAccesses.value() + f->promotionAborts.value() +
                  f->lineAborts.value() + f->migrationsDeferred.value() +
                  f->fencedRequests.value() + f->txnTimeouts.value() +
                  f->staleEpochDrops.value() + f->suspicions.value() +
                  f->metaScrubChecks.value() + f->metaUnrepairable.value();
    }
    return c;
}

Layer
labelAccess(const AccessCounters &before, const AccessCounters &after)
{
    if (after.fault != before.fault)
        return Layer::fault;
    if (after.migration != before.migration)
        return Layer::migration;
    if (after.interHost != before.interHost)
        return Layer::interHost;
    if (after.shared == before.shared)
        return Layer::privateRef;
    if (after.cxl != before.cxl)
        return Layer::cxl;
    if (after.local != before.local)
        return Layer::local;
    // A miss none of the service counters claimed still left the host.
    if (after.misses != before.misses)
        return Layer::cxl;
    return Layer::hit;
}

} // namespace perfbench
