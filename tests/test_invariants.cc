/**
 * @file
 * MultiHostSystem::checkInvariants() must still catch what it checks.
 * Each case builds a consistent system, seeds one violation through the
 * public accessors (hierarchies, device directory, fault injector, PIPM
 * state) and expects the matching panic. Several cases put the
 * offending line where only one of the checker's walks can see it: a
 * directory entry whose owner copy is gone, or lines cached at several
 * hosts that the directory does not track.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace pipm
{
namespace
{

struct ThrowGuard
{
    ThrowGuard() { detail::throwOnError = true; }
    ~ThrowGuard() { detail::throwOnError = false; }
};

class StubWorkload : public Workload
{
  public:
    StubWorkload(std::uint64_t shared_bytes, std::uint64_t private_bytes)
        : shared_(shared_bytes), private_(private_bytes)
    {
    }

    std::string name() const override { return "stub"; }
    std::string suite() const override { return "test"; }
    std::uint64_t footprintBytes() const override { return shared_; }
    std::uint64_t sharedBytes() const override { return shared_; }
    std::uint64_t privateBytesPerHost() const override { return private_; }
    std::string fingerprint() const override { return "stub"; }
    std::unique_ptr<CoreTrace>
    makeTrace(HostId, CoreId, unsigned, unsigned,
              std::uint64_t) const override
    {
        return nullptr;
    }

  private:
    std::uint64_t shared_;
    std::uint64_t private_;
};

MemRef
sharedRef(std::uint64_t page, unsigned line, MemOp op)
{
    MemRef r;
    r.shared = true;
    r.page = page;
    r.lineIdx = static_cast<std::uint8_t>(line);
    r.op = op;
    return r;
}

/** Four hosts, faults on with every rate zero (crashHost and poison
 *  are callable, nothing fires on its own). */
SystemConfig
fourHostConfig()
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    cfg.fault.enabled = true;
    cfg.validate();
    return cfg;
}

/** A system with some consistent shared state already in place. */
class InvariantCheck : public ::testing::Test
{
  protected:
    explicit InvariantCheck(Scheme scheme = Scheme::native)
        : cfg_(fourHostConfig()), wl_(128 * pageBytes, 8 * pageBytes),
          sys_(cfg_, scheme, wl_, 5)
    {
        for (std::uint64_t p = 0; p < 8; ++p) {
            for (unsigned l = 0; l < linesPerPage; l += 4) {
                const auto h = static_cast<HostId>((p + l) % 4);
                const MemOp op = l % 8 ? MemOp::read : MemOp::write;
                sys_.access(h, 0, sharedRef(p, l, op), now_ += 100, l);
            }
        }
    }

    LineAddr
    line(std::uint64_t page, unsigned idx)
    {
        return lineOf(pageBase(sys_.space().sharedFrame(page)) +
                      static_cast<PhysAddr>(idx) * lineBytes);
    }

    /** Cache a line at host h directly, displacing nothing. */
    void
    plant(HostId h, LineAddr l, HostState st)
    {
        ASSERT_FALSE(sys_.hierarchy(h)
                         .fill(0, l, st, st == HostState::M, 0)
                         .has_value());
    }

    /** checkInvariants() panics with a message containing `what`. */
    void
    expectViolation(const std::string &what)
    {
        ThrowGuard guard;
        std::string message;
        EXPECT_THROW(
            {
                try {
                    sys_.checkInvariants();
                } catch (const SimError &e) {
                    message = e.message;
                    throw;
                }
            },
            SimError);
        EXPECT_NE(message.find(what), std::string::npos) << message;
    }

    Cycles now_ = 0;
    SystemConfig cfg_;
    StubWorkload wl_;
    MultiHostSystem sys_;
};

TEST_F(InvariantCheck, ConsistentStatePasses)
{
    ThrowGuard guard;
    EXPECT_NO_THROW(sys_.checkInvariants());
}

TEST_F(InvariantCheck, ExclusiveAtTwoHosts)
{
    const LineAddr l = line(20, 3);
    sys_.access(0, 0, sharedRef(20, 3, MemOp::write), now_ += 100, 7);
    ASSERT_EQ(sys_.hierarchy(0).stateOf(l), HostState::M);
    plant(2, l, HostState::M);
    expectViolation("exclusively cached at 2 hosts");
}

TEST_F(InvariantCheck, ExclusiveAlongsideShared)
{
    const LineAddr l = line(21, 5);
    sys_.access(1, 0, sharedRef(21, 5, MemOp::write), now_ += 100, 7);
    plant(3, l, HostState::S);
    expectViolation("cached M alongside S copies");
}

TEST_F(InvariantCheck, DeadHostStillCaches)
{
    sys_.crashHost(2, now_ += 100);
    ASSERT_FALSE(sys_.hostAlive(2));
    plant(2, line(22, 1), HostState::S);
    expectViolation("dead host 2 still caches line");
}

TEST_F(InvariantCheck, DeviceMWithoutOwnerCopy)
{
    // The owner's copy is dropped behind the directory's back: the line
    // survives only as a directory entry.
    const LineAddr l = line(23, 9);
    sys_.access(1, 0, sharedRef(23, 9, MemOp::write), now_ += 100, 7);
    ASSERT_NE(sys_.deviceDirectory().probe(l), nullptr);
    ASSERT_TRUE(sys_.hierarchy(1).invalidateLine(l).has_value());
    expectViolation("not cached M at owner");
}

TEST_F(InvariantCheck, StaleOwnerEpoch)
{
    const LineAddr l = line(24, 2);
    sys_.access(3, 0, sharedRef(24, 2, MemOp::write), now_ += 100, 7);
    DirEntry *e = sys_.deviceDirectory().lookup(l);
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(e->state, DevState::M);
    e->ownerEpoch += 2;
    expectViolation("stamped with stale epoch");
}

TEST_F(InvariantCheck, PoisonedLineCached)
{
    const LineAddr l = line(25, 4);
    sys_.access(0, 0, sharedRef(25, 4, MemOp::read), now_ += 100);
    ASSERT_NE(sys_.hierarchy(0).stateOf(l), HostState::I);
    sys_.faultInjector()->poisonLineForever(l);
    expectViolation("is cached somewhere");
}

TEST_F(InvariantCheck, PoisonedLineTracked)
{
    const LineAddr l = line(26, 4);
    sys_.access(2, 0, sharedRef(26, 4, MemOp::write), now_ += 100, 7);
    ASSERT_TRUE(sys_.hierarchy(2).invalidateLine(l).has_value());
    ASSERT_NE(sys_.deviceDirectory().probe(l), nullptr);
    sys_.faultInjector()->poisonLineForever(l);
    expectViolation("has a device directory entry");
}

TEST_F(InvariantCheck, UntrackedLinesAtSeveralHosts)
{
    // Lines no directory entry covers are found through the hosts'
    // caches, whichever host holds the lowest-numbered copy.
    const LineAddr a = line(30, 0);
    ASSERT_EQ(sys_.deviceDirectory().probe(a), nullptr);
    plant(1, a, HostState::S);
    plant(3, a, HostState::ME);
    expectViolation("cached M alongside S copies");
}

TEST_F(InvariantCheck, UntrackedExclusiveAtTwoHosts)
{
    const LineAddr a = line(31, 6);
    ASSERT_EQ(sys_.deviceDirectory().probe(a), nullptr);
    plant(2, a, HostState::M);
    plant(3, a, HostState::M);
    expectViolation("exclusively cached at 2 hosts");
}

class InvariantCheckPipm : public InvariantCheck
{
  protected:
    InvariantCheckPipm() : InvariantCheck(Scheme::pipmFull) {}
};

TEST_F(InvariantCheckPipm, MigratedLineWithDirectoryEntry)
{
    // Promote page 40 to host 0 and stream other pages through host 0's
    // LLC so some of its lines migrate to host 0's frame on eviction.
    for (unsigned i = 0; i < cfg_.pipm.migrationThreshold; ++i)
        sys_.access(0, 0, sharedRef(40, i, MemOp::write), now_ += 5'000, i);
    for (std::uint64_t p = 41; p < 128; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2)
            sys_.access(0, 0, sharedRef(p, l, MemOp::read), now_ += 10);
    }
    PipmState &pipm = *sys_.pipmState();
    const PageFrame cxl_page = pageOf(pageBase(sys_.space().sharedFrame(40)));
    ASSERT_EQ(pipm.migratedHostOf(cxl_page), 0);
    unsigned idx = linesPerPage;
    for (unsigned l = 0; l < linesPerPage && idx == linesPerPage; ++l) {
        if (pipm.lineMigrated(0, cxl_page, l))
            idx = l;
    }
    ASSERT_LT(idx, linesPerPage);
    {
        ThrowGuard guard;
        ASSERT_NO_THROW(sys_.checkInvariants());
    }
    const LineAddr l = line(40, idx);
    ASSERT_EQ(sys_.deviceDirectory().probe(l), nullptr);
    DirEntry e;
    e.state = DevState::S;
    e.add(1);
    ASSERT_FALSE(sys_.deviceDirectory().allocate(l, e).has_value());
    expectViolation("still has a device directory entry");
}

} // namespace
} // namespace pipm
