// Virtual-time race detector (check::AccessRegistry / Region / Cell).
//
// The synthetic fixtures are the detector's contract: two simulated
// processors touching one location at the same virtual time (at least one
// writing) is exactly one hazard with both sites attributed; the same
// traffic mediated by a sim::Resource — or separated in virtual time — is
// clean. The deadlock death test pins the scheduler's all-blocked
// diagnostic, which the Block()-based startup barrier of the join driver
// relies on to fail loudly.
#include <gtest/gtest.h>

#include <string>

#include "check/access_registry.h"
#include "sim/simulation.h"

namespace psj {
namespace {

TEST(AccessRegistryTest, SameTimeCrossProcessWritesAreOneHazard) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWrite(p, "writer_a");
  });
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWrite(p, "writer_b");
  });
  scheduler.Run();

  ASSERT_EQ(registry.hazards().size(), 1u);
  const check::Hazard& hazard = registry.hazards()[0];
  EXPECT_EQ(hazard.location, "fixture.shared");
  EXPECT_STREQ(hazard.first.site, "writer_a");
  EXPECT_STREQ(hazard.second.site, "writer_b");
  EXPECT_EQ(hazard.first.process, 0);
  EXPECT_EQ(hazard.second.process, 1);
  EXPECT_EQ(hazard.first.time, 1000);
  EXPECT_EQ(hazard.second.time, 1000);
  EXPECT_TRUE(hazard.first.is_write);
  EXPECT_TRUE(hazard.second.is_write);
  EXPECT_FALSE(registry.clean());
  EXPECT_NE(hazard.Describe().find("fixture.shared"), std::string::npos);
  EXPECT_NE(registry.Summary().find("writer_b"), std::string::npos);
}

TEST(AccessRegistryTest, ReadWriteConflictIsReportedWriteOrderEitherWay) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(500);
    region.NoteRead(p, "reader");
  });
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(500);
    region.NoteWrite(p, "writer");
  });
  scheduler.Run();

  ASSERT_EQ(registry.hazards().size(), 1u);
  EXPECT_STREQ(registry.hazards()[0].first.site, "reader");
  EXPECT_STREQ(registry.hazards()[0].second.site, "writer");
}

TEST(AccessRegistryTest, SameTimeReadsDoNotConflict) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  for (int i = 0; i < 4; ++i) {
    scheduler.Spawn([&](sim::Process& p) {
      p.WaitUntil(500);
      region.NoteRead(p, "reader");
    });
  }
  scheduler.Run();

  EXPECT_TRUE(registry.clean());
  EXPECT_EQ(registry.num_accesses(), 4);
}

TEST(AccessRegistryTest, DistinctTimesDoNotConflict) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWrite(p, "writer_a");
  });
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1001);
    region.NoteWrite(p, "writer_b");
  });
  scheduler.Run();

  EXPECT_TRUE(registry.clean()) << registry.Summary();
}

TEST(AccessRegistryTest, SameProcessSameTimeAccessesDoNotConflict) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWrite(p, "first");
    region.NoteWrite(p, "second");  // No Advance between: same time is fine.
  });
  scheduler.Run();

  EXPECT_TRUE(registry.clean()) << registry.Summary();
}

// The core mediation property: a Resource serializes its users in virtual
// time — after Use() returns, the requester's clock has advanced past the
// service interval, so accesses "under the lock" land at distinct times and
// the very same shared traffic that conflicts without the Resource is
// clean with it.
TEST(AccessRegistryTest, ResourceMediatedAccessesAreClean) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  sim::Resource lock("fixture.lock");
  for (int i = 0; i < 4; ++i) {
    scheduler.Spawn([&](sim::Process& p) {
      p.WaitUntil(1000);  // Everyone contends at the same instant.
      lock.Use(p, /*duration=*/7);
      region.NoteWrite(p, "mediated_writer");
    });
  }
  scheduler.Run();

  EXPECT_TRUE(registry.clean()) << registry.Summary();
  EXPECT_EQ(registry.num_accesses(), 4);
  EXPECT_EQ(lock.num_uses(), 4);
}

// The Resource itself is annotated: simultaneous *arrivals* get their FIFO
// order from the dispatch tie-break, which is precisely the hazard the
// detector exists to surface.
TEST(AccessRegistryTest, SimultaneousResourceArrivalsAreAHazard) {
  check::AccessRegistry registry;
  sim::Scheduler scheduler;
  sim::Resource disk("fixture.disk");
  disk.BindCheck(&registry);
  for (int i = 0; i < 2; ++i) {
    scheduler.Spawn([&](sim::Process& p) {
      p.WaitUntil(1000);
      disk.Use(p, /*duration=*/16);
    });
  }
  scheduler.Run();

  ASSERT_EQ(registry.hazards().size(), 1u);
  EXPECT_EQ(registry.hazards()[0].location, "fixture.disk");
}

// Keyed accesses model one entry of a keyed structure (a page of the
// buffer directory): distinct entries commute, equal entries conflict,
// and an unkeyed access still conflicts with any keyed one.
TEST(AccessRegistryTest, KeyedAccessesConflictOnlyOnTheSameEntry) {
  check::AccessRegistry registry;
  check::Region region("fixture.directory");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWriteKeyed(p, "fill_x", 0x111);
  });
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWriteKeyed(p, "fill_y", 0x222);  // Different entry: clean.
  });
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteReadKeyed(p, "probe_x", 0x111);  // Same entry as fill_x.
  });
  scheduler.Run();

  ASSERT_EQ(registry.hazards().size(), 1u);
  EXPECT_STREQ(registry.hazards()[0].first.site, "fill_x");
  EXPECT_STREQ(registry.hazards()[0].second.site, "probe_x");
  EXPECT_NE(registry.hazards()[0].Describe().find("key="), std::string::npos);
}

TEST(AccessRegistryTest, UnkeyedAccessConflictsWithEveryKeyedEntry) {
  check::AccessRegistry registry;
  check::Region region("fixture.directory");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWriteKeyed(p, "fill_x", 0x111);
  });
  scheduler.Spawn([&](sim::Process& p) {
    p.WaitUntil(1000);
    region.NoteWrite(p, "clear_all");  // Whole-structure write.
  });
  scheduler.Run();

  EXPECT_EQ(registry.hazards().size(), 1u);
}

TEST(AccessRegistryTest, RepeatedConflictsAreDeduplicatedPerSitePair) {
  check::AccessRegistry registry;
  check::Region region("fixture.shared");
  region.Bind(&registry);

  sim::Scheduler scheduler;
  for (int i = 0; i < 2; ++i) {
    scheduler.Spawn([&](sim::Process& p) {
      for (int round = 0; round < 50; ++round) {
        p.WaitUntil((round + 1) * 1000);
        region.NoteWrite(p, "looped_writer");
      }
    });
  }
  scheduler.Run();

  // 50 racy rounds, one report.
  EXPECT_EQ(registry.hazards().size(), 1u);
}

TEST(AccessRegistryTest, UnboundRegionAndCellAreInert) {
  check::Region region("fixture.unbound");
  check::Cell<int> cell("fixture.cell", 41);

  sim::Scheduler scheduler;
  scheduler.Spawn([&](sim::Process& p) {
    region.NoteWrite(p, "writer");
    cell.Write(p, "writer", cell.Read(p, "reader") + 1);
  });
  scheduler.Run();

  EXPECT_FALSE(region.enabled());
  EXPECT_FALSE(cell.enabled());
  EXPECT_EQ(cell.peek(), 42);
}

TEST(AccessRegistryTest, CellConflictNamesTheCell) {
  check::AccessRegistry registry;
  check::Cell<int> cell("fixture.counter");
  cell.Bind(&registry);

  sim::Scheduler scheduler;
  for (int i = 0; i < 2; ++i) {
    scheduler.Spawn([&](sim::Process& p) {
      p.WaitUntil(250);
      ++cell.Mutate(p, "incrementer");
    });
  }
  scheduler.Run();

  EXPECT_EQ(cell.peek(), 2);
  ASSERT_EQ(registry.hazards().size(), 1u);
  EXPECT_EQ(registry.hazards()[0].location, "fixture.counter");
}

TEST(AccessRegistryTest, CleanSummaryMentionsAccessCount) {
  check::AccessRegistry registry;
  EXPECT_TRUE(registry.clean());
  EXPECT_NE(registry.Summary().find("0"), std::string::npos);
}

// A configuration whose processes all block must abort with the live-
// process listing — this is what makes a lost wakeup in the Block()-based
// startup barrier a loud failure instead of a hang.
TEST(SchedulerDeadlockDeathTest, AllBlockedProcessesAbortWithListing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Scheduler scheduler;
        scheduler.Spawn([](sim::Process& p) { p.Block(); });
        scheduler.Spawn([](sim::Process& p) { p.Block(); });
        scheduler.Run();
      },
      "simulation deadlock: live processes exist but none is ready");
}

}  // namespace
}  // namespace psj
