package experiments

import (
	"fmt"
	"os"
	"testing"
)

// TestRaceSoak drives seeded chaos schedules as prey for the race
// detector: link outages, host crashes and restarts reset connections
// and restructure allocator components while client, server and
// recorder goroutines hand off through the event core — the teardown,
// retry and flush paths a locking bug would corrupt. The invariant
// audit still runs, but the point of this test is the schedule
// diversity under `-race`, not byte-identity (the equal-seed repeat
// suite owns that).
//
// Under a plain build the same schedules are already covered by
// TestChaosSoak and the repeat suite, so the soak only runs when the
// race detector is on. `make race` (part of `make check`) runs a
// bounded smoke slice; `make race-soak` sets ESG_RACE_SOAK=full for all
// 25 schedules. A failed run's flight dump lands in $ESG_FLIGHT_DIR via
// dumpFlightOnFailure, next to its replay seed.
func TestRaceSoak(t *testing.T) {
	full := os.Getenv("ESG_RACE_SOAK") == "full"
	if !raceEnabled && !full {
		t.Skip("race-detector prey; covered by TestChaosSoak on plain builds (set ESG_RACE_SOAK=full to force)")
	}
	runs := 5 // smoke slice: keeps `make race` bounded on slow runners
	if full {
		runs = 25
	}
	const faults = 6
	for i := 0; i < runs; i++ {
		seed := int64(4000 + i)
		cfg := soakConfig(seed)
		sched := ChaosScheduleFor(cfg, seed, faults)
		run, err := RunChaosSchedule(cfg, sched)
		if err != nil {
			t.Errorf("replay: ChaosScheduleFor(soakConfig(%d), %d, %d): run error: %v",
				seed, seed, faults, err)
			dumpFlightOnFailure(t, run, fmt.Sprintf("racesoak-seed%d", seed))
			continue
		}
		if err := run.Report.Err(); err != nil {
			t.Errorf("replay: ChaosScheduleFor(soakConfig(%d), %d, %d): %v",
				seed, seed, faults, err)
			dumpFlightOnFailure(t, run, fmt.Sprintf("racesoak-seed%d", seed))
		}
	}
}
