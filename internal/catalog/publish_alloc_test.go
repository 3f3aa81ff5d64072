package catalog

import (
	"testing"

	"repro/internal/relation"
)

// TestPublishAllocationBudget pins what publishing a view allocates: the
// view, the engine and store snapshot and the physical-design snapshot —
// five objects, as before publishes recorded a change summary. The summary goes into the entry's fixed ring
// (validator.go), so it must add none.
func TestPublishAllocationBudget(t *testing.T) {
	e, _ := closeCostEntry(t, 4<<10)
	got := testing.AllocsPerRun(200, func() {
		_ = e.locked.Exclusive(func(*relation.Relation) error {
			e.publish()
			return nil
		})
	})
	t.Logf("publish: %.1f allocations", got)
	const budget = 5
	if got > budget {
		t.Fatalf("publish allocates %.1f objects per call, budget %d", got, budget)
	}
}
