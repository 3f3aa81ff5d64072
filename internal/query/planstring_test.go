package query

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// planFixture loads n event elements (vt = tt, increasing) into the store,
// an order every organization accepts.
func planFixture(t *testing.T, st storage.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tt := chronon.Chronon(int64(i+1) * 10)
		e := &element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever,
			VT: element.EventAt(tt),
		}
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanStringStability pins the one-line plan rendering for every
// (store kind, query kind, pushdown) combination. These strings are the
// engine's public vocabulary — the wire carries them, the benchmarks label
// series with them — so any planner change that alters one is a break, not
// a refactor.
func TestPlanStringStability(t *testing.T) {
	cases := []struct {
		name     string
		store    func() storage.Store
		bounds   bool
		want     map[string]string // query kind -> plan string
		wantLeaf map[string]plan.NodeKind
	}{
		{
			name:  "heap",
			store: func() storage.Store { return storage.NewHeap() },
			want: map[string]string{
				"current":   "full scan (heap)",
				"timeslice": "full scan (heap)",
				"vtrange":   "full scan (heap)",
				"rollback":  "full scan (heap)",
			},
			wantLeaf: map[string]plan.NodeKind{
				"current": plan.FullScan, "timeslice": plan.FullScan,
				"vtrange": plan.FullScan, "rollback": plan.FullScan,
			},
		},
		{
			name:  "ttlog",
			store: func() storage.Store { return storage.NewTTLog() },
			want: map[string]string{
				"current":   "full scan (tt-ordered log)",
				"timeslice": "full scan (tt-ordered log)",
				"vtrange":   "full scan (tt-ordered log)",
				"rollback":  "binary search (tt-ordered log)",
			},
			wantLeaf: map[string]plan.NodeKind{
				"current": plan.FullScan, "timeslice": plan.FullScan,
				"vtrange": plan.FullScan, "rollback": plan.TTBinarySearch,
			},
		},
		{
			name:   "ttlog+pushdown",
			store:  func() storage.Store { return storage.NewTTLog() },
			bounds: true,
			want: map[string]string{
				"current":   "full scan (tt-ordered log)",
				"timeslice": "tt-window binary search (bounded specialization)",
				"vtrange":   "tt-window binary search (bounded specialization)",
				"rollback":  "binary search (tt-ordered log)",
			},
			wantLeaf: map[string]plan.NodeKind{
				"current": plan.FullScan, "timeslice": plan.TTWindowPushdown,
				"vtrange": plan.TTWindowPushdown, "rollback": plan.TTBinarySearch,
			},
		},
		{
			name:  "vtlog",
			store: func() storage.Store { return storage.NewVTLog() },
			want: map[string]string{
				"current":   "full scan (vt-ordered log)",
				"timeslice": "binary search (vt-ordered log)",
				"vtrange":   "binary search (vt-ordered log)",
				"rollback":  "binary search (vt-ordered log)",
			},
			wantLeaf: map[string]plan.NodeKind{
				"current": plan.FullScan, "timeslice": plan.VTBinarySearch,
				"vtrange": plan.VTBinarySearch, "rollback": plan.TTBinarySearch,
			},
		},
		{
			name:  "indexed-heap",
			store: func() storage.Store { return storage.NewIndexedEvent() },
			want: map[string]string{
				"current":   "full scan (heap)",
				"timeslice": "b-tree index seek (vt index)",
				"vtrange":   "b-tree index seek (vt index)",
				"rollback":  "full scan (heap)",
			},
			wantLeaf: map[string]plan.NodeKind{
				"current": plan.FullScan, "timeslice": plan.BTreeIndexSeek,
				"vtrange": plan.BTreeIndexSeek, "rollback": plan.FullScan,
			},
		},
	}
	// Plans must be stable across sizes: an empty store, a store smaller
	// than a binary search's probe cost, and a populated one must all pick
	// the same (specialized) strategy, because the declaration — not the
	// extension — licenses it.
	for _, n := range []int{0, 2, 64} {
		for _, tc := range cases {
			st := tc.store()
			planFixture(t, st, n)
			en := New(st, nil)
			if tc.bounds {
				if err := en.UseVTOffsetBounds(-10, 0); err != nil {
					t.Fatal(err)
				}
			}
			run := map[string]func() Result{
				"current":   en.Current,
				"timeslice": func() Result { return en.Timeslice(100) },
				"vtrange":   func() Result { return en.VTRange(100, 200) },
				"rollback":  func() Result { return en.Rollback(100) },
			}
			for kind, want := range tc.want {
				res := run[kind]()
				if res.Node == nil {
					t.Fatalf("n=%d %s/%s: nil plan node", n, tc.name, kind)
				}
				if got := res.Node.String(); got != want {
					t.Errorf("n=%d %s/%s: plan = %q, want %q", n, tc.name, kind, got, want)
				}
				if got := res.Node.Leaf().Kind; got != tc.wantLeaf[kind] {
					t.Errorf("n=%d %s/%s: leaf = %v, want %v", n, tc.name, kind, got, tc.wantLeaf[kind])
				}
			}
		}
	}
}

// TestPlanAgreesWithAdvice closes the loop the refactor promises: for every
// declared specialization set, the store the advisor picks and the plan the
// engine then runs must tell one consistent story — the engine of an
// advised vt-ordered store binary-searches, the bounded tt-ordered store
// (once armed) pushes valid-time predicates down, and the general store
// scans.
func TestPlanAgreesWithAdvice(t *testing.T) {
	cases := []struct {
		name      string
		classes   []core.Class
		armBounds bool
		wantStore storage.Kind
		wantLeaf  plan.NodeKind // timeslice leaf
	}{
		{"general", nil, false, storage.TTOrdered, plan.FullScan},
		{"degenerate", []core.Class{core.Degenerate}, false, storage.VTOrdered, plan.VTBinarySearch},
		{"sequential", []core.Class{core.GloballySequentialEvents}, false, storage.VTOrdered, plan.VTBinarySearch},
		{"non-decreasing", []core.Class{core.GloballyNonDecreasingEvents}, false, storage.VTOrdered, plan.VTBinarySearch},
		{"strongly-bounded", []core.Class{core.StronglyBounded}, true, storage.TTOrdered, plan.TTWindowPushdown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			advice := storage.Advise(tc.classes, element.EventStamp)
			if advice.Store != tc.wantStore {
				t.Fatalf("advised store = %v, want %v", advice.Store, tc.wantStore)
			}
			st := advice.New()
			planFixture(t, st, 32)
			en := New(st, tc.classes)
			if tc.armBounds {
				if err := en.UseVTOffsetBounds(-10, 10); err != nil {
					t.Fatal(err)
				}
			}
			res := en.Timeslice(100)
			if got := res.Node.Leaf().Kind; got != tc.wantLeaf {
				t.Errorf("timeslice leaf = %v, want %v (plan %q)", got, tc.wantLeaf, res.Node.String())
			}
		})
	}
}
