// Oncall: a sixth scenario exercising the extensions on top of the
// taxonomy — the temporal query language and backlog persistence. An
// on-call rota is a contiguous interval relation (every hour has an owner);
// incidents are a retroactive event relation (logged after they happen).
// A time-slice of the rota at each incident answers "who owned it", a
// windowed count over the week checks that every hour is owned exactly
// once (the program exits non-zero when one is not), and the rota
// round-trips through the persistent backlog format.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	ts "repro"
)

func main() {
	weekStart := ts.Date(1992, 3, 2) // a Monday
	day := int64(86400)

	// --- The rota: per-relation contiguous day shifts. ---
	rota := ts.NewRelation(ts.Schema{
		Name:        "rota",
		ValidTime:   ts.IntervalStamp,
		Granularity: ts.Second,
		Invariant:   []ts.Column{{Name: "engineer", Type: ts.KindString}},
	}, ts.NewLogicalClock(weekStart.Add(-7*day), 3600))
	dayReg, err := ts.StrictVTIntervalRegularSpec(ts.Days(1))
	if err != nil {
		log.Fatal(err)
	}
	ts.Declare(rota, ts.PerRelation,
		ts.InterIntervalConstraint{Spec: ts.ContiguousSpec()},
		ts.IntervalRegularConstraint{Spec: dayReg},
	)
	for i, eng := range []string{"ann", "bob", "cod", "ann", "bob", "cod", "ann"} {
		if _, err := rota.Insert(ts.Insertion{
			VT:        ts.SpanOf(weekStart.Add(int64(i)*day), weekStart.Add(int64(i+1)*day)),
			Invariant: []ts.Value{ts.String(eng)},
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("rota: %d contiguous day shifts\n", rota.Len())

	// --- Incidents: retroactive events logged after they fire. ---
	incidents := ts.NewRelation(ts.Schema{
		Name:        "incidents",
		ValidTime:   ts.EventStamp,
		Granularity: ts.Second,
		Invariant:   []ts.Column{{Name: "id", Type: ts.KindString}},
		Varying:     []ts.Column{{Name: "sev", Type: ts.KindInt}},
	}, ts.NewLogicalClock(weekStart, 3600))
	ts.Declare(incidents, ts.PerRelation, ts.EventConstraint{Spec: ts.RetroactiveSpec()})
	for i, inc := range []struct {
		hoursIn int64
		sev     int64
	}{{5, 2}, {30, 1}, {31, 3}, {77, 1}, {130, 2}} {
		incidents.Clock().(*ts.LogicalClock).AdvanceTo(weekStart.Add(inc.hoursIn*3600 + 600))
		if _, err := incidents.Insert(ts.Insertion{
			VT:        ts.EventAt(weekStart.Add(inc.hoursIn * 3600)),
			Invariant: []ts.Value{ts.String(fmt.Sprintf("INC-%d", i+1))},
			Varying:   []ts.Value{ts.Int(inc.sev)},
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("incidents: %d logged (all retroactive)\n\n", incidents.Len())

	lookup := func(name string) (*ts.Relation, bool) {
		switch name {
		case "rota":
			return rota, true
		case "incidents":
			return incidents, true
		}
		return nil, false
	}
	query := func(src string) *ts.TemporalResult {
		res, err := ts.RunQuery(src, lookup)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// --- Ownership: a time-slice of the rota at each incident. ---
	fmt.Println("incident ownership (rota valid at the incident):")
	for _, inc := range incidents.Current() {
		id, _ := inc.Invariant[0].Str()
		sev, _ := inc.Varying[0].IntVal()
		at := inc.VT.Start()
		res := query(fmt.Sprintf("select engineer from rota when valid at '%v'", at))
		if len(res.Rows) != 1 {
			log.Fatalf("%s at %v: %d engineer(s) on call, want 1", id, at, len(res.Rows))
		}
		eng, _ := res.Rows[0][0].Str()
		fmt.Printf("  %s (sev %d) at %v → %s\n", id, sev, at, eng)
	}

	// --- Coverage: is every hour of the week owned, exactly once? ---
	res := query(fmt.Sprintf(
		"select count(*) from rota when valid during ['%v', '%v') group by window(3600)",
		weekStart, weekStart.Add(7*day)))
	hours := int(7 * day / 3600)
	owned := 0
	for _, row := range res.Rows {
		if n, _ := row[2].IntVal(); n == 1 {
			owned++
		} else {
			fmt.Printf("  [%v, %v): %d engineer(s) on call\n", row[0], row[1], n)
		}
	}
	if len(res.Rows) != hours || owned != hours {
		fmt.Printf("\nrota coverage: %d of %d hourly window(s) owned exactly once\n", owned, hours)
		os.Exit(1)
	}
	fmt.Printf("\nrota coverage: all %d hourly windows owned exactly once\n", hours)

	fmt.Println("\nsevere incidents on Tuesday (temporal SELECT):")
	fmt.Print(query(
		"select id, sev from incidents when valid during ['1992-03-03', '1992-03-04') where sev <= 2").Format())

	fmt.Println("\nwho is on call Wednesday (Allen: the shift contains the day's first hour)?")
	fmt.Print(query(
		"select engineer from rota when started-by ['1992-03-04', '1992-03-04 01:00:00')").Format())

	// --- Persistence: the rota round-trips through the backlog format. ---
	dir, err := os.MkdirTemp("", "oncall")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rota.tsbl")
	if err := ts.SaveBacklog(path, rota); err != nil {
		log.Fatal(err)
	}
	restored, err := ts.LoadBacklog(path, ts.NewLogicalClock(weekStart, 3600))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npersisted and restored the rota: %d element(s), classification preserved: %v\n",
		restored.Len(),
		ts.Classify(restored.Versions(), ts.TTInsertion, ts.Second).Has(ts.GloballyContiguous))
}
