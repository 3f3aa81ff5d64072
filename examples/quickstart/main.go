// Quickstart: create a temporal relation, declare a temporal
// specialization on it, watch a violating transaction get rejected,
// classify the extension, and run the three temporal query kinds.
package main

import (
	"fmt"
	"log"

	ts "repro"
)

func main() {
	// A relation of sensor readings: event-stamped at second granularity,
	// one time-invariant key, one time-varying value.
	schema := ts.Schema{
		Name:        "readings",
		ValidTime:   ts.EventStamp,
		Granularity: ts.Second,
		Invariant:   []ts.Column{{Name: "sensor", Type: ts.KindString}},
		Varying:     []ts.Column{{Name: "celsius", Type: ts.KindFloat}},
	}
	// Transaction times come from the system; a logical clock advancing
	// 60 s per transaction keeps this example deterministic.
	r := ts.NewRelation(schema, ts.NewLogicalClock(ts.Date(1992, 2, 3), 60))

	// Declare the relation retroactive: readings must have occurred before
	// they are stored (vt ≤ tt). The engine enforces this on every insert.
	ts.Declare(r, ts.PerRelation, ts.EventConstraint{Spec: ts.RetroactiveSpec()})

	base := ts.Date(1992, 2, 3)
	insert := func(vt ts.Chronon, temp float64) {
		e, err := r.Insert(ts.Insertion{
			VT:        ts.EventAt(vt),
			Invariant: []ts.Value{ts.String("reactor-1")},
			Varying:   []ts.Value{ts.Float(temp)},
		})
		if err != nil {
			fmt.Printf("rejected: %v\n", err)
			return
		}
		fmt.Printf("stored %v: valid %v, recorded %v\n", e.ES, e.VT, e.TTStart)
	}

	insert(base.Add(30), 21.5)   // tt = base+60: 30 s late — fine
	insert(base.Add(100), 22.0)  // tt = base+120: 20 s late — fine
	insert(base.Add(10000), 9.9) // far future — violates retroactivity

	// Classify the extension: which specializations does it satisfy?
	rep := ts.Classify(r.Versions(), ts.TTInsertion, ts.Second)
	fmt.Println("\nmost specific classes:")
	for _, f := range rep.MostSpecific() {
		fmt.Printf("  %v\n", f)
	}

	// Ask the advisor for a physical design and query through it.
	en, advice, err := ts.EngineForRelation(r, rep.Classes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstorage advice: %v\n", advice.Store)

	res := en.Timeslice(base.Add(30))
	fmt.Printf("historical query at %v: %d element(s), plan %q\n",
		base.Add(30), len(res.Elements), res.Node.String())

	roll := en.Rollback(base.Add(90))
	fmt.Printf("rollback to %v: %d element(s) were stored then\n",
		base.Add(90), len(roll.Elements))

	cur := en.Current()
	fmt.Printf("current state: %d element(s)\n", len(cur.Elements))
}
