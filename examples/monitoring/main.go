// Monitoring: the paper's chemical-plant example (§1, §3.1). Temperature
// and pressure are sampled periodically and arrive after a transmission
// delay that always exceeds 30 seconds — a *delayed retroactive* relation,
// in fact *delayed strongly retroactively bounded* once the maximum delay
// is known, and *globally sequential* because samples never overtake each
// other. The example declares all of that, simulates a day of production,
// and shows how the declarations pay off at query time.
package main

import (
	"fmt"
	"log"
	"math/rand"

	ts "repro"
)

func main() {
	schema := ts.Schema{
		Name:        "plant",
		ValidTime:   ts.EventStamp,
		Granularity: ts.Second,
		Invariant:   []ts.Column{{Name: "probe", Type: ts.KindString}},
		Varying: []ts.Column{
			{Name: "celsius", Type: ts.KindFloat},
			{Name: "bar", Type: ts.KindFloat},
		},
	}
	start := ts.DateTime(1992, 2, 3, 6, 0, 0)
	r := ts.NewRelation(schema, ts.NewLogicalClock(start, 360))

	minDelay, maxDelay := ts.Seconds(30), ts.Seconds(300)
	bounded, err := ts.DelayedStronglyRetroactivelyBoundedSpec(minDelay, maxDelay)
	if err != nil {
		log.Fatal(err)
	}
	ts.Declare(r, ts.PerRelation,
		ts.EventConstraint{Spec: bounded},
		ts.InterEventConstraint{Spec: ts.SequentialEventsSpec()},
	)
	fmt.Printf("declared: %v + sequential\n\n", bounded)

	// A day of six-minute samples, each arriving 31-300 s late.
	rng := rand.New(rand.NewSource(1992))
	probe := r.NewObject()
	sampleTime := start
	for i := 0; i < 240; i++ {
		sampleTime = sampleTime.Add(360)
		delay := 31 + rng.Int63n(269)
		if _, err := r.Insert(ts.Insertion{
			Object:    probe,
			VT:        ts.EventAt(sampleTime.Add(-delay)),
			Invariant: []ts.Value{ts.String("T-101")},
			Varying:   []ts.Value{ts.Float(80 + rng.Float64()*5), ts.Float(2 + rng.Float64())},
		}); err != nil {
			log.Fatalf("sample %d: %v", i, err)
		}
	}
	fmt.Printf("stored %d samples\n", r.Len())

	// A faulty probe reporting instantly (delay 0) is caught.
	if _, err := r.Insert(ts.Insertion{
		Object:    probe,
		VT:        ts.EventAt(r.Clock().Now().Add(360)),
		Invariant: []ts.Value{ts.String("T-101")},
		Varying:   []ts.Value{ts.Float(85), ts.Float(2.5)},
	}); err != nil {
		fmt.Printf("\nfaulty probe rejected:\n  %v\n", err)
	}

	// Classification recovers the declared semantics (and more) from the
	// data alone, synthesizing the tightest observed bounds.
	rep := ts.Classify(r.Versions(), ts.TTInsertion, ts.Second)
	fmt.Println("\ninferred most-specific classes (with synthesized bounds):")
	for _, f := range rep.MostSpecific() {
		fmt.Printf("  %v\n", f)
	}

	// Sequentiality means the arrival log doubles as a valid-time index:
	// historical queries binary-search instead of scanning.
	en, advice, err := ts.EngineForRelation(r, rep.Classes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadvised store: %v\n", advice.Store)
	for _, reason := range advice.Reasons {
		fmt.Printf("  - %s\n", reason)
	}
	q := start.Add(120 * 360)
	res := en.VTRange(q, q.Add(3600))
	fmt.Printf("\nreadings valid in the hour after %v: %d, plan %q, touched %d of %d\n",
		q, len(res.Elements), res.Node.String(), res.Touched, r.Len())

	// The declared *bound* yields a second strategy that needs no ordering
	// at all: delays in [30 s, 300 s] mean a reading valid at q was stored
	// with tt ∈ [q+30, q+300], a window the plain arrival log
	// binary-searches.
	ttlog := ts.NewTTLogStore()
	for _, e := range r.Versions() {
		if err := ttlog.Insert(e); err != nil {
			log.Fatal(err)
		}
	}
	pd := ts.NewQueryEngine(ttlog, nil)
	if err := ts.EnableBoundedPushdown(pd, r, bounded); err != nil {
		log.Fatal(err)
	}
	sample := r.Versions()[120].VT.Start()
	res = pd.Timeslice(sample)
	fmt.Printf("bounded pushdown at %v: %d reading(s), plan %q, touched %d of %d\n",
		sample, len(res.Elements), res.Node.String(), res.Touched, r.Len())
}
