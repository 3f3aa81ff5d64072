package backlog

import (
	"bytes"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/fuzzcost"
	"repro/internal/relation"
	"repro/internal/tx"
)

func eventAt(c int64) element.Timestamp { return element.EventAt(chronon.Chronon(c)) }

// FuzzRead feeds arbitrary bytes to the backlog decoder: it must never
// panic, and anything it accepts must replay cleanly or fail with a
// validation error — never corrupt the process.
func FuzzRead(f *testing.F) {
	// Seed with a genuine file and mutations of it.
	r := relation.New(relation.Schema{
		Name: "seed", ValidTime: 0, Granularity: 1,
	}, tx.NewLogicalClock(0, 10))
	for i := 0; i < 3; i++ {
		if _, err := r.Insert(relation.Insertion{VT: eventAt(int64(i))}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("TSBL"))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 10 {
		mutated[10] ^= 0xff
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Accepted input must replay without panicking; validation errors
		// are fine. Neither may allocate more than the bytes warrant.
		fuzzcost.Snapshot.Bound(t, len(data), func() {
			if snap, err := Read(bytes.NewReader(data)); err == nil {
				_, _ = relation.Replay(snap.Schema, tx.NewLogicalClock(0, 10), snap.Records)
			}
		})
	})
}
