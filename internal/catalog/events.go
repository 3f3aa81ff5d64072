package catalog

// The engine's decisions are rows of _sys_events (DESIGN §12): every
// migration and every integrity action a primary takes, inserted through
// commit on the live path only — never from replay, which redoes the rows
// already journaled, and never under an entry's lock. The first decision
// creates the relation; a row that cannot be written is counted, and the
// decision stands.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/wire"
)

// sysPrefix marks the catalog's own relations; Create refuses it, and
// every client mutation of one (ClientWritable).
const sysPrefix = "_sys"

// ClientWritable refuses, with ErrBadName, every mutation a client asks of
// one of the catalog's own relations — an insert, delete, modify, batch or
// declaration: their rows are the engine's decisions, and a client that
// could write them could forge a decision or hide one. The exported
// mutators check it; record writes through the unexported insert.
func (e *Entry) ClientWritable() error {
	if strings.HasPrefix(e.name, sysPrefix) {
		return fmt.Errorf("%w: %q is written by the engine alone (the %s prefix is reserved)", ErrBadName, e.name, sysPrefix)
	}
	return nil
}

// eventsSchema is one row a decision, valid at the wall-clock second it was
// made, about relation: what wire.MigrationInfo and wire.IntegrityEventInfo
// print, null where the decision has nothing.
var eventsSchema = relation.Schema{
	Name: "_sys_events", ValidTime: element.EventStamp, Granularity: chronon.Second,
	Invariant: []relation.Column{
		{Name: "relation", Type: element.KindString},
		{Name: "kind", Type: element.KindString}, // migrate | detect | quarantine | repair | repair-failed
	},
	Varying: []relation.Column{
		{Name: "artifact_kind", Type: element.KindString}, {Name: "artifact", Type: element.KindString},
		{Name: "detail", Type: element.KindString}, {Name: "epoch", Type: element.KindInt},
		{Name: "from", Type: element.KindString}, {Name: "to", Type: element.KindString},
		{Name: "source", Type: element.KindString}, {Name: "reasons", Type: element.KindString}, // one a line
	},
}

// record inserts one decision about rel as a row of _sys_events; varying
// holds the row's varying columns, in schema order.
func (c *Catalog) record(unix int64, rel, kind string, varying ...element.Value) {
	if c.cfg.Follower {
		return // a follower's rows are the primary's, replicated
	}
	e := c.lookup(eventsSchema.Name)
	var err error
	if e == nil {
		if e, err = c.create(eventsSchema); errors.Is(err, ErrExists) {
			e, err = c.Get(eventsSchema.Name)
		}
	}
	if err == nil {
		// Background: the row records a decision already made, whoever
		// asked for it.
		_, err = e.insert(context.Background(), relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(unix)),
			Invariant: []element.Value{element.String_(rel), element.String_(kind)},
			Varying:   varying,
		}, "")
	}
	if err != nil {
		c.unrecorded.Add(1)
	}
}

// recordMigration records a migration of rel.
func (c *Catalog) recordMigration(rel string, m Migration) {
	null, str := element.Null(), element.String_
	c.record(time.Now().Unix(), rel, "migrate", null, null, null, element.Int(int64(m.Epoch)),
		str(m.From.String()), str(m.To.String()), str(m.Source), str(strings.Join(m.Reasons, "\n")))
}

// igRingMax bounds the ring of recent integrity events, the node-local
// record: the only one a follower keeps of its own findings.
const igRingMax = 64

// journalIntegrity records an integrity action on artifact a about rel in
// the ring and as a row.
func (c *Catalog) journalIntegrity(kind string, a integrity.Artifact, rel, detail string) {
	ev := wire.IntegrityEventInfo{Unix: time.Now().Unix(), Kind: kind, ArtifactKind: a.Kind, Artifact: a.Name, Rel: rel, Detail: detail}
	c.igMu.Lock()
	c.igRing = append(c.igRing, ev)
	if len(c.igRing) > igRingMax {
		c.igRing = c.igRing[len(c.igRing)-igRingMax:]
	}
	c.igMu.Unlock()
	null, str := element.Null(), element.String_
	c.record(ev.Unix, rel, kind, str(a.Kind), str(a.Name), str(detail), null, null, null, null, null)
}

// IntegrityEvents returns the recent event ring, oldest first.
func (c *Catalog) IntegrityEvents() []wire.IntegrityEventInfo {
	c.igMu.Lock()
	defer c.igMu.Unlock()
	return append([]wire.IntegrityEventInfo(nil), c.igRing...)
}

// Migrations reads every relation's migration history off the rows, each
// in commit order.
func (c *Catalog) Migrations() map[string][]wire.MigrationInfo {
	e := c.lookup(eventsSchema.Name)
	if e == nil {
		return nil
	}
	out := make(map[string][]wire.MigrationInfo)
	e.view.Load().engine.Store().Scan(func(el *element.Element) bool {
		str := func(v element.Value) string { s, _ := v.Str(); return s }
		if rel, v := str(el.Invariant[0]), el.Varying; str(el.Invariant[1]) == "migrate" && el.Current() {
			epoch, _ := v[3].IntVal()
			m := wire.MigrationInfo{Epoch: uint64(epoch), From: str(v[4]), To: str(v[5]), Source: str(v[6])}
			if r := str(v[7]); r != "" {
				m.Reasons = strings.Split(r, "\n")
			}
			out[rel] = append(out[rel], m)
		}
		return true
	})
	return out
}
