// Package shell implements the tsdb interactive/batch session: a small
// bitemporal database shell with declarable temporal specializations,
// temporal queries, and backlog persistence. It lives apart from the main
// package so the whole command surface is unit-testable.
package shell

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	ts "repro"
)

// Session is one tsdb shell session: a set of named relations and an
// output sink.
type Session struct {
	rels  map[string]*ts.Relation
	decls map[string][]ts.ConstraintDescriptor
	out   *bufio.Writer
	rem   *remoteSession // non-nil while connected to a tsdbd server
}

// New creates a session writing to out.
func New(out io.Writer) *Session {
	return &Session{
		rels:  make(map[string]*ts.Relation),
		decls: make(map[string][]ts.ConstraintDescriptor),
		out:   bufio.NewWriter(out),
	}
}

// Relation returns a session relation by name, for tests and embedding.
func (s *Session) Relation(name string) (*ts.Relation, bool) {
	r, ok := s.rels[name]
	return r, ok
}

// Run processes commands from in until EOF or "quit". When interactive is
// true a banner and prompts are printed. Errors — including rejected
// transactions, which are a normal outcome under enforcement — are
// reported and the session continues.
func (s *Session) Run(in io.Reader, interactive bool) {
	defer s.out.Flush()
	sc := bufio.NewScanner(in)
	if interactive {
		fmt.Fprintln(s.out, "tsdb — temporal specialization shell. Type 'help'.")
		s.out.Flush()
	}
	for {
		if interactive {
			fmt.Fprint(s.out, "tsdb> ")
			s.out.Flush()
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := s.Exec(line); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
		s.out.Flush()
	}
}

// Exec runs one command line.
func (s *Session) Exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help()
		return nil
	case "connect":
		return s.connect(args)
	case "disconnect":
		return s.disconnect()
	}
	if s.rem != nil {
		return s.execRemote(cmd, args, line)
	}
	switch cmd {
	case "create":
		return s.create(args)
	case "declare":
		return s.declare(args)
	case "insert":
		return s.insert(args)
	case "delete":
		return s.delete(args)
	case "current":
		return s.query(args, "current")
	case "rollback":
		return s.query(args, "rollback")
	case "timeslice":
		return s.query(args, "timeslice")
	case "classify":
		return s.classify(args)
	case "advise":
		return s.advise(args)
	case "physical":
		return s.physical(args)
	case "clock":
		return s.clock(args)
	case "dump":
		return s.dump(args)
	case "select", "explain":
		return s.selectQuery(line)
	case "save":
		return s.save(args)
	case "load":
		return s.load(args)
	case "vacuum":
		return s.vacuum(args)
	case "verify":
		return fmt.Errorf("'verify' needs a connected server ('connect <addr>'); the server owns durable artifacts and their checksums")
	}
	return fmt.Errorf("unknown command %q (try 'help')", cmd)
}

func (s *Session) help() {
	fmt.Fprint(s.out, `commands:
  create <rel> event|interval <granularity>
  declare <rel> per-relation|per-partition <spec> [args] [<spec> ...]
      event specs:   retroactive predictive degenerate
                     delayed-retroactive <Δt>   early-predictive <Δt>
                     retro-bounded <Δt>         pred-bounded <Δt>
                     strongly-retro-bounded <Δt> strongly-pred-bounded <Δt>
                     strongly-bounded <Δt> <Δt>
      inter-event:   sequential non-decreasing non-increasing
                     tt-regular <Δt> vt-regular <Δt> temporal-regular <Δt>
      intervals:     contiguous st-<allen relation> vt-interval-regular <Δt>
  insert <rel> [os=<n>] vt=<t>            (event relation)
  insert <rel> [os=<n>] vt=[<t>,<t>)      (interval relation)
  delete <rel> <element-surrogate>
  current <rel> | rollback <rel> <tt> | timeslice <rel> <vt>
  classify <rel> | advise <rel>
  physical <rel>   show the live physical design: organization, declared
      vs inferred classes, advisor reasons, and (remote) migration history
      plus merkle provenance and quarantine state
  verify <rel>     (remote) scrub every durable artifact covering the
      relation against its checksums and repair what the server can
  select ...  temporal query, e.g.:
      select * from temps
      select name, salary from emp as of 25 when valid at 100 where salary > 150
      select who from shifts when meets [100, 120)
      select name from emp order by salary desc limit 10
      window aggregates (count/sum/min/max over valid-time windows):
      select count(*), sum(salary) from emp group by window(100)
      select max(temp) from temps group by window(60, rolling 3)
      (window modes: tumbling (default) | rolling <k> | cumulative;
       a trailing using row|columnar is accepted and changes nothing)
  explain select ...   show the typed query plan instead of running it, e.g.:
      explain select * from temps when valid at 100
  save <rel> <file> | load <rel> <file>   (checksummed backlog format)
  clock <rel> advance <seconds>
  vacuum <rel> <horizon-tt>
  dump <rel>
  connect <addr> | disconnect        (remote mode against a tsdbd server;
      create/declare/insert/delete/queries/select/classify run server-side,
      'save' snapshots the server catalog, 'list' and 'metrics' inspect it,
      'load <rel> <file>' streams header-driven CSV into the bulk loader)
  quit
`)
}

func (s *Session) rel(name string) (*ts.Relation, error) {
	r, ok := s.rels[name]
	if !ok {
		return nil, fmt.Errorf("no relation %q", name)
	}
	return r, nil
}

func (s *Session) create(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: create <rel> event|interval <granularity>")
	}
	name := args[0]
	if _, exists := s.rels[name]; exists {
		return fmt.Errorf("relation %q already exists", name)
	}
	var kind ts.TimestampKind
	switch args[1] {
	case "event":
		kind = ts.EventStamp
	case "interval":
		kind = ts.IntervalStamp
	default:
		return fmt.Errorf("unknown stamp kind %q", args[1])
	}
	gran, err := ts.ParseGranularity(args[2])
	if err != nil {
		return err
	}
	s.rels[name] = ts.NewRelation(ts.Schema{
		Name: name, ValidTime: kind, Granularity: gran,
	}, ts.NewLogicalClock(0, 10))
	fmt.Fprintf(s.out, "created %s (%s-stamped, granularity %v)\n", name, args[1], gran)
	return nil
}

func (s *Session) declare(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: declare <rel> per-relation|per-partition <spec>...")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	var scope ts.Scope
	switch args[1] {
	case "per-relation":
		scope = ts.PerRelation
	case "per-partition":
		scope = ts.PerPartition
	default:
		return fmt.Errorf("unknown scope %q", args[1])
	}
	cs, err := parseConstraints(args[2:])
	if err != nil {
		return err
	}
	ts.Declare(r, scope, cs...)
	for _, c := range cs {
		fmt.Fprintf(s.out, "declared %v (%v)\n", c, scope)
		if d, ok := ts.DescribeConstraint(c, scope); ok {
			s.decls[args[0]] = append(s.decls[args[0]], d)
		} else {
			fmt.Fprintf(s.out, "note: %v cannot be persisted (save will omit it)\n", c)
		}
	}
	return nil
}

func parseConstraints(words []string) ([]ts.Constraint, error) {
	var out []ts.Constraint
	i := 0
	next := func() (ts.Duration, error) {
		if i >= len(words) {
			return ts.Duration{}, fmt.Errorf("missing duration argument")
		}
		d, err := ts.ParseDuration(words[i])
		i++
		return d, err
	}
	for i < len(words) {
		w := words[i]
		i++
		var c ts.Constraint
		var err error
		switch w {
		case "retroactive":
			c = ts.EventConstraint{Spec: ts.RetroactiveSpec()}
		case "predictive":
			c = ts.EventConstraint{Spec: ts.PredictiveSpec()}
		case "degenerate":
			var spec ts.EventSpec
			spec, err = ts.DegenerateSpec(ts.Second)
			c = ts.EventConstraint{Spec: spec}
		case "delayed-retroactive":
			c, err = eventWithOne(ts.DelayedRetroactiveSpec, next)
		case "early-predictive":
			c, err = eventWithOne(ts.EarlyPredictiveSpec, next)
		case "retro-bounded":
			c, err = eventWithOne(ts.RetroactivelyBoundedSpec, next)
		case "pred-bounded":
			c, err = eventWithOne(ts.PredictivelyBoundedSpec, next)
		case "strongly-retro-bounded":
			c, err = eventWithOne(ts.StronglyRetroactivelyBoundedSpec, next)
		case "strongly-pred-bounded":
			c, err = eventWithOne(ts.StronglyPredictivelyBoundedSpec, next)
		case "strongly-bounded":
			var d1, d2 ts.Duration
			if d1, err = next(); err == nil {
				if d2, err = next(); err == nil {
					var spec ts.EventSpec
					spec, err = ts.StronglyBoundedSpec(d1, d2)
					c = ts.EventConstraint{Spec: spec}
				}
			}
		case "sequential":
			c = ts.InterEventConstraint{Spec: ts.SequentialEventsSpec()}
		case "non-decreasing":
			c = ts.InterEventConstraint{Spec: ts.NonDecreasingEventsSpec()}
		case "non-increasing":
			c = ts.InterEventConstraint{Spec: ts.NonIncreasingEventsSpec()}
		case "tt-regular":
			c, err = interEventWithUnit(ts.TTEventRegularSpec, next)
		case "vt-regular":
			c, err = interEventWithUnit(ts.VTEventRegularSpec, next)
		case "temporal-regular":
			c, err = interEventWithUnit(ts.TemporalEventRegularSpec, next)
		case "contiguous":
			c = ts.InterIntervalConstraint{Spec: ts.ContiguousSpec()}
		case "sequential-intervals":
			c = ts.InterIntervalConstraint{Spec: ts.SequentialIntervalsSpec()}
		case "vt-interval-regular":
			var d ts.Duration
			if d, err = next(); err == nil {
				var spec ts.IntervalRegularSpec
				spec, err = ts.VTIntervalRegularSpec(d)
				c = ts.IntervalRegularConstraint{Spec: spec}
			}
		default:
			if rel, perr := parseAllen(w); perr == nil {
				c = ts.InterIntervalConstraint{Spec: ts.SuccessiveTTSpec(rel)}
			} else {
				return nil, fmt.Errorf("unknown specialization %q", w)
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no specializations given")
	}
	return out, nil
}

func parseAllen(w string) (ts.AllenRelation, error) {
	if !strings.HasPrefix(w, "st-") {
		return 0, fmt.Errorf("not an st- spec")
	}
	for _, r := range ts.AllenRelations() {
		if "st-"+r.String() == w {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown Allen relation in %q", w)
}

func eventWithOne(build func(ts.Duration) (ts.EventSpec, error), next func() (ts.Duration, error)) (ts.Constraint, error) {
	d, err := next()
	if err != nil {
		return nil, err
	}
	spec, err := build(d)
	if err != nil {
		return nil, err
	}
	return ts.EventConstraint{Spec: spec}, nil
}

func interEventWithUnit(build func(ts.Duration) (ts.InterEventSpec, error), next func() (ts.Duration, error)) (ts.Constraint, error) {
	d, err := next()
	if err != nil {
		return nil, err
	}
	spec, err := build(d)
	if err != nil {
		return nil, err
	}
	return ts.InterEventConstraint{Spec: spec}, nil
}

func (s *Session) insert(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: insert <rel> [os=<n>] vt=<t> | vt=[<t>,<t>)")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	ins := ts.Insertion{}
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "os="):
			n, err := strconv.ParseUint(a[3:], 10, 64)
			if err != nil {
				return fmt.Errorf("bad object surrogate: %v", err)
			}
			ins.Object = ts.Surrogate(n)
		case strings.HasPrefix(a, "vt=["):
			body := strings.TrimSuffix(strings.TrimPrefix(a, "vt=["), ")")
			parts := strings.Split(body, ",")
			if len(parts) != 2 {
				return fmt.Errorf("bad interval %q", a)
			}
			lo, err := parseTime(parts[0])
			if err != nil {
				return err
			}
			hi, err := parseTime(parts[1])
			if err != nil {
				return err
			}
			if hi <= lo {
				return fmt.Errorf("empty or inverted interval %q", a)
			}
			ins.VT = ts.SpanOf(lo, hi)
		case strings.HasPrefix(a, "vt="):
			c, err := parseTime(a[3:])
			if err != nil {
				return err
			}
			ins.VT = ts.EventAt(c)
		default:
			return fmt.Errorf("unknown argument %q", a)
		}
	}
	e, err := r.Insert(ins)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "inserted %v at tt %v (vt %v)\n", e.ES, e.TTStart, e.VT)
	return nil
}

func (s *Session) delete(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: delete <rel> <element-surrogate>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(args[1], "σ"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad element surrogate %q", args[1])
	}
	if err := r.Delete(ts.Surrogate(n)); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "deleted σ%d\n", n)
	return nil
}

func (s *Session) query(args []string, kind string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: %s <rel> [time]", kind)
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	var es []*ts.Element
	switch kind {
	case "current":
		es = r.Current()
	case "rollback", "timeslice":
		if len(args) != 2 {
			return fmt.Errorf("usage: %s <rel> <time>", kind)
		}
		t, err := parseTime(args[1])
		if err != nil {
			return err
		}
		if kind == "rollback" {
			es = r.Rollback(t)
		} else {
			es = r.Timeslice(t)
		}
	}
	fmt.Fprintf(s.out, "%d element(s)\n", len(es))
	for _, e := range es {
		fmt.Fprintf(s.out, "  %v\n", e)
	}
	return nil
}

func (s *Session) classify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: classify <rel>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	if r.Len() == 0 {
		return fmt.Errorf("relation %q is empty", args[0])
	}
	rep := ts.Classify(r.Versions(), ts.TTInsertion, r.Schema().Granularity)
	fmt.Fprintln(s.out, "satisfied specializations:")
	for _, f := range rep.Findings {
		fmt.Fprintf(s.out, "  %v\n", f)
	}
	fmt.Fprintln(s.out, "most specific:")
	for _, f := range rep.MostSpecific() {
		fmt.Fprintf(s.out, "  %v\n", f)
	}
	if parts := r.Partitions(); len(parts) > 1 {
		prep := ts.ClassifyPerPartition(parts, ts.TTInsertion, r.Schema().Granularity)
		fmt.Fprintf(s.out, "per partition (%d life-lines):\n", len(parts))
		for _, f := range prep.Findings {
			fmt.Fprintf(s.out, "  %v\n", f)
		}
	}
	return nil
}

func (s *Session) advise(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: advise <rel>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	var classes []ts.Class
	if r.Len() > 0 {
		classes = ts.Classify(r.Versions(), ts.TTInsertion, r.Schema().Granularity).Classes()
	}
	a := ts.Advise(classes, r.Schema().ValidTime)
	fmt.Fprintf(s.out, "storage advice: %v\n", a.Store)
	for _, reason := range a.Reasons {
		fmt.Fprintf(s.out, "  - %s\n", reason)
	}
	return nil
}

// physical shows the relation's physical design as the advisor sees it:
// what the declarations license, what the observed extension would
// license without a declaration, and which organization wins. The local
// shell has no catalog, so there is no migration history here — connect
// to a tsdbd server for the live view.
func (s *Session) physical(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: physical <rel>")
	}
	name := args[0]
	r, err := s.rel(name)
	if err != nil {
		return err
	}
	var declared []ts.Class
	for _, d := range s.decls[name] {
		if d.Scope == ts.PerRelation {
			declared = append(declared, d.Class)
		}
	}
	var observed []ts.Class
	if r.Len() > 0 {
		observed = ts.Classify(r.Versions(), ts.TTInsertion, r.Schema().Granularity).Classes()
	}
	a := ts.AdviseAuto(declared, observed, r.Schema().ValidTime)
	fmt.Fprintf(s.out, "organization: %v (%s)\n", a.Store, a.Source)
	if len(declared) > 0 {
		fmt.Fprintln(s.out, "declared classes:")
		for _, c := range declared {
			fmt.Fprintf(s.out, "  %v\n", c)
		}
	}
	if len(observed) > 0 {
		fmt.Fprintln(s.out, "inferred from the extension:")
		for _, c := range observed {
			fmt.Fprintf(s.out, "  %v\n", c)
		}
	}
	for _, reason := range a.Reasons {
		fmt.Fprintf(s.out, "  - %s\n", reason)
	}
	return nil
}

func (s *Session) clock(args []string) error {
	if len(args) != 3 || args[1] != "advance" {
		return fmt.Errorf("usage: clock <rel> advance <seconds>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("bad advance %q", args[2])
	}
	lc, ok := r.Clock().(*ts.LogicalClock)
	if !ok {
		return fmt.Errorf("relation clock is not advanceable")
	}
	lc.Advance(n)
	fmt.Fprintf(s.out, "clock now %v\n", lc.Now())
	return nil
}

func (s *Session) dump(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dump <rel>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%s: %d stored element version(s)\n", args[0], r.Len())
	for _, e := range r.Versions() {
		fmt.Fprintf(s.out, "  %v\n", e)
	}
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil
}

func (s *Session) selectQuery(line string) error {
	res, err := ts.RunQuery(line, func(name string) (*ts.Relation, bool) {
		r, ok := s.rels[name]
		return r, ok
	})
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, res.Format())
	return nil
}

func (s *Session) save(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: save <rel> <file>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	decls := s.decls[args[0]]
	if err := ts.SaveBacklogWithDeclarations(args[1], r, decls); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved %s (%d backlog records, %d declarations) to %s\n",
		args[0], len(r.Backlog()), len(decls), args[1])
	return nil
}

func (s *Session) load(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: load <rel> <file>")
	}
	if _, exists := s.rels[args[0]]; exists {
		return fmt.Errorf("relation %q already exists", args[0])
	}
	r, decls, err := ts.LoadBacklogWithDeclarations(args[1], ts.NewLogicalClock(0, 10))
	if err != nil {
		return err
	}
	s.rels[args[0]] = r
	s.decls[args[0]] = decls
	fmt.Fprintf(s.out, "loaded %s: %d element version(s), %d declaration(s) re-attached\n",
		args[0], r.Len(), len(decls))
	return nil
}

func (s *Session) vacuum(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: vacuum <rel> <horizon-tt>")
	}
	r, err := s.rel(args[0])
	if err != nil {
		return err
	}
	h, err := parseTime(args[1])
	if err != nil {
		return err
	}
	removed, err := r.Vacuum(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "vacuumed %d version(s); rollback faithful from %v\n", removed, r.VacuumHorizon())
	return nil
}

func parseTime(s string) (ts.Chronon, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ts.Chronon(n), nil
	}
	cv, err := ts.ParseCivil(s)
	if err != nil {
		return 0, fmt.Errorf("bad time %q", s)
	}
	return cv.Chronon(), nil
}
