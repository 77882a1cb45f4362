package iql

import (
	"math"
	"slices"
	"unsafe"
)

// Join runs. A comprehension's generators often rebuild one relation from
// several extents keyed alike — Table 1's Q7 joins four attribute
// extents of one table on their key — and a warm evaluation of such a
// chain probes the same indexes with the same keys, and finds the same
// rows, every time. A join run is a maximal sequence of one
// comprehension's generators for which that is so by construction:
//
//   - each member draws a scheme reference, whose evaluation the caller's
//     extent memo makes one element array for as long as the extent is
//     unchanged;
//   - the members follow one another, each with the filters its index
//     consumes and nothing between;
//   - the first member's join (it may have none) probes with literals
//     only, and each later member is joined, by probes that are literals
//     or variables a member before it binds.
//
// Which rows of each member's source bind together is then a function of
// the members' element arrays and nothing else — not of the enclosing
// environment, nor of anything evaluated after the run. The first walk
// of a run over one set of arrays leaves their identity in the
// evaluator's JoinIndexCache; the second is recorded: for each match,
// the values it binds to the slots that anything after the run reads
// (Q7's pk, t, mz and i, not its four keys), and the steps the walk
// charged since the match before; every later evaluation over the same
// arrays replays the record. A replay evaluates each member source the
// walk would (the walk reaches a member exactly when the arrays before
// it are the record's), writes each match's values into the
// comprehension's scope, charges the recorded steps before each match,
// and continues at the qualifier after the run as deep in generator
// loops as the walk was — so everything after the run sees the walk's
// bindings at the walk's step counts, and no pattern is matched, no
// probe key evaluated, no hash computed and no index consulted. The
// cache drops an entry with any of its members' extents (DropExtent). A
// run whose first member streams walks as it would without one.

// joinRun is one join run of a comprehension's plan.
type joinRun struct {
	members []int // the members' qualifier positions, in order
	next    int   // the qualifier after the last member's consumed filters
	keep    []int // the members' slots read at next or after, which a record keeps
}

// maxRunRecord bounds a record's bytes (see runRecord.footprint): a run
// with more matches is walked every time.
const maxRunRecord = 16 << 20

// markRuns finds the plan's join runs of two or more generators, marks
// each on its first and its last member, and keeps in each the slots its
// members bind that read says a qualifier after it, or the head, reads.
func (p *compPlan) markRuns(read []int) {
	for i := 0; i < len(p.quals); i++ {
		members, next := p.runFrom(i)
		if len(members) < 2 {
			continue
		}
		r := &joinRun{members: slices.Clip(members), next: next}
		for _, m := range members {
			for s := p.quals[m].from; s < p.quals[m].to; s++ {
				if read[s] >= next {
					r.keep = append(r.keep, s)
				}
			}
		}
		p.quals[members[0]].run, p.quals[members[len(members)-1]].ends = r, r
		i = next - 1
	}
}

// runFrom returns the members of the longest run that starts at
// qualifier i, and the qualifier after it.
func (p *compPlan) runFrom(i int) (members []int, next int) {
	quals := p.comp.Quals
	for next = i; next < len(quals); next += 1 + len(p.quals[next].joins) {
		g, ok := quals[next].(*Generator)
		if !ok || !p.joinsWithin(next, g, p.quals[i].from) || (len(members) > 0 && len(p.quals[next].joins) == 0) {
			break
		}
		members = append(members, next)
	}
	return members, next
}

// joinsWithin reports whether generator i, drawing g, may follow run
// members that bind the slots from on: its source is a scheme reference,
// and each of its join's probes is a literal or a variable they bind.
func (p *compPlan) joinsWithin(i int, g *Generator, from int) bool {
	if _, ok := g.Src.(*SchemeRef); !ok {
		return false
	}
	for _, jc := range p.quals[i].joins {
		switch e := jc.probe.(type) {
		case *Lit:
		case *slotRef:
			if e.depth > 0 || e.slot < from {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// runRecord is a recorded walk of a join run: for each match, in the
// walk's order, the value of each of the run's kept slots (vals, one per
// kept slot a match) and the steps the walk charged since the match
// before, or since it began (steps); and last in steps, those it charged
// after its last match. Steps spent evaluating the members' sources are
// left out: a replay evaluates them itself. A record is never written
// once published.
type runRecord struct {
	vals  []Value
	steps []int32
}

// footprint is the bytes the record holds. The values' own bytes are
// the members' extents', which the extent caches hold and charge.
func (r *runRecord) footprint() int64 {
	return int64(unsafe.Sizeof(runRecord{})) + int64(cap(r.vals))*int64(unsafe.Sizeof(Value{})) + 4*int64(cap(r.steps))
}

// runRecorder records one walk of a join run.
type runRecorder struct {
	run *joinRun
	rec runRecord
	// mark is ev.steps less the context's source steps when the walk
	// began or the last match was recorded.
	mark int
	// over: the record outgrew maxRunRecord, or a step count the int32
	// it is kept in.
	over bool
}

// runJoined evaluates the join run generator i starts, its first
// member's source evaluated to els: by replaying the record of its
// members' arrays when there is one, and otherwise by walking it — a
// walk recorded when the walk before it was over the same arrays,
// leaving their identity for the next walk to find when not.
func (ctx *compCtx) runJoined(i int, els []Value, out *sink) error {
	qs, rp, c := &ctx.quals[i], ctx.plan.quals[i].run, ctx.ev.Indexes
	if qs.replay == nil {
		en, found := c.run(rp, els)
		if found {
			var err error
			if found, err = ctx.reach(rp, en.members); err != nil {
				return err
			}
		}
		switch {
		case !found:
			if err := ctx.walk(i, els, out); err != nil {
				return err
			}
			c.putRun(rp, ctx.reached(rp), nil, false)
			return nil
		case en.rec == nil && en.unrecordable:
			return ctx.walk(i, els, out)
		case en.rec == nil:
			return ctx.record(i, els, out)
		}
		qs.replay = en.rec
	}
	c.replays.Add(1)
	return ctx.replay(rp, qs.replay, out)
}

// reach evaluates the sources of the run's members after the first that
// the walk an entry was left by reached, as a walk over the same arrays
// would reach them — a member is reached when the arrays before it are
// the entry's — and reports whether each is the array the entry has.
func (ctx *compCtx) reach(rp *joinRun, members []extentID) (bool, error) {
	for j := 1; j < len(members); j++ {
		els, err := ctx.source(rp.members[j])
		if err != nil {
			return false, err
		}
		if idOf(els) != members[j] {
			return false, nil
		}
	}
	return true, nil
}

// reached returns the identities of the arrays of the run's members
// whose sources this context has evaluated: those a walk reached.
func (ctx *compCtx) reached(rp *joinRun) []extentID {
	ids := make([]extentID, 0, len(rp.members))
	for _, pos := range rp.members {
		qs := &ctx.quals[pos]
		if !qs.srcSet {
			break
		}
		els, _ := qs.srcVal.Elements()
		ids = append(ids, idOf(els))
	}
	return ids
}

// record walks the join run generator i starts, as walk would, and
// leaves the run's entry with the walk's record; a walk that fails
// leaves nothing, and one whose record is over leaves it unrecordable.
func (ctx *compCtx) record(i int, els []Value, out *sink) error {
	qs, rp, ev := &ctx.quals[i], ctx.plan.quals[i].run, ctx.ev
	r := &runRecorder{run: rp, mark: ev.steps - ctx.srcSteps}
	qs.recorder = r
	err := ctx.walk(i, els, out)
	qs.recorder = nil
	if err != nil {
		return err
	}
	r.note(ev.steps - ctx.srcSteps - r.mark)
	rec := &r.rec
	if r.over {
		rec = nil
	}
	ev.Indexes.putRun(rp, ctx.reached(rp), rec, r.over)
	return nil
}

// note appends a step count to the record, unless it is over.
func (r *runRecorder) note(steps int) {
	r.over = r.over || steps > math.MaxInt32 || r.rec.footprint() >= maxRunRecord
	if !r.over {
		r.rec.steps = append(r.rec.steps, int32(steps))
	}
}

// recordMatch records a match of the run being recorded — the steps
// since the last and its kept slots' values — and continues at qualifier
// next, whose steps are not the run's.
func (ctx *compCtx) recordMatch(r *runRecorder, next int, out *sink) error {
	ev := ctx.ev
	if r.note(ev.steps - ctx.srcSteps - r.mark); !r.over {
		for _, s := range r.run.keep {
			r.rec.vals = append(r.rec.vals, ctx.scope.vals[s])
		}
	}
	err := ctx.run(next, out)
	r.mark = ev.steps - ctx.srcSteps
	return err
}

// replay evaluates join run rp from its record, every member's source
// evaluated: for each match it charges the steps the walk charged before
// it, writes the match's values into the kept slots, and continues at
// the qualifier after the run as many generator loops deep as the walk;
// then it charges the steps the walk charged after its last match.
func (ctx *compCtx) replay(rp *joinRun, rec *runRecord, out *sink) error {
	ev, m, vals, keep := ctx.ev, len(rp.members), ctx.scope.vals, rp.keep
	ev.genDepth += m
	defer func() { ev.genDepth -= m }()
	for k, steps := range rec.steps[:len(rec.steps)-1] {
		if err := ev.charge(int(steps)); err != nil {
			return err
		}
		for j, s := range keep {
			vals[s] = rec.vals[k*len(keep)+j]
		}
		if err := ctx.run(rp.next, out); err != nil {
			return err
		}
	}
	return ev.charge(int(rec.steps[len(rec.steps)-1]))
}
