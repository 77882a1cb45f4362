package core

import "fmt"

// Step kinds: the two integration steps an integrator records.
const (
	StepIntersect = "intersect"
	StepRefine    = "refine"
)

// Step is one accepted Intersect or Refine as the integrator took it —
// the request, not its outcome. Replaying a snapshot's later steps
// through Apply, in order, rebuilds the integrator that took them: every
// step is deterministic given the state it was taken in, version
// numbers, iteration names and derived schema names included. A session
// file journals its steps this way after a checkpoint; the JSON form is
// the body of the daemon's POST /intersect or /refine. The integrator
// keeps the caller's mappings as they were passed and never modifies
// them.
type Step struct {
	Kind string `json:"step"`
	Name string `json:"name"`
	// Mappings is an intersect step's mappings table.
	Mappings []Mapping `json:"mappings,omitempty"`
	// Mapping is a refine step's single mapping.
	Mapping *Mapping `json:"mapping,omitempty"`
	Enables []string `json:"enables,omitempty"`
}

// Apply takes a recorded step again, through Intersect or Refine.
func (ig *Integrator) Apply(st Step) error {
	switch st.Kind {
	case StepIntersect:
		_, err := ig.Intersect(st.Name, st.Mappings, st.Enables...)
		return err
	case StepRefine:
		if st.Mapping == nil {
			return fmt.Errorf("core: refine step %q has no mapping", st.Name)
		}
		return ig.Refine(st.Name, *st.Mapping, st.Enables...)
	}
	return fmt.Errorf("core: step %q has unknown kind %q", st.Name, st.Kind)
}

// StepsSince returns the steps taken after the first n (a Snapshot's
// Steps, or what an earlier call had returned up to), and whether they
// are everything the integrator changed by since then. It is false when
// anything else changed it — Federate, Backfill, BuildGlobal,
// SetAutoDrop, or a step that failed half-way — which only a new
// snapshot holds.
func (ig *Integrator) StepsSince(n int) ([]Step, bool) {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	if n < ig.barrier || n > len(ig.steps) {
		return nil, false
	}
	return ig.steps[n:len(ig.steps):len(ig.steps)], true
}

// record appends an accepted step. The caller holds the write lock.
func (ig *Integrator) record(st Step) { ig.steps = append(ig.steps, st) }

// unjournaled marks a change no step records. It takes a place in the
// list as a step does, so a snapshot taken after it is told apart from
// one taken before, and StepsSince answers false for every n before it.
// The caller holds the write lock.
func (ig *Integrator) unjournaled() {
	ig.steps = append(ig.steps, Step{})
	ig.barrier = len(ig.steps)
}
