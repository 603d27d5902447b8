package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Snapshot is the monitoring view of a membership table, exposed through
// the job service's /metrics endpoint (see Registry.Metrics).
type Snapshot struct {
	// States counts current members by state name.
	States map[string]int
	// Joins, Leaves, Deaths, LeasesRevoked mirror engine.Stats, cumulatively.
	Joins, Leaves, Deaths, LeasesRevoked int64
}

// MemberState is the lifecycle state of a cluster member. Transitions:
//
//	admit → Active
//	Active → Suspect      one heartbeat interval of silence
//	Suspect → Active      a heartbeat arrives
//	Active|Suspect → Dead HeartbeatMiss silent intervals, or conn failure
//	Active|Suspect → Left graceful leave message
//
// Dead and Left are terminal: a worker that comes back joins as a new
// member with a new incarnation, so results signed with its old identity
// stay refusable.
type MemberState uint8

const (
	// StateActive members heartbeat on schedule and hold leases.
	StateActive MemberState = iota + 1
	// StateSuspect members missed at least one heartbeat interval but
	// fewer than HeartbeatMiss; they keep their leases.
	StateSuspect
	// StateDead members missed HeartbeatMiss intervals or lost their
	// connection; their leases are revoked.
	StateDead
	// StateLeft members departed gracefully; their leases are revoked.
	StateLeft
)

var stateNames = [...]string{StateActive: "active", StateSuspect: "suspect", StateDead: "dead", StateLeft: "left"}

func (s MemberState) String() string {
	if int(s) < len(stateNames) && stateNames[s] != "" {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Member is one admitted worker. The ID doubles as the incarnation: it
// is never reused within a master's lifetime, so a lease names exactly
// one admission of one worker process.
type Member struct {
	ID        int
	Name      string
	Addr      string
	State     MemberState
	Joined    time.Time
	LastBeat  time.Time
	Completed int64 // vertices this member computed
}

// Registry is the membership table of a Driver's members
// (DriverConfig.Registry): the driver sweeps it for heartbeats at every
// tick and revokes the leases of the members it declares dead or gone.
type Registry struct {
	mu      sync.Mutex
	next    int
	members map[int]*Member
	tr      *trace.Recorder
	clock   sched.Clock

	joins, leaves, deaths     int64
	leasesRevoked, reassigned int64

	// admitted is closed and replaced on every admission — the only
	// transition that can raise Live — to wake WaitLive's waiters.
	admitted chan struct{}
}

// NewRegistry creates an empty registry; membership transitions are
// mirrored into tr (nil records nothing) and heartbeat stamps read from
// clock (nil means the wall clock), so the deadline tests can drive the
// table deterministically.
func NewRegistry(tr *trace.Recorder, clock sched.Clock) *Registry {
	if clock == nil {
		clock = sched.Wall
	}
	return &Registry{members: make(map[int]*Member), tr: tr, clock: clock, admitted: make(chan struct{})}
}

// Admit registers a new member and returns its identity.
func (r *Registry) Admit(name, addr string) Member {
	r.mu.Lock()
	r.next++
	now := r.clock.Now()
	if name == "" {
		name = fmt.Sprintf("worker-%d", r.next)
	}
	m := &Member{ID: r.next, Name: name, Addr: addr, State: StateActive, Joined: now, LastBeat: now}
	r.members[m.ID] = m
	r.joins++
	close(r.admitted)
	r.admitted = make(chan struct{})
	cp := *m
	r.mu.Unlock()
	r.tr.Member(cp.ID, "active")
	return cp
}

// Beat records a heartbeat (or any traffic) from member id; a suspect
// member recovers to active.
func (r *Registry) Beat(id int) {
	r.mu.Lock()
	m := r.members[id]
	recovered := false
	if m != nil && (m.State == StateActive || m.State == StateSuspect) {
		m.LastBeat = r.clock.Now()
		recovered = m.State == StateSuspect
		m.State = StateActive
	}
	r.mu.Unlock()
	if recovered {
		r.tr.Member(id, "active")
	}
}

// Sweep applies the heartbeat deadlines at time now: members silent for
// more than one interval become suspect; members silent for more than
// miss intervals are declared dead. In-process members (Driver.JoinLocal)
// are never swept. It returns the ids that died in this
// sweep (the caller revokes their leases).
func (r *Registry) Sweep(now time.Time, interval time.Duration, miss int) []int {
	var died, suspected []int
	r.mu.Lock()
	for id, m := range r.members {
		if m.State != StateActive && m.State != StateSuspect || m.Addr == inProcess {
			continue
		}
		silent := now.Sub(m.LastBeat)
		switch {
		case silent > time.Duration(miss)*interval:
			m.State = StateDead
			r.deaths++
			died = append(died, id)
		case silent > interval && m.State == StateActive:
			m.State = StateSuspect
			suspected = append(suspected, id)
		}
	}
	r.mu.Unlock()
	// The scan above walks the member map, so the transition lists come
	// out in map order; sort them so the trace stream and the caller's
	// revocation order are deterministic functions of membership history
	// (the simulator's byte-identical-trace contract depends on it).
	sort.Ints(suspected)
	sort.Ints(died)
	for _, id := range suspected {
		r.tr.Member(id, "suspect")
	}
	for _, id := range died {
		r.tr.Member(id, "dead")
	}
	return died
}

// MarkDead forces member id dead (connection failure detected before any
// heartbeat deadline). It reports whether the member was alive.
func (r *Registry) MarkDead(id int) bool { return r.end(id, StateDead) }

// MarkLeft records a graceful departure. It reports whether the member
// was alive.
func (r *Registry) MarkLeft(id int) bool { return r.end(id, StateLeft) }

// end moves a live member to the terminal state and reports whether it was
// alive.
func (r *Registry) end(id int, state MemberState) bool {
	r.mu.Lock()
	m := r.members[id]
	alive := m != nil && (m.State == StateActive || m.State == StateSuspect)
	if alive {
		m.State = state
		if state == StateDead {
			r.deaths++
		} else {
			r.leaves++
		}
	}
	r.mu.Unlock()
	if alive {
		r.tr.Member(id, state.String())
	}
	return alive
}

// NoteCompleted credits one completed vertex to member id.
func (r *Registry) NoteCompleted(id int) {
	r.mu.Lock()
	if m := r.members[id]; m != nil {
		m.Completed++
	}
	r.mu.Unlock()
}

// NoteRevoked accumulates lease-revocation accounting, driven by the
// revocation path of the driver the registry serves.
func (r *Registry) NoteRevoked(leases, reassigned int) {
	r.mu.Lock()
	r.leasesRevoked += int64(leases)
	r.reassigned += int64(reassigned)
	r.mu.Unlock()
}

// Live returns how many members can currently take work.
func (r *Registry) Live() int {
	live, _ := r.liveAndAdmitted()
	return live
}

// liveAndAdmitted returns the live count together with the channel the
// next admission closes, read under one lock so a waiter cannot miss an
// admission between the count and the wait.
func (r *Registry) liveAndAdmitted() (int, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.members {
		if m.State == StateActive || m.State == StateSuspect {
			n++
		}
	}
	return n, r.admitted
}

// WaitLive blocks until n members are live at once — the quorum a
// launcher waits for before it submits work — or ctx ends, in which case
// the error says how many had joined. A member that joined and died does
// not count. It wakes on admissions, never by polling.
func (r *Registry) WaitLive(ctx context.Context, n int) error {
	for {
		live, admitted := r.liveAndAdmitted()
		if live >= n {
			return nil
		}
		select {
		case <-admitted:
		case <-ctx.Done():
			return fmt.Errorf("core: %d of %d workers joined: %w", live, n, ctx.Err())
		}
	}
}

// Members returns a copy of every member ever admitted, sorted by id.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, *m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Metrics returns the monitoring snapshot for /metrics exposition.
func (r *Registry) Metrics() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		States:        make(map[string]int),
		Joins:         r.joins,
		Leaves:        r.leaves,
		Deaths:        r.deaths,
		LeasesRevoked: r.leasesRevoked,
	}
	for _, m := range r.members {
		s.States[m.State.String()]++
	}
	return s
}

// MembershipCounts returns the cumulative membership tallies for Stats.
func (r *Registry) MembershipCounts() (joins, leaves, deaths, revoked, reassigned int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.joins, r.leaves, r.deaths, r.leasesRevoked, r.reassigned
}
