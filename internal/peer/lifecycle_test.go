package peer

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

const testTimeout = time.Second

var t0 = time.Unix(1000, 0)

// lifecycleCase is one input of step: a member, an event, how long after t0
// it arrives, and whether the suspicion detector is on.
type lifecycleCase struct {
	m     member
	ev    event
	after time.Duration
	on    bool
}

func (c lifecycleCase) is(k eventKind) bool { return c.ev.kind == k }

// lifecycleSpec is the peer lifecycle as a table: for each input the first
// row whose when matches gives the next state (as changes to the input,
// applied at the event's time) and the exact effect list.
var lifecycleSpec = []struct {
	name string
	when func(c lifecycleCase) bool
	next func(m *member, now time.Time)
	effs []effect
}{
	{"heard, detector off", func(c lifecycleCase) bool { return c.is(evHeard) && !c.on }, nil, nil},
	{"heard from down, unpiped: heal with re-pipe",
		func(c lifecycleCase) bool { return c.is(evHeard) && c.m.live == down && !c.m.piped },
		func(m *member, now time.Time) { m.live, m.lastHeard = alive, now },
		[]effect{{kind: redial}, {kind: catchUp}}},
	{"heard from down, piped: heal",
		func(c lifecycleCase) bool { return c.is(evHeard) && c.m.live == down },
		func(m *member, now time.Time) { m.live, m.lastHeard = alive, now },
		[]effect{{kind: catchUp}}},
	{"heard: alive, no heal",
		func(c lifecycleCase) bool { return c.is(evHeard) },
		func(m *member, now time.Time) { m.live, m.lastHeard = alive, now }, nil},
	{"pipe opened, untracked: track",
		func(c lifecycleCase) bool { return c.is(evPipeOpened) && c.on && c.m.live == untracked },
		func(m *member, now time.Time) { m.piped, m.live, m.lastHeard = true, alive, now }, nil},
	{"pipe opened",
		func(c lifecycleCase) bool { return c.is(evPipeOpened) },
		func(m *member, _ time.Time) { m.piped = true }, nil},
	{"pipe down superseded by a live pipe",
		func(c lifecycleCase) bool { return c.is(evPipeDown) && c.ev.pipeLive }, nil, nil},
	{"pipe down, detector on: forced down",
		func(c lifecycleCase) bool { return c.is(evPipeDown) && c.on && c.m.live != down },
		func(m *member, now time.Time) { m.piped, m.live, m.lastDial = false, down, now },
		[]effect{{kind: writeOffPeer}}},
	{"pipe down",
		func(c lifecycleCase) bool { return c.is(evPipeDown) },
		func(m *member, _ time.Time) { m.piped = false },
		[]effect{{kind: writeOffPeer}}},
	{"session message lost",
		func(c lifecycleCase) bool { return c.is(evSendFailed) && c.ev.sid != "" },
		func(m *member, _ time.Time) { m.piped = false },
		[]effect{{kind: writeOffMsg, sid: "s1"}}},
	{"other send failed",
		func(c lifecycleCase) bool { return c.is(evSendFailed) },
		func(m *member, _ time.Time) { m.piped = false }, nil},
	{"tick, untracked or detector off",
		func(c lifecycleCase) bool { return c.is(evTick) && (!c.on || c.m.live == untracked) }, nil, nil},
	{"tick, down, redial not yet due",
		func(c lifecycleCase) bool { return c.is(evTick) && c.m.live == down && c.after < testTimeout }, nil, nil},
	{"tick, down and tombstoned: never redialled, stop tracking",
		func(c lifecycleCase) bool { return c.is(evTick) && c.m.live == down && c.m.tombstoned },
		func(m *member, _ time.Time) { *m = untrack(*m) }, nil},
	{"tick, down: redial",
		func(c lifecycleCase) bool { return c.is(evTick) && c.m.live == down },
		func(m *member, now time.Time) { m.lastDial = now },
		[]effect{{kind: redial}}},
	{"tick, exempt: never judged",
		func(c lifecycleCase) bool { return c.is(evTick) && c.ev.exempt },
		func(m *member, now time.Time) { m.lastHeard = now }, nil},
	{"tick, alive and silent one timeout: suspect",
		func(c lifecycleCase) bool { return c.is(evTick) && c.m.live == alive && c.after >= testTimeout },
		func(m *member, _ time.Time) { m.live = suspect }, nil},
	{"tick, suspect and silent two timeouts: down, no tombstone, no reset",
		func(c lifecycleCase) bool {
			return c.is(evTick) && c.m.live == suspect && c.after >= 2*testTimeout
		},
		func(m *member, now time.Time) { m.piped, m.live, m.lastDial = false, down, now },
		[]effect{{kind: disconnect}, {kind: writeOffPeer}}},
	{"tick, not silent long enough", func(c lifecycleCase) bool { return c.is(evTick) }, nil, nil},
	{"tombstone",
		func(c lifecycleCase) bool { return c.is(evTombstone) },
		func(m *member, _ time.Time) { m.tombstoned, m.piped = true, false; *m = untrack(*m) },
		[]effect{{kind: disconnect}, {kind: writeOffPeer}, {kind: resetExports}}},
	{"moved while piped: no write-off",
		func(c lifecycleCase) bool { return c.is(evMoved) && c.m.piped },
		func(m *member, _ time.Time) { m.piped = false },
		[]effect{{kind: disconnect}}},
	{"moved, no pipe", func(c lifecycleCase) bool { return c.is(evMoved) }, nil, nil},
	{"dropped by reconfiguration: deficits written off, no reset",
		func(c lifecycleCase) bool { return c.is(evDropped) },
		func(m *member, _ time.Time) { m.piped = false; *m = untrack(*m) },
		[]effect{{kind: disconnect}, {kind: writeOffPeer}}},
}

// lifecycleEvents is every event variant, with the clock advances that
// matter to it.
var lifecycleEvents = []struct {
	ev    event
	after []time.Duration
}{
	{event{kind: evHeard}, nil},
	{event{kind: evPipeOpened}, nil},
	{event{kind: evPipeDown, pipeLive: true}, nil},
	{event{kind: evPipeDown}, nil},
	{event{kind: evSendFailed}, nil},
	{event{kind: evSendFailed, sid: "s1"}, nil},
	{event{kind: evTick}, []time.Duration{testTimeout / 2, testTimeout, 2 * testTimeout}},
	{event{kind: evTick, exempt: true}, []time.Duration{testTimeout / 2, 2 * testTimeout}},
	{event{kind: evTombstone}, nil},
	{event{kind: evMoved}, nil},
	{event{kind: evDropped}, nil},
}

// TestLifecycleStepTable runs step over every (liveness × tombstoned ×
// piped) state under every event, with the detector on and off, and checks
// the next state and the exact effect list against lifecycleSpec.
func TestLifecycleStepTable(t *testing.T) {
	for _, on := range []bool{true, false} {
		timeout := time.Duration(0)
		lives := []liveness{untracked}
		if on {
			timeout = testTimeout
			lives = []liveness{untracked, alive, suspect, down}
		}
		for _, live := range lives {
			for _, tombstoned := range []bool{false, true} {
				for _, piped := range []bool{false, true} {
					m := member{listed: true, addr: "127.0.0.1:9", epoch: 2, tombstoned: tombstoned, piped: piped, live: live}
					if live != untracked {
						m.lastHeard, m.lastDial = t0, t0
					}
					for _, le := range lifecycleEvents {
						for _, after := range append([]time.Duration{0}, le.after...) {
							c := lifecycleCase{m: m, ev: le.ev, after: after, on: on}
							name := fmt.Sprintf("on=%v/%v/tombstoned=%v/piped=%v/%v+%v", on, live, tombstoned, piped, le.ev.kind, after)
							if le.ev.pipeLive || le.ev.exempt || le.ev.sid != "" {
								name += fmt.Sprintf("/%+v", le.ev)
							}
							checkStep(t, name, c, timeout)
						}
					}
				}
			}
		}
	}
}

func checkStep(t *testing.T, name string, c lifecycleCase, timeout time.Duration) {
	t.Helper()
	now := t0.Add(c.after)
	for _, row := range lifecycleSpec {
		if !row.when(c) {
			continue
		}
		want := c.m
		if row.next != nil {
			row.next(&want, now)
		}
		got, effs := step(c.m, c.ev, now, timeout)
		if got != want {
			t.Errorf("%s (%s): next state\n got  %+v\n want %+v", name, row.name, got, want)
		}
		if !slices.Equal(effs, row.effs) {
			t.Errorf("%s (%s): effects %v, want %v", name, row.name, effs, row.effs)
		}
		return
	}
	t.Errorf("%s: no spec row covers it", name)
}

// driver runs a member through step against a fake clock, counting
// liveness transitions as the executor does.
type driver struct {
	t     *testing.T
	p     Peer
	m     member
	clock time.Time
}

func newDriver(t *testing.T) *driver { return &driver{t: t, clock: t0} }

func (d *driver) advance(dur time.Duration) { d.clock = d.clock.Add(dur) }

func (d *driver) feed(ev event) []effect {
	next, effs := step(d.m, ev, d.clock, testTimeout)
	d.p.countTransition(d.m.live, next.live)
	d.m = next
	return effs
}

// expect feeds ev and checks the resulting liveness and effects.
func (d *driver) expect(ev event, live liveness, effs ...effect) {
	d.t.Helper()
	if got := d.feed(ev); !slices.Equal(got, effs) {
		d.t.Fatalf("%v at %v: effects %v, want %v", ev.kind, d.clock.Sub(t0), got, effs)
	}
	if d.m.live != live {
		d.t.Fatalf("%v at %v: %v, want %v", ev.kind, d.clock.Sub(t0), d.m.live, live)
	}
}

func (d *driver) counters(suspects, downs, heals uint64) {
	d.t.Helper()
	if d.p.suspects != suspects || d.p.downs != downs || d.p.heals != heals {
		d.t.Errorf("counters = %d suspects, %d downs, %d heals; want %d, %d, %d",
			d.p.suspects, d.p.downs, d.p.heals, suspects, downs, heals)
	}
}

var tick0 = event{kind: evTick}

// The full lifecycle, including a flap: alive → suspect → alive (traffic
// resumed, no heal owed) → suspect → down → paced redials → heal.
// Counters record every transition.
func TestSuspicionLifecycleAndFlap(t *testing.T) {
	d := newDriver(t)
	d.expect(event{kind: evPipeOpened}, alive)
	d.expect(tick0, alive) // fresh peer
	d.advance(testTimeout)
	d.expect(tick0, suspect) // one timeout of silence
	d.expect(tick0, suspect) // the transition fires once
	d.counters(1, 0, 0)

	// Flap: traffic resumes while suspect. Not a heal — nothing was torn
	// down yet, so nothing is owed.
	d.expect(event{kind: evHeard}, alive)
	d.advance(testTimeout - time.Millisecond)
	d.expect(tick0, alive) // silence below the timeout again
	d.advance(time.Millisecond)
	d.expect(tick0, suspect) // suspect a second time
	d.advance(testTimeout)
	d.expect(tick0, down, effect{kind: disconnect}, effect{kind: writeOffPeer})

	// Redial pacing: down stamps lastDial, so the first redial waits one
	// full timeout, and each attempt re-arms the pacing.
	d.expect(tick0, down)
	d.advance(testTimeout - time.Millisecond)
	d.expect(tick0, down)
	d.advance(time.Millisecond)
	d.expect(tick0, down, effect{kind: redial})
	d.expect(tick0, down)
	d.advance(testTimeout)
	d.expect(tick0, down, effect{kind: redial})

	// A successful redial opens the pipe and counts as heard: a heal.
	d.expect(event{kind: evPipeOpened}, down)
	d.expect(event{kind: evHeard}, alive, effect{kind: catchUp})
	d.counters(2, 1, 1)
}

// A transport pipe-down report forces straight to down, idempotently, and
// traffic from a forced-down peer is a heal that re-pipes.
func TestSuspicionNoteDown(t *testing.T) {
	d := newDriver(t)
	d.expect(event{kind: evPipeOpened}, alive)
	d.expect(event{kind: evPipeDown}, down, effect{kind: writeOffPeer})
	d.advance(time.Millisecond)
	d.expect(event{kind: evPipeDown}, down, effect{kind: writeOffPeer})
	if d.m.lastDial != t0 {
		t.Errorf("second pipe-down re-stamped lastDial: %v", d.m.lastDial)
	}
	d.counters(0, 1, 0)
	d.expect(event{kind: evHeard}, alive, effect{kind: redial}, effect{kind: catchUp})
	d.counters(0, 1, 1)
}

// Exempt members (heartbeat-less transports) are never judged by silence:
// each tick resets their timer instead.
func TestSuspicionExemptPeersNeverSuspected(t *testing.T) {
	exempt, judged := newDriver(t), newDriver(t)
	exempt.expect(event{kind: evPipeOpened}, alive)
	judged.expect(event{kind: evPipeOpened}, alive)
	for i := 0; i < 5; i++ {
		exempt.advance(testTimeout)
		judged.advance(testTimeout)
		exempt.expect(event{kind: evTick, exempt: true}, alive)
		judged.feed(tick0)
	}
	if judged.m.live != down {
		t.Errorf("silent judged member is %v, want down", judged.m.live)
	}
	exempt.counters(0, 0, 0)
}

// A tombstoned member stops being tracked, and one tombstoned while down
// is never redialled.
func TestSuspicionForget(t *testing.T) {
	d := newDriver(t)
	d.expect(event{kind: evPipeOpened}, alive)
	d.expect(event{kind: evTombstone}, untracked,
		effect{kind: disconnect}, effect{kind: writeOffPeer}, effect{kind: resetExports})
	d.advance(10 * testTimeout)
	d.expect(tick0, untracked)

	// A stale pipe-down report after the tombstone tracks it again, as down.
	d = newDriver(t)
	d.expect(event{kind: evTombstone}, untracked,
		effect{kind: disconnect}, effect{kind: writeOffPeer}, effect{kind: resetExports})
	d.expect(event{kind: evPipeDown}, down, effect{kind: writeOffPeer})
	d.advance(testTimeout)
	d.expect(tick0, untracked)
	d.advance(testTimeout)
	d.expect(tick0, untracked)
}
