// Package admit is the coordinator's overload-protection layer: the
// deterministic admission controller in front of the gsbl ingest door.
//
// The paper's architecture funnels every submission through one serial
// coordinator front door. The ingest model (internal/gsbl) prices that
// door honestly; this package decides who gets through it when demand
// exceeds capacity. Three mechanisms compose:
//
//   - Per-user token buckets meter replicates per virtual hour, so a
//     single user replaying the paper's 2000-replicate submission in a
//     loop exhausts their own budget, not the coordinator.
//   - A weighted fair-share queue (start-time fair queuing) replaces
//     FIFO ordering behind the door, so a heavy submission waits on
//     its owner's share rather than head-of-line-blocking thousands of
//     small ones.
//   - Bounded queues with deadline-aware shedding: when the queue
//     depth or the projected front-door wait exceeds its budget, the
//     lowest-share entry (largest virtual finish tag) is rejected with
//     a computed retry-after instead of degrading everyone.
//
// Everything runs on the simulation's virtual clock and uses no
// randomness, so same-seed runs shed the same submissions at the same
// instants and stay digest-equal. The zero Config disables the layer
// entirely.
package admit

import (
	"container/heap"
	"fmt"

	"lattice/internal/sim"
)

// Reasons a submission can be rejected by the controller.
const (
	// ReasonQuota marks a per-user token-bucket refusal: the user has
	// spent their replicate budget and must wait for refill.
	ReasonQuota = "quota"
	// ReasonOverload marks a load shed: the queue behind the front
	// door exceeded its depth or wait budget and this entry held the
	// lowest share.
	ReasonOverload = "overload"
)

// Config tunes the admission controller. The zero value disables it.
type Config struct {
	// UserRatePerHour is the per-user token-bucket refill rate in
	// replicates per virtual hour. 0 disables quotas.
	UserRatePerHour float64
	// UserBurst is the bucket capacity in replicates. Buckets start
	// full. Defaults to UserRatePerHour when unset. A submission
	// costing more than the burst is charged the full burst (it can
	// still be admitted, but only against a full bucket), so the
	// paper-scale 2000-replicate submission stays possible at low
	// frequency rather than becoming permanently inadmissible.
	UserBurst float64
	// MaxQueueDepth bounds how many admitted submissions may wait
	// behind the front door (the entry in service is not counted).
	// 0 leaves the depth unbounded.
	MaxQueueDepth int
	// MaxQueuedSeconds bounds the projected front-door wait: the
	// remaining service time of the entry at the door plus the summed
	// cost of everything queued, in virtual seconds. When an arrival
	// pushes the projection past this budget the lowest-share entry is
	// shed. 0 leaves the wait unbounded.
	MaxQueuedSeconds float64
}

// Enabled reports whether any protection mechanism is configured.
func (c Config) Enabled() bool {
	return c.UserRatePerHour > 0 || c.MaxQueueDepth > 0 || c.MaxQueuedSeconds > 0
}

// Validate rejects configurations that could never admit anything.
func (c Config) Validate() error {
	if c.UserRatePerHour < 0 || c.UserBurst < 0 || c.MaxQueueDepth < 0 || c.MaxQueuedSeconds < 0 {
		return fmt.Errorf("admit: negative config value: %+v", c)
	}
	return nil
}

// DefaultConfig is the overload-protection bundle the lattice CLI
// enables with -admit: a generous per-user budget (about one
// 600-replicate burst, refilling at 1200 replicates per virtual hour)
// and a front door bounded to ten minutes of projected wait.
func DefaultConfig() Config {
	return Config{
		UserRatePerHour:  1200,
		UserBurst:        600,
		MaxQueueDepth:    1024,
		MaxQueuedSeconds: 600,
	}
}

// Rejection is the typed error returned to a submission that was
// refused admission. RetryAfter is the controller's deterministic
// estimate of when a retry could succeed; the portal surfaces it as an
// HTTP Retry-After header on a 429 response.
type Rejection struct {
	// Reason is ReasonQuota or ReasonOverload.
	Reason string
	// User is the submitting user's email.
	User string
	// RetryAfter is the computed backoff hint, never below one second.
	RetryAfter sim.Duration
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("admit: submission from %s rejected (%s); retry after %.0fs",
		r.User, r.Reason, r.RetryAfter.Seconds())
}

// Entry is one admitted-but-not-yet-served submission in the
// fair-share queue. Payload carries the caller's context through the
// queue untouched.
type Entry struct {
	User    string
	Cost    float64 // service seconds at the front door
	Payload any

	start  float64 // virtual start tag
	finish float64 // virtual finish tag
	seq    uint64  // arrival order, the deterministic tie-break
	index  int     // heap position, -1 once popped or shed
}

// user tracks one principal's token bucket and fair-share tag.
type user struct {
	tokens     float64  // replicates available
	refilledAt sim.Time // last refill instant
	lastFinish float64  // virtual finish tag of their latest entry
}

// Controller is the admission state machine. It is not goroutine-safe:
// like the rest of the coordinator it runs inside single-threaded
// engine callbacks. It draws no randomness — admission order is a pure
// function of the arrival sequence and the virtual clock.
type Controller struct {
	cfg   Config
	users map[string]*user
	queue entryHeap
	vtime float64 // fair-share virtual time (served start tags)
	seq   uint64
	// queuedSeconds is the summed Cost of everything in queue,
	// maintained incrementally so Overflow is O(1) to consult.
	queuedSeconds float64
}

// NewController builds a controller for an enabled config. Callers
// should gate on cfg.Enabled() first; a disabled config yields a
// controller that admits everything unmetered.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.UserBurst == 0 {
		cfg.UserBurst = cfg.UserRatePerHour
	}
	return &Controller{cfg: cfg, users: make(map[string]*user)}, nil
}

// TakeQuota charges cost replicates against the user's token bucket at
// the given virtual instant. It returns nil when the charge fits and a
// *Rejection with the refill-based retry hint when it does not.
// Charges are capped at the bucket capacity, so oversized submissions
// require (and drain) a full bucket rather than being unserviceable.
func (c *Controller) TakeQuota(userEmail string, cost float64, now sim.Time) *Rejection {
	if c.cfg.UserRatePerHour <= 0 {
		return nil
	}
	u := c.userState(userEmail, now)
	ratePerSecond := c.cfg.UserRatePerHour / 3600
	elapsed := now.Sub(u.refilledAt).Seconds()
	if elapsed > 0 {
		u.tokens = min(c.cfg.UserBurst, u.tokens+ratePerSecond*elapsed)
	}
	u.refilledAt = now
	charge := min(cost, c.cfg.UserBurst)
	if u.tokens >= charge {
		u.tokens -= charge
		return nil
	}
	wait := (charge - u.tokens) / ratePerSecond
	return &Rejection{
		Reason:     ReasonQuota,
		User:       userEmail,
		RetryAfter: maxDuration(sim.Second, sim.Duration(wait)),
	}
}

// Push admits an entry into the fair-share queue. Tags follow
// start-time fair queuing with unit weights: the entry starts at the
// later of the global virtual time and its user's previous finish, and
// finishes its cost later. Serving in finish-tag order interleaves
// users regardless of how many entries any one of them has queued.
func (c *Controller) Push(userEmail string, cost float64, payload any) *Entry {
	u := c.userState(userEmail, sim.Time(0))
	start := max(c.vtime, u.lastFinish)
	e := &Entry{
		User:    userEmail,
		Cost:    cost,
		Payload: payload,
		start:   start,
		finish:  start + cost,
		seq:     c.seq,
	}
	c.seq++
	u.lastFinish = e.finish
	heap.Push(&c.queue, e)
	c.queuedSeconds += cost
	return e
}

// Pop removes and returns the entry with the smallest virtual finish
// tag (arrival order breaks ties), or nil when the queue is empty.
func (c *Controller) Pop() *Entry {
	if len(c.queue) == 0 {
		return nil
	}
	e := heap.Pop(&c.queue).(*Entry)
	c.queuedSeconds -= e.Cost
	c.vtime = max(c.vtime, e.start)
	return e
}

// Len reports how many entries are queued (excluding any in service).
func (c *Controller) Len() int { return len(c.queue) }

// Overflow checks the queue against its bounds given the remaining
// service seconds of the entry currently at the door. While either
// bound is exceeded it evicts and returns the lowest-share entry — the
// one with the largest virtual finish tag, i.e. the submission whose
// owner has consumed the most recent service — together with a
// *Rejection carrying the shed reason and retry hint. It returns
// (nil, nil) once the queue fits. Callers loop until nil.
func (c *Controller) Overflow(busySeconds float64) (*Entry, *Rejection) {
	over := false
	if c.cfg.MaxQueueDepth > 0 && len(c.queue) > c.cfg.MaxQueueDepth {
		over = true
	}
	projected := busySeconds + c.queuedSeconds
	if c.cfg.MaxQueuedSeconds > 0 && projected > c.cfg.MaxQueuedSeconds {
		over = true
	}
	if !over {
		return nil, nil
	}
	victim := c.evictMaxFinish()
	if victim == nil {
		return nil, nil
	}
	excess := projected - c.cfg.MaxQueuedSeconds
	if c.cfg.MaxQueuedSeconds <= 0 {
		// Only the depth bound is configured: advise waiting for the
		// whole projected backlog to drain.
		excess = projected
	}
	return victim, &Rejection{
		Reason:     ReasonOverload,
		User:       victim.User,
		RetryAfter: maxDuration(sim.Second, sim.Duration(excess)),
	}
}

// evictMaxFinish removes the entry with the largest (finish, seq) from
// the queue. Linear scan: the queue is bounded by construction.
func (c *Controller) evictMaxFinish() *Entry {
	if len(c.queue) == 0 {
		return nil
	}
	worst := 0
	for i := 1; i < len(c.queue); i++ {
		e, w := c.queue[i], c.queue[worst]
		if e.finish > w.finish || (e.finish == w.finish && e.seq > w.seq) { //lint:allow floatcmp -- exact tie-break between tags built from identical arithmetic
			worst = i
		}
	}
	e := c.queue[worst]
	heap.Remove(&c.queue, worst)
	c.queuedSeconds -= e.Cost
	return e
}

func (c *Controller) userState(email string, now sim.Time) *user {
	u, ok := c.users[email]
	if !ok {
		u = &user{tokens: c.cfg.UserBurst, refilledAt: now}
		c.users[email] = u
	}
	return u
}

// entryHeap orders entries by (finish, seq) ascending.
type entryHeap []*Entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish { //lint:allow floatcmp -- exact tie-break between tags built from identical arithmetic
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *entryHeap) Push(x any) {
	e := x.(*Entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func maxDuration(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}
