package admit

import (
	"container/heap"

	"lattice/internal/sim"
)

// refController is the admission controller as it stood with a heap of
// *Entry behind container/heap: one allocation per queued entry, and
// an index field nothing read. It is kept as the oracle the value heap
// must match on every pop, victim, rejection and length.
type refController struct {
	cfg           Config
	users         map[string]*user
	queue         refHeap
	vtime         float64
	seq           uint64
	queuedSeconds float64
}

type refEntry struct {
	User    string
	Cost    float64
	Payload any

	start, finish float64
	seq           uint64
	index         int
}

func newRefController(cfg Config) (*refController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.UserBurst == 0 {
		cfg.UserBurst = cfg.UserRatePerHour
	}
	return &refController{cfg: cfg, users: make(map[string]*user)}, nil
}

func (c *refController) TakeQuota(userEmail string, cost float64, now sim.Time) *Rejection {
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

func (c *refController) Push(userEmail string, cost float64, payload any) *refEntry {
	u := c.userState(userEmail, sim.Time(0))
	start := max(c.vtime, u.lastFinish)
	e := &refEntry{
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

func (c *refController) Pop() *refEntry {
	if len(c.queue) == 0 {
		return nil
	}
	e := heap.Pop(&c.queue).(*refEntry)
	c.queuedSeconds -= e.Cost
	c.vtime = max(c.vtime, e.start)
	return e
}

func (c *refController) Len() int { return len(c.queue) }

func (c *refController) Overflow(busySeconds float64) (*refEntry, *Rejection) {
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
		excess = projected
	}
	return victim, &Rejection{
		Reason:     ReasonOverload,
		User:       victim.User,
		RetryAfter: maxDuration(sim.Second, sim.Duration(excess)),
	}
}

func (c *refController) evictMaxFinish() *refEntry {
	if len(c.queue) == 0 {
		return nil
	}
	worst := 0
	for i := 1; i < len(c.queue); i++ {
		e, w := c.queue[i], c.queue[worst]
		if e.finish > w.finish || (e.finish == w.finish && e.seq > w.seq) {
			worst = i
		}
	}
	e := c.queue[worst]
	heap.Remove(&c.queue, worst)
	c.queuedSeconds -= e.Cost
	return e
}

func (c *refController) userState(email string, now sim.Time) *user {
	u, ok := c.users[email]
	if !ok {
		u = &user{tokens: c.cfg.UserBurst, refilledAt: now}
		c.users[email] = u
	}
	return u
}

// refHeap orders entries by (finish, seq) ascending.
type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
