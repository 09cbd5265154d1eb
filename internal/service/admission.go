package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
)

// AdmissionConfig bounds what the daemon accepts at once. The zero
// value admits everything (no caps), matching the pre-admission
// behavior; ebad's defaults turn the caps on.
type AdmissionConfig struct {
	// MaxInflight caps concurrently executing queries across all keys.
	// 0 = unbounded.
	MaxInflight int
	// PerKey caps concurrently admitted *expensive* queries (system
	// not memory-resident: disk decode or cold enumeration) per store
	// key, on top of the global cap. Cheap cached lookups skip this
	// gate. 0 = unbounded.
	PerKey int
	// MaxQueue bounds how many requests may wait for a slot; arrivals
	// beyond it shed immediately with 429. 0 picks 4×MaxInflight.
	MaxQueue int
	// QueueTimeout bounds how long a request waits for a slot before
	// shedding with 429; the wait is also clamped to the request's own
	// deadline (deadline-aware: a query that would time out in the
	// queue is shed instead of admitted late). 0 picks 1s.
	QueueTimeout time.Duration
	// RetryAfter is the backoff hint returned with 429/503 sheds.
	// 0 picks 1s.
	RetryAfter time.Duration
}

// ShedError is a load-shed verdict: the request was refused without
// being executed, and retrying after RetryAfter may succeed. The HTTP
// layer maps it to 429 with a Retry-After header.
type ShedError struct {
	Reason     string // queue_full | queue_timeout | per_key | deadline
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// keySlot is one key's expensive-compute semaphore, refcounted so the
// map stays bounded by the number of keys actually contended.
type keySlot struct {
	ch   chan struct{}
	refs int
}

// admission is the two-level semaphore guarding the query engine: a
// global in-flight cap with a bounded, deadline-aware wait queue, and
// per-key caps on expensive (non-resident) computes. Channel
// semaphores carry the wakeups, so releases can't be lost: a freed
// slot is observed by exactly one waiter or the next arrival.
type admission struct {
	cfg   AdmissionConfig
	slots chan struct{} // nil = unbounded

	queued    atomic.Int64
	maxQueued atomic.Int64 // high-water mark, for tests and /healthz
	lastShed  atomic.Int64 // unix nanos of the most recent shed

	mu     sync.Mutex
	perKey map[store.Key]*keySlot
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxQueue <= 0 && cfg.MaxInflight > 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	a := &admission{cfg: cfg, perKey: make(map[store.Key]*keySlot)}
	if cfg.MaxInflight > 0 {
		a.slots = make(chan struct{}, cfg.MaxInflight)
	}
	return a
}

func (a *admission) shed(reason string) error {
	a.lastShed.Store(time.Now().UnixNano())
	return &ShedError{Reason: reason, RetryAfter: a.cfg.RetryAfter}
}

// waitBudget clamps the queue timeout to the request's own deadline.
func (a *admission) waitBudget(ctx context.Context) time.Duration {
	wait := a.cfg.QueueTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < wait {
			wait = rem
		}
	}
	return wait
}

// Acquire admits one query or sheds it. On success the returned
// release function MUST be called exactly once.
func (a *admission) Acquire(ctx context.Context, key store.Key, expensive bool) (func(), error) {
	if a.slots != nil {
		select {
		case a.slots <- struct{}{}: // free slot, no queueing
		default:
			if err := a.enqueue(ctx); err != nil {
				return nil, err
			}
		}
	}
	release := func() {
		if a.slots != nil {
			<-a.slots
		}
	}
	if expensive && a.cfg.PerKey > 0 {
		ks := a.acquireKeyRef(key)
		wait := a.waitBudget(ctx)
		if wait <= 0 {
			a.releaseKeyRef(key)
			release()
			return nil, a.shed("deadline")
		}
		timer := time.NewTimer(wait)
		select {
		case ks.ch <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			a.releaseKeyRef(key)
			release()
			return nil, a.shed("per_key")
		case <-ctx.Done():
			timer.Stop()
			a.releaseKeyRef(key)
			release()
			return nil, a.shed("deadline")
		}
		inner := release
		release = func() {
			<-ks.ch
			a.releaseKeyRef(key)
			inner()
		}
	}
	return release, nil
}

// enqueue waits for a global slot within the bounded queue.
func (a *admission) enqueue(ctx context.Context) error {
	q := a.queued.Add(1)
	dequeue := func() { a.queued.Add(-1) }
	if a.cfg.MaxQueue > 0 && q > int64(a.cfg.MaxQueue) {
		dequeue()
		return a.shed("queue_full")
	}
	// Past the bound check this request is a bona fide waiter; its
	// counter snapshot is <= MaxQueue, so the waiter high-water mark
	// can never exceed the bound (shedding arrivals inflate the
	// counter transiently, but they never wait).
	for {
		hw := a.maxQueued.Load()
		if q <= hw || a.maxQueued.CompareAndSwap(hw, q) {
			break
		}
	}
	wait := a.waitBudget(ctx)
	if wait <= 0 {
		dequeue()
		return a.shed("deadline")
	}
	timer := time.NewTimer(wait)
	select {
	case a.slots <- struct{}{}:
		timer.Stop()
		dequeue()
		return nil
	case <-timer.C:
		dequeue()
		return a.shed("queue_timeout")
	case <-ctx.Done():
		timer.Stop()
		dequeue()
		return a.shed("deadline")
	}
}

func (a *admission) acquireKeyRef(key store.Key) *keySlot {
	a.mu.Lock()
	defer a.mu.Unlock()
	ks, ok := a.perKey[key]
	if !ok {
		ks = &keySlot{ch: make(chan struct{}, a.cfg.PerKey)}
		a.perKey[key] = ks
	}
	ks.refs++
	return ks
}

func (a *admission) releaseKeyRef(key store.Key) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ks, ok := a.perKey[key]; ok {
		ks.refs--
		if ks.refs <= 0 {
			delete(a.perKey, key)
		}
	}
}

// saturated reports overload for the tri-state health check: the
// global cap is fully held with requests still queued, or a shed
// happened within the last two seconds.
func (a *admission) saturated() bool {
	if a.slots != nil && len(a.slots) == cap(a.slots) && a.queued.Load() > 0 {
		return true
	}
	last := a.lastShed.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < 2*time.Second
}
