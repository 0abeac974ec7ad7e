package runtime

import "repro/internal/golc/obs"

// Park is a lock's contention policy, its wait strategy: whether a
// waiter past its grace spin claims sleep, and against what. It lives
// on the lock's Handle (SetPolicy), Wait reads it once per wait, and
// Runtime.SetPolicy flips every lock at once. golc names it
// ContentionPolicy.
type Park uint8

const (
	// ParkAdmitted, the zero value, claims sleep when the controller's
	// sleep target admits the claim: the paper's protocol (golc's
	// LoadControlled, "lc"). A keyed wait (Acquire.Key) is the
	// exception: it claims as under ParkAlways.
	ParkAdmitted Park = iota
	// ParkNever spins until the lock is acquired (golc's Spin, "spin").
	ParkNever
	// ParkAlways claims sleep on every park check, outside the target
	// and the S/W counters (golc's Block, "block"). The controller never
	// wakes such a sleeper; the lock's unlock wake, the safety timeout
	// or the Stop drain does. A keyed wait (Acquire.Key) claims this way
	// under ParkAdmitted too.
	ParkAlways
)

// parkNames are the policies' stable names, used by flags, lcserve's
// /policy endpoint and stats.
var parkNames = [...]string{ParkAdmitted: "lc", ParkNever: "spin", ParkAlways: "block"}

// NumParks is the number of policies: Park values run from 0 to
// NumParks-1.
const NumParks = len(parkNames)

// Name returns the policy's stable name.
func (p Park) Name() string { return parkNames[p] }

// Acquire is the lock's side of one blocked acquisition: closures over
// the lock's own atomic state, handed to Wait. Only Try and Free are
// mandatory.
type Acquire struct {
	// Try makes one acquire attempt (for the TATAS locks: a test then a
	// CAS) and reports whether the lock is now held.
	Try func() bool

	// Free reports whether the lock looks acquirable right now. Wait
	// consults it after claiming sleep and before sleeping: if the
	// holder released in between (and saw the claim), parking would
	// strand the unlock-side wake, so the claim is cancelled and the
	// waiter goes to take the free lock instead.
	Free func() bool

	// PrePark, when non-nil, is called just before the waiter sleeps,
	// and PostPark after the sleep returns. They exist for gates a
	// waiter must not hold while unconscious: the RWMutex writer drops
	// its writer-preference claim in PrePark and re-raises it in
	// PostPark. PrePark reports whether it released a gate another
	// waiter may have parked behind; Wait then makes the unlock-side
	// wake for it, which never picks the caller's own claim.
	PrePark  func() bool
	PostPark func()

	// Key, when nonzero, makes the wait a keyed wait: a wait for an
	// event that no running waiter or holder brings closer, such as the
	// wal's fsync, keyed by the LSN it waits for. Past the grace spin a
	// keyed wait claims sleep forced under lc as under block: it stays
	// outside S/W, the target never refuses it, and the controller never
	// wakes it. Only WakeThrough with a key at or past Key, the safety
	// timeout or the Stop drain ends its park. Under spin it never parks.
	Key uint64
}

// Wait is the runtime's one way to park. It runs one contended wait on
// h's lock until a.Try succeeds and has no other way out: physical
// waits are uncancellable by design. The caller has already failed one
// uncontended attempt.
//
// The loop is the paper's client protocol (§3.1.2). Poll a.Try every
// iteration of the spin cadence. Past the grace spin, once per park
// check, claim sleep as the policy says (forced for a keyed wait).
// Re-check a.Free after the claim and cancel if the lock went free (see
// NoteUnlock for why that cannot strand a waiter). Otherwise run
// a.PrePark, sleep until a controller wake, an unlock wake or the safety
// timeout, run a.PostPark, and go back to polling.
//
// Wait reads the lock's policy once, on entry: a wait already running
// when SetPolicy lands finishes under the old one, and the next wait
// runs the new one. It stamps the wait into the lock's wait histogram
// and, when blame-sampled (1 in BlameSampling of this lock's contended
// waits), into the blame matrix against the holder published when it
// began. It returns the waiter's blame site (0 unless sampled) for the
// new holder to publish. The site is the stack from one frame above
// Wait's caller: locks call Wait from a slow path one frame below
// their exported entry point (Lock → lockSlow → Wait), so the site
// starts there.
func (h *Handle) Wait(a Acquire) obs.SiteID {
	park := h.Policy()
	rec := h.rt.rec
	var start int64
	var waiter, holder obs.SiteID
	if rec.Enabled() {
		start = rec.Now()
		if rec.BlameSampled(h.waitSeq.Add(1)) {
			// The holder published right now built the convoy this
			// waiter is about to join.
			waiter = rec.CallerSite(2)
			holder = obs.SiteID(h.holderSite.Load())
		}
	}
	forced := park == ParkAlways || a.Key != 0
	h.spinning.Add(1)
	c := cadence{park: graceSpins}
	for !a.Try() {
		if !c.next() || park == ParkNever {
			continue
		}
		s := h.claim(forced, a.Key)
		if s == nil {
			continue
		}
		// Re-check after the claim: if the lock went free in between,
		// parking would strand the unlock-side wake.
		if a.Free() {
			h.rt.cancel(s)
			h.spinning.Add(1)
		} else {
			if a.PrePark != nil && a.PrePark() {
				h.noteRelease(s)
			}
			timedOut := h.rt.sleep(s)
			h.spinning.Add(1)
			if a.PostPark != nil {
				a.PostPark()
			}
			if timedOut && a.Free() {
				// The backstop found the lock free: a release missed
				// this waiter (or raced the timeout).
				h.timeoutWakesFree.Add(1)
			}
		}
		h.spins.Add(uint64(c.spins))
		c.spins = 0
	}
	h.spinning.Add(-1)
	h.spins.Add(uint64(c.spins))
	if start != 0 {
		d := rec.Now() - start
		h.wait.Observe(d)
		if waiter != 0 {
			rec.RecordBlame(waiter, holder, h.name, d)
		}
	}
	return waiter
}

// claim is Wait's sleep claim, for a sleeper keyed key: forced for
// ParkAlways and keyed waits, against the sleep target otherwise (the
// refusal is three atomic loads and the ClaimRefusals count). A claim
// leaves the lock's spinners — the waiter is committed to parking
// unless its re-check cancels — and both ends of it rejoin them. It
// returns nil when refused; a forced claim is refused only once the
// runtime is stopping.
func (h *Handle) claim(forced bool, key uint64) *sleeper {
	s := h.rt.trySleep(h, forced, key)
	if s == nil {
		return nil
	}
	h.spinning.Add(-1)
	h.blocks.Add(1)
	if rec := h.rt.rec; rec.Enabled() {
		// Stamp the claim so the eventual wake can record how long the
		// park lasted. t0 is owned by this goroutine until it sleeps.
		s.t0 = rec.Now()
		ev := obs.EvPark
		if forced {
			ev = obs.EvForcedClaim
		}
		rec.Event(ev, h.name, "", 0)
	}
	return s
}

// noteRelease is NoteUnlock for a waiter committed to parking on self:
// a claimant that releases a gate on its way to sleep (the RWMutex
// writer dropping its writer-preference claim) must wake a waiter that
// parked behind that gate, but never its own fresh claim, which a plain
// NoteUnlock would pick. The common path (no other sleeper) is one
// atomic load.
func (h *Handle) noteRelease(self *sleeper) {
	if h.sleepers.Load() <= 1 {
		return // only our own claim is parked
	}
	if h.spinning.Load() > 0 {
		return
	}
	h.wakeOne(self)
}
