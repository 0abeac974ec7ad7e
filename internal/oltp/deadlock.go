package oltp

// mustDie is wait-die, the lock manager's deadlock avoidance on
// begin-timestamps: a requester younger (larger tid) than any
// conflicting holder or queued waiter aborts immediately; older
// requesters wait. Every wait edge therefore points old→young, so
// cycles can never form and no graph is kept. Called with the stripe
// latch held on the conflicted path, so it walks l directly and
// short-circuits rather than allocate.
func mustDie(req *Txn, l *dbLock, goal Mode) bool {
	for _, h := range l.holders {
		if h.txn != req && !compat[h.mode][goal] && req.tid > h.txn.tid {
			return true
		}
	}
	// Slot holders are holders too: the identity is what the age test
	// needs, and a slot carries it. Only a coarse goal gets past compat
	// to read t.tid, and the coarse request raised the gate before it
	// read the slots: t's holder, if it has released since, is blocked in
	// regrant on this latch, so its record is not yet recycled (see
	// intents).
	for t, m := range l.in.holders() {
		if t != req && !compat[m][goal] && req.tid > t.tid {
			return true
		}
	}
	for _, w := range l.waiters {
		if w.txn != req && !compat[w.mode][goal] && req.tid > w.txn.tid {
			return true
		}
	}
	return false
}
