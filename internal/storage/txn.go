package storage

import (
	"repro/internal/cpu"
)

// Txn is one transaction: logical two-phase locking, undo on abort,
// log-force on commit. A Txn is used by exactly one simulated thread.
type Txn struct {
	e    *Engine
	th   *cpu.Thread
	held []lockID
	undo []undoRec
	done bool
	nrec int
}

type undoRec struct {
	table   *Table
	key     uint64
	before  Row
	existed bool
}

// Begin starts a transaction on thread th.
func (e *Engine) Begin(th *cpu.Thread) *Txn {
	th.Compute(e.cfg.Costs.Begin)
	return &Txn{e: e, th: th}
}

// Thread returns the owning thread.
func (x *Txn) Thread() *cpu.Thread { return x.th }

// Lock takes a logical lock on (table, key). On ErrLockTimeout the
// caller must Abort.
func (x *Txn) Lock(table string, key uint64, mode LockMode) error {
	x.mustBeOpen()
	id := lockID{table: table, key: key}
	if err := x.e.lm.acquire(x, id, mode); err != nil {
		return err
	}
	x.held = append(x.held, id)
	return nil
}

// Read returns a copy of the row, taking a shared logical lock first.
func (x *Txn) Read(table string, key uint64) (Row, bool, error) {
	x.mustBeOpen()
	x.th.Compute(x.e.cfg.Costs.OpLogic)
	if err := x.Lock(table, key, Shared); err != nil {
		return nil, false, err
	}
	r, ok := x.e.Table(table).get(x.th, key)
	return r, ok, nil
}

// Update applies fn to the row under an exclusive logical lock, logging
// and recording undo. Reports whether the key existed.
func (x *Txn) Update(table string, key uint64, fn func(Row) Row) (bool, error) {
	x.mustBeOpen()
	x.th.Compute(x.e.cfg.Costs.OpLogic)
	if err := x.Lock(table, key, Exclusive); err != nil {
		return false, err
	}
	t := x.e.Table(table)
	old, ok := t.get(x.th, key)
	if !ok {
		return false, nil
	}
	newRow := fn(old.clone())
	before, existed := t.put(x.th, key, newRow)
	x.undo = append(x.undo, undoRec{t, key, before, existed})
	x.e.log.append(x.th)
	x.nrec++
	return true, nil
}

// Insert adds a new row under an exclusive logical lock. Reports false
// if the key already exists.
func (x *Txn) Insert(table string, key uint64, row Row) (bool, error) {
	x.mustBeOpen()
	x.th.Compute(x.e.cfg.Costs.OpLogic)
	if err := x.Lock(table, key, Exclusive); err != nil {
		return false, err
	}
	t := x.e.Table(table)
	if !t.insert(x.th, key, row) {
		return false, nil
	}
	x.undo = append(x.undo, undoRec{t, key, nil, false})
	x.e.log.append(x.th)
	x.nrec++
	return true, nil
}

// Delete removes a row under an exclusive logical lock. Reports whether
// the key existed.
func (x *Txn) Delete(table string, key uint64) (bool, error) {
	x.mustBeOpen()
	x.th.Compute(x.e.cfg.Costs.OpLogic)
	if err := x.Lock(table, key, Exclusive); err != nil {
		return false, err
	}
	t := x.e.Table(table)
	old, ok := t.del(x.th, key)
	if !ok {
		return false, nil
	}
	x.undo = append(x.undo, undoRec{t, key, old, true})
	x.e.log.append(x.th)
	x.nrec++
	return true, nil
}

// Commit forces the log (if the transaction wrote anything), then
// releases all logical locks.
func (x *Txn) Commit() {
	x.mustBeOpen()
	x.done = true
	x.th.Compute(x.e.cfg.Costs.Commit)
	if x.nrec > 0 {
		x.e.log.append(x.th) // commit record
		x.e.log.force(x.th)
	}
	x.e.lm.release(x)
	x.e.Commits++
}

// Abort rolls back all changes (newest first) and releases locks.
func (x *Txn) Abort() {
	x.mustBeOpen()
	x.done = true
	x.th.Compute(x.e.cfg.Costs.Commit)
	for i := len(x.undo) - 1; i >= 0; i-- {
		u := x.undo[i]
		u.table.restore(x.th, u.key, u.before, u.existed)
	}
	x.e.lm.release(x)
	x.e.Aborts++
}

func (x *Txn) mustBeOpen() {
	if x.done {
		panic("storage: use of finished transaction")
	}
}
