package oltp

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The TATP-style workload: the telecom benchmark's shape (a big
// read-mostly subscriber table plus a small, churning call-forwarding
// table) at this repo's scale. Two tables:
//
//	sub/<id>      subscriber profile (read by every transaction kind)
//	cf/<id>:<n>   call-forwarding slot n for subscriber id
//
// The mix is read-heavy with a write tail, like TATP's 80/16/4 split,
// and subscriber choice is skewed: a configurable fraction of accesses
// lands on a small hot set, so a few partitions (= kv shards) carry
// most of the logical and physical contention — the regime where the
// paper's lock-manager convoys form.

// TATPConfig sizes the workload.
type TATPConfig struct {
	// Subscribers is the subscriber population (default 4096).
	Subscribers int
	// CFSlots is the number of call-forwarding slots per subscriber
	// (default 4; slot 0 is pre-populated for even subscriber ids).
	CFSlots int
	// HotAccessFrac is the fraction of transactions aimed at the hot
	// set. Zero is honored — a uniform, unskewed workload — so the
	// skew can be measured against its absence; negative means the
	// standard skew (0.6).
	HotAccessFrac float64
	// HotSetFrac is the hot set's size as a fraction of the
	// population (<= 0 means the default 1/64; at least 1 subscriber).
	HotSetFrac float64
}

func (c TATPConfig) withDefaults() TATPConfig {
	if c.Subscribers <= 0 {
		c.Subscribers = 4096
	}
	if c.CFSlots <= 0 {
		c.CFSlots = 4
	}
	if c.HotAccessFrac < 0 {
		c.HotAccessFrac = 0.6
	}
	if c.HotSetFrac <= 0 {
		c.HotSetFrac = 1.0 / 64
	}
	return c
}

// TxnKind names the TATP-style transaction types.
type TxnKind int

const (
	GetSubscriberData    TxnKind = iota // read subscriber + one cf slot
	UpdateLocation                      // read-modify-write subscriber (S→X upgrade)
	UpdateSubscriberData                // write subscriber + write cf slot
	InsertCallForwarding                // read subscriber, insert cf slot
	DeleteCallForwarding                // read subscriber, delete cf slot
	numTxnKinds
)

func (k TxnKind) String() string {
	switch k {
	case GetSubscriberData:
		return "GetSubscriberData"
	case UpdateLocation:
		return "UpdateLocation"
	case UpdateSubscriberData:
		return "UpdateSubscriberData"
	case InsertCallForwarding:
		return "InsertCallForwarding"
	case DeleteCallForwarding:
		return "DeleteCallForwarding"
	default:
		return fmt.Sprintf("TxnKind(%d)", int(k))
	}
}

// TATP drives the workload against one DB. Safe for concurrent use;
// each worker supplies its own rand.Rand.
type TATP struct {
	db  *DB
	cfg TATPConfig
	hot int // hot set is subscriber ids [0, hot)
}

const (
	subTable = "sub"
	cfTable  = "cf"
)

// The row formats below run in every transaction, so they are built
// with strconv into a stack buffer and cost only the allocation of the
// string. The output is fmt's byte for byte (lcperf checks rows by
// their "sub=<id> " prefix); ids and versions are never negative.

// appendPadded appends n (≥ 0) in decimal, zero-padded to width: fmt's
// %0<width>d.
func appendPadded(b []byte, n, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(n), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// subKey is "%08d" of id.
func subKey(id int) string {
	var b [20]byte
	return string(appendPadded(b[:0], id, 8))
}

// cfKey is "%08d:%d" of id and slot.
func cfKey(id, slot int) string {
	var b [48]byte
	k := append(appendPadded(b[:0], id, 8), ':')
	return string(strconv.AppendInt(k, int64(slot), 10))
}

// profile is "sub=%d bit=%d hex=%x ver=%d" of id, id&1, id&0xff and
// version.
func profile(id, version int) string {
	var b [80]byte
	p := strconv.AppendInt(append(b[:0], "sub="...), int64(id), 10)
	p = strconv.AppendInt(append(p, " bit="...), int64(id&1), 10)
	p = strconv.AppendInt(append(p, " hex="...), int64(id&0xff), 16)
	p = strconv.AppendInt(append(p, " ver="...), int64(version), 10)
	return string(p)
}

// forwarding is a call-forwarding row's value: "fwd=+%09d" of version
// modulo 1e9.
func forwarding(version int) string {
	var b [24]byte
	return string(appendPadded(append(b[:0], "fwd=+"...), version%1_000_000_000, 9))
}

// NewTATP populates the store (directly, not transactionally — initial
// load needs no isolation) and returns the driver.
func NewTATP(db *DB, cfg TATPConfig) *TATP {
	c := cfg.withDefaults()
	w := &TATP{db: db, cfg: c, hot: max(1, int(float64(c.Subscribers)*c.HotSetFrac))}
	for id := 0; id < c.Subscribers; id++ {
		db.store.Put(storageKey(subTable, subKey(id)), profile(id, 0))
		if id%2 == 0 {
			db.store.Put(storageKey(cfTable, cfKey(id, 0)), "fwd=+000000000")
		}
	}
	return w
}

// Config returns the (defaulted) configuration in use.
func (w *TATP) Config() TATPConfig { return w.cfg }

// pickSubscriber applies the hot-set skew.
func (w *TATP) pickSubscriber(rng *rand.Rand) int {
	if rng.Float64() < w.cfg.HotAccessFrac {
		return rng.Intn(w.hot)
	}
	return rng.Intn(w.cfg.Subscribers)
}

// PickKind rolls the transaction mix: 80% reads, 14% updates, 6%
// insert/delete — TATP's read-heavy shape.
func (w *TATP) PickKind(rng *rand.Rand) TxnKind {
	switch x := rng.Intn(100); {
	case x < 80:
		return GetSubscriberData
	case x < 90:
		return UpdateLocation
	case x < 94:
		return UpdateSubscriberData
	case x < 97:
		return InsertCallForwarding
	default:
		return DeleteCallForwarding
	}
}

// Run executes one transaction of the given kind via DB.Run (so
// wait-die aborts are retried under the original timestamp). The
// returned error is terminal: retries exhausted or a real failure.
func (w *TATP) Run(kind TxnKind, rng *rand.Rand) error {
	id := w.pickSubscriber(rng)
	slot := rng.Intn(w.cfg.CFSlots)
	version := rng.Int()
	// The keys are formatted once, outside the closures: a retried
	// attempt reuses them, and UpdateLocation's read and write share one.
	sub := subKey(id)
	switch kind {
	case GetSubscriberData:
		cf := cfKey(id, slot)
		return w.db.Run(func(t *Txn) error {
			if _, ok, err := t.Read(subTable, sub); err != nil || !ok {
				if err != nil {
					return err
				}
				return fmt.Errorf("tatp: subscriber %d missing", id)
			}
			_, _, err := t.Read(cfTable, cf)
			return err
		})
	case UpdateLocation:
		// Read-modify-write on one record: the S→X upgrade path, the
		// classic wait-die collision when two sessions hit the same
		// hot subscriber.
		return w.db.Run(func(t *Txn) error {
			_, ok, err := t.Read(subTable, sub)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("tatp: subscriber %d missing", id)
			}
			return t.Write(subTable, sub, profile(id, version))
		})
	case UpdateSubscriberData:
		cf := cfKey(id, slot)
		return w.db.Run(func(t *Txn) error {
			if err := t.Write(subTable, sub, profile(id, version)); err != nil {
				return err
			}
			return t.Write(cfTable, cf, forwarding(version))
		})
	case InsertCallForwarding:
		cf := cfKey(id, slot)
		return w.db.Run(func(t *Txn) error {
			if _, ok, err := t.Read(subTable, sub); err != nil || !ok {
				if err != nil {
					return err
				}
				return fmt.Errorf("tatp: subscriber %d missing", id)
			}
			return t.Write(cfTable, cf, forwarding(version))
		})
	case DeleteCallForwarding:
		cf := cfKey(id, slot)
		return w.db.Run(func(t *Txn) error {
			if _, ok, err := t.Read(subTable, sub); err != nil || !ok {
				if err != nil {
					return err
				}
				return fmt.Errorf("tatp: subscriber %d missing", id)
			}
			return t.Delete(cfTable, cf)
		})
	default:
		return fmt.Errorf("tatp: unknown txn kind %v", kind)
	}
}
