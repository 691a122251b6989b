package coord

// Lease journal event names. Only lease state is journaled — the work
// itself is reconstructible: a restarted coordinator re-plans the
// campaign against the shared store, and every already-folded record
// resurfaces as a cache hit. The journal's job is to keep granted leases
// valid across the restart and fencing tokens monotonic.
const (
	evGrant     = "grant"      // a shard was leased; carries worker + lease token
	evExpire    = "expire"     // the lease timed out; the shard is pool-bound again
	evShardDone = "shard-done" // every evaluation of the shard is folded
	evFinish    = "finish"     // the campaign completed; its entries are dead
)

// leaseEvent is one line of the lease journal.
type leaseEvent struct {
	C      string // campaign ID (the job ID)
	Ev     string
	Shard  int    `json:",omitempty"`
	Worker string `json:",omitempty"`
	Lease  int    `json:",omitempty"`
}
